"""A corpus whose stories differ in length, for the tests of how
``detect-skips``, training and evaluation group stories."""

from bmrnn.data import SynthConfig, SynthCorpus, generate_synthetic, write_corpus


def mixed_corpus(lengths, per_length) -> SynthCorpus:
    """``per_length`` one-scene synthetic stories of each length, the lengths
    taking turns in the record order."""
    groups, skips = [], {}
    for length in lengths:
        corpus = generate_synthetic(SynthConfig(num_stories=per_length, story_len=length,
                                                num_scenes=1, seed=length))
        for rec in corpus.records:
            skip = corpus.skips[rec.story_id]
            sid = f"len{length}_{rec.story_id}"
            rec.story_id = rec.story.story_id = rec.sentences.story_id = skip.story_id = sid
            skips[sid] = skip
        groups.append(corpus.records)
    records = [rec for turn in zip(*groups) for rec in turn]
    return SynthCorpus(records=records, skips=skips, config=None)


def write_mixed_corpus(out, lengths, per_length):
    """Write ``mixed_corpus(lengths, per_length)`` and return the manifest's path."""
    return write_corpus(mixed_corpus(lengths, per_length), out)
