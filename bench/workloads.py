"""The benchmark's workloads: one closed pipeline run each, at a stated size.

Every workload is a batch job over corpora generated from the workload seed.
A run builds ``corpora`` distinct corpora (sub-seeds of the workload seed),
runs the pipeline once on each, and then repeats the pipeline on them while
its time allows.  Quality metrics pool the distinct corpora's test ranks, so
one seed's result does not hinge on a 28- or 50-story test split.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import bmrnn.data


@dataclass(frozen=True)
class Workload:
    name: str
    synth_args: list[str] | None   # `bmrnn synth` flags; None = build_blog_corpus
    train_args: list[str]          # `bmrnn train` flags besides paths and seed
    epochs: int
    eval_reps: int                 # timed `eval --split test` invocations per iteration
    corpora: int
    blog_lengths: tuple[int, ...] = ()
    blog_stories_per_length: int = 0

    def train_flags(self) -> list[str]:
        # patience above the epoch count: early stopping never fires, so
        # every run trains exactly `epochs` epochs
        return self.train_args + ["--epochs", str(self.epochs),
                                  "--patience", str(self.epochs + 1)]


def build_blog_corpus(w: Workload, seed: int, out_dir: Path) -> None:
    """One corpus from several generate_synthetic draws, one per story
    length, with story ids made unique across draws."""
    records, skips = [], {}
    for i, length in enumerate(w.blog_lengths):
        scenes = 1 if length == 2 else 2 if length < 8 else 3 if length < 16 else 4
        corpus = bmrnn.data.generate_synthetic(bmrnn.data.SynthConfig(
            num_stories=w.blog_stories_per_length, story_len=length,
            num_scenes=scenes, embed_dim=32, scene_pool_size=12,
            seed=100 * seed + i,
        ))
        for rec in corpus.records:
            skip = corpus.skips[rec.story_id]
            sid = f"len{length:02d}_{rec.story_id}"
            rec.story_id = rec.story.story_id = rec.sentences.story_id = skip.story_id = sid
            records.append(rec)
            skips[sid] = skip
    bmrnn.data.write_corpus(
        bmrnn.data.SynthCorpus(records=records, skips=skips, config=None), out_dir)


def workloads(toy: bool = False) -> dict[str, Workload]:
    """The workloads; ``toy`` shrinks every size for the self-test."""
    if toy:
        small = ["--negatives", "5", "--hidden", "8"]
        return {
            "sind-short": Workload("sind-short", ["--stories", "24"], small, 1, 2, 1),
            "blog-long": Workload("blog-long", None, small, 1, 2, 1,
                                  blog_lengths=(2, 3, 6, 12), blog_stories_per_length=6),
        }
    return {
        # the CLI defaults: 300 stories of 5 photos, 127 negatives, hidden 16
        "sind-short": Workload("sind-short", [], [], 2, 8, 3),
        # 14 lengths x 12 stories = 168 stories, 112/28/28 split
        "blog-long": Workload(
            "blog-long", None, ["--negatives", "15", "--hidden", "32", "--lr", "0.005"],
            3, 16, 3,
            blog_lengths=(2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32, 36, 40),
            blog_stories_per_length=12),
    }
