"""Ranking rules, Recall@K / median-rank summaries, and end-to-end retrieval
evaluation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import objective_oracle
from bmrnn.data import StoryRecord, SynthConfig, generate_synthetic
from bmrnn.errors import DataError
from bmrnn.evaluation import evaluate, rank_of_truth, summarize_ranks
from bmrnn.network import StoryGroup, StoryStream, bmrnn_forward, init_bmrnn_params
from bmrnn.numeric import SeededRng
from bmrnn.objective import CompatibilityConfig, SentenceSequence


class TestRankOfTruth:
    def test_strict_ordering(self):
        scores = {"a": 0.1, "b": 0.9, "c": 0.5}
        assert rank_of_truth(scores, "b") == 1
        assert rank_of_truth(scores, "c") == 2
        assert rank_of_truth(scores, "a") == 3

    def test_ties_broken_by_candidate_id(self):
        scores = {"a": 1.0, "b": 1.0, "c": 0.5}
        assert rank_of_truth(scores, "a") == 1   # 'a' beats 'b' on id
        assert rank_of_truth(scores, "b") == 2
        assert rank_of_truth(scores, "c") == 3

    def test_truth_missing(self):
        with pytest.raises(DataError, match="absent"):
            rank_of_truth({"a": 1.0}, "z")


class TestSummarize:
    def test_fixture_ranks(self):
        # three stories ranked 1, 3, 11 in a pool of 11
        report = summarize_ranks([("s1", 1), ("s2", 3), ("s3", 11)], pool_size=11)
        assert round(report.recall_at[1], 2) == 33.33
        assert round(report.recall_at[5], 2) == 66.67
        assert round(report.recall_at[10], 2) == 66.67
        assert report.median_rank == 3.0
        assert report.pool_size == 11

    def test_even_count_median_is_mean_of_middles(self):
        report = summarize_ranks(
            [("a", 1), ("b", 2), ("c", 4), ("d", 10)], pool_size=10
        )
        assert report.median_rank == 3.0

    def test_monotone_recall(self):
        rng = np.random.default_rng(0)
        ranks = [(f"s{i}", int(r)) for i, r in enumerate(rng.integers(1, 30, 50))]
        report = summarize_ranks(ranks, pool_size=30)
        assert report.recall_at[1] <= report.recall_at[5] <= report.recall_at[10]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            summarize_ranks([], pool_size=3)

    def test_json_and_table(self):
        report = summarize_ranks([("s1", 1), ("s2", 3), ("s3", 11)], pool_size=11)
        d = report.to_json_dict()
        assert set(d) == {
            "recall_at_1",
            "recall_at_5",
            "recall_at_10",
            "median_rank",
            "pool_size",
            "per_story_ranks",
        }
        assert d["per_story_ranks"] == [["s1", 1], ["s2", 3], ["s3", 11]]
        table = report.to_text_table()
        assert "Recall@1" in table and "33.33%" in table
        assert "median rank" in table and "pool size" in table

    def test_perfect_scorer(self):
        ranks = [(f"s{i}", 1) for i in range(7)]
        report = summarize_ranks(ranks, pool_size=7)
        assert report.recall_at[1] == 100.0
        assert report.median_rank == 1.0


class TestRandomScorerBaseline:
    def test_median_rank_matches_uniform_expectation(self):
        # a scorer with no signal ranks the truth uniformly in 1..P, whose
        # median is (P+1)/2; Monte-Carlo estimate must land within 10%
        pool_size = 21
        rng = np.random.default_rng(42)
        ids = [f"c{i:02d}" for i in range(pool_size)]
        ranks = []
        for trial in range(1000):
            scores = dict(zip(ids, rng.normal(size=pool_size)))
            ranks.append((f"t{trial}", rank_of_truth(scores, ids[0])))
        report = summarize_ranks(ranks, pool_size=pool_size)
        expected = (pool_size + 1) / 2
        assert abs(report.median_rank - expected) <= 0.1 * expected


class TestEvaluate:
    def setup_eval(self, n=12, seed=6):
        corpus = generate_synthetic(SynthConfig(num_stories=n, seed=seed))
        params = init_bmrnn_params(16, 8, 16, SeededRng(seed))
        return corpus, params, CompatibilityConfig()

    def test_end_to_end_shape(self):
        corpus, params, ccfg = self.setup_eval()
        report = evaluate(params, corpus.records, corpus.skips, ccfg)
        assert report.pool_size == len(corpus.records)
        assert len(report.per_story_ranks) == len(corpus.records)
        assert all(1 <= r <= report.pool_size for _, r in report.per_story_ranks)

    def test_deterministic(self):
        corpus, params, ccfg = self.setup_eval()
        a = evaluate(params, corpus.records, corpus.skips, ccfg)
        b = evaluate(params, corpus.records, corpus.skips, ccfg)
        assert a == b

    def test_record_order_invariance(self):
        corpus, params, ccfg = self.setup_eval()
        a = evaluate(params, corpus.records, corpus.skips, ccfg)
        b = evaluate(params, corpus.records[::-1], corpus.skips, ccfg)
        assert dict(a.per_story_ranks) == dict(b.per_story_ranks)

    def test_missing_skip_record(self):
        corpus, params, ccfg = self.setup_eval()
        skips = dict(corpus.skips)
        del skips[corpus.records[0].story_id]
        with pytest.raises(DataError, match="skip record"):
            evaluate(params, corpus.records, skips, ccfg)

    def test_no_stories(self):
        corpus, params, ccfg = self.setup_eval()
        with pytest.raises(DataError):
            evaluate(params, [], corpus.skips, ccfg)


def mixed_length_corpus(lengths, seed):
    """Two stories of each length, with ids unique across the draws."""
    records, skips = [], {}
    for i, n in enumerate(lengths):
        corpus = generate_synthetic(SynthConfig(num_stories=2, story_len=n, embed_dim=4,
                                                num_scenes=1, scene_pool_size=2, seed=seed + i))
        for rec in corpus.records:
            skip = corpus.skips[rec.story_id]
            sid = f"{i}_{rec.story_id}"
            rec.story_id = rec.story.story_id = rec.sentences.story_id = skip.story_id = sid
            records.append(rec)
            skips[sid] = skip
    return records, skips


def duplicate_record(rec, skip, sid):
    """A copy of a story under another id: its steps, sentences and skip
    record."""
    story = StoryStream(sid, rec.story.x.copy(), rec.story.raw_fc)
    return (StoryRecord(sid, rec.split, story, SentenceSequence(sid, rec.sentences.v.copy())),
            dataclasses.replace(skip, story_id=sid))


def oracle_ranks(params, records, skips, ccfg):
    """evaluate's ranks, scoring each (query, candidate) pair on its own."""
    pool = [rec.sentences for rec in records]
    ranks = []
    for rec in records:
        skip = skips[rec.story_id]
        h_seq = bmrnn_forward(params, StoryGroup.of([rec.story], [skip.matrix()])).merged[0]
        scores = {c.story_id: objective_oracle.compatibility(h_seq, c, skip.partition(), ccfg)
                  for c in pool}
        ranks.append((rec.story_id, rank_of_truth(scores, rec.story_id)))
    return ranks


class TestEvaluateOracle:
    @settings(max_examples=40, deadline=None)
    @given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=4),
           seed=st.integers(0, 1000), alpha=st.floats(0.0, 1.0),
           mode=st.sampled_from(["aligned", "all-pairs"]), dups=st.integers(0, 3))
    def test_ranks_equal_per_pair_oracle(self, lengths, seed, alpha, mode, dups):
        records, skips = mixed_length_corpus(lengths, seed)
        params = init_bmrnn_params(4, 3, 4, SeededRng(seed))
        ccfg = CompatibilityConfig(alpha=alpha, local_term_mode=mode)
        # copied stories tie with the originals exactly, on both sides; their
        # ids sort before ("!...") or after ("~...") every original's
        for k, src in zip(range(dups), records * dups):
            dup, skip = duplicate_record(src, skips[src.story_id], f"{'!~'[k % 2]}dup{k}")
            records.append(dup)
            skips[dup.story_id] = skip
        report = evaluate(params, records, skips, ccfg)
        assert report.per_story_ranks == oracle_ranks(params, records, skips, ccfg)
