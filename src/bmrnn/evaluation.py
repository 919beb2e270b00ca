"""Retrieval evaluation: rank candidate sentence sequences for each story.

Every story's merged hidden sequence is scored against the sentence sequences
of all the stories evaluated with it; the rank of the story's own sequence
(scores descending, ties broken by story id so reordering the stories changes
nothing) feeds Recall@K and the median rank.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass

import numpy as np

from .data import SkipRecord, StoryRecord, check_skip_records
from .errors import DataError
from .network import BMRNNParams, bmrnn_forward, story_groups
from .objective import CompatibilityConfig, SequenceStack, compatibility

__all__ = [
    "RetrievalReport",
    "rank_of_truth",
    "summarize_ranks",
    "evaluate",
    "merged_stack",
]

RECALL_KS = (1, 5, 10)


@dataclass
class RetrievalReport:
    recall_at: dict[int, float]          # K -> percentage of ranks <= K
    median_rank: float
    pool_size: int
    per_story_ranks: list[tuple[str, int]]

    def to_json_dict(self) -> dict:
        d = {f"recall_at_{k}": v for k, v in sorted(self.recall_at.items())}
        d["median_rank"] = self.median_rank
        d["pool_size"] = self.pool_size
        d["per_story_ranks"] = [[sid, rank] for sid, rank in self.per_story_ranks]
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def to_text_table(self) -> str:
        rows = [("metric", "value")]
        for k in sorted(self.recall_at):
            rows.append((f"Recall@{k}", f"{self.recall_at[k]:.2f}%"))
        rows.append(("median rank", f"{self.median_rank:g}"))
        rows.append(("pool size", str(self.pool_size)))
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def rank_of_truth(scores: dict[str, float], truth_id: str) -> int:
    """1-based rank of the ground truth under descending score, ties by id."""
    if truth_id not in scores:
        raise DataError("ground truth absent from candidate pool", story_id=truth_id)
    base = scores[truth_id]
    rank = 1
    for cand_id, s in scores.items():
        if cand_id == truth_id:
            continue
        if s > base or (s == base and cand_id < truth_id):
            rank += 1
    return rank


def summarize_ranks(per_story_ranks: list[tuple[str, int]], pool_size: int) -> RetrievalReport:
    """Recall@K percentages and the median rank (mean of middles when even)."""
    if not per_story_ranks:
        raise DataError("cannot summarize an empty rank list")
    ranks = [r for _, r in per_story_ranks]
    recall_at = {k: 100.0 * sum(r <= k for r in ranks) / len(ranks) for k in RECALL_KS}
    return RetrievalReport(
        recall_at=recall_at,
        median_rank=float(statistics.median(ranks)),
        pool_size=pool_size,
        per_story_ranks=list(per_story_ranks),
    )


def merged_stack(params: BMRNNParams, groups, like: SequenceStack) -> SequenceStack:
    """The merged outputs of ``network.story_groups``' groups as a stack
    shaped like ``like``, the story at input position i in row i: one
    forward per group, zero past each story's own steps."""
    out = SequenceStack(np.zeros_like(like.padded), like.lengths)
    for rows, group in groups:
        out.padded[rows, :group.N] = bmrnn_forward(params, group).merged
    return out


def evaluate(
    params: BMRNNParams,
    records: list[StoryRecord],
    skips_by_id: dict[str, SkipRecord],
    ccfg: CompatibilityConfig,
) -> RetrievalReport:
    """Score every story against the records' own sentence sequences and
    summarize retrieval quality."""
    if not records:
        raise DataError("no stories to evaluate")
    check_skip_records(records, skips_by_id)
    candidates = SequenceStack.of([rec.sentences for rec in records])
    ids = [rec.story_id for rec in records]
    groups = story_groups([rec.story for rec in records],
                          [skips_by_id[sid].matrix() for sid in ids])
    queries = merged_stack(params, groups, candidates)
    per_story_ranks: list[tuple[str, int]] = []
    for i, sid in enumerate(ids):
        partition = skips_by_id[sid].partition()
        scores = compatibility(queries.take([i]), candidates, partition, ccfg).tolist()
        per_story_ranks.append((sid, rank_of_truth(dict(zip(ids, scores)), sid)))
    return summarize_ranks(per_story_ranks, pool_size=len(records))
