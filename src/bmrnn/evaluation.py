"""Retrieval evaluation: rank candidate sentence sequences for each story.

Every test story's merged hidden sequence is scored against a shared pool of
candidate sentence sequences; the rank of the story's own sequence (scores
descending, ties broken by candidate id so reordering the pool changes
nothing) feeds Recall@K and the median rank.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass

from .data import SkipRecord, StoryRecord, check_skip_records
from .errors import DataError
from .network import BMRNNParams, bmrnn_forward
from .objective import CompatibilityConfig, SentenceSequence, compatibility

__all__ = [
    "RetrievalReport",
    "rank_of_truth",
    "summarize_ranks",
    "evaluate",
]


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


def summarize_ranks(
    per_story_ranks: list[tuple[str, int]], pool_size: int, ks=(1, 5, 10)
) -> RetrievalReport:
    """Recall@K percentages and the median rank (mean of middles when even)."""
    if not per_story_ranks:
        raise DataError("cannot summarize an empty rank list")
    ranks = [r for _, r in per_story_ranks]
    recall_at = {k: 100.0 * sum(r <= k for r in ranks) / len(ranks) for k in ks}
    return RetrievalReport(
        recall_at=recall_at,
        median_rank=float(statistics.median(ranks)),
        pool_size=pool_size,
        per_story_ranks=list(per_story_ranks),
    )


def evaluate(
    params: BMRNNParams,
    records: list[StoryRecord],
    skips_by_id: dict[str, SkipRecord],
    ccfg: CompatibilityConfig,
    pool: list[SentenceSequence] | None = None,
    ks=(1, 5, 10),
) -> RetrievalReport:
    """Score every story against the pool (default: the records' own
    sentence sequences) and summarize retrieval quality."""
    if not records:
        raise DataError("no stories to evaluate")
    if pool is None:
        pool = [rec.sentences for rec in records]
    check_skip_records(records, skips_by_id)
    per_story_ranks: list[tuple[str, int]] = []
    for rec in records:
        skip = skips_by_id[rec.story_id]
        h_seq = bmrnn_forward(params, rec.story, skip.matrix()).merged
        partition = skip.partition()
        scores = {
            cand.story_id: compatibility(h_seq, cand, partition, ccfg) for cand in pool
        }
        per_story_ranks.append((rec.story_id, rank_of_truth(scores, rec.story_id)))
    return summarize_ranks(per_story_ranks, pool_size=len(pool), ks=ks)
