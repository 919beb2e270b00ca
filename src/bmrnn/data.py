"""Dataset ingestion, binary tensor files, and the synthetic story generator.

On-disk layout: a JSON-lines manifest names each story's three tensor files
(raw features for skip detection, photo embeddings for the network, sentence
embeddings for scoring) and its split.  Tensors use a small binary format —
magic "BMT1", u32 rank, u32 dims, little-endian float32 row-major payload —
and are widened to float64 in memory.  Skip structures (detected or planted)
travel as JSON-lines too.

The synthetic generator plants the structure the model is supposed to
exploit: each story interleaves a few scenes, every scene's occurrences are
chained into skip pairs, and the photo embedding at a cross-skip descendant
is occluded (a shared "gap" vector instead of the scene), so its sentence is
predictable only from the skip-ancestor's state.  The raw features stay
clean — skip detection must still recover the chains.  Scene centers come
from a corpus-level pool so that different stories share scenes and
retrieval cannot shortcut on visible steps alone.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .network import StoryStream
from .numeric import SeededRng
from .objective import SentenceSequence, SubStoryPartition
from .skips import SkipMatrix, cluster_chains

__all__ = [
    "BMT1_MAGIC",
    "write_tensor",
    "read_tensor",
    "StoryRecord",
    "Dataset",
    "SkipRecord",
    "check_skip_records",
    "write_skips",
    "load_skips",
    "SynthConfig",
    "generate_synthetic",
    "write_corpus",
    "load_manifest",
]

BMT1_MAGIC = b"BMT1"


def write_tensor(path, arr: np.ndarray) -> None:
    """Write one tensor: magic, u32 rank, u32 dims, float32 LE row-major."""
    a = np.asarray(arr)
    with open(path, "wb") as f:
        f.write(BMT1_MAGIC)
        f.write(struct.pack("<I", a.ndim))
        f.write(struct.pack(f"<{a.ndim}I", *a.shape))
        f.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def read_tensor(path, story_id: str | None = None) -> np.ndarray:
    """Read a BMT1 tensor, widened to float64; NaN or infinite entries are a DataError."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise DataError("tensor file not found", path=str(path), story_id=story_id) from None
    if len(raw) < 8 or raw[:4] != BMT1_MAGIC:
        raise DataError(
            f"bad magic {raw[:4]!r}, expected {BMT1_MAGIC!r}", path=str(path), story_id=story_id
        )
    (rank,) = struct.unpack_from("<I", raw, 4)
    header_end = 8 + 4 * rank
    if rank > 8:
        raise DataError(f"implausible tensor rank {rank}", path=str(path), story_id=story_id)
    if len(raw) < header_end:
        raise DataError("truncated tensor header", path=str(path), story_id=story_id)
    dims = struct.unpack_from(f"<{rank}I", raw, 8)
    n_items = int(np.prod(dims)) if rank else 1
    if len(raw) != header_end + 4 * n_items:
        raise DataError(
            f"payload is {len(raw) - header_end} bytes, expected {4 * n_items}",
            path=str(path), story_id=story_id,
        )
    data = np.frombuffer(raw, dtype="<f4", offset=header_end)
    if not np.all(np.isfinite(data)):
        raise DataError("tensor holds non-finite values", path=str(path), story_id=story_id)
    return data.astype(np.float64).reshape(dims)


@dataclass
class StoryRecord:
    """One story: photo stream (with raw features) plus its sentences."""

    story_id: str
    split: str
    story: StoryStream
    sentences: SentenceSequence

    @property
    def N(self) -> int:
        return self.story.N


@dataclass
class Dataset:
    records: list[StoryRecord]

    def __post_init__(self):
        self.by_id = {r.story_id: r for r in self.records}
        if len(self.by_id) != len(self.records):
            seen = set()
            for r in self.records:
                if r.story_id in seen:
                    raise DataError(f"duplicate story_id {r.story_id!r}")
                seen.add(r.story_id)

    def split(self, name: str) -> list[StoryRecord]:
        return [r for r in self.records if r.split == name]

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class SkipRecord:
    """Clusters and skip pairs of one story, as detected or as planted."""

    story_id: str
    clusters: list[list[int]]
    pairs: list[tuple[int, int]]
    converged: bool
    planted: bool = False

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.clusters)

    def matrix(self) -> SkipMatrix:
        return SkipMatrix(n=self.n, pairs=tuple(self.pairs))

    def partition(self) -> SubStoryPartition:
        return SubStoryPartition.from_clusters(self.clusters)

    def to_json_dict(self) -> dict:
        d = {
            "story_id": self.story_id,
            "clusters": [list(map(int, c)) for c in self.clusters],
            "skips": [[int(p), int(t)] for p, t in self.pairs],
            "converged": bool(self.converged),
        }
        if self.planted:
            d["planted"] = True
        return d


def check_skip_records(records: list[StoryRecord], skips_by_id: dict[str, SkipRecord]) -> None:
    """Every story has a skip record, and the record covers the story's steps."""
    for rec in records:
        skip = skips_by_id.get(rec.story_id)
        if skip is None:
            raise DataError("no skip record for story", story_id=rec.story_id)
        if skip.n != rec.N:
            raise DataError(
                f"skip record covers {skip.n} steps, the story has {rec.N}",
                story_id=rec.story_id,
            )


def write_skips(path, records: list[SkipRecord]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps(r.to_json_dict(), sort_keys=True) + "\n")


def load_skips(path) -> dict[str, SkipRecord]:
    path = Path(path)
    if not path.exists():
        raise DataError("skip file not found", path=str(path))
    out: dict[str, SkipRecord] = {}
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"line {line_no}: invalid JSON ({e.msg})", path=str(path)) from None
        try:
            rec = SkipRecord(
                story_id=d["story_id"],
                clusters=[list(map(int, c)) for c in d["clusters"]],
                pairs=[(int(p), int(t)) for p, t in d["skips"]],
                converged=bool(d["converged"]),
                planted=bool(d.get("planted", False)),
            )
        except KeyError as e:
            raise DataError(f"line {line_no}: missing key {e}", path=str(path)) from None
        covered = sorted(i for c in rec.clusters for i in c)
        if covered != list(range(len(covered))):
            raise DataError(
                f"line {line_no}: clusters do not partition 0..{len(covered) - 1}",
                path=str(path), story_id=rec.story_id,
            )
        if sorted(rec.pairs) != sorted(cluster_chains(rec.clusters)):
            raise DataError(
                f"line {line_no}: skips are not the time-ordered chains of the clusters",
                path=str(path), story_id=rec.story_id,
            )
        if rec.story_id in out:
            raise DataError(f"duplicate story_id {rec.story_id!r}", path=str(path))
        out[rec.story_id] = rec
    return out


# ---------------------------------------------------------------------------
# synthetic cross-skipping corpus
# ---------------------------------------------------------------------------


@dataclass
class SynthConfig:
    num_stories: int = 300          # split 4:1:1 into train/val/test
    story_len: int = 5
    num_scenes: int = 2
    embed_dim: int = 16
    scene_separation: float = 4.0
    noise_sigma: float = 0.3
    seed: int = 0
    scene_pool_size: int = 6        # corpus-level pool stories draw scenes from

    def __post_init__(self):
        if self.num_stories < 1:
            raise ConfigError(f"num_stories must be >= 1, got {self.num_stories}")
        if self.story_len < 1:
            raise ConfigError(f"story_len must be >= 1, got {self.story_len}")
        if not (1 <= self.num_scenes <= self.story_len):
            raise ConfigError(
                f"num_scenes must be in [1, story_len={self.story_len}], got {self.num_scenes}"
            )
        if self.scene_separation <= self.noise_sigma:
            raise ConfigError(
                f"scene_separation ({self.scene_separation}) must exceed "
                f"noise_sigma ({self.noise_sigma})"
            )
        if self.scene_pool_size < self.num_scenes:
            raise ConfigError(
                f"scene_pool_size ({self.scene_pool_size}) must be >= "
                f"num_scenes ({self.num_scenes})"
            )


@dataclass
class SynthCorpus:
    records: list[StoryRecord]
    skips: dict[str, SkipRecord]
    config: SynthConfig


def _draw_scene_pool(cfg: SynthConfig, rng: SeededRng) -> np.ndarray:
    """Pool of mutually orthogonal centers of norm scene_separation.

    Orthogonality makes pairwise distances sqrt(2) * scene_separation and
    keeps cross-scene inner products near zero, so the inner-product
    similarity used by skip detection separates scenes cleanly.
    """
    if cfg.scene_pool_size > cfg.embed_dim:
        raise DataError(
            f"cannot place {cfg.scene_pool_size} mutually separated scene centers "
            f"in {cfg.embed_dim} dimensions; increase embed_dim"
        )
    raw = rng.normal(shape=(cfg.embed_dim, cfg.scene_pool_size))
    q, _ = np.linalg.qr(raw)
    return q.T * cfg.scene_separation


def _assign_scenes(cfg: SynthConfig, rng: SeededRng) -> list[int]:
    """Random interleaving covering all scenes; if a recurrence is possible
    at all, at least one scene recurs non-contiguously (cross-skip).

    When the length budget allows (2 * num_scenes <= story_len), every scene
    occurs at least twice: singleton scenes carry no skip structure and are
    needlessly hard for exemplar-based clustering to keep separate.
    """
    k, n = cfg.num_scenes, cfg.story_len
    if k == 1:
        return [0] * n
    if k == n:
        return list(rng.permutation(n))
    min_occ = 2 if 2 * k <= n else 1
    for _ in range(1000):
        labels = list(range(k)) * min_occ + [
            int(rng.integers(0, k)) for _ in range(n - k * min_occ)
        ]
        labels = [labels[i] for i in rng.permutation(n)]
        occurrences: dict[int, list[int]] = {}
        for t, s in enumerate(labels):
            occurrences.setdefault(s, []).append(t)
        if any(
            b - a >= 2 for occ in occurrences.values() for a, b in zip(occ, occ[1:])
        ):
            return labels
    raise DataError("failed to draw a cross-skipping scene interleaving")


def generate_synthetic(cfg: SynthConfig) -> SynthCorpus:
    """Build the full corpus: stories, sentences, and planted skip records."""
    rng = SeededRng(cfg.seed)
    pool = _draw_scene_pool(cfg, rng)
    gap_vec = rng.normal(shape=cfg.embed_dim) * cfg.scene_separation * 0.75
    # fixed linear map from (scene center, timestep one-hot) to sentence space
    sentence_map = rng.normal(shape=(cfg.embed_dim, cfg.embed_dim + cfg.story_len)) / np.sqrt(
        cfg.embed_dim + cfg.story_len
    )

    n_train = (cfg.num_stories * 4) // 6
    n_val = (cfg.num_stories - n_train) // 2

    records: list[StoryRecord] = []
    skips: dict[str, SkipRecord] = {}
    for idx in range(cfg.num_stories):
        story_id = f"story_{idx:05d}"
        split = "train" if idx < n_train else ("val" if idx < n_train + n_val else "test")

        scene_ids = [int(i) for i in rng.choice_without_replacement(cfg.scene_pool_size, cfg.num_scenes)]
        labels = _assign_scenes(cfg, rng)
        centers = [pool[scene_ids[s]] for s in labels]

        clusters_map: dict[int, list[int]] = {}
        for t, s in enumerate(labels):
            clusters_map.setdefault(s, []).append(t)
        clusters = [sorted(v) for _, v in sorted(clusters_map.items())]
        pairs = cluster_chains(clusters)
        # cross-skip descendants have their scene occluded in the embedding
        occluded = {t for p, t in pairs if t - p >= 2}

        raw_fc, xs, vs = (np.empty((cfg.story_len, cfg.embed_dim)) for _ in range(3))
        for t in range(cfg.story_len):
            raw_fc[t] = centers[t] + rng.normal(shape=cfg.embed_dim) * cfg.noise_sigma
            base = gap_vec if t in occluded else centers[t]
            xs[t] = base + rng.normal(shape=cfg.embed_dim) * cfg.noise_sigma
            pos = np.zeros(cfg.story_len)
            pos[t] = 1.0
            vs[t] = (
                sentence_map @ np.concatenate([centers[t], pos])
                + rng.normal(shape=cfg.embed_dim) * cfg.noise_sigma
            )

        records.append(
            StoryRecord(
                story_id=story_id,
                split=split,
                story=StoryStream(story_id=story_id, x=xs, raw_fc=raw_fc),
                sentences=SentenceSequence(story_id=story_id, v=vs),
            )
        )
        skips[story_id] = SkipRecord(
            story_id=story_id,
            clusters=sorted(clusters),
            pairs=sorted(pairs),
            converged=True,
            planted=True,
        )
    return SynthCorpus(records=records, skips=skips, config=cfg)


# ---------------------------------------------------------------------------
# corpus <-> disk
# ---------------------------------------------------------------------------


def write_corpus(corpus: SynthCorpus, out_dir) -> Path:
    """Write manifest, tensor files, and planted skips; returns manifest path."""
    out = Path(out_dir)
    (out / "tensors").mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.jsonl"
    with open(manifest_path, "w", encoding="utf-8") as f:
        for rec in corpus.records:
            sid = rec.story_id
            names = {
                "feature_file": f"tensors/{sid}.feat.bmt",
                "embedding_file": f"tensors/{sid}.emb.bmt",
                "sentence_file": f"tensors/{sid}.sent.bmt",
            }
            write_tensor(out / names["feature_file"], rec.story.raw_fc)
            write_tensor(out / names["embedding_file"], rec.story.x)
            write_tensor(out / names["sentence_file"], rec.sentences.v)
            f.write(
                json.dumps(
                    {"story_id": sid, "n": rec.N, "split": rec.split, **names},
                    sort_keys=True,
                )
                + "\n"
            )
    write_skips(out / "planted_skips.jsonl", [corpus.skips[r.story_id] for r in corpus.records])
    return manifest_path


_REQUIRED_MANIFEST_KEYS = ("story_id", "n", "split", "feature_file", "embedding_file", "sentence_file")


def load_manifest(path) -> Dataset:
    """Load a manifest and every story it references."""
    path = Path(path)
    if not path.exists():
        raise DataError("manifest not found", path=str(path))
    base = path.parent
    records: list[StoryRecord] = []
    dims: dict[str, tuple] = {}
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"line {line_no}: invalid JSON ({e.msg})", path=str(path)) from None
        missing = [k for k in _REQUIRED_MANIFEST_KEYS if k not in entry]
        if missing:
            raise DataError(
                f"line {line_no}: missing keys {', '.join(missing)}", path=str(path)
            )
        sid = entry["story_id"]
        if entry["split"] not in ("train", "val", "test"):
            raise DataError(f"unknown split {entry['split']!r}", path=str(path), story_id=sid)
        loaded = {}
        for key in ("feature_file", "embedding_file", "sentence_file"):
            t = read_tensor(base / entry[key], story_id=sid)
            if t.ndim != 2:
                raise DataError(
                    f"{key} must be a 2-d tensor (steps, dim), got rank {t.ndim}",
                    path=str(base / entry[key]), story_id=sid,
                )
            if t.shape[0] != entry["n"]:
                raise DataError(
                    f"{key} has {t.shape[0]} steps, manifest declares {entry['n']}",
                    path=str(base / entry[key]), story_id=sid,
                )
            prev = dims.get(key)
            if prev is not None and prev != t.shape[1]:
                raise DataError(
                    f"{key} dim {t.shape[1]} differs from earlier stories' {prev}",
                    path=str(base / entry[key]), story_id=sid,
                )
            dims[key] = t.shape[1]
            loaded[key] = t
        records.append(
            StoryRecord(
                story_id=sid,
                split=entry["split"],
                story=StoryStream(
                    story_id=sid, x=loaded["embedding_file"], raw_fc=loaded["feature_file"]
                ),
                sentences=SentenceSequence(story_id=sid, v=loaded["sentence_file"]),
            )
        )
    return Dataset(records=records)
