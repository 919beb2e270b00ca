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
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .numeric import SeededRng, Sequence, decode_tensor, encode_tensor, read_file, write_file
from .objective import SubStoryPartition
from .skips import SkipMatrix, cluster_chains

__all__ = [
    "BMT1_MAGIC",
    "write_tensor",
    "read_tensor",
    "StoryRecord",
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
    """Write one tensor: magic, then the tensor record (numeric.encode_tensor)."""
    write_file(path, BMT1_MAGIC + encode_tensor(arr), "tensor file")


def read_tensor(path, story_id: str | None = None) -> np.ndarray:
    """Read a BMT1 tensor, widened to float64; NaN or infinite entries are a DataError."""
    raw = read_file(path, "tensor file", story_id=story_id)
    if raw[:4] != BMT1_MAGIC:
        raise DataError(f"bad magic {raw[:4]!r}, expected {BMT1_MAGIC!r}",
                        path=str(path), story_id=story_id)
    a, end = decode_tensor(raw, 4, path, story_id=story_id)
    if end != len(raw):
        raise DataError(f"tensor payload is {len(raw) - end + 4 * a.size} bytes, "
                        f"expected {4 * a.size}", path=str(path), story_id=story_id)
    return a


def _is_ints(v, length=None) -> bool:
    """A JSON list of integers (true and false do not count), of ``length`` if given."""
    return isinstance(v, list) and all(type(i) is int for i in v) and length in (None, len(v))


_STRING = (lambda v: isinstance(v, str), "a string")
_FLAG = (lambda v: isinstance(v, bool), "true or false")
_SKIP_FIELDS = {
    "story_id": _STRING,
    "clusters": (lambda v: isinstance(v, list) and all(_is_ints(c) and c for c in v),
                 "non-empty integer lists"),
    "skips": (lambda v: isinstance(v, list) and all(_is_ints(p, 2) for p in v), "integer pairs"),
    "converged": _FLAG,
    "planted": _FLAG,
}
_FILE_KEYS = ("feature_file", "embedding_file", "sentence_file")
_MANIFEST_FIELDS = {
    "story_id": _STRING,
    "n": (lambda v: type(v) is int and v >= 1, "a positive integer"),
    "split": (lambda v: v in ("train", "val", "test"), "train, val or test"),
    **dict.fromkeys(_FILE_KEYS, _STRING),
}


def _checked(line_no: int, obj: dict, fields: dict, **at) -> dict:
    """``obj`` if it passes ``fields``, (check, description) pairs by key; else a DataError."""
    missing = [k for k in fields if k not in obj]
    if missing:
        raise DataError(f"line {line_no}: missing keys {', '.join(missing)}", **at)
    for key, (ok, kind) in fields.items():
        if not ok(obj[key]):
            raise DataError(f"line {line_no}: {key} must be {kind}, got {json.dumps(obj[key])}",
                            **at)
    return obj


def _json_lines(path, what: str, fields: dict):
    """(line number, object) per non-blank line of a JSON-lines file.  An unreadable
    or non-UTF-8 file, invalid JSON, a line that is not an object, or one that
    fails ``fields`` is a DataError naming the file and line."""
    for line_no, line in enumerate(read_file(path, what, text=True).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"line {line_no}: invalid JSON ({e.msg})", path=str(path)) from None
        if not isinstance(obj, dict):
            raise DataError(f"line {line_no}: expected a JSON object, got {line.strip()[:40]}",
                            path=str(path))
        yield line_no, _checked(line_no, obj, fields, path=str(path))


@dataclass
class StoryRecord:
    """One story: photo stream, sentences and the (N, D) raw features that only
    skip detection reads; None for each kind a stage does not load."""

    story_id: str
    split: str
    story: Sequence | None
    sentences: Sequence | None
    raw_fc: np.ndarray | None = None

    @property
    def N(self) -> int:
        return len(self.raw_fc) if self.story is None else self.story.N


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
        return SubStoryPartition(groups=self.clusters)

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
    _check_coverage({rec.story_id: rec.N for rec in records}, skips_by_id)


def _check_coverage(lengths: dict[str, int], skips_by_id: dict[str, SkipRecord], path=None):
    """Every story of ``lengths``, {story_id: steps}, has a skip record of its
    length; else a DataError naming the story and ``path``, the skip file."""
    for sid, n in lengths.items():
        skip = skips_by_id.get(sid)
        if skip is None:
            raise DataError("no skip record for story", path=path, story_id=sid)
        if skip.n != n:
            raise DataError(f"skip record covers {skip.n} steps, the story has {n}",
                            path=path, story_id=sid)


def write_skips(path, records: list[SkipRecord]) -> None:
    write_file(path, "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n"
                             for r in records), "skip file")


def load_skips(path, lengths=None) -> dict[str, SkipRecord]:
    """The skip records of the stories in ``lengths``, ``{story_id: steps}``
    (every record when None), by story id.  Every line's JSON, story id and
    its uniqueness are checked first; the other keys, the partition and the
    chains only for the records returned, so a malformed record of a story
    the stage did not load is not an error; a story of ``lengths`` without a
    record of its length is."""
    lines: dict[str, tuple[int, dict]] = {}
    for line_no, d in _json_lines(path, "skip file", {}):
        if not isinstance(d.get("story_id"), str):   # raises the full check's error
            _checked(line_no, {"planted": False, **d}, _SKIP_FIELDS, path=str(path))
        if d["story_id"] in lines:
            raise DataError(f"line {line_no}: duplicate story_id {d['story_id']!r}",
                            path=str(path))
        lines[d["story_id"]] = line_no, d
    out: dict[str, SkipRecord] = {}
    for sid, (line_no, d) in lines.items():
        if lengths is not None and sid not in lengths:
            continue
        where = dict(path=str(path), story_id=sid)
        d = _checked(line_no, {"planted": False, **d}, _SKIP_FIELDS, **where)
        rec = SkipRecord(sid, d["clusters"], [tuple(p) for p in d["skips"]], d["converged"],
                         d["planted"])
        covered = sorted(i for c in rec.clusters for i in c)
        if covered != list(range(len(covered))):
            raise DataError(f"line {line_no}: clusters do not partition 0..{len(covered) - 1}",
                            **where)
        if sorted(rec.pairs) != sorted(cluster_chains(rec.clusters)):
            raise DataError(f"line {line_no}: skips are not the time-ordered chains of the "
                            "clusters", **where)
        out[sid] = rec
    _check_coverage(lengths or {}, out, str(path))
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
        if not self.noise_sigma >= 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not self.scene_separation > self.noise_sigma:
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

        records.append(StoryRecord(story_id, split, Sequence(story_id, xs),
                                   Sequence(story_id, vs), raw_fc))
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
    try:
        (out / "tensors").mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise DataError(f"cannot create corpus directory ({e.strerror})",
                        path=str(out / "tensors")) from None
    lines = []
    for rec in corpus.records:
        entry = {"story_id": rec.story_id, "n": rec.N, "split": rec.split}
        for key, kind, t in zip(_FILE_KEYS, ("feat", "emb", "sent"),
                                (rec.raw_fc, rec.story.rows, rec.sentences.rows)):
            entry[key] = f"tensors/{rec.story_id}.{kind}.bmt"
            write_tensor(out / entry[key], t)
        lines.append(json.dumps(entry, sort_keys=True) + "\n")
    manifest_path = out / "manifest.jsonl"
    write_file(manifest_path, "".join(lines), "manifest")
    write_skips(out / "planted_skips.jsonl", [corpus.skips[r.story_id] for r in corpus.records])
    return manifest_path


def load_manifest(path, splits: tuple[str, ...] | None = None, *,
                  kinds: tuple[str, ...] = _FILE_KEYS) -> list[StoryRecord]:
    """Load a manifest and the stories of ``splits``, a collection of split
    names (every story when None), in manifest order.

    Every line is checked, whatever its split: its JSON, keys, value types
    and the uniqueness of its story id.  Only the stories loaded have tensor
    files read, only those of ``kinds`` (manifest keys), each checked against
    the line's ``n``: a bad file of a split or kind left out is no error here.
    ``detect-skips`` reads every story's ``feature_file``, ``train`` the
    ``embedding_file`` and ``sentence_file`` of the ``train`` and ``val``
    stories, and ``eval`` those of its split."""
    # os.path joins, not a Path per tensor file (1.4 against 6.6 us a join); the
    # directory keeps pathlib's form, so a written corpus's messages are unchanged
    base = os.path.dirname(Path(path))
    records: list[StoryRecord] = []
    line_of: dict[str, int] = {}
    dims: dict[str, int] = {}
    for line_no, entry in _json_lines(path, "manifest", _MANIFEST_FIELDS):
        sid = entry["story_id"]
        if sid in line_of:
            raise DataError(f"line {line_no}: duplicate story_id {sid!r} "
                            f"(first on line {line_of[sid]})", path=str(path))
        line_of[sid] = line_no
        if splits is not None and entry["split"] not in splits:
            continue
        loaded = {}
        for key in kinds:
            tensor_path = os.path.join(base, entry[key])
            t = read_tensor(tensor_path, story_id=sid)
            where = dict(path=tensor_path, story_id=sid)
            if t.ndim != 2:
                raise DataError(f"{key} must be a 2-d tensor (steps, dim), got rank {t.ndim}",
                                **where)
            if len(t) != entry["n"]:
                raise DataError(f"{key} has {len(t)} steps, manifest declares {entry['n']}",
                                **where)
            if dims.setdefault(key, t.shape[1]) != t.shape[1]:
                raise DataError(f"{key} dim {t.shape[1]} differs from earlier stories' "
                                f"{dims[key]}", **where)
            loaded[key] = t
        raw_fc, x, v = map(loaded.get, _FILE_KEYS)
        records.append(StoryRecord(sid, entry["split"], x if x is None else Sequence(sid, x),
                                   v if v is None else Sequence(sid, v), raw_fc))
    return records
