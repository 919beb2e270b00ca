"""Minibatch training, optimizers, checkpointing, and the gradient checker.

The loop minimizes the two-sided margin loss with Adam (default) or SGD with
momentum, clipping the global gradient norm first.  Stream-side negatives H'
are recomputed once per epoch and held constant within it, matching the
loss's gradient semantics.  Runs are bit-reproducible for a fixed seed in
single-threaded mode; the per-epoch JSON-lines log records mean loss and
validation retrieval quality, and early stopping watches validation
Recall@1.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import SkipRecord, StoryRecord, check_skip_records
from .errors import ConfigError, DataError, DivergenceError
from .evaluation import evaluate
from .network import (
    FLOAT32_MAX,
    BMRNNParams,
    StoryStream,
    bmrnn_backward,
    bmrnn_forward,
    init_bmrnn_params,
    load_model,
    save_model,
)
from .numeric import SeededRng
from .objective import (
    CompatibilityConfig,
    SentenceSequence,
    SubStoryPartition,
    contrastive_loss,
    sample_negatives,
)
from .skips import SkipMatrix, cluster_chains

__all__ = [
    "TrainConfig",
    "Checkpoint",
    "OptimizerState",
    "init_optimizer_state",
    "clip_gradients",
    "update_step",
    "story_loss_and_grads",
    "train",
    "GradCheckReport",
    "grad_check",
    "save_checkpoint",
    "load_checkpoint",
]

_OPTIMIZERS = ("adam", "sgd-momentum")


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 8
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    momentum: float = 0.9
    grad_clip_norm: float = 5.0
    seed: int = 0
    checkpoint_every: int = 0          # 0 = only the final/best checkpoint
    early_stop_patience: int = 10
    update_merge_bias: bool = True     # False freezes b_merge at exactly 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        # learning_rate 0 is allowed and means "never move" (useful as a
        # no-op baseline); negative rates are rejected
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.optimizer not in _OPTIMIZERS:
            raise ConfigError(
                f"optimizer must be one of {_OPTIMIZERS}, got {self.optimizer!r}"
            )
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.eps <= 0:
            raise ConfigError(f"adam eps must be positive, got {self.eps}")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.grad_clip_norm <= 0:
            raise ConfigError(f"grad_clip_norm must be positive, got {self.grad_clip_norm}")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")
        if self.early_stop_patience < 1:
            raise ConfigError("early_stop_patience must be >= 1")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class Checkpoint:
    params: BMRNNParams
    epoch: int
    best_val_recall1: float | None
    config: dict
    history: list[dict] = field(default_factory=list)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Model file plus a sidecar JSON snapshot at <path>.json."""
    save_model(path, ckpt.params)
    sidecar = {
        "epoch": ckpt.epoch,
        "best_val_recall1": ckpt.best_val_recall1,
        "config": ckpt.config,
    }
    Path(str(path) + ".json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def load_checkpoint(path) -> Checkpoint:
    params = load_model(path)
    sidecar_path = Path(str(path) + ".json")
    if not sidecar_path.exists():
        raise DataError("checkpoint sidecar not found", path=str(sidecar_path))
    sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    return Checkpoint(
        params=params,
        epoch=sidecar["epoch"],
        best_val_recall1=sidecar["best_val_recall1"],
        config=sidecar["config"],
    )


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    kind: str
    step: int
    m: np.ndarray                   # first moment (adam) / velocity (sgd), like params.flat
    v: np.ndarray | None = None     # second moment (adam only)


def init_optimizer_state(params: BMRNNParams, cfg: TrainConfig) -> OptimizerState:
    return OptimizerState(
        kind=cfg.optimizer,
        step=0,
        m=np.zeros_like(params.flat),
        v=np.zeros_like(params.flat) if cfg.optimizer == "adam" else None,
    )


def global_grad_norm(grads: BMRNNParams) -> float:
    # one partial sum per tensor: np.sum over the whole buffer would add in
    # another order and change the low bits of the norm
    return float(np.sqrt(sum(float(np.sum(g * g)) for _, g in grads.named_tensors())))


def clip_gradients(grads: BMRNNParams, max_norm: float) -> float:
    """Scale all gradients in place so the global norm is at most max_norm.

    The scaling is a single positive factor, so direction is preserved.
    Returns the pre-clip norm.
    """
    norm = global_grad_norm(grads)
    if norm > max_norm:
        grads.flat *= max_norm / norm
    return norm


def update_step(
    params: BMRNNParams, grads: BMRNNParams, state: OptimizerState, cfg: TrainConfig
) -> None:
    """One optimizer step, in place: clip globally, then Adam or SGD+momentum."""
    clip_gradients(grads, cfg.grad_clip_norm)
    if not cfg.update_merge_bias:
        grads.b_merge[:] = 0.0
    state.step += 1
    p, g, m, v = params.flat, grads.flat, state.m, state.v
    if state.kind == "adam":
        bc1 = 1.0 - cfg.beta1**state.step
        bc2 = 1.0 - cfg.beta2**state.step
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        p -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
    else:
        m *= cfg.momentum
        m += g
        p -= cfg.learning_rate * m


# ---------------------------------------------------------------------------
# loss/gradient plumbing shared by the loop and the gradient checker
# ---------------------------------------------------------------------------


def story_loss_and_grads(
    params: BMRNNParams,
    story: StoryStream,
    sentences: SentenceSequence,
    skip_matrix: SkipMatrix,
    partition: SubStoryPartition,
    neg_V: list[SentenceSequence],
    neg_H: list[np.ndarray],
    ccfg: CompatibilityConfig,
    *,
    epoch: int = 0,
    step: int = 0,
):
    """Forward, loss, and parameter/input gradients for one training story.

    Divergence is detected on the merged hidden states, not just the loss:
    NaN scores make every hinge comparison false, which would silently
    produce a clean-looking zero loss.
    """
    trace = bmrnn_forward(params, story, skip_matrix)
    if not np.all(np.isfinite(trace.merged)):
        raise DivergenceError(story.story_id, epoch, step)
    result = contrastive_loss(trace.merged, sentences, neg_V, neg_H, partition, ccfg)
    if not np.isfinite(result.loss):
        raise DivergenceError(story.story_id, epoch, step)
    grads, d_inputs = bmrnn_backward(params, story, skip_matrix, trace, result.dH)
    return result, grads, d_inputs


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def _check_float32(params: BMRNNParams, story_id: str, epoch: int, step: int) -> None:
    """Parameters a float32 model file cannot hold are a divergence, even
    while the saturated network still gives finite losses."""
    if not np.all(np.abs(params.flat) <= FLOAT32_MAX):   # NaN fails too
        raise DivergenceError(story_id, epoch, step, what="parameters beyond float32 range")


def train(
    train_records: list[StoryRecord],
    val_records: list[StoryRecord],
    skips_by_id: dict[str, SkipRecord],
    cfg: TrainConfig,
    ccfg: CompatibilityConfig,
    params: BMRNNParams | None = None,
    hidden_dim: int = 16,
    log_path=None,
    checkpoint_dir=None,
) -> Checkpoint:
    """Run the optimization loop and return the best checkpoint by
    validation Recall@1 (the final one if no validation set is given)."""
    if not train_records:
        raise DataError("training set is empty")
    check_skip_records(train_records + val_records, skips_by_id)

    input_dim = train_records[0].story.x.shape[1]
    output_dim = train_records[0].sentences.v.shape[1]
    rng = SeededRng(cfg.seed)
    if params is None:
        params = init_bmrnn_params(input_dim, hidden_dim, output_dim, rng.spawn(0))
    order_rng = rng.spawn(1)
    neg_rng = rng.spawn(2)

    by_id = {rec.story_id: rec for rec in train_records}
    structures = {
        sid: (skips_by_id[sid].matrix(), skips_by_id[sid].partition()) for sid in by_id
    }

    state = init_optimizer_state(params, cfg)
    log_file = open(log_path, "w", encoding="utf-8") if log_path else None
    best_params = params.copy()
    best_epoch = 0
    best_recall1: float | None = None
    epochs_since_best = 0
    history: list[dict] = []

    try:
        for epoch in range(cfg.epochs):
            t0 = time.perf_counter()
            # stream-side negatives are refreshed here and held constant
            # for the whole epoch
            h_cache = {
                sid: bmrnn_forward(params, by_id[sid].story, structures[sid][0]).merged
                for sid in by_id
            }
            order = [train_records[i] for i in order_rng.permutation(len(train_records))]
            losses: list[float] = []
            step = 0
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                batch_grads = params.zeros_like()
                for rec in batch:
                    skip_matrix, partition = structures[rec.story_id]
                    draw = sample_negatives(
                        by_id, rec.story_id, ccfg.negatives_per_positive, neg_rng
                    )
                    neg_V = [r.sentences for r in draw.neg_V]
                    neg_H = [h_cache[r.story_id] for r in draw.neg_H_sources]
                    result, grads, _ = story_loss_and_grads(
                        params, rec.story, rec.sentences, skip_matrix, partition,
                        neg_V, neg_H, ccfg, epoch=epoch, step=step,
                    )
                    losses.append(result.loss)
                    batch_grads.flat += (1.0 / len(batch)) * grads.flat
                    step += 1
                update_step(params, batch_grads, state, cfg)

            mean_loss = float(np.mean(losses))
            val_recall1 = val_medr = None
            if val_records:
                report = evaluate(params, val_records, skips_by_id, ccfg)
                val_recall1 = report.recall_at[1]
                val_medr = report.median_rank
            record = {
                "epoch": epoch,
                "mean_loss": mean_loss,
                "val_recall1": val_recall1,
                "val_medr": val_medr,
                "wall_ms": round((time.perf_counter() - t0) * 1000.0, 3),
            }
            history.append(record)
            if log_file:
                log_file.write(json.dumps(record, sort_keys=True) + "\n")
                log_file.flush()

            if (
                checkpoint_dir is not None
                and cfg.checkpoint_every > 0
                and (epoch + 1) % cfg.checkpoint_every == 0
            ):
                _check_float32(params, rec.story_id, epoch, step - 1)
                save_checkpoint(
                    Path(checkpoint_dir) / f"epoch_{epoch:04d}.bin",
                    Checkpoint(
                        params=params,
                        epoch=epoch,
                        best_val_recall1=val_recall1,
                        config={
                            "train": cfg.to_dict(),
                            "compatibility": dataclasses.asdict(ccfg),
                        },
                    ),
                )

            if val_records:
                if best_recall1 is None or val_recall1 > best_recall1:
                    best_recall1 = val_recall1
                    best_params = params.copy()
                    best_epoch = epoch
                    epochs_since_best = 0
                else:
                    epochs_since_best += 1
                    if epochs_since_best >= cfg.early_stop_patience:
                        break
            else:
                best_params = params.copy()
                best_epoch = epoch
    finally:
        if log_file:
            log_file.close()

    for p in (params, best_params):
        _check_float32(p, rec.story_id, epoch, step - 1)
    return Checkpoint(
        params=best_params,
        epoch=best_epoch,
        best_val_recall1=best_recall1,
        config={"train": cfg.to_dict(), "compatibility": dataclasses.asdict(ccfg)},
        history=history,
    )


# ---------------------------------------------------------------------------
# gradient checker
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    per_tensor: dict[str, float]
    n_configs: int
    tolerance: float = 1e-5

    @property
    def max_rel_err(self) -> float:
        return max(self.per_tensor.values())

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance

    def to_text_table(self) -> str:
        width = max(len(name) for name in self.per_tensor)
        lines = [
            f"{name:<{width}}  {err:.3e}"
            for name, err in sorted(self.per_tensor.items())
        ]
        lines.append(
            f"max relative error {self.max_rel_err:.3e} over {self.n_configs} "
            f"configurations ({'PASS' if self.passed else 'FAIL'} at {self.tolerance:g})"
        )
        return "\n".join(lines)


def _rel_err(a: float, f: float, floor: float = 1e-5) -> float:
    return abs(a - f) / max(abs(a), abs(f), floor)


def _random_check_instance(rng: SeededRng):
    """A small random story with partition-consistent skips and negatives."""
    n = 2 + int(rng.integers(0, 4))          # N in 2..5
    input_dim = 2 + int(rng.integers(0, 3))
    hidden = 2 + int(rng.integers(0, 5))     # <= 6
    out_dim = 2 + int(rng.integers(0, 3))

    # partition the timeline into groups; chains within groups become skips
    indices = list(rng.permutation(n))
    groups: list[list[int]] = []
    while indices:
        size = 1 + int(rng.integers(0, min(3, len(indices))))
        groups.append(sorted(indices[:size]))
        indices = indices[size:]
    skip_matrix = SkipMatrix(n=n, pairs=tuple(cluster_chains(groups)))
    partition = SubStoryPartition.from_clusters(groups)

    params = init_bmrnn_params(input_dim, hidden, out_dim, rng)
    story = StoryStream(story_id="story", x=rng.normal(shape=(n, input_dim)))
    sentences = SentenceSequence(story_id="story", v=0.3 * rng.normal(shape=(n, out_dim)))
    ccfg = CompatibilityConfig(gamma=1.0, negatives_per_positive=2)
    neg_V = [
        SentenceSequence(story_id=f"neg{i}", v=0.3 * rng.normal(shape=(n, out_dim)))
        for i in range(2)
    ]
    neg_H = [0.3 * rng.normal(shape=(n, out_dim)) for _ in range(2)]
    return params, story, sentences, skip_matrix, partition, neg_V, neg_H, ccfg


def grad_check(
    seed: int = 0,
    n_configs: int = 20,
    eps: float = 1e-5,
    corrupt_tensor: str | None = None,
) -> GradCheckReport:
    """Compare analytic gradients of the full pipeline against central
    finite differences on small random configurations.

    ``corrupt_tensor`` deliberately perturbs one analytic gradient tensor so
    tests can confirm the harness actually detects wrong gradients.
    """
    worst: dict[str, float] = {}
    base_rng = SeededRng(seed)
    for i in range(n_configs):
        rng = base_rng.spawn(i)
        (params, story, sentences, skip_matrix, partition,
         neg_V, neg_H, ccfg) = _random_check_instance(rng)

        result, grads, d_inputs = story_loss_and_grads(
            params, story, sentences, skip_matrix, partition, neg_V, neg_H, ccfg
        )
        if corrupt_tensor is not None:
            for name, g in grads.named_tensors():
                if name == corrupt_tensor:
                    g += 1.0

        def loss_at() -> float:
            trace = bmrnn_forward(params, story, skip_matrix)
            return contrastive_loss(
                trace.merged, sentences, neg_V, neg_H, partition, ccfg
            ).loss

        analytic_by_name = dict(grads.named_tensors(), inputs=d_inputs)
        for name, tensor in [*params.named_tensors(), ("inputs", story.x)]:
            analytic = analytic_by_name[name]
            for idx in np.ndindex(tensor.shape):
                orig = tensor[idx]
                tensor[idx] = orig + eps
                up = loss_at()
                tensor[idx] = orig - eps
                down = loss_at()
                tensor[idx] = orig
                fd = (up - down) / (2.0 * eps)
                err = _rel_err(float(analytic[idx]), fd)
                worst[name] = max(worst.get(name, 0.0), err)

    return GradCheckReport(per_tensor=worst, n_configs=n_configs)
