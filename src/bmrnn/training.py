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
from .evaluation import evaluate, merged_stack
from .network import (
    FLOAT32_MAX,
    BMRNNParams,
    StoryGroup,
    _table,
    bmrnn_backward,
    bmrnn_forward,
    init_bmrnn_params,
    save_model,
    story_groups,
)
from .numeric import SeededRng, Sequence, read_file, write_file
from .objective import (
    CompatibilityConfig,
    SequenceStack,
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
    "sidecar_path",
    "read_sidecar",
]

_OPTIMIZERS = ("adam", "sgd-momentum")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
SGD_MOMENTUM = 0.9
GRAD_CHECK_TOLERANCE = 1e-5     # max relative error a passing grad_check allows


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 8
    learning_rate: float = 1e-3
    optimizer: str = "adam"
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
        if not self.learning_rate >= 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.optimizer not in _OPTIMIZERS:
            raise ConfigError(
                f"optimizer must be one of {_OPTIMIZERS}, got {self.optimizer!r}"
            )
        if not self.grad_clip_norm > 0:
            raise ConfigError(f"grad_clip_norm must be positive, got {self.grad_clip_norm}")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")
        if self.early_stop_patience < 1:
            raise ConfigError("early_stop_patience must be >= 1")


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
    write_file(sidecar_path(path), json.dumps(sidecar, sort_keys=True, indent=2) + "\n",
               "training sidecar")


def sidecar_path(model_path) -> Path:
    """Where save_checkpoint writes a model's JSON sidecar."""
    return Path(str(model_path) + ".json")


def read_sidecar(model_path) -> dict:
    """The epoch, best_val_recall1 and config that save_checkpoint wrote
    beside a model; a missing or malformed sidecar is a DataError naming it."""
    path = sidecar_path(model_path)
    text = read_file(path, "training sidecar", text=True)
    try:
        sidecar = json.loads(text)
        if not isinstance(sidecar["config"], dict):
            raise TypeError("config is not an object")
        return {key: sidecar[key] for key in ("epoch", "best_val_recall1", "config")}
    except (json.JSONDecodeError, KeyError, TypeError) as e:
        raise DataError(f"malformed training sidecar ({e!r})", path=str(path)) from None


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    step: int
    m: np.ndarray                   # first moment (adam) / velocity (sgd), like params.flat
    v: np.ndarray | None = None     # second moment (adam only)


def init_optimizer_state(params: BMRNNParams, cfg: TrainConfig) -> OptimizerState:
    return OptimizerState(
        step=0,
        m=np.zeros_like(params.flat),
        v=np.zeros_like(params.flat) if cfg.optimizer == "adam" else None,
    )


def global_grad_norm(grads: BMRNNParams) -> float:
    # one partial sum per tensor, over its slice of the squared buffer: np.sum
    # over the whole buffer would add in another order and change the low bits
    sq = grads.flat * grads.flat
    return float(np.sqrt(sum(float(np.sum(sq[..., a:b])) for _, a, b, _ in _table(*grads.dims))))


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
) -> float:
    """One optimizer step, in place: clip globally, then Adam or SGD+momentum.
    Returns the pre-clip gradient norm."""
    norm = clip_gradients(grads, cfg.grad_clip_norm)
    if not cfg.update_merge_bias:
        grads.b_merge[:] = 0.0
    state.step += 1
    p, g, m, v = params.flat, grads.flat, state.m, state.v
    if cfg.optimizer == "adam":
        bc1 = 1.0 - ADAM_BETA1**state.step
        bc2 = 1.0 - ADAM_BETA2**state.step
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    else:
        m *= SGD_MOMENTUM
        m += g
        p -= cfg.learning_rate * m
    return norm


# ---------------------------------------------------------------------------
# loss/gradient plumbing shared by the loop and the gradient checker
# ---------------------------------------------------------------------------


def story_loss_and_grads(
    params: BMRNNParams,
    stories: list[Sequence],
    skip_matrices: list[SkipMatrix],
    targets,
    ccfg: CompatibilityConfig,
    *,
    epoch: int = 0,
    step: int = 0,
):
    """Forward, loss, and parameter/input gradients for a minibatch of
    training stories: one (LossResult, gradient, dL/dx) per story, in order,
    the gradient a (P,) row of its group's gradient buffer, in the order of
    ``BMRNNParams.flat``.

    The minibatch is one ``StoryGroup``, so it takes one forward and one
    backward.  The losses run per story, in order, on its own steps and the
    (sentences, negatives_V, negatives_H, partition) that ``targets``
    yields; story i is step ``step + i``.

    Divergence is detected on the merged hidden states, not just the loss:
    NaN scores make every hinge comparison false, which would silently
    produce a clean-looking zero loss.
    """
    group = StoryGroup.of(stories, skip_matrices)
    trace = bmrnn_forward(params, group)
    results, dH = [], np.zeros_like(trace.merged)
    for i, (merged, n, target) in enumerate(zip(trace.merged, group.lengths, targets,
                                                strict=True)):
        if not np.all(np.isfinite(merged[:n])):
            raise DivergenceError(stories[i].story_id, epoch, step + i)
        results.append(contrastive_loss(merged[:n], *target, ccfg))
        if not np.isfinite(results[i].loss):
            raise DivergenceError(stories[i].story_id, epoch, step + i)
        dH[i, :n] = results[i].dH
    grads, dX = bmrnn_backward(params, group, trace, dH)
    return [(r, g, d[:n]) for r, g, d, n in zip(results, grads.flat, dX, group.lengths)]


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
    if hidden_dim < 1:
        raise ConfigError(f"hidden_dim must be >= 1, got {hidden_dim}")
    if not train_records:
        raise DataError("training set is empty")
    check_skip_records(train_records + val_records, skips_by_id)

    input_dim = train_records[0].story.rows.shape[1]
    output_dim = train_records[0].sentences.rows.shape[1]
    rng = SeededRng(cfg.seed)
    if params is None:
        params = init_bmrnn_params(input_dim, hidden_dim, output_dim, rng.spawn(0))
    order_rng = rng.spawn(1)
    neg_rng = rng.spawn(2)

    # story i is row i of every list and of both stacks
    stories = [rec.story for rec in train_records]
    matrices = [skips_by_id[rec.story_id].matrix() for rec in train_records]
    partitions = [skips_by_id[rec.story_id].partition() for rec in train_records]
    groups = story_groups(stories, matrices)
    sentences = SequenceStack.of([rec.sentences for rec in train_records])

    config = {"train": dataclasses.asdict(cfg), "compatibility": dataclasses.asdict(ccfg)}
    state = init_optimizer_state(params, cfg)
    best_params = params.copy()
    best_epoch = 0
    best_recall1: float | None = None
    epochs_since_best = 0
    history: list[dict] = []

    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        # stream-side negatives are refreshed here and held constant
        # for the whole epoch
        h_cache = merged_stack(params, groups, sentences)
        order = order_rng.permutation(len(train_records))
        losses: list[float] = []
        hinges = np.zeros(2)         # active sentence- and stream-side hinges
        norms: list[float] = []      # pre-clip gradient norm of each update
        step = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            draws = [sample_negatives(len(sentences), i, ccfg.negatives_per_positive, neg_rng)
                     for i in batch]
            # the loss reads only the query's N steps of each negative
            targets = ((train_records[i].sentences, sentences.take(idx, stories[i].N),
                        h_cache.take(idx, stories[i].N), partitions[i])
                       for i, idx in zip(batch, draws))
            batch_grads = params.zeros_like()
            for result, grad, _ in story_loss_and_grads(
                    params, [stories[i] for i in batch], [matrices[i] for i in batch], targets,
                    ccfg, epoch=epoch, step=step):
                losses.append(result.loss)
                hinges += (result.active_v_hinges, result.active_h_hinges)
                batch_grads.flat += (1.0 / len(batch)) * grad
            step += len(batch)
            norms.append(update_step(params, batch_grads, state, cfg))

        mean_loss = float(np.mean(losses))
        active_v_frac, active_h_frac = hinges / (len(losses) * ccfg.negatives_per_positive)
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
            "grad_norm_p50": float(np.median(norms)),
            "clip_frac": float(np.mean(np.array(norms) > cfg.grad_clip_norm)),
            "active_v_frac": float(active_v_frac), "active_h_frac": float(active_h_frac),
            "wall_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        }
        history.append(record)
        if log_path:     # rewritten whole, so it holds every finished epoch
            write_file(log_path, "".join(json.dumps(r, sort_keys=True) + "\n"
                                         for r in history), "training log")

        if (
            checkpoint_dir is not None
            and cfg.checkpoint_every > 0
            and (epoch + 1) % cfg.checkpoint_every == 0
        ):
            _check_float32(params, stories[order[-1]].story_id, epoch, step - 1)
            save_checkpoint(
                Path(checkpoint_dir) / f"epoch_{epoch:04d}.bin",
                Checkpoint(params=params, epoch=epoch, best_val_recall1=val_recall1,
                           config=config),
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

    for p in (params, best_params):
        _check_float32(p, stories[order[-1]].story_id, epoch, step - 1)
    return Checkpoint(
        params=best_params,
        epoch=best_epoch,
        best_val_recall1=best_recall1,
        config=config,
        history=history,
    )


# ---------------------------------------------------------------------------
# gradient checker
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    per_tensor: dict[str, float]
    n_configs: int

    @property
    def max_rel_err(self) -> float:
        return max(self.per_tensor.values())

    @property
    def passed(self) -> bool:
        return self.max_rel_err < GRAD_CHECK_TOLERANCE

    def to_text_table(self) -> str:
        width = max(len(name) for name in self.per_tensor)
        lines = [
            f"{name:<{width}}  {err:.3e}"
            for name, err in sorted(self.per_tensor.items())
        ]
        lines.append(
            f"max relative error {self.max_rel_err:.3e} over {self.n_configs} "
            f"configurations ({'PASS' if self.passed else 'FAIL'} at {GRAD_CHECK_TOLERANCE:g})"
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
    partition = SubStoryPartition(groups=groups)

    params = init_bmrnn_params(input_dim, hidden, out_dim, rng)
    story = Sequence("story", rng.normal(shape=(n, input_dim)))
    sentences = Sequence("story", 0.3 * rng.normal(shape=(n, out_dim)))
    ccfg = CompatibilityConfig(gamma=1.0, negatives_per_positive=2)
    neg_V = SequenceStack.of([0.3 * rng.normal(shape=(n, out_dim)) for _ in range(2)])
    neg_H = SequenceStack.of([0.3 * rng.normal(shape=(n, out_dim)) for _ in range(2)])
    return params, story, sentences, skip_matrix, partition, neg_V, neg_H, ccfg


def grad_check(
    seed: int = 0,
    n_configs: int = 20,
    eps: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic gradients of the full pipeline against central
    finite differences on small random configurations."""
    if n_configs < 1:
        raise ConfigError(f"n_configs must be >= 1, got {n_configs}")
    worst: dict[str, float] = {}
    base_rng = SeededRng(seed)
    for i in range(n_configs):
        rng = base_rng.spawn(i)
        (params, story, sentences, skip_matrix, partition,
         neg_V, neg_H, ccfg) = _random_check_instance(rng)

        [(result, grad, d_inputs)] = story_loss_and_grads(
            params, [story], [skip_matrix], [(sentences, neg_V, neg_H, partition)], ccfg
        )
        grads = params.with_flat(grad)

        def loss_at() -> float:
            trace = bmrnn_forward(params, StoryGroup.of([story], [skip_matrix]))
            return contrastive_loss(
                trace.merged[0], sentences, neg_V, neg_H, partition, ccfg
            ).loss

        analytic_by_name = dict(grads.named_tensors(), inputs=d_inputs)
        for name, tensor in [*params.named_tensors(), ("inputs", story.rows)]:
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
