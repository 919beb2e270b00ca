"""Command-line interface: synth, detect-skips, train, eval, gradcheck.

Option resolution is layered: built-in defaults, then an optional config
file of ``key = value`` lines, then explicit flags.  Unknown config keys are
rejected, and every run logs the fully-resolved configuration to stderr.

Exit codes: 0 success; 1 usage error (bad flags, bad config); 2 data error
(missing or malformed files); 3 numerical failure (divergence, failed
gradient check).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import (
    SkipRecord,
    SynthConfig,
    generate_synthetic,
    load_manifest,
    load_skips,
    write_corpus,
    write_skips,
)
from .errors import BmrnnError, ConfigError, DataError, DivergenceError
from .evaluation import evaluate
from .network import load_model
from .objective import CompatibilityConfig
from .skips import affinity_propagation, build_skip_matrix, similarity
from .training import Checkpoint, TrainConfig, grad_check, save_checkpoint, train

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for data
    problems, so usage failures are converted to exceptions instead."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bmrnn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_synth = sub.add_parser(
        "synth", help="generate a synthetic cross-skipping story corpus"
    )
    p_synth.add_argument("--out", required=True, help="output corpus directory")
    p_synth.add_argument("--stories", type=int, default=argparse.SUPPRESS,
                         help="total story count, split 4:1:1 (default: 300)")
    p_synth.add_argument("--length", type=int, default=argparse.SUPPRESS,
                         help="photos per story (default: 5)")
    p_synth.add_argument("--scenes", type=int, default=argparse.SUPPRESS,
                         help="scenes interleaved per story (default: 2)")
    p_synth.add_argument("--dim", type=int, default=argparse.SUPPRESS,
                         help="feature/embedding dimension (default: 16)")
    p_synth.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                         help="generator seed (default: 0)")
    p_synth.add_argument("--separation", type=float, default=argparse.SUPPRESS,
                         help="minimum scene-center separation (default: 4.0)")
    p_synth.add_argument("--noise", type=float, default=argparse.SUPPRESS,
                         help="per-step Gaussian noise sigma (default: 0.3)")
    p_synth.add_argument("--pool", type=int, default=argparse.SUPPRESS,
                         help="corpus-level scene pool size (default: 6)")

    p_detect = sub.add_parser(
        "detect-skips",
        help="cluster photo features per story and emit skip structures",
    )
    p_detect.add_argument("--manifest", required=True)
    p_detect.add_argument("--out", required=True, help="output skip JSON-lines file")
    p_detect.add_argument("--damping", type=float, default=argparse.SUPPRESS,
                          help="message damping in [0.5, 1) (default: 0.9)")
    p_detect.add_argument("--preference", type=float, default=argparse.SUPPRESS,
                          help="exemplar preference (default: median of "
                          "off-diagonal similarities)")
    p_detect.add_argument("--max-iter", type=int, default=argparse.SUPPRESS,
                          help="message-passing iterations (default: 200)")
    p_detect.add_argument("--window", type=int, default=argparse.SUPPRESS,
                          help="stability window for the convergence flag "
                          "(default: 15)")
    p_detect.add_argument("--normalize", action="store_true",
                          default=argparse.SUPPRESS,
                          help="L2-normalize features before inner products")

    p_train = sub.add_parser("train", help="train a model on a corpus")
    p_train.add_argument("--manifest", required=True)
    p_train.add_argument("--skips", required=True, help="skip JSON-lines file")
    p_train.add_argument("--out", required=True, help="output model file")
    p_train.add_argument("--alpha", type=float, default=argparse.SUPPRESS,
                         help="global/local compatibility mix (default: 0.5)")
    p_train.add_argument("--gamma", type=float, default=argparse.SUPPRESS,
                         help="contrastive margin (default: 0.2)")
    p_train.add_argument("--negatives", type=int, default=argparse.SUPPRESS,
                         help="negatives per positive pair (default: 127)")
    p_train.add_argument("--local-mode", choices=["aligned", "all-pairs"],
                         default=argparse.SUPPRESS,
                         help="local compatibility term (default: aligned)")
    p_train.add_argument("--epochs", type=int, default=argparse.SUPPRESS,
                         help="training epochs (default: 20)")
    p_train.add_argument("--batch", type=int, default=argparse.SUPPRESS,
                         help="minibatch size (default: 8)")
    p_train.add_argument("--lr", type=float, default=argparse.SUPPRESS,
                         help="learning rate (default: 0.001)")
    p_train.add_argument("--optimizer", choices=["adam", "sgd-momentum"],
                         default=argparse.SUPPRESS,
                         help="optimizer (default: adam)")
    p_train.add_argument("--clip", type=float, default=argparse.SUPPRESS,
                         help="global gradient-norm clip (default: 5.0)")
    p_train.add_argument("--patience", type=int, default=argparse.SUPPRESS,
                         help="early-stopping patience on validation Recall@1 "
                         "(default: 10)")
    p_train.add_argument("--hidden", type=int, default=argparse.SUPPRESS,
                         help="hidden state dimension (default: 16)")
    p_train.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                         help="training seed (default: 0)")
    p_train.add_argument("--checkpoint-every", type=int, default=argparse.SUPPRESS,
                         help="save a checkpoint every N epochs beside the "
                         "model file (default: 0 = off)")
    p_train.add_argument("--no-merge-bias", action="store_true",
                         default=argparse.SUPPRESS,
                         help="freeze the merge bias at exactly zero")
    p_train.add_argument("--log", default=argparse.SUPPRESS,
                         help="JSON-lines training log path (default: none)")

    p_eval = sub.add_parser("eval", help="evaluate retrieval on a split")
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--skips", required=True)
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--report", required=True, help="output report JSON path")
    p_eval.add_argument("--alpha", type=float, default=argparse.SUPPRESS,
                        help="global/local compatibility mix (default: 0.5)")
    p_eval.add_argument("--local-mode", choices=["aligned", "all-pairs"],
                        default=argparse.SUPPRESS,
                        help="local compatibility term (default: aligned)")
    p_eval.add_argument("--split", choices=["train", "val", "test"],
                        default=argparse.SUPPRESS,
                        help="which split to evaluate (default: test)")

    p_grad = sub.add_parser(
        "gradcheck", help="compare analytic gradients against finite differences"
    )
    p_grad.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for the random configurations (default: 0)")
    p_grad.add_argument("--configs", type=int, default=argparse.SUPPRESS,
                        help="number of random configurations (default: 20)")

    for p in (p_synth, p_detect, p_train, p_eval, p_grad):
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="config file of 'key = value' lines; explicit "
                       "flags override file values")
    return parser


_DEFAULTS: dict[str, dict] = {
    "synth": {
        "stories": 300, "length": 5, "scenes": 2, "dim": 16, "seed": 0,
        "separation": 4.0, "noise": 0.3, "pool": 6,
    },
    "detect-skips": {
        "damping": 0.9, "preference": None, "max_iter": 200, "window": 15,
        "normalize": False,
    },
    "train": {
        "alpha": 0.5, "gamma": 0.2, "negatives": 127, "local_mode": "aligned",
        "epochs": 20, "batch": 8, "lr": 1e-3, "optimizer": "adam", "clip": 5.0,
        "patience": 10, "hidden": 16, "seed": 0, "checkpoint_every": 0,
        "no_merge_bias": False, "log": None,
    },
    "eval": {
        "alpha": 0.5, "local_mode": "aligned", "split": "test",
    },
    "gradcheck": {"seed": 0, "configs": 20},
}

_BOOL_KEYS = {"normalize", "no_merge_bias"}


def _parse_config_file(path: str, known: dict) -> dict:
    p = Path(path)
    if not p.exists():
        raise DataError("config file not found", path=str(p))
    out = {}
    for line_no, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{p}:{line_no}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in known:
            raise ConfigError(f"{p}:{line_no}: unknown config key {key!r}")
        default = known[key]
        if key in _BOOL_KEYS:
            if value.lower() not in ("true", "false"):
                raise ConfigError(f"{p}:{line_no}: {key} must be true or false")
            out[key] = value.lower() == "true"
        elif isinstance(default, int) and not isinstance(default, bool):
            out[key] = int(value)
        elif isinstance(default, float):
            out[key] = float(value)
        else:
            out[key] = value
    return out


def _trained_compatibility(model_path) -> dict:
    """alpha and local_mode from the model's training sidecar; {} without one."""
    sidecar = Path(str(model_path) + ".json")
    if not sidecar.exists():
        return {}
    try:
        ccfg = json.loads(sidecar.read_text(encoding="utf-8"))["config"]["compatibility"]
        return {"alpha": ccfg["alpha"], "local_mode": ccfg["local_term_mode"]}
    except (json.JSONDecodeError, KeyError, TypeError) as e:
        raise DataError(f"malformed training sidecar ({e!r})", path=str(sidecar)) from None


def _resolve(args: argparse.Namespace) -> dict:
    """defaults <- the model's training sidecar (eval only) <- config file <-
    explicit flags; logs the result."""
    explicit = {
        k: v for k, v in vars(args).items() if k not in ("command", "config")
    }
    resolved = dict(_DEFAULTS[args.command])
    trained = _trained_compatibility(args.model) if args.command == "eval" else {}
    resolved.update(trained)
    config_path = getattr(args, "config", None)
    if config_path is not None:
        resolved.update(_parse_config_file(config_path, _DEFAULTS[args.command]))
    resolved.update(explicit)
    for key, value in trained.items():
        if resolved[key] != value:
            print(f"note: {key} {resolved[key]!r} overrides the model's training "
                  f"value {value!r}", file=sys.stderr)
    printable = {k: (str(v) if isinstance(v, Path) else v) for k, v in resolved.items()}
    print(
        f"resolved config [{args.command}]: "
        + json.dumps(printable, sort_keys=True, default=str),
        file=sys.stderr,
    )
    return resolved


def _cmd_synth(opts: dict) -> int:
    cfg = SynthConfig(
        num_stories=opts["stories"],
        story_len=opts["length"],
        num_scenes=opts["scenes"],
        embed_dim=opts["dim"],
        scene_separation=opts["separation"],
        noise_sigma=opts["noise"],
        seed=opts["seed"],
        scene_pool_size=opts["pool"],
    )
    corpus = generate_synthetic(cfg)
    manifest = write_corpus(corpus, opts["out"])
    splits = [r.split for r in corpus.records]
    print(
        f"wrote {len(corpus.records)} stories "
        f"({splits.count('train')} train / {splits.count('val')} val / "
        f"{splits.count('test')} test) to {manifest}"
    )
    print(f"planted skips: {manifest.parent / 'planted_skips.jsonl'}")
    return EXIT_OK


def _cmd_detect_skips(opts: dict) -> int:
    dataset = load_manifest(opts["manifest"])
    records = []
    n_converged = 0
    n_pairs = 0
    for rec in dataset.records:
        if rec.N == 1:   # nothing to cluster: one singleton, no skips
            records.append(SkipRecord(rec.story_id, clusters=[[0]], pairs=[], converged=True))
            n_converged += 1
            continue
        sim = similarity(rec.story.raw_fc, normalize=opts["normalize"])
        assignment = affinity_propagation(
            sim,
            damping=opts["damping"],
            preference=opts["preference"],
            max_iter=opts["max_iter"],
            convergence_window=opts["window"],
        )
        pairs = list(build_skip_matrix(assignment).pairs)
        records.append(
            SkipRecord(
                story_id=rec.story_id,
                clusters=sorted(sorted(c) for c in assignment.clusters),
                pairs=pairs,
                converged=assignment.converged,
            )
        )
        n_converged += assignment.converged
        n_pairs += len(pairs)
    write_skips(opts["out"], records)
    print(
        f"detected skip structures for {len(records)} stories "
        f"({n_converged} converged, {n_pairs} skip pairs) -> {opts['out']}"
    )
    return EXIT_OK


def _cmd_train(opts: dict) -> int:
    dataset = load_manifest(opts["manifest"])
    skips = load_skips(opts["skips"])
    ccfg = CompatibilityConfig(
        alpha=opts["alpha"],
        gamma=opts["gamma"],
        negatives_per_positive=opts["negatives"],
        local_term_mode=opts["local_mode"],
    )
    cfg = TrainConfig(
        epochs=opts["epochs"],
        batch_size=opts["batch"],
        learning_rate=opts["lr"],
        optimizer=opts["optimizer"],
        grad_clip_norm=opts["clip"],
        seed=opts["seed"],
        checkpoint_every=opts["checkpoint_every"],
        early_stop_patience=opts["patience"],
        update_merge_bias=not opts["no_merge_bias"],
    )
    out_path = Path(opts["out"])
    ckpt = train(
        dataset.split("train"),
        dataset.split("val"),
        skips,
        cfg,
        ccfg,
        hidden_dim=opts["hidden"],
        log_path=opts["log"],
        checkpoint_dir=out_path.parent if cfg.checkpoint_every else None,
    )
    save_checkpoint(out_path, ckpt)
    best = "n/a" if ckpt.best_val_recall1 is None else f"{ckpt.best_val_recall1:.2f}%"
    print(
        f"trained {len(ckpt.history)} epochs; best epoch {ckpt.epoch} "
        f"(val Recall@1 {best}); model -> {out_path}"
    )
    return EXIT_OK


def _cmd_eval(opts: dict) -> int:
    dataset = load_manifest(opts["manifest"])
    skips = load_skips(opts["skips"])
    params = load_model(opts["model"])
    records = dataset.split(opts["split"])
    if not records:
        raise DataError(f"no stories in split {opts['split']!r}",
                        path=str(opts["manifest"]))
    ccfg = CompatibilityConfig(alpha=opts["alpha"], local_term_mode=opts["local_mode"])
    report = evaluate(params, records, skips, ccfg)
    Path(opts["report"]).write_text(report.to_json() + "\n", encoding="utf-8")
    print(report.to_text_table())
    print(f"report -> {opts['report']}")
    return EXIT_OK


def _cmd_gradcheck(opts: dict) -> int:
    report = grad_check(seed=opts["seed"], n_configs=opts["configs"])
    print(report.to_text_table())
    return EXIT_OK if report.passed else EXIT_NUMERIC


_COMMANDS = {
    "synth": _cmd_synth,
    "detect-skips": _cmd_detect_skips,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as e:      # --help
        return int(e.code or 0)
    try:
        opts = _resolve(args)
        return _COMMANDS[args.command](opts)
    except ConfigError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, BmrnnError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
