"""Command-line interface: synth, detect-skips, train, eval, gradcheck.

Option resolution is layered: built-in defaults (``--help`` shows them),
then, for eval, the model's training sidecar, then an optional config file
of ``key = value`` lines, then explicit flags.  A config-file value is read
by its flag's own parser, unknown config keys are rejected, and every run
logs the fully-resolved configuration to stderr.

Exit codes: 0 success; 1 usage error (bad flags, bad config); 2 data error
(an input file missing, unreadable or malformed, or an output not writable);
3 numerical failure (divergence, failed gradient check).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

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
from .numeric import read_file, write_file
from .objective import CompatibilityConfig
from .skips import (SimilarityMatrix, affinity_propagation, build_skip_matrix, check_clustering,
                    cluster_chains, similarity)
from .training import TrainConfig, grad_check, read_sidecar, save_checkpoint, sidecar_path, train

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

AP_STACK_ENTRIES = 1 << 18   # B * n * n of a detect-skips stack: 2 MiB per float64 buffer
_NETWORK_KINDS = ("embedding_file", "sentence_file")   # the tensors train and eval read


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for data
    problems, so usage failures are raised as ConfigError instead."""

    def error(self, message):
        raise ConfigError(message)


class _Help(argparse.ArgumentDefaultsHelpFormatter):
    """Shows each option's default, except on required ones, which have none."""

    def _get_help_string(self, action):
        return action.help if action.required else super()._get_help_string(action)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The parser and its subcommand parsers by name."""
    parser = _Parser(prog="bmrnn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, help: str):
        return sub.add_parser(name, help=help, formatter_class=_Help).add_argument

    synth = command("synth", "generate a synthetic cross-skipping story corpus")
    synth("--out", required=True, help="output corpus directory")
    synth("--stories", type=int, default=SynthConfig.num_stories,
          help="total story count, split 4:1:1")
    synth("--length", type=int, default=SynthConfig.story_len, help="photos per story")
    synth("--scenes", type=int, default=SynthConfig.num_scenes,
          help="scenes interleaved per story")
    synth("--dim", type=int, default=SynthConfig.embed_dim, help="feature/embedding dimension")
    synth("--seed", type=int, default=SynthConfig.seed, help="generator seed")
    synth("--separation", type=_finite_float, default=SynthConfig.scene_separation,
          help="minimum scene-center separation")
    synth("--noise", type=_finite_float, default=SynthConfig.noise_sigma,
          help="per-step Gaussian noise sigma")
    synth("--pool", type=int, default=SynthConfig.scene_pool_size,
          help="corpus-level scene pool size")

    detect = command("detect-skips", "cluster photo features per story and emit skip structures")
    detect("--manifest", required=True)
    detect("--out", required=True, help="output skip JSON-lines file")
    detect("--damping", type=_finite_float, default=0.9, help="message damping in [0.5, 1)")
    detect("--preference", type=_finite_float, default=None,
           help="exemplar preference; None is the median of the off-diagonal similarities")
    detect("--max-iter", type=int, default=200, help="message-passing iterations")
    detect("--window", type=int, default=15,
           help="stability window for the convergence flag, at most --max-iter")
    detect("--normalize", action="store_true",
           help="L2-normalize features before inner products")

    train_ = command("train", "train a model on a corpus")
    train_("--manifest", required=True)
    train_("--skips", required=True, help="skip JSON-lines file")
    train_("--out", required=True, help="output model file")

    eval_ = command("eval", "evaluate retrieval on a split")
    eval_("--manifest", required=True)
    eval_("--skips", required=True)
    eval_("--model", required=True)
    eval_("--report", required=True, help="output report JSON path")
    eval_("--split", choices=["train", "val", "test"], default="test",
          help="which split to evaluate")

    for add in (train_, eval_):
        add("--alpha", type=_finite_float, default=CompatibilityConfig.alpha,
            help="global/local compatibility mix")
        add("--local-mode", choices=["aligned", "all-pairs"],
            default=CompatibilityConfig.local_term_mode, help="local compatibility term")
    train_("--gamma", type=_finite_float, default=CompatibilityConfig.gamma,
           help="contrastive margin")
    train_("--negatives", type=int, default=CompatibilityConfig.negatives_per_positive,
           help="negatives per positive pair")
    train_("--epochs", type=int, default=TrainConfig.epochs, help="training epochs")
    train_("--batch", type=int, default=TrainConfig.batch_size, help="minibatch size")
    train_("--lr", type=_finite_float, default=TrainConfig.learning_rate, help="learning rate")
    train_("--optimizer", choices=["adam", "sgd-momentum"], default=TrainConfig.optimizer,
           help="optimizer")
    train_("--clip", type=_finite_float, default=TrainConfig.grad_clip_norm,
           help="global gradient-norm clip")
    train_("--patience", type=int, default=TrainConfig.early_stop_patience,
           help="early-stopping patience on validation Recall@1")
    train_("--hidden", type=int, default=16, help="hidden state dimension")
    train_("--seed", type=int, default=TrainConfig.seed, help="training seed")
    train_("--checkpoint-every", type=int, default=TrainConfig.checkpoint_every,
           help="save a checkpoint every N epochs beside the model file; 0 is off")
    train_("--no-merge-bias", action="store_true", help="freeze the merge bias at exactly zero")
    train_("--log", help="JSON-lines training log path")

    grad = command("gradcheck", "compare analytic gradients against finite differences")
    grad("--seed", type=int, default=0, help="seed for the random configurations")
    grad("--configs", type=int, default=20, help="number of random configurations")

    for p in sub.choices.values():
        p.add_argument("--config", help="config file of 'key = value' lines; explicit "
                       "flags override file values")
    return parser, sub.choices


def _read_config_file(path: str, parser: _Parser) -> dict:
    """The ``key = value`` lines of a config file.  Each value is read by the
    action of its flag ``--key``: its type and choices, or true/false for a
    switch; a bad value is a ConfigError naming file and line."""
    actions = {a.dest: a for a in parser._actions
               if a.option_strings and not a.required and a.dest not in ("help", "config")}
    out = {}
    for line_no, line in enumerate(read_file(path, "config file", text=True).splitlines(), 1):
        where = f"{path}:{line_no}"
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in stripped.partition("="))
        key = key.replace("-", "_")
        if key not in actions:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        action = actions[key]
        if action.nargs == 0:       # a store_true switch
            if value.lower() not in ("true", "false"):
                raise ConfigError(f"{where}: {key} must be true or false")
            out[key] = value.lower() == "true"
            continue
        try:
            out[key] = parser._get_value(action, value)
            parser._check_value(action, out[key])
        except argparse.ArgumentError as e:
            raise ConfigError(f"{where}: {e}") from None
    return out


def _trained_compatibility(model_path) -> dict:
    """alpha and local_mode from the model's training sidecar; {} without one."""
    if not sidecar_path(model_path).exists():
        return {}
    ccfg = read_sidecar(model_path)["config"].get("compatibility")
    try:
        alpha, mode = ccfg["alpha"], ccfg["local_term_mode"]
        if type(alpha) not in (int, float):      # JSON true/false is not a number here
            raise TypeError(f"alpha must be a number, got {json.dumps(alpha)}")
        CompatibilityConfig(alpha=alpha, local_term_mode=mode)
    except (KeyError, TypeError, ConfigError) as e:
        raise DataError(f"training sidecar holds no valid compatibility alpha and "
                        f"local_term_mode ({e})", path=str(sidecar_path(model_path))) from None
    return {"alpha": alpha, "local_mode": mode}


def _resolve(argv) -> tuple[str, dict]:
    """defaults <- the model's training sidecar (eval only) <- config file <-
    explicit flags; logs the result.  The two middle layers become the
    subcommand's defaults, so a second parse lets explicit flags win."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    sub = commands[args.command]
    trained = _trained_compatibility(args.model) if args.command == "eval" else {}
    sub.set_defaults(**trained)
    if args.config is not None:
        sub.set_defaults(**_read_config_file(args.config, sub))
    opts = vars(parser.parse_args(argv))
    command = opts.pop("command")
    del opts["config"]
    for key, value in trained.items():
        if opts[key] != value:
            print(f"note: {key} {opts[key]!r} overrides the model's training "
                  f"value {value!r}", file=sys.stderr)
    print(f"resolved config [{command}]: " + json.dumps(opts, sort_keys=True), file=sys.stderr)
    return command, opts


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
    check_clustering(opts["damping"], opts["max_iter"], opts["window"])
    if opts["window"] > opts["max_iter"]:    # the convergence flag could never be set
        raise ConfigError(f"--window {opts['window']} exceeds --max-iter {opts['max_iter']}")
    stories = load_manifest(opts["manifest"], kinds=("feature_file",))
    # Stories too short to cluster get a fixed clustering: a 1-photo story is
    # one singleton and, without --preference, a 2-photo story one cluster.
    # The default preference is then the pair's one similarity, on which AP
    # ties exactly and, unconverged, keeps exemplar 0 whatever the similarity.
    fixed = {1: [[0]], 2: [[0, 1]]} if opts["preference"] is None else {1: [[0]]}
    assignment_of = {}     # record index -> its ClusterAssignment
    for n in {rec.N for rec in stories} - fixed.keys():
        group = [i for i, rec in enumerate(stories) if rec.N == n]
        size = max(1, AP_STACK_ENTRIES // (n * n))   # stories per stack
        for stack in (group[k:k + size] for k in range(0, len(group), size)):
            sims = [similarity(stories[i].raw_fc, normalize=opts["normalize"]).s
                    for i in stack]
            result = affinity_propagation(
                SimilarityMatrix(s=np.stack(sims)), damping=opts["damping"],
                preference=opts["preference"], max_iter=opts["max_iter"],
                convergence_window=opts["window"])
            assignment_of.update(zip(stack, result.assignments))
    records = []
    n_converged = n_pairs = 0
    for i, rec in enumerate(stories):
        if rec.N in fixed:
            clusters, converged = fixed[rec.N], True
            pairs = cluster_chains(clusters)
        else:
            assignment = assignment_of[i]
            clusters = sorted(sorted(c) for c in assignment.clusters)
            pairs, converged = list(build_skip_matrix(assignment).pairs), assignment.converged
        records.append(SkipRecord(rec.story_id, clusters=clusters, pairs=pairs,
                                  converged=converged))
        n_converged += converged
        n_pairs += len(pairs)
    write_skips(opts["out"], records)
    print(
        f"detected skip structures for {len(records)} stories "
        f"({n_converged} converged, {n_pairs} skip pairs) -> {opts['out']}"
    )
    return EXIT_OK


def _cmd_train(opts: dict) -> int:
    loaded = load_manifest(opts["manifest"], ("train", "val"), kinds=_NETWORK_KINDS)
    records = [rec for rec in loaded if rec.split == "train"]
    if len(records) < 2:      # a story's negatives are the other training stories
        raise DataError(f"training needs at least 2 stories in split 'train', found "
                        f"{len(records)}", path=str(opts["manifest"]))
    skips = load_skips(opts["skips"], {rec.story_id: rec.N for rec in loaded})
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
        records,
        [rec for rec in loaded if rec.split == "val"],
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
    records = load_manifest(opts["manifest"], (opts["split"],), kinds=_NETWORK_KINDS)
    skips = load_skips(opts["skips"], {rec.story_id: rec.N for rec in records})
    params = load_model(opts["model"])
    if not records:
        raise DataError(f"no stories in split {opts['split']!r}", path=str(opts["manifest"]))
    widths = (records[0].story.rows.shape[1], records[0].sentences.rows.shape[1])
    if (params.input_dim, params.output_dim) != widths:
        raise DataError(f"model is {params.input_dim} -> {params.output_dim} dims, the corpus "
                        f"{widths[0]} -> {widths[1]}", path=str(opts["model"]))
    ccfg = CompatibilityConfig(alpha=opts["alpha"], local_term_mode=opts["local_mode"])
    report = evaluate(params, records, skips, ccfg)
    write_file(opts["report"], report.to_json() + "\n", "report")
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

# the output files of each command, whose directories are checked before it loads anything
_OUTPUT_FLAGS = {"detect-skips": ("out",), "train": ("out", "log"), "eval": ("report",)}


def run(argv=None) -> int:
    try:
        command, opts = _resolve(argv)
        for flag in _OUTPUT_FLAGS.get(command, ()):
            if opts[flag] is not None and not Path(opts[flag]).parent.is_dir():
                raise DataError(f"cannot write --{flag} {opts[flag]}: no such directory",
                                path=str(Path(opts[flag]).parent))
        return _COMMANDS[command](opts)
    except SystemExit as e:      # --help
        return int(e.code or 0)
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
