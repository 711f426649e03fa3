"""Command-line front end: train, eval, predict, analyze.

Outputs land in a run directory (--out, else $MOLBRIDGE_OUT_ROOT, else
./runs/<name>). Every run directory gets a manifest.json recording the
command, the effective configuration, and a sha256 digest of the
dataset, which together are enough to replay the run. Exit codes: 0
success, 1 runtime failure, 2 usage error.

A config file of key=value lines can preload any train flag; explicit
flags win over file values.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, model
from .checkpoint import load_checkpoint, save_checkpoint
from .data import dataset_digest, featurize_samples, load_dataset, read_utf8
from .errors import MolBridgeError, SmilesError
from .metrics import accumulate, format_metrics, macro_metrics, stratified_metrics
from .smiles import featurize_smiles, parse_smiles
from .splits import MODES, N_FOLDS, make_splits
from .train import SELECTION_METRICS, TrainConfig, predict_labels, train


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


def main(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except SmilesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MolBridgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer in [low, high], unbounded above if high
    is None. Out-of-range values are usage errors (exit 2)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < low or (high is not None and value > high):
            bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def _rate(text: str) -> float:
    """argparse type: a finite float of at least 0, else a usage error."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be finite and non-negative, got {value}")
    return value


NON_NEGATIVE = _int_in(0)
POSITIVE = _int_in(1)
FOLD = _int_in(0, N_FOLDS - 1)

# Each train setting once: its key (the flag with "_" for "-", and the
# config-file key), its argparse type or tuple of choices, and the
# TrainConfig field it sets. mode and fold pick the split instead; every
# other default lives in TrainConfig.
TRAIN_SETTINGS = (
    ("mode", MODES, None), ("fold", FOLD, None),
    ("seed", NON_NEGATIVE, "seed"), ("epochs", POSITIVE, "max_epochs"),
    ("batch", POSITIVE, "batch_size"), ("lr", _rate, "lr"),
    ("dim", POSITIVE, "dim"), ("layers", POSITIVE, "layers"),
    ("heads", POSITIVE, "heads"), ("d_hid", NON_NEGATIVE, "d_hid"),
    ("weight_decay", _rate, "weight_decay"),
    ("selection", SELECTION_METRICS, "selection"),
)
TRAIN_KEYS = tuple(key for key, _, _ in TRAIN_SETTINGS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molbridge",
        description="Drug pair interaction event prediction on joint "
                    "molecular graphs.")
    sub = parser.add_subparsers(dest="command")

    p_train = sub.add_parser("train", help="train a model on a dataset file")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--config", help="key=value file of defaults")
    for key, kind, _ in TRAIN_SETTINGS:
        p_train.add_argument("--" + key.replace("_", "-"), **(
            {"choices": kind} if isinstance(kind, tuple) else {"type": kind}))
    p_train.add_argument("--out")
    p_train.set_defaults(func=cmd_train)

    def split_arguments(p):
        """The checkpoint, dataset and split a scoring command reads."""
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--split", choices=("train", "val", "test", "all"),
                       default="test")
        p.add_argument("--mode", choices=MODES, default="transductive")
        p.add_argument("--fold", type=FOLD, default=0)
        p.add_argument("--seed", type=NON_NEGATIVE, default=42)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    split_arguments(p_eval)
    p_eval.add_argument("--labels",
                        help="comma-separated label subset for stratified "
                             "metrics")
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=cmd_eval)

    p_pred = sub.add_parser("predict",
                            help="class distribution for one drug pair")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("smiles_1")
    p_pred.add_argument("smiles_2")
    p_pred.add_argument("--topk", type=POSITIVE)
    p_pred.set_defaults(func=cmd_predict)

    p_ana = sub.add_parser("analyze", help="diagnostic reports")
    ana_sub = p_ana.add_subparsers(dest="subcommand")

    p_os = ana_sub.add_parser("oversmooth",
                              help="depth collapse probe on random graphs")
    p_os.add_argument("--seed", type=NON_NEGATIVE, default=42)
    p_os.add_argument("--depth", type=_int_in(2), default=8)
    p_os.add_argument("--trials", type=POSITIVE, default=100)
    p_os.add_argument("--out")
    p_os.set_defaults(func=cmd_oversmooth)

    p_dist = ana_sub.add_parser("distance",
                                help="metrics stratified by path length")
    split_arguments(p_dist)
    p_dist.add_argument("--quantiles", type=POSITIVE, default=5)
    p_dist.add_argument("--combine", choices=("pair_mean", "first"),
                        default="pair_mean")
    p_dist.add_argument("--out")
    p_dist.set_defaults(func=cmd_distance)

    p_edges = ana_sub.add_parser("edges",
                                 help="strongest cross-drug attention edges")
    p_edges.add_argument("--checkpoint", required=True)
    p_edges.add_argument("smiles_1")
    p_edges.add_argument("smiles_2")
    p_edges.add_argument("--k", type=POSITIVE, default=10)
    p_edges.add_argument("--out")
    p_edges.set_defaults(func=cmd_edges)

    return parser


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #

def read_config_file(path) -> dict[str, tuple[str, int]]:
    """key=value lines of train settings, as key -> (value, line number).
    A file that is not UTF-8 text or has a line without '=' is a
    MolBridgeError; a key outside TRAIN_KEYS is a ValueError, which
    cmd_train reports as a usage error."""
    values: dict[str, tuple[str, int]] = {}
    for line_no, line in enumerate(io.StringIO(read_utf8(path)), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MolBridgeError(f"{path}:{line_no}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in TRAIN_KEYS:
            raise ValueError(f"{path}:{line_no}: unknown config key {key!r}; "
                             f"known keys: {', '.join(TRAIN_KEYS)}")
        values[key] = (value.strip(), line_no)
    return values


def _resolve_out(arg_out: str | None, default_name: str) -> Path:
    if arg_out:
        run_dir = Path(arg_out)
    else:
        root = Path(os.environ.get("MOLBRIDGE_OUT_ROOT", "runs"))
        run_dir = root / default_name
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def _write_manifest(run_dir: Path, args, outputs: dict[str, str],
                    config: dict | None = None) -> None:
    """The command of args, its configuration (by default its parsed
    arguments but the run directory) and, with a dataset, its digest."""
    if config is None:
        config = {key: value for key, value in vars(args).items()
                  if key not in ("func", "command", "subcommand", "out")}
    if "data" in config:
        config["dataset_digest"] = dataset_digest(config["data"])
    subcommand = getattr(args, "subcommand", None)
    manifest = {
        "command": f"{args.command}.{subcommand}" if subcommand
                   else args.command,
        "config": config,
        "outputs": outputs,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _score_split(args):
    """Load the checkpoint, then the dataset; score the chosen split.
    Returns the parameters, the split's samples and their predictions."""
    params, _ = load_checkpoint(args.checkpoint)
    samples = load_dataset(args.data).samples
    if args.split != "all":
        plan = make_splits(samples, args.mode, args.fold, args.seed)
        samples = [samples[i] for i in getattr(plan, args.split)]
    return params, samples, predict_labels(params, featurize_samples(samples))


def _pair_graphs(args):
    """The checkpoint's parameters and the graphs of the two SMILES."""
    params, _ = load_checkpoint(args.checkpoint)
    return (params, featurize_smiles(args.smiles_1),
            featurize_smiles(args.smiles_2))


# ---------------------------------------------------------------------- #
# commands
# ---------------------------------------------------------------------- #

def cmd_train(args) -> int:
    def pick(key, kind):
        """The flag's value, else the config file's, else None."""
        flag = getattr(args, key)
        if flag is not None or key not in file_cfg:
            return flag
        text, line_no = file_cfg[key]
        try:
            if not isinstance(kind, tuple):
                return kind(text)
            if text in kind:
                return text
            raise ValueError(f"must be one of {kind}, got {text!r}")
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(
                f"{args.config}:{line_no}: {key}: {exc}") from None

    # an unknown config key is a usage error, and config file values pass
    # the flags' checks too; a bad one, named by its line, or a setting
    # TrainConfig refuses, is a usage error as well
    try:
        file_cfg = read_config_file(args.config) if args.config else {}
        given = {key: pick(key, kind) for key, kind, _ in TRAIN_SETTINGS}
        config = TrainConfig(**{
            field: given[key] for key, _, field in TRAIN_SETTINGS
            if field and given[key] is not None})
    except MolBridgeError:
        raise               # a config file that is not key=value text: exit 1
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    mode = given["mode"] or "transductive"
    fold = given["fold"] or 0
    result = load_dataset(args.data)
    for row in result.quarantined:
        print(f"quarantined line {row.line}: {row.reason}", file=sys.stderr)
    plan = make_splits(result.samples, mode, fold, config.seed)
    params, record = train(result.samples, plan, config)

    run_dir = _resolve_out(args.out, f"train-{time.strftime('%Y%m%d-%H%M%S')}")
    ckpt_path = run_dir / "best.ckpt"
    selected = record.best_epoch >= 0      # false with no validation rows
    save_checkpoint(ckpt_path, params, extra={
        "best_epoch": record.best_epoch if selected else None,
        "selection": config.selection,
        "best_value": record.best_value if selected else None,
    })
    record.write_csv(run_dir / "runrecord.csv")
    _write_manifest(
        run_dir, args, {"checkpoint": "best.ckpt", "runrecord": "runrecord.csv"},
        {"data": args.data, "mode": mode, "fold": fold,
         **{key: getattr(config, field)
            for key, _, field in TRAIN_SETTINGS if field}})
    print(f"run directory: {run_dir}")
    if selected:
        print(f"best epoch {record.best_epoch} "
              f"{config.selection}={record.best_value:.6f}")
    else:
        print("no validation rows: kept the last epoch's parameters")
    return 0


def cmd_eval(args) -> int:
    subset = None
    if args.labels is not None:
        try:
            subset = [int(f) for f in args.labels.split(",") if f.strip()]
        except ValueError:
            subset = []
        if not subset:
            print("error: --labels must name at least one class as "
                  "comma-separated integers", file=sys.stderr)
            return 2

    params, chosen, preds = _score_split(args)
    labels = [s.label for s in chosen]
    n_classes = params.config.classes
    if subset is None:
        values = macro_metrics(accumulate(preds, labels, n_classes))
    else:
        values = stratified_metrics(preds, labels, n_classes, subset)
    report = format_metrics(values)
    print(report)
    if args.out:
        run_dir = _resolve_out(args.out, "")
        (run_dir / "metrics.txt").write_text(report + "\n")
        _write_manifest(run_dir, args, {"metrics": "metrics.txt"})
    return 0


def cmd_predict(args) -> int:
    params, g1, g2 = _pair_graphs(args)
    probs = model.predict(g1, g2, params)
    order = np.argsort(-probs, kind="stable")
    if args.topk is not None:
        order = order[:args.topk]
    for cls in order:
        print(f"class={int(cls)} p={probs[cls]:.6f}")
    return 0


def cmd_oversmooth(args) -> int:
    report = analysis.depth_probe(args.seed, max_depth=args.depth,
                                  trials=args.trials)
    run_dir = _resolve_out(args.out, f"oversmooth-{args.seed}")
    path = run_dir / "oversmooth.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["depth", "plain_cosine", "gformer_cosine"])
        for i, depth in enumerate(report.depths):
            writer.writerow([int(depth), repr(float(report.plain_mean[i])),
                             repr(float(report.gformer_mean[i]))])
    _write_manifest(run_dir, args, {"report": "oversmooth.csv"})
    print(f"report: {path}")
    return 0


def cmd_distance(args) -> int:
    params, chosen, preds = _score_split(args)
    labels = [s.label for s in chosen]
    mols = [(parse_smiles(s.smiles_1), parse_smiles(s.smiles_2))
            for s in chosen]
    strata = analysis.stratify_by_distance(
        mols, preds, labels, params.config.classes,
        quantiles=args.quantiles, combine=args.combine)

    run_dir = _resolve_out(args.out, "distance")
    path = run_dir / "distance.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stratum", "upper_boundary", "count",
                         "accuracy", "macro_f1"])
        for k in range(args.quantiles):
            count = int((strata.assignments == k).sum())
            upper = (repr(float(strata.boundaries[k]))
                     if k < len(strata.boundaries) else "")
            row = strata.per_stratum[k]
            writer.writerow([
                k, upper, count,
                repr(row["accuracy"]) if row else "",
                repr(row["macro_f1"]) if row else "",
            ])
    _write_manifest(run_dir, args, {"report": "distance.csv"})
    print(f"report: {path}")
    return 0


def cmd_edges(args) -> int:
    params, g1, g2 = _pair_graphs(args)
    from .joint import build_joint, refine
    joint = build_joint(g1, g2)
    refined = refine(joint, params.proj_w, params.proj_b, params.w_q,
                     params.w_k, params.config.heads, params.theta)
    k = min(args.k, joint.boundary * (joint.adjacency.shape[0] - joint.boundary))
    edges = analysis.top_edges(refined.combined.value, k, joint.boundary)

    run_dir = _resolve_out(args.out, "edges")
    path = run_dir / "edges.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["atom_1", "atom_2", "weight"])
        for p, q, w in edges:
            writer.writerow([p, q, repr(w)])
    for p, q, w in edges[:10]:
        print(f"{p} -> {q}  {w:.6f}")
    _write_manifest(run_dir, args, {"report": "edges.csv"})
    return 0
