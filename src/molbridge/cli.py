"""Command-line front end: train, eval, predict, analyze.

Outputs land in a run directory (--out, else $MOLBRIDGE_OUT_ROOT, else
./runs/<name>). Every run directory gets a manifest.json recording the
command, the effective configuration, and a sha256 digest of the
dataset, which together are enough to replay the run. Exit codes: 0
success, 1 runtime failure, 2 usage error.

A config file of key=value lines can preload any train flag; explicit
flags win over file values.

Each command imports the modules it runs when it runs: ``predict``
loads the checkpoint, model and SMILES modules and none of data, splits,
train, metrics, optim or analysis.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARIABLES, model, parallel
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import (
    EmptyDatasetError, EmptySplitError, LabelOutOfRangeError, MalformedRowError,
    MolBridgeError, SmilesError)
from .model import MODES, N_FOLDS, SELECTION_METRICS
from .smiles import featurize_smiles, parse_int


def main(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:    # the forward pass gate reports an overflow, not numpy's warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except SmilesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MolBridgeError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer in [low, high], unbounded above if high
    is None. Out-of-range values are usage errors (exit 2)."""
    def parse(text: str) -> int:
        try:
            value = parse_int(text)
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
    from .data import read_utf8
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
    arguments but the run directory) and, with a dataset, its digest;
    also the BLAS thread variables and the processes chunk-parallel work
    may use."""
    from .data import dataset_digest
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
        "blas_threads": {name: os.environ.get(name)
                         for name in BLAS_THREAD_VARIABLES},
        "processes": parallel.processes(),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_report(args, default_name: str, name: str, header: list[str],
                  rows) -> Path:
    """Write a report CSV of header and rows, and the manifest, into the
    run directory; returns the report's path."""
    import csv
    run_dir = _resolve_out(args.out, default_name)
    path = run_dir / name
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    _write_manifest(run_dir, args, {"report": name})
    return path


def _load_samples(path):
    """The dataset's usable rows as a PairTable; each quarantined row is
    reported on stderr, also when no row is left."""
    from .data import load_dataset
    try:
        result = load_dataset(path)
    except EmptyDatasetError as exc:
        _report_quarantined(exc.quarantined)
        raise
    _report_quarantined(result.quarantined)
    return result.samples


def _report_quarantined(rows) -> None:
    for row in rows:
        print(f"quarantined line {row.line}: {row.reason}", file=sys.stderr)


def _score_split(args, subset=(), quantiles=1):
    """Load the checkpoint, then the dataset, and score the chosen split in
    float32: the (float64) parameters and the split's graph pairs, labels
    and predictions. A split of fewer rows than quantiles (an empty one
    too), labels and subset classes past the checkpoint's, and a subset no
    label of the split is in, are refused first."""
    from .data import featurize_samples
    from .metrics import check_subset
    from .splits import make_splits
    from .train import predict_labels
    params, _ = load_checkpoint(args.checkpoint)
    samples = _load_samples(args.data)
    if args.split != "all":
        plan = make_splits(samples, args.mode, args.fold, args.seed)
        samples = samples.take(getattr(plan, args.split))
    if not samples:
        raise EmptySplitError(
            f"the {args.split} split of {args.data} ({args.mode}, fold "
            f"{args.fold}) is empty; nothing to score")
    if len(samples) < quantiles:
        raise MolBridgeError(
            f"--quantiles {quantiles} is more than the {len(samples)} rows "
            f"of the {args.split} split of {args.data}")
    labels = samples.label.tolist()
    if max(labels, default=0) >= params.config.classes:
        raise LabelOutOfRangeError(
            f"label {max(labels)} is outside the checkpoint's "
            f"{params.config.classes} classes")
    if subset:
        check_subset(subset, params.config.classes, labels)
    pairs = featurize_samples(samples)
    preds = predict_labels(params.astype(np.float32), pairs)
    return params, pairs, labels, preds


def _pair_graphs(args):
    """The checkpoint's parameters and the graphs of the two SMILES."""
    params, _ = load_checkpoint(args.checkpoint)
    return (params, featurize_smiles(args.smiles_1),
            featurize_smiles(args.smiles_2))


# ---------------------------------------------------------------------- #
# commands
# ---------------------------------------------------------------------- #

def cmd_train(args) -> int:
    from .splits import make_splits
    from .train import TrainConfig, train

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
    # TrainConfig refuses (the model's too) is a usage error as well, before
    # the dataset is read (train() checks the model at its class count)
    try:
        file_cfg = read_config_file(args.config) if args.config else {}
        given = {key: pick(key, kind) for key, kind, _ in TRAIN_SETTINGS}
        config = TrainConfig(**{
            field: given[key] for key, _, field in TRAIN_SETTINGS
            if field and given[key] is not None})
    except MalformedRowError:
        raise               # a config file that is not UTF-8 text: exit 1
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    mode = given["mode"] or "transductive"
    fold = given["fold"] or 0
    samples = _load_samples(args.data)
    plan = make_splits(samples, mode, fold, config.seed)
    params, record = train(samples, plan, config)

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
    from .metrics import (
        accumulate, format_metrics, macro_metrics, stratified_metrics)
    subset = None
    if args.labels is not None:
        try:
            subset = [parse_int(f.strip())
                      for f in args.labels.split(",") if f.strip()]
        except ValueError:
            subset = []
        if not subset:
            print("error: --labels must name at least one class as "
                  "comma-separated integers", file=sys.stderr)
            return 2

    params, _, labels, preds = _score_split(args, subset or ())
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
    from . import analysis
    report = analysis.depth_probe(args.seed, max_depth=args.depth,
                                  trials=args.trials)
    path = _write_report(
        args, f"oversmooth-{args.seed}", "oversmooth.csv",
        ["depth", "plain_cosine", "gformer_cosine"],
        ([int(depth), repr(float(plain)), repr(float(gformer))]
         for depth, plain, gformer in zip(
             report.depths, report.plain_mean, report.gformer_mean)))
    print(f"report: {path}")
    return 0


def cmd_distance(args) -> int:
    from . import analysis
    params, pairs, labels, preds = _score_split(args, quantiles=args.quantiles)
    strata = analysis.stratify_by_distance(
        pairs, preds, labels, params.config.classes,
        quantiles=args.quantiles, combine=args.combine)

    # each stratum's accuracy and macro_f1, blank for an empty one
    scores = [list(map(repr, row)) if count else ["", ""] for row, count in
              zip(strata.per_stratum[:, [0, 3]].tolist(), strata.counts)]

    def row(k):
        upper = (repr(float(strata.boundaries[k]))
                 if k < len(strata.boundaries) else "")
        return [k, upper, int(strata.counts[k]), *scores[k]]

    path = _write_report(
        args, "distance", "distance.csv",
        ["stratum", "upper_boundary", "count", "accuracy", "macro_f1"],
        (row(k) for k in range(args.quantiles)))
    print(f"report: {path}")
    return 0


def cmd_edges(args) -> int:
    from . import analysis
    from .joint import build_joint, refine
    params, g1, g2 = _pair_graphs(args)
    refined = refine(build_joint(g1, g2), params.proj_w, params.proj_b,
                     params.w_q, params.w_k, params.config.heads, params.theta)
    model.require_finite(refined.combined)
    k = min(args.k, g1.n_atoms * g2.n_atoms)
    edges = analysis.top_edges(refined.combined, k, g1.n_atoms)
    _write_report(args, "edges", "edges.csv", ["atom_1", "atom_2", "weight"],
                  ([p, q, repr(w)] for p, q, w in edges))
    for p, q, w in edges[:10]:
        print(f"{p} -> {q}  {w:.6f}")
    return 0
