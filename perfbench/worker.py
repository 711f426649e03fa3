"""One benchmark workload in a fresh process.

perfbench/run.py starts this script with the inputs it generated in a
work directory. The script imports molbridge and makes the workload's
one-time calls (timed together as set-up), runs the workload, checks
every output, and prints one JSON object as the last line of standard
output. With --setup-only it stops after set-up.

Neither numpy nor the benchmark's numpy-based helpers are imported
before set-up is timed, so set-up covers the program's own imports.

Untraced, the workload is a closed loop with one client that runs until
--seconds is used up (and at least MIN_OPS operations). Traced, it runs
a fixed amount of work instead, so per-layer totals compare across
commits: set-up and a warm-up operation, then untraced and traced
operations alternating (TRACED_OPS of each), which gives the overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Batch 128 rather than the default 512: at 512, drug-sized pairs hold
# about 4.8 GB of tape at peak, more than a shared small machine should
# be asked for. Every other TrainConfig field keeps its default.
TRAIN_BATCH = 128
# Four epochs (eight AdamW steps): over the first two the mean loss can
# still rise above the initial loss before it falls, so a shorter run
# cannot be checked for progress.
TRAIN_EPOCHS = 4
MIN_OPS = {"train-drug": 3, "eval-corpus": 3, "predict-cli": 100}
TRACED_OPS = {"train-drug": 1, "eval-corpus": 1, "predict-cli": 100}
MAX_LOOP_S = 120.0
REQUEST_TIMEOUT_S = 60.0
ORACLE_SAMPLE = 16
ORACLE_TOL = 1e-9
PRINTED_TOL = 5e-7 + 1e-12      # the CLI prints six decimals
IMPORT_SAMPLES = 5


class Report:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def rows(self, result, invalid_lines: set[int], n_rows: int) -> None:
        """Each row's quarantine verdict is one operation."""
        quarantined = {q.line for q in result.quarantined}
        wrong = quarantined ^ invalid_lines
        self.attempted += n_rows
        self.failed += len(wrong)
        for line in sorted(wrong):
            state = "quarantined" if line in quarantined else "accepted"
            print(f"check failed: line {line} wrongly {state}", file=sys.stderr)


def run_cli(argv: list[str]) -> tuple[int, str]:
    from molbridge import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        print(err.getvalue(), file=sys.stderr, end="")
    return code, out.getvalue()


def featurized(smiles: str):
    from molbridge.smiles import featurize, parse_smiles
    return featurize(parse_smiles(smiles))


def graph(smiles: str):
    """(features, adjacency) as the oracle takes them."""
    g = featurized(smiles)
    return g.features, g.adjacency


def oracle_check(report: Report, params, pairs) -> list:
    """Compare model.predict with the straight-line oracle on each pair;
    returns the oracle's probability vectors."""
    import numpy as np
    import oracle
    from molbridge import model

    weights = {name: p.value for name, p in params.named()}
    heads, layers = params.config.heads, params.config.layers
    wanted = []
    for s1, s2 in pairs:
        g1, g2 = featurized(s1), featurized(s2)
        want = oracle.probabilities(weights, heads, layers,
                                    (g1.features, g1.adjacency),
                                    (g2.features, g2.adjacency))
        got = model.predict(g1, g2, params)
        error = float(np.max(np.abs(got - want)))
        report.expect(error <= ORACLE_TOL,
                      f"predict differs from oracle by {error:.3g}")
        wanted.append(want)
    return wanted


class Workload:
    pairs_per_op = 0
    operations = 0

    def __init__(self, inputs: dict, seed: int, traced: bool):
        self.inputs = inputs
        self.seed = seed
        self.traced = traced
        self.outputs: list = []


class TrainDrug(Workload):
    """train.train() on a transductive split of a pooled drug corpus."""

    def setup(self) -> None:
        from molbridge.data import load_dataset
        from molbridge.splits import make_splits
        self.result = load_dataset(self.inputs["csv"])
        self.plan = make_splits(self.result.samples, "transductive", 0,
                                self.seed)
        self.pairs_per_op = TRAIN_EPOCHS * len(self.plan.train)

    def config(self):
        from molbridge.train import TrainConfig
        return TrainConfig(seed=self.seed, max_epochs=TRAIN_EPOCHS,
                           batch_size=TRAIN_BATCH)

    def op(self, i: int) -> None:
        from molbridge.train import train
        _, record = train(self.result.samples, self.plan, self.config())
        self.outputs.append([e.train_loss for e in record.epochs])

    def first_step_loss(self) -> float:
        """Mean oracle loss of the first shuffled batch at initialisation."""
        import numpy as np
        import oracle
        from molbridge.model import init_params

        samples = self.result.samples
        config = self.config()
        n_classes = 1 + max(s.label for s in samples)
        params = init_params(config.model_config(n_classes))
        weights = {name: p.value for name, p in params.named()}
        rng = np.random.default_rng(config.seed)
        train_idx = np.array(self.plan.train)
        batch = train_idx[rng.permutation(len(train_idx))][:config.batch_size]
        return float(np.mean([
            oracle.cross_entropy(weights, config.heads, config.layers,
                                 graph(samples[i].smiles_1),
                                 graph(samples[i].smiles_2),
                                 samples[i].label)
            for i in batch]))

    def check(self, report: Report) -> None:
        report.rows(self.result, set(self.inputs["invalid_lines"]),
                    self.inputs["rows"])
        first = self.first_step_loss()
        for losses in self.outputs:
            report.expect(all(math.isfinite(v) for v in losses)
                          and losses[-1] < first,
                          f"epoch losses {losses} vs first step {first}")


class EvalCorpus(Workload):
    """In-process `molbridge eval --split test` over a large corpus."""

    def args(self, csv: str) -> list[str]:
        return ["eval", "--checkpoint", self.inputs["checkpoint"],
                "--data", csv, "--split", "test", "--seed", str(self.seed)]

    def setup(self) -> None:
        code, _ = run_cli(self.args(self.inputs["warmup_csv"]))
        if code != 0:
            raise RuntimeError(f"warm-up eval exited with {code}")

    def op(self, i: int) -> None:
        code, out = run_cli(self.args(self.inputs["csv"]))
        if code != 0:
            raise RuntimeError(f"eval exited with {code}")
        self.outputs.append(dict(
            (key, float(value)) for key, value in
            (line.split("=", 1) for line in out.split())))

    def check(self, report: Report) -> None:
        from molbridge.checkpoint import load_checkpoint
        from molbridge.data import load_dataset
        from molbridge.splits import make_splits

        result = load_dataset(self.inputs["csv"])
        report.rows(result, set(self.inputs["invalid_lines"]),
                    self.inputs["rows"])
        plan = make_splits(result.samples, "transductive", 0, self.seed)
        test = [result.samples[i] for i in plan.test]
        self.pairs_per_op = len(test)

        params, _ = load_checkpoint(self.inputs["checkpoint"])
        oracle_check(report, params, [(s.smiles_1, s.smiles_2)
                                      for s in test[:ORACLE_SAMPLE]])
        want = macro_metrics(self.oracle_predictions(params, test),
                             [s.label for s in test], params.config.classes)
        for values in self.outputs:
            report.expect(
                values.keys() == want.keys() and all(
                    abs(values[k] - want[k]) <= PRINTED_TOL for k in want),
                f"eval printed {values}, oracle gives {want}")

    @staticmethod
    def oracle_predictions(params, test) -> list[int]:
        import numpy as np
        import oracle
        weights = {name: p.value for name, p in params.named()}
        return [int(np.argmax(oracle.logits(
            weights, params.config.heads, params.config.layers,
            graph(s.smiles_1), graph(s.smiles_2)))) for s in test]


def macro_metrics(preds: list[int], labels: list[int],
                  n_classes: int) -> dict[str, float]:
    """Accuracy and macro precision/recall/F1 over every class, with a
    zero-denominator ratio counted as 0 (the program's documented rule)."""
    precision, recall, f1 = [], [], []
    for c in range(n_classes):
        tp = sum(1 for p, t in zip(preds, labels) if p == c and t == c)
        predicted = sum(1 for p in preds if p == c)
        actual = sum(1 for t in labels if t == c)
        pc = tp / predicted if predicted else 0.0
        rc = tp / actual if actual else 0.0
        precision.append(pc)
        recall.append(rc)
        f1.append(2 * pc * rc / (pc + rc) if pc + rc else 0.0)
    return {
        "accuracy": sum(p == t for p, t in zip(preds, labels)) / len(labels),
        "macro_precision": sum(precision) / n_classes,
        "macro_recall": sum(recall) / n_classes,
        "macro_f1": sum(f1) / n_classes,
    }


class PredictCli(Workload):
    """`python -m molbridge predict` as a fresh subprocess per request.
    The traced run calls the same cli.main(["predict", ...]) in-process."""

    pairs_per_op = 1

    def argv(self, pair) -> list[str]:
        return ["predict", "--checkpoint", self.inputs["checkpoint"], *pair]

    def request(self, pair, in_process: bool) -> str:
        if in_process:
            code, out = run_cli(self.argv(pair))
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "molbridge", *self.argv(pair)],
                capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S)
            code, out = proc.returncode, proc.stdout
            if code != 0:
                print(proc.stderr, file=sys.stderr, end="")
        if code != 0:
            raise RuntimeError(f"predict exited with {code}")
        return out

    def setup(self) -> None:
        self.request(self.inputs["warmup_pair"], in_process=False)

    def op(self, i: int) -> None:
        pair = self.inputs["pairs"][i % len(self.inputs["pairs"])]
        self.outputs.append((pair, self.request(pair, self.traced)))

    def check(self, report: Report) -> None:
        from molbridge.checkpoint import load_checkpoint

        params, _ = load_checkpoint(self.inputs["checkpoint"])
        classes = params.config.classes
        printed = []
        for pair, out in self.outputs:
            probs = {}
            for line in out.splitlines():
                cls, p = line.split()
                probs[int(cls.removeprefix("class="))] = float(
                    p.removeprefix("p="))
            printed.append(probs)
            report.expect(
                sorted(probs) == list(range(classes))
                and all(math.isfinite(v) and v >= 0 for v in probs.values())
                and abs(sum(probs.values()) - 1.0) <= classes * PRINTED_TOL,
                f"predict output for {pair} is not a distribution")
        sample = self.outputs[:ORACLE_SAMPLE]
        wanted = oracle_check(report, params, [pair for pair, _ in sample])
        for probs, want in zip(printed, wanted):
            report.expect(all(abs(probs.get(c, -1.0) - want[c]) <= PRINTED_TOL
                              for c in range(classes)),
                          "printed probabilities differ from oracle")


WORKLOADS = {"train-drug": TrainDrug, "eval-corpus": EvalCorpus,
             "predict-cli": PredictCli}


def attempt(workload: Workload, i: int, report: Report,
            tracer=None) -> float:
    """Run one operation, traced if a tracer is given; returns its
    latency, a failure counting as a miss of REQUEST_TIMEOUT_S.

    Each operation starts from a collected heap, as it would in the
    fresh process a user runs it in, so garbage left by the previous
    operation does not move this one's time or the peak RSS.
    """
    gc.collect()
    if tracer is not None:
        tracer.install()
        tracer.start_request(f"op{i}")
    start = time.perf_counter()
    try:
        workload.op(i)
        ok = True
    except Exception:      # one failed operation must not end the run
        traceback.print_exc(file=sys.stderr)
        ok = False
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    report.expect(ok, f"operation {i} raised")
    return elapsed if ok else max(elapsed, REQUEST_TIMEOUT_S)


def p90(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def loop_metrics(workload: Workload,
                 latencies: list[float]) -> dict[str, float]:
    """Throughput is the median over operations of pairs per second;
    predict requests, one pair each, give requests per second."""
    if isinstance(workload, PredictCli):
        rate = len(latencies) / sum(latencies)
    else:
        rate = statistics.median(workload.pairs_per_op / t for t in latencies)
    return {"pairs_per_s": rate,
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_p90_ms": 1e3 * p90(latencies)}


def closed_loop(workload: Workload, name: str, seconds: float,
                report: Report) -> dict[str, float]:
    latencies: list[float] = []
    start = time.perf_counter()
    while True:
        latencies.append(attempt(workload, len(latencies), report))
        elapsed = time.perf_counter() - start
        if elapsed > MAX_LOOP_S or (
                len(latencies) >= MIN_OPS[name]
                and elapsed + statistics.median(latencies) > seconds):
            break
    workload.operations = len(latencies)
    workload.check(report)
    metrics = loop_metrics(workload, latencies)
    usage = resource.RUSAGE_CHILDREN if isinstance(workload, PredictCli) \
        else resource.RUSAGE_SELF
    metrics["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
    return metrics


def import_seconds() -> float:
    """Median fresh-interpreter time to import molbridge.cli."""
    code = ("import time; t = time.perf_counter(); import molbridge.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             timeout=REQUEST_TIMEOUT_S).stdout)
        for _ in range(IMPORT_SAMPLES))


def tape_nodes() -> tuple[float, int]:
    """Op nodes (those with parents, so leaves such as parameters and
    inputs are not counted) in one drug-sized pair's loss graph, walked
    once through the parents; returns (nodes per pair, pairs walked)."""
    import random
    import corpus
    from molbridge import model
    from molbridge.model import ModelConfig, init_params

    rng = random.Random(0)
    s1, s2 = corpus.make_drug(rng, 35), corpus.make_drug(rng, 35)
    params = init_params(ModelConfig(classes=corpus.CLASSES))
    loss = model.cross_entropy_from_logits(
        model.forward_pair(featurized(s1), featurized(s2), params), 0)
    seen, stack, ops = {id(loss)}, [loss], 0
    while stack:
        parents = stack.pop()._parents
        ops += bool(parents)
        for parent in parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return float(ops), 1


def traced_run(workload: Workload, name: str, tracer, report: Report,
               trace_path: Path) -> dict[str, float]:
    tracer.uninstall()
    attempt(workload, 0, report)                       # warm-up
    plain, traced = [], []
    for k in range(TRACED_OPS[name]):
        plain.append(attempt(workload, 1 + 2 * k, report))
        traced.append(attempt(workload, 2 + 2 * k, report, tracer))
    workload.operations = 1 + len(plain) + len(traced)
    workload.check(report)
    tracer.write(trace_path)

    metrics = tracer.summary()
    rows = tracer.counters["data.rows"]
    fields = tracer.counters["data.smiles_fields"]
    metrics.update({
        "smiles.parse_smiles.calls_per_row":
            metrics["smiles.parse_smiles.calls"] / rows if rows else 0.0,
        "data.rows": rows,
        "data.quarantined": tracer.counters["data.quarantined"],
        "data.smiles_fields": fields,
        "data.distinct_smiles_ratio":
            tracer.counters["data.distinct_smiles"] / fields if fields else 0.0,
        "autodiff.gc_pause_s": tracer.gc_pause_s,
        "autodiff.gc_collections": tracer.gc_collections,
        "cli.import_s": import_seconds(),
        "trace.spans": len(tracer.spans),
    })
    try:
        nodes, pairs = tape_nodes()
    except Exception:      # the walk uses internals a refactor may remove
        traceback.print_exc(file=sys.stderr)
        nodes, pairs = 0.0, 0
    metrics["autodiff.tape_nodes_per_pair"] = nodes
    metrics["autodiff.tape_pairs"] = pairs
    untraced = loop_metrics(workload, plain)
    for key, value in loop_metrics(workload, traced).items():
        metrics[f"trace.overhead.{key}"] = value - untraced[key]
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    work = Path(args.work)
    inputs = json.loads((work / "inputs.json").read_text())

    start = time.perf_counter()
    import molbridge.cli  # noqa: F401  (every module the workloads use)
    tracer = None
    if args.trace and not args.setup_only:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](inputs, args.seed, bool(tracer))
    workload.setup()
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    report = Report()
    if tracer is None:
        metrics = closed_loop(workload, args.workload, args.seconds, report)
    else:
        metrics = traced_run(workload, args.workload, tracer, report,
                             work / "trace.jsonl")
    print(json.dumps({"setup_s": setup_s, "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics,
                      "operations": workload.operations,
                      "absent": tracer.absent if tracer else []}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
