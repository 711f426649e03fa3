"""molbridge benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload train-drug --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from --seed under .perfbench_work/, then
runs perfbench/worker.py in fresh processes with BLAS pinned to
BLAS_THREADS: SETUP_REPEATS set-up-only processes and one full run.
set-up time is the median over all of them. The last line of standard
output is one JSON object: correct, attempted, failed and metrics, the
end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1. The lines before it record the environment and the run.

Workloads (see BENCHMARK.json for why each exists):
  train-drug   train.train() on pairs of 20-50 atom drugs from a shared pool
  eval-corpus  in-process `molbridge eval --split test` over a large CSV of
               3-50 atom drugs, about 2% of rows outside the SMILES subset
  predict-cli  `python -m molbridge predict` as one subprocess per request
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
PINNED = {name: str(BLAS_THREADS) for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(PINNED)       # before numpy is imported anywhere

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import corpus  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("train-drug", "eval-corpus", "predict-cli")
SETUP_REPEATS = 12
TRAIN_ROWS = 367        # transductive split: 256 train, 37 val, 74 test
TRAIN_POOL = 200
EVAL_ROWS = 3000
EVAL_INVALID_SHARE = 0.02
EVAL_WARMUP_ROWS = 100
PREDICT_PAIRS = 200
DEADLINE_S = 170.0

# name -> (unit, better). Every workload reports every one of these.
END_TO_END = {
    "pairs_per_s": ("pairs/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


def per_layer_spec() -> dict[str, tuple[str, str]]:
    spec = {}
    for _, _, name in spans.TARGETS:
        spec[f"{name}.calls"] = ("count", "lower")
        spec[f"{name}.busy_s"] = ("s", "lower")
        spec[f"{name}.self_s"] = ("s", "lower")
    spec.update({
        "smiles.parse_smiles.calls_per_row": ("calls/row", "lower"),
        "data.rows": ("count", "higher"),
        "data.quarantined": ("count", "lower"),
        "data.smiles_fields": ("count", "higher"),
        "data.distinct_smiles_ratio": ("ratio", "lower"),
        "autodiff.tape_nodes_per_pair": ("nodes/pair", "lower"),
        "autodiff.tape_pairs": ("count", "higher"),
        "autodiff.gc_pause_s": ("s", "lower"),
        "autodiff.gc_collections": ("count", "lower"),
        "cli.import_s": ("s", "lower"),
        "trace.spans": ("count", "lower"),
        "trace.overhead.setup_s": ("s", "lower"),
        "trace.overhead.pairs_per_s": ("pairs/s", "higher"),
        "trace.overhead.latency_p50_ms": ("ms", "lower"),
        "trace.overhead.latency_p90_ms": ("ms", "lower"),
    })
    return spec


def make_inputs(workload: str, seed: int, inputs_dir: Path) -> dict:
    """Write the workload's seeded inputs; returns what the worker reads."""
    inputs_dir.mkdir(parents=True)
    if workload == "train-drug":
        data = corpus.pooled_corpus(seed, TRAIN_ROWS, TRAIN_POOL)
        data.write_csv(inputs_dir / "train.csv")
        return {"csv": str(inputs_dir / "train.csv"), "rows": len(data.rows),
                "invalid_lines": sorted(data.invalid_lines)}

    from molbridge.checkpoint import save_checkpoint
    from molbridge.model import ModelConfig, init_params
    checkpoint = inputs_dir / "model.ckpt"
    save_checkpoint(checkpoint,
                    init_params(ModelConfig(classes=corpus.CLASSES, seed=seed)))
    if workload == "eval-corpus":
        data = corpus.open_corpus(seed, EVAL_ROWS, EVAL_INVALID_SHARE)
        data.write_csv(inputs_dir / "eval.csv")
        corpus.Corpus(data.rows[:EVAL_WARMUP_ROWS], set()).write_csv(
            inputs_dir / "warmup.csv")
        return {"csv": str(inputs_dir / "eval.csv"),
                "warmup_csv": str(inputs_dir / "warmup.csv"),
                "checkpoint": str(checkpoint), "rows": len(data.rows),
                "invalid_lines": sorted(data.invalid_lines)}
    rng = random.Random(seed)
    sizes = corpus.spread_sizes(rng, 2 * PREDICT_PAIRS + 2, 20, 50)
    pairs = [[corpus.make_drug(rng, sizes[2 * i]),
              corpus.make_drug(rng, sizes[2 * i + 1])]
             for i in range(PREDICT_PAIRS + 1)]
    return {"checkpoint": str(checkpoint), "pairs": pairs[1:],
            "warmup_pair": pairs[0]}


def run_worker(argv: list[str], env: dict, deadline: float) -> dict:
    """Run one worker to completion (its whole process group is killed
    at the deadline); returns its last stdout line as JSON."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker {argv[2:6]} passed the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def environment(root: Path) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = root / ".git" / ref.removeprefix("ref: ")
        commit = target.read_text().strip() if ref.startswith("ref: ") \
            and target.is_file() else ref
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": commit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "molbridge" / "__init__.py").is_file():
        print("error: run from the root of a molbridge checkout "
              "(src/molbridge is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = make_inputs(args.workload, args.seed, work / "inputs")
    (work / "inputs.json").write_text(json.dumps(inputs))

    env = dict(os.environ, PYTHONPATH=str(src), **PINNED)
    argv = [sys.executable, str(Path(__file__).with_name("worker.py")),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", str(work)]
    setups = [run_worker(argv + ["--setup-only"], env, deadline)["setup_s"]
              for _ in range(SETUP_REPEATS)]
    result = run_worker(argv, env, deadline)
    shutil.rmtree(work / "inputs")

    metrics = result["metrics"]
    if args.trace:
        metrics["trace.overhead.setup_s"] = (result["setup_s"]
                                             - statistics.median(setups))
        spec = per_layer_spec()
    else:
        setups.append(result["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        spec = END_TO_END
    if set(metrics) != set(spec):
        print(f"error: metrics {sorted(set(metrics) ^ set(spec))} do not "
              "match the benchmark's list", file=sys.stderr)
        return 1

    print("env:", json.dumps(environment(root)))
    print("run:", json.dumps({"workload": args.workload, "seed": args.seed,
                              "operations": result["operations"],
                              "setup_s": setups, "absent": result["absent"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(metrics[name]), "unit": spec[name][0]}
                    for name in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
