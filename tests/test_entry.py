"""The command line's entry: what a command loads, and the BLAS defaults.

``python -m molbridge`` sets each BLAS thread variable that is unset or
empty to 1 before numpy loads, so a plain shell forks the chunk helpers
and writes the bytes of a pinned run. Every run here is a fresh
interpreter.
"""

import json
import os
import re

import pytest

from molbridge import BLAS_THREAD_VARIABLES
from molbridge.checkpoint import save_checkpoint
from molbridge.model import ModelConfig, init_params
from molbridge.synthetic import make_two_class_dataset, write_dataset

from conftest import ROOT, run_cli, run_python

# what `predict` printed for this checkpoint and pair before it stopped
# loading the modules it does not run
PREDICT_LINES = ("class=3 p=0.994370\nclass=2 p=0.005386\n"
                 "class=0 p=0.000208\nclass=1 p=0.000036\n")

NOT_FOR_PREDICT = {"molbridge.data", "molbridge.train", "molbridge.splits",
                   "molbridge.metrics", "molbridge.optim",
                   "molbridge.analysis", "numpy.random"}

TRAIN = ("train", "--epochs", "6", "--batch", "64", "--seed", "5")


def imported(stderr: str) -> set[str]:
    """The modules a `python -X importtime` run reported importing."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def blas_environment(monkeypatch, **values) -> None:
    """Remove the three BLAS variables, then set the given ones."""
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in values.items():
        monkeypatch.setenv(name, value)


def manifest(run_dir) -> dict:
    return json.loads((run_dir / "manifest.json").read_text())


class TestImports:
    def test_predict_loads_only_what_it_runs(self, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, init_params(
            ModelConfig(dim=8, heads=2, layers=2, classes=4, seed=3)))
        proc = run_python("-X", "importtime", "-m", "molbridge", "predict",
                          "--checkpoint", str(ckpt), "CCO", "c1ccccc1N")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == PREDICT_LINES
        loaded = imported(proc.stderr)
        assert {"molbridge.cli", "molbridge.checkpoint", "numpy"} <= loaded
        assert not loaded & NOT_FOR_PREDICT

    def test_import_loads_no_numpy_and_keeps_environment(self):
        # the package, and the console script's target as pyproject names it
        module, function = re.search(
            r'^molbridge = "([\w.]+):(\w+)"$',
            (ROOT / "pyproject.toml").read_text(), re.M).groups()
        proc = run_python(
            "-X", "importtime", "-c",
            f"import os; before = dict(os.environ); import {module}; "
            f"print(callable({module}.{function}), "
            "dict(os.environ) == before)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True True\n"
        loaded = imported(proc.stderr)
        assert {"molbridge", module} <= loaded
        assert "numpy" not in loaded

    def test_data_loads_no_model(self):
        proc = run_python("-X", "importtime", "-c", "import molbridge.data")
        assert proc.returncode == 0, proc.stderr
        loaded = imported(proc.stderr)
        assert "molbridge.data" in loaded
        assert "molbridge.model" not in loaded


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    # large enough that one BLAS thread and two write different bytes
    path = tmp_path_factory.mktemp("data") / "pairs.csv"
    write_dataset(make_two_class_dataset(120, seed=1), path)
    return path


@pytest.fixture(scope="module")
def train_runs(tmp_path_factory, data_path):
    """The same train run without the BLAS variables and with each at 1."""
    root = tmp_path_factory.mktemp("runs")
    with pytest.MonkeyPatch.context() as monkeypatch:
        for pin in ("unset", "1"):
            values = {} if pin == "unset" else dict.fromkeys(
                BLAS_THREAD_VARIABLES, pin)
            blas_environment(monkeypatch, **values)
            proc = run_cli(*TRAIN, "--data", str(data_path),
                           "--out", str(root / pin))
            assert proc.returncode == 0, proc.stderr
    return root / "unset", root / "1"


class TestBlasDefaults:
    def test_unpinned_train_writes_the_pinned_bytes(self, train_runs):
        unpinned, pinned = train_runs
        for name in ("runrecord.csv", "best.ckpt"):
            assert (unpinned / name).read_bytes() == \
                (pinned / name).read_bytes()

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="helpers need at least 2 CPUs")
    def test_unpinned_train_forks_helpers(self, train_runs):
        unpinned, _ = train_runs
        assert manifest(unpinned)["processes"] > 1

    def test_manifest_records_blas_setting(self, train_runs, data_path,
                                           tmp_path, monkeypatch):
        unpinned, _ = train_runs
        assert manifest(unpinned)["blas_threads"] == dict.fromkeys(
            BLAS_THREAD_VARIABLES, "1")

        # an explicit value wins; an empty one is taken as unset
        blas_environment(monkeypatch, OMP_NUM_THREADS="3",
                         MKL_NUM_THREADS="")
        out = tmp_path / "eval"
        proc = run_cli("eval", "--checkpoint", str(unpinned / "best.ckpt"),
                       "--data", str(data_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert manifest(out)["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3",
            "MKL_NUM_THREADS": "1"}
