"""Smoke runs of the scripts under scripts/, each in a fresh interpreter
on a small input, so a change that breaks one fails the suite."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_make_synthetic_dataset(tmp_path):
    out = tmp_path / "pairs.csv"
    lines = run_script("make_synthetic_dataset.py", "--n", "40",
                       "--out", str(out))
    assert lines == [f"wrote 40 pairs to {out} "
                     "(label counts 0:10 1:10 2:10 3:10)"]
    assert len(out.read_text().splitlines()) == 41


def test_toy_run():
    lines = run_script("toy_run.py", "--n", "40", "--epochs", "2")
    assert any(line.startswith("test: accuracy=") for line in lines)
    assert any(line.startswith("depth 8 cosine: plain ") for line in lines)
