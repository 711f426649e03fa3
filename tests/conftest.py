import os
import resource
import subprocess
import sys
from pathlib import Path

import hypothesis
import numpy as np
import pytest

from molbridge.autodiff import Tensor
from molbridge.checkpoint import save_checkpoint
from molbridge.model import ModelConfig, init_params

ROOT = Path(__file__).resolve().parents[1]

hypothesis.settings.register_profile(
    "ci", derandomize=True, deadline=None, max_examples=25)
hypothesis.settings.load_profile("ci")

# Verdict lines recorded by the acceptance tests; replayed after the
# run so they stay visible under output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or not
    yet reaped (chunk-parallel helpers must be killed and reaped)."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid or '(still running)'}")


# Small parsable molecules used across test modules; all within the
# supported subset, atom counts 1 to 12.
CORPUS = [
    "C", "N", "O", "CC", "CO", "CN", "C=C", "C#C", "C#N", "CCO", "CCN",
    "COC", "CNC", "C=O", "CCC", "CC=O", "OCCO", "CC(C)C", "CC(=O)O",
    "C1CC1", "C1CCC1", "C1CCCC1", "c1ccccc1", "c1ccncc1", "CC(O)CN",
    "CCOC(=O)C", "[NH4+]", "[O-]C=O", "CN(C)C", "ClCCl", "BrCCBr", "FC(F)F",
    "IC", "SCC", "CS(=O)C", "PC", "C%10CC%10", "CC(C)(C)C", "OC1CCC1",
    "CCCCCCCCCCCC",
]


def probe_loss(x: Tensor, probe) -> Tensor:
    """The 1x1 loss sum(x * probe) as one tape node, for gradient tests.

    probe is a constant (an array, or a number broadcast to x's shape);
    the backward hands x the gradient probe * g. A loss of sum(p * p) has
    gradient 2p, which probe_loss(p, 2.0 * p.value) gives bit for bit.
    """
    probe = np.broadcast_to(probe, x.shape)

    def backward(grad):
        x._add_grad(probe * grad)

    return Tensor._result((x.value * probe).sum(keepdims=True), (x,), backward)


def save_unchecked(path, **fields) -> None:
    """Save a small seeded model whose config fields are set past
    ModelConfig's checks, as a file that no trainer here writes."""
    config = ModelConfig(dim=8, heads=2, layers=2, d_hid=16, classes=3)
    vars(config).update(fields)
    with np.errstate(divide="ignore"):     # a dim-0 draw scales by 1/0
        save_checkpoint(path, init_params(config))


def run_cli(*argv: str, memory_cap: int | None = None):
    """`python -m molbridge *argv` in a fresh interpreter, with src on
    PYTHONPATH as test_scripts.run_script sets it; returns the completed
    process with text stdout and stderr.

    memory_cap (bytes) caps the child's address space, so a run that
    asks for a huge array fails fast instead of allocating gigabytes.
    BLAS then runs one thread: each extra thread reserves tens of MB.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    limit = None
    if memory_cap is not None:
        env["OPENBLAS_NUM_THREADS"] = "1"

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (memory_cap, memory_cap))

    return subprocess.run([sys.executable, "-m", "molbridge", *argv],
                          capture_output=True, text=True, env=env,
                          preexec_fn=limit)
