import os
import resource
import subprocess
import sys
from pathlib import Path

import hypothesis
import numpy as np
import pytest

from molbridge import model
from molbridge.autodiff import Param, Tensor, grad_check
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


@pytest.fixture(scope="session")
def bench_corpus():
    """The benchmark's seeded drug generator, perfbench/corpus.py."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import corpus
    finally:
        sys.path.pop(0)
    return corpus


def node(x):
    """x as a (value, pullback) pair: a Param's pullback adds to its grad,
    a loss Tensor's is its own, and a pair is already one."""
    if isinstance(x, Param):
        return x.value, x._pull
    return (x.value, x._pullback) if isinstance(x, Tensor) else x


def probe_loss(x, probe) -> Tensor:
    """The 1x1 loss sum(x * probe), for gradient tests, over a Param or a
    (value, pullback) pair x.

    probe is a constant (an array, or a number broadcast to x's shape);
    the pullback hands x the gradient probe * g. A loss of sum(p * p) has
    gradient 2p, which probe_loss(p, 2.0 * p.value) gives bit for bit.
    """
    value, pull = node(x)
    probe = np.broadcast_to(probe, value.shape)
    return Tensor((value * probe).sum(keepdims=True),
                  lambda grad: pull(probe * grad))


# Ops for graphs built in the tests, on Params or (value, pullback)
# pairs as model stages return them; each returns such a pair, whose
# pullback hands the gradient on and returns nothing.

def add(a, b):
    (a, pull_a), (b, pull_b) = node(a), node(b)

    def pullback(grad):
        pull_a(grad)
        pull_b(grad)

    return a + b, pullback


def scale(x, c: float):
    value, pull = node(x)
    return value * c, lambda grad: pull(c * grad)


def positive_part(x):
    value, pull = node(x)
    return np.maximum(value, 0.0), lambda grad: pull(grad * (value > 0.0))


def linear(x, w: Param, b: Param):
    value, pull = node(x)

    def pullback(grad):
        pull(grad @ w.value.T)
        w._pull(value.T @ grad)
        b._pull(grad.sum(axis=0, keepdims=True))

    return value @ w.value + b.value, pullback


def stage_node(stage, *inputs):
    """A model stage (arrays in, (value, backward) out) over Params or
    pairs, as a pair whose pullback hands each input its gradient.
    backward(grad) must add each Param's gradient and return the inputs'
    gradients (one array, a tuple in input order, or None without
    inputs), and must leave grad as it was."""
    inputs = [node(x) for x in inputs]
    value, backward = stage(*(x for x, _ in inputs))

    def pullback(grad):
        handed = grad.copy()
        got = backward(grad)
        assert np.array_equal(grad, handed), "the pullback wrote into grad"
        got = () if got is None else got if isinstance(got, tuple) else (got,)
        assert len(got) == len(inputs)
        for (x, pull), g in zip(inputs, got):
            assert g.shape == x.shape
            pull(g)

    return value, pullback


def check_pullback(stage, inputs, params, probe) -> float:
    """grad_check's worst relative error for a stage's pullback (see
    stage_node), with the loss sum(value * probe): central differences
    run over every entry of the input arrays and of the Params."""
    leaves = [Param(np.array(x, dtype=np.float64), f"input{i}")
              for i, x in enumerate(inputs)]
    return grad_check(
        lambda: probe_loss(stage_node(stage, *leaves), probe),
        [*leaves, *params])


def record_chunks(monkeypatch) -> tuple[list, list]:
    """Patch model.forward_chunk to keep the logits of every chunk, and
    the (logits, gradient) arrays of every call of a chunk's pullback
    (a chunk scored without one has none); returns the two lists."""
    logits, handed = [], []
    forward = model.forward_chunk

    def kept(chunk_pairs, chunk_params, pullback=True):
        value, backward = forward(chunk_pairs, chunk_params, pullback)
        logits.append(value)
        if backward is None:
            return value, None

        def recorded(grad):
            handed.append((value, grad))
            backward(grad)

        return value, recorded

    monkeypatch.setattr(model, "forward_chunk", kept)
    return logits, handed


def save_unchecked(path, **fields) -> None:
    """Save a small seeded model whose config fields are set past
    ModelConfig's checks, as a file that no trainer here writes."""
    config = ModelConfig(dim=8, heads=2, layers=2, d_hid=16, classes=3)
    vars(config).update(fields)
    with np.errstate(divide="ignore"):     # a dim-0 draw scales by 1/0
        save_checkpoint(path, init_params(config))


def run_cli(*argv: str, memory_cap: int | None = None):
    """`python -m molbridge *argv` in a fresh interpreter; see run_python."""
    return run_python("-m", "molbridge", *argv, memory_cap=memory_cap)


def run_python(*argv: str, memory_cap: int | None = None):
    """`python *argv` in a fresh interpreter, with src on PYTHONPATH as
    test_scripts.run_script sets it; returns the completed process with
    text stdout and stderr.

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

    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env=env,
                          preexec_fn=limit)
