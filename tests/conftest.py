import hypothesis
import numpy as np

from molbridge.autodiff import Tensor

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
