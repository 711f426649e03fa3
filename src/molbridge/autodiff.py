"""Reverse mode as composed pullbacks over numpy arrays, each computing
in its inputs' dtype; there is no graph to walk.

Model stages are functions of arrays that return ``(value, backward)``:
``backward(grad)``, the pullback, adds the stage's Param gradients in
place and returns its input gradients, without writing into ``grad``
(``layer_norm`` here; joint.py and model.py hold the rest).
``model.forward_chunk`` composes them into ``(logits, backward)``, and
the loss, the one :class:`Tensor`, hands its logit gradient to that
backward. Pullbacks hold no reference to what holds them, so a graph is
freed by reference counting as soon as the loss is dropped.

Only a :class:`Param` holds a gradient, zeroed at creation; it
accumulates in place until ``zero_grad`` (two backward calls on one
graph exactly double it).
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeMismatchError

Array = np.ndarray


class Tensor:
    """A 1x1 loss and its pullback."""

    __slots__ = ("value", "_pullback")

    def __init__(self, value: Array, pullback: Callable[[Array], None]):
        self.value = value
        self._pullback = pullback

    def item(self) -> float:
        return float(self.value[0, 0])

    def backward(self) -> None:
        """Seed 1: add d(self)/d(param) to every Param self came from."""
        self._pullback(np.ones((1, 1), self.value.dtype))


class Param:
    """A named learnable array; its grad (zeros unless given) accumulates."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value: Array, name: str, grad: Array | None = None):
        self.value = value
        self.grad = np.zeros_like(value) if grad is None else grad
        self.name = name

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def _pull(self, grad: Array) -> None:
        """Add d(loss)/d(self): the one place a gradient is added."""
        self.grad += grad

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


@functools.lru_cache(maxsize=256)
def _ones(shape: tuple[int, int], dtype: np.dtype) -> Array:
    """A read-only array of ones, made once per shape and dtype."""
    ones = np.ones(shape, dtype)
    ones.flags.writeable = False
    return ones


def row_sums(x: Array) -> Array:
    """Each row's sum as a column, by a matrix-vector product (several
    times faster than sum(axis=1) on a few dozen columns)."""
    return x @ _ones((x.shape[-1], 1), x.dtype)


def col_sums(x: Array) -> Array:
    """Each column's sum as a row, by a vector-matrix product."""
    return _ones((1, x.shape[0]), x.dtype) @ x


def layer_norm(x: Array, gain: Param, bias: Param):
    """Per-row normalization to zero mean / unit variance (variance plus
    1e-5), then gain and bias, 1 x cols rows broadcast over every row.
    Returns (value, backward); backward(grad) adds gain's and bias's
    gradients and returns x's, (inv / d) (d dxhat - rowsum(dxhat) -
    xhat rowdot(dxhat, xhat)) for dxhat = grad * gain."""
    d = x.shape[1]
    if gain.shape != (1, d) or bias.shape != (1, d):
        raise ShapeMismatchError(
            f"layer_norm gain/bias must be 1x{d}, "
            f"got {gain.shape} and {bias.shape}")
    xhat = x - row_sums(x) / d
    inv = 1.0 / np.sqrt(row_sums(xhat * xhat) / d + 1e-5)
    xhat *= inv
    value = xhat * gain.value
    value += bias.value

    def backward(grad):
        gain._pull(col_sums(grad * xhat))
        bias._pull(col_sums(grad))
        dx = grad * gain.value
        row_sum = row_sums(dx)
        row_dot = row_sums(dx * xhat)
        dx *= d
        dx -= row_sum
        dx -= xhat * row_dot
        dx *= inv / d
        return dx

    return value, backward


def grad_check(f: Callable[[], Tensor], params: Sequence[Param]) -> float:
    """Compare analytic gradients of a scalar-valued f against central
    differences of step 1e-5, entry by entry, over every given Param.

    Returns max_i |analytic_i - numeric_i| / max(1, |analytic_i|, |numeric_i|).
    f must be deterministic and rebuild its graph on each call.
    """
    for p in params:
        p.zero_grad()
    f().backward()
    analytic = [p.grad.copy() for p in params]

    eps, worst = 1e-5, 0.0
    for p, a_grad in zip(params, analytic):
        flat = p.value.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            up = f().item()
            flat[i] = original - eps
            down = f().item()
            flat[i] = original
            numeric = (up - down) / (2.0 * eps)
            analytic_i = a_grad.reshape(-1)[i]
            denom = max(1.0, abs(analytic_i), abs(numeric))
            worst = max(worst, abs(analytic_i - numeric) / denom)
        p.zero_grad()
    return worst
