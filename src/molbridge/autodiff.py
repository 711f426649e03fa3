"""A small reverse-mode autodiff over rank-2 numpy arrays whose dtype
follows the inputs: ``Tensor(...)`` keeps a float32 array and makes
anything else float64, and a pullback computes in its inputs' dtype.

A :class:`Tensor` is a value and its pullback, the vector-Jacobian
product that hands d(loss)/d(value) on to what the value was computed
from; reverse mode is the pullbacks composed, with no graph to walk.
Model stages are functions of arrays that return ``(value, backward)``:
``backward(grad)`` adds the stage's Param gradients in place and returns
its input gradients, without writing into ``grad`` (``layer_norm`` here;
joint.py and model.py hold the rest). ``model.forward_chunk`` composes
them into the logits' pullback, and the loss's pullback hands its
logit gradient straight to that. ``backward()`` on a 1x1 loss seeds 1.
Pullbacks hold no reference to their own tensor, so a graph has no
reference cycles and is freed as soon as the loss is dropped.

Only a :class:`Param` holds a gradient, zeroed at creation; it
accumulates in place until ``zero_grad`` (two backward calls on one
graph exactly double it). Tensors have no operators.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from .errors import NonScalarLossError, ShapeMismatchError

Array = np.ndarray


class Tensor:
    """A matrix value and its pullback; a constant has none."""

    __slots__ = ("value", "_pullback")

    def __init__(self, value, pullback: Callable[[Array], None] | None = None):
        arr = np.asarray(value)
        arr = arr if arr.dtype == np.float32 else np.asarray(arr, np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ShapeMismatchError(
                f"expected a rank-2 array, got rank {arr.ndim}")
        self.value = arr
        self._pullback = pullback

    def _pull(self, grad: Array) -> None:
        """Take d(loss)/d(self) and hand it to the pullback."""
        if self._pullback is not None:
            self._pullback(grad)

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        if self.value.size != 1:
            raise ShapeMismatchError(f"item() on shape {self.shape}")
        return float(self.value[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    def backward(self) -> None:
        """Add d(self)/d(param) to every Param self was computed from.

        self must be 1x1. Each call runs the pullbacks afresh, so
        repeated calls double Param gradients exactly.
        """
        if self.value.shape != (1, 1):
            raise NonScalarLossError(
                f"backward() needs a 1x1 loss, got shape {self.value.shape}")
        self._pull(np.ones((1, 1), self.value.dtype))


class Param(Tensor):
    """A named learnable tensor; gradients persist across backward calls."""

    __slots__ = ("grad", "name")

    def __init__(self, value, name: str):
        super().__init__(value)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def _pull(self, grad: Array) -> None:
        self.grad += grad

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Param({self.name!r}, shape={self.shape})"


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


def grad_check(f: Callable[[], Tensor], params: Sequence[Param],
               eps: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar-valued f against central
    differences, entry by entry, over every given Param.

    Returns max_i |analytic_i - numeric_i| / max(1, |analytic_i|, |numeric_i|).
    f must be deterministic and rebuild its graph on each call.
    """
    for p in params:
        p.zero_grad()
    f().backward()
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
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
