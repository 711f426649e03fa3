"""Dense rank-2 reverse-mode autodiff on float64 numpy arrays.

Every value is a matrix (rows, cols). Ops record a backward closure and
their parent nodes; ``backward()`` on a 1x1 loss walks the graph in
reverse topological order. Gradients of intermediate nodes are scratch
space reset on each backward pass, while :class:`Param` gradients
accumulate across passes until ``zero_grad`` (so two backward calls on
the same graph exactly double them).

Broadcasting is deliberately narrow: same-shape elementwise, a 1x1
scalar against anything, and a 1xd row (bias) against Nxd. Anything
else raises ShapeMismatchError instead of guessing.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    NonFiniteInputError,
    NonScalarLossError,
    ShapeMismatchError,
)

Array = np.ndarray


def _as_matrix(value) -> Array:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"expected a rank-2 array, got rank {arr.ndim}")
    return arr


class Tensor:
    """A matrix node in the computation graph."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad: bool = False):
        arr = _as_matrix(value)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteInputError("tensor constructed from non-finite values")
        self.value = arr
        self.grad = np.zeros_like(arr)
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[], None] | None = None

    @classmethod
    def _result(cls, value: Array, parents: tuple["Tensor", ...],
                backward: Callable[[], None]) -> "Tensor":
        out = cls.__new__(cls)
        out.value = value
        out.grad = np.zeros_like(value)
        out.requires_grad = any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    # -- introspection -------------------------------------------------- #

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    def item(self) -> float:
        if self.value.size != 1:
            raise ShapeMismatchError(f"item() on shape {self.shape}")
        return float(self.value[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ----------------------------------------------------- #

    def __add__(self, other):
        if isinstance(other, (int, float)):
            out_value = self.value + float(other)

            def backward():
                self.grad += out.grad

            out = Tensor._result(out_value, (self,), backward)
            return out
        return _add(self, other)

    __radd__ = __add__

    def __neg__(self):
        def backward():
            self.grad -= out.grad

        out = Tensor._result(-self.value, (self,), backward)
        return out

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return self + (-float(other))
        return _add(self, -other)

    def __rsub__(self, other):
        # float - tensor
        return (-self) + float(other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            c = float(other)

            def backward():
                self.grad += c * out.grad

            out = Tensor._result(self.value * c, (self,), backward)
            return out
        return _mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    # -- autodiff ------------------------------------------------------- #

    def backward(self) -> None:
        """Accumulate d(self)/d(param) into every reachable Param's grad.

        self must be 1x1. Gradients of non-Param nodes are cleared first,
        so repeated calls double Param gradients exactly.
        """
        if self.value.shape != (1, 1):
            raise NonScalarLossError(
                f"backward() needs a 1x1 loss, got shape {self.value.shape}")

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        for node in topo:
            if not isinstance(node, Param):
                node.grad[...] = 0.0
        self.grad += 1.0
        for node in reversed(topo):
            if node._backward is not None:
                node._backward()


class Param(Tensor):
    """A named learnable tensor; gradients persist across backward calls."""

    __slots__ = ("name",)

    def __init__(self, value, name: str):
        super().__init__(value, requires_grad=True)
        self.name = name

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Param({self.name!r}, shape={self.shape})"


# ---------------------------------------------------------------------- #
# binary ops
# ---------------------------------------------------------------------- #

def _add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape == b.shape:
        def backward():
            a.grad += out.grad
            b.grad += out.grad

        out = Tensor._result(a.value + b.value, (a, b), backward)
        return out
    if a.shape == (1, 1) or b.shape == (1, 1):
        scalar, full = (a, b) if a.shape == (1, 1) else (b, a)

        def backward():
            full.grad += out.grad
            scalar.grad += out.grad.sum()

        out = Tensor._result(scalar.value[0, 0] + full.value, (a, b), backward)
        return out
    if a.rows == 1 and a.cols == b.cols:
        row, full = a, b
    elif b.rows == 1 and b.cols == a.cols:
        row, full = b, a
    else:
        raise ShapeMismatchError(f"cannot add shapes {a.shape} and {b.shape}")

    def backward():
        full.grad += out.grad
        row.grad += out.grad.sum(axis=0, keepdims=True)

    out = Tensor._result(full.value + row.value, (a, b), backward)
    return out


def _mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape == b.shape:
        def backward():
            a.grad += out.grad * b.value
            b.grad += out.grad * a.value

        out = Tensor._result(a.value * b.value, (a, b), backward)
        return out
    if a.shape == (1, 1) or b.shape == (1, 1):
        scalar, full = (a, b) if a.shape == (1, 1) else (b, a)

        def backward():
            full.grad += scalar.value[0, 0] * out.grad
            scalar.grad += (out.grad * full.value).sum()

        out = Tensor._result(scalar.value[0, 0] * full.value, (a, b), backward)
        return out
    raise ShapeMismatchError(f"cannot multiply shapes {a.shape} and {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with the standard reverse-mode pullbacks."""
    if a.cols != b.rows:
        raise ShapeMismatchError(
            f"matmul inner dimensions differ: {a.shape} x {b.shape}")

    def backward():
        a.grad += out.grad @ b.value.T
        b.grad += a.value.T @ out.grad

    out = Tensor._result(a.value @ b.value, (a, b), backward)
    return out


# ---------------------------------------------------------------------- #
# elementwise / fused ops
# ---------------------------------------------------------------------- #

def relu(x: Tensor) -> Tensor:
    mask = x.value > 0.0

    def backward():
        x.grad += out.grad * mask

    out = Tensor._result(np.where(mask, x.value, 0.0), (x,), backward)
    return out


def sigmoid(x: Tensor) -> Tensor:
    # stable two-sided formulation
    value = np.where(x.value >= 0,
                     1.0 / (1.0 + np.exp(-np.abs(x.value))),
                     np.exp(-np.abs(x.value)) / (1.0 + np.exp(-np.abs(x.value))))

    def backward():
        x.grad += out.grad * value * (1.0 - value)

    out = Tensor._result(value, (x,), backward)
    return out


def log_softmax_rows(x: Tensor) -> Tensor:
    """Row-wise log-softmax (numerically fused; exp never overflows)."""
    if not np.all(np.isfinite(x.value)):
        raise NonFiniteInputError("log_softmax_rows received non-finite input")
    shifted = x.value - x.value.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    y = shifted - log_z
    p = np.exp(y)

    def backward():
        g = out.grad
        x.grad += g - p * g.sum(axis=1, keepdims=True)

    out = Tensor._result(y, (x,), backward)
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization to zero mean / unit variance, then gain and bias.

    gain and bias are 1 x cols rows broadcast over every row of x.
    """
    if gain.shape != (1, x.cols) or bias.shape != (1, x.cols):
        raise ShapeMismatchError(
            f"layer_norm gain/bias must be 1x{x.cols}, "
            f"got {gain.shape} and {bias.shape}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = x.cols
    mu = x.value.mean(axis=1, keepdims=True)
    centered = x.value - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    value = xhat * gain.value + bias.value

    def backward():
        g = out.grad
        gain.grad += (g * xhat).sum(axis=0, keepdims=True)
        bias.grad += g.sum(axis=0, keepdims=True)
        dxhat = g * gain.value
        x.grad += (inv / d) * (d * dxhat
                               - dxhat.sum(axis=1, keepdims=True)
                               - xhat * (dxhat * xhat).sum(axis=1, keepdims=True))

    out = Tensor._result(value, (x, gain, bias), backward)
    return out


# ---------------------------------------------------------------------- #
# reductions and selection
# ---------------------------------------------------------------------- #

def sum_rows(x: Tensor) -> Tensor:
    """Column sums: Nxd -> 1xd."""
    def backward():
        x.grad += np.broadcast_to(out.grad, x.shape)

    out = Tensor._result(x.value.sum(axis=0, keepdims=True), (x,), backward)
    return out


def sum_all(x: Tensor) -> Tensor:
    """Total sum: Nxd -> 1x1."""
    def backward():
        x.grad += out.grad[0, 0]

    out = Tensor._result(x.value.sum(keepdims=True).reshape(1, 1), (x,), backward)
    return out


def select(x: Tensor, row: int, col: int) -> Tensor:
    """Pick one entry as a 1x1 tensor."""
    if not (0 <= row < x.rows and 0 <= col < x.cols):
        raise ShapeMismatchError(
            f"select({row}, {col}) out of bounds for shape {x.shape}")

    def backward():
        x.grad[row, col] += out.grad[0, 0]

    out = Tensor._result(x.value[row:row + 1, col:col + 1].copy(), (x,), backward)
    return out


# ---------------------------------------------------------------------- #
# gradient checking
# ---------------------------------------------------------------------- #

def zero_grads(params: Iterable[Param]) -> None:
    for p in params:
        p.zero_grad()


def grad_check(f: Callable[[], Tensor], params: Sequence[Param],
               eps: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar-valued f against central
    differences, entry by entry, over every given Param.

    Returns max_i |analytic_i - numeric_i| / max(1, |analytic_i|, |numeric_i|).
    f must be deterministic and rebuild its graph on each call.
    """
    zero_grads(params)
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
    zero_grads(params)
    return worst
