"""Dense rank-2 reverse-mode autodiff on float64 numpy arrays.

Every value is a matrix (rows, cols). Ops record a backward closure and
their parent nodes; ``backward()`` on a 1x1 loss walks the graph in
reverse topological order, handing each closure its node's gradient.
Closures hold no reference to their own node, so a graph has no
reference cycles and is freed as soon as the loss is dropped. Gradients
of intermediate nodes are scratch space allocated by each backward
pass (a forward pass allocates none), while :class:`Param` gradients
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
        self._backward: Callable[[Array], None] | None = None

    @classmethod
    def _result(cls, value: Array, parents: tuple["Tensor", ...],
                backward: Callable[[Array], None]) -> "Tensor":
        out = cls.__new__(cls)
        out.value = value
        out.requires_grad = any(p.requires_grad for p in parents)
        if out.requires_grad:
            # allocated by backward(), which only visits nodes like this
            out.grad = None
            out._parents = parents
            out._backward = backward
        else:
            out.grad = np.zeros_like(value)
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

            def backward(grad):
                self.grad += grad

            return Tensor._result(out_value, (self,), backward)
        return _add(self, other)

    __radd__ = __add__

    def __neg__(self):
        def backward(grad):
            self.grad -= grad

        return Tensor._result(-self.value, (self,), backward)

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

            def backward(grad):
                self.grad += c * grad

            return Tensor._result(self.value * c, (self,), backward)
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
                node.grad = np.zeros_like(node.value)
        self.grad += 1.0
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)


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
        def backward(grad):
            a.grad += grad
            b.grad += grad

        return Tensor._result(a.value + b.value, (a, b), backward)
    if a.shape == (1, 1) or b.shape == (1, 1):
        scalar, full = (a, b) if a.shape == (1, 1) else (b, a)

        def backward(grad):
            full.grad += grad
            scalar.grad += grad.sum()

        return Tensor._result(scalar.value[0, 0] + full.value, (a, b), backward)
    if a.rows == 1 and a.cols == b.cols:
        row, full = a, b
    elif b.rows == 1 and b.cols == a.cols:
        row, full = b, a
    else:
        raise ShapeMismatchError(f"cannot add shapes {a.shape} and {b.shape}")

    def backward(grad):
        full.grad += grad
        row.grad += grad.sum(axis=0, keepdims=True)

    return Tensor._result(full.value + row.value, (a, b), backward)


def _mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape == b.shape:
        def backward(grad):
            a.grad += grad * b.value
            b.grad += grad * a.value

        return Tensor._result(a.value * b.value, (a, b), backward)
    if a.shape == (1, 1) or b.shape == (1, 1):
        scalar, full = (a, b) if a.shape == (1, 1) else (b, a)

        def backward(grad):
            full.grad += scalar.value[0, 0] * grad
            scalar.grad += (grad * full.value).sum()

        return Tensor._result(scalar.value[0, 0] * full.value, (a, b), backward)
    raise ShapeMismatchError(f"cannot multiply shapes {a.shape} and {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with the standard reverse-mode pullbacks."""
    if a.cols != b.rows:
        raise ShapeMismatchError(
            f"matmul inner dimensions differ: {a.shape} x {b.shape}")

    def backward(grad):
        a.grad += grad @ b.value.T
        b.grad += a.value.T @ grad

    return Tensor._result(a.value @ b.value, (a, b), backward)


# ---------------------------------------------------------------------- #
# elementwise / fused ops
# ---------------------------------------------------------------------- #

def relu(x: Tensor) -> Tensor:
    mask = x.value > 0.0

    def backward(grad):
        x.grad += grad * mask

    return Tensor._result(np.where(mask, x.value, 0.0), (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    # stable two-sided formulation
    value = np.where(x.value >= 0,
                     1.0 / (1.0 + np.exp(-np.abs(x.value))),
                     np.exp(-np.abs(x.value)) / (1.0 + np.exp(-np.abs(x.value))))

    def backward(grad):
        x.grad += grad * value * (1.0 - value)

    return Tensor._result(value, (x,), backward)


def log_softmax_rows(x: Tensor) -> Tensor:
    """Row-wise log-softmax (numerically fused; exp never overflows)."""
    if not np.all(np.isfinite(x.value)):
        raise NonFiniteInputError("log_softmax_rows received non-finite input")
    shifted = x.value - x.value.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    y = shifted - log_z
    p = np.exp(y)

    def backward(g):
        x.grad += g - p * g.sum(axis=1, keepdims=True)

    return Tensor._result(y, (x,), backward)


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

    def backward(g):
        gain.grad += (g * xhat).sum(axis=0, keepdims=True)
        bias.grad += g.sum(axis=0, keepdims=True)
        dxhat = g * gain.value
        x.grad += (inv / d) * (d * dxhat
                               - dxhat.sum(axis=1, keepdims=True)
                               - xhat * (dxhat * xhat).sum(axis=1, keepdims=True))

    return Tensor._result(value, (x, gain, bias), backward)


# ---------------------------------------------------------------------- #
# reductions
# ---------------------------------------------------------------------- #

def sum_all(x: Tensor) -> Tensor:
    """Total sum: Nxd -> 1x1."""
    def backward(grad):
        x.grad += grad[0, 0]

    return Tensor._result(x.value.sum(keepdims=True).reshape(1, 1), (x,), backward)


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
