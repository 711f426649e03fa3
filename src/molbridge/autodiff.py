"""Dense rank-2 reverse-mode autodiff on float64 numpy arrays.

Every value is a matrix (rows, cols). Ops record a backward closure and
their parent nodes; ``backward()`` on a 1x1 loss walks the graph in
reverse topological order, handing each closure its node's gradient.
Closures hold no reference to their own node, so a graph has no
reference cycles and is freed as soon as the loss is dropped.

Gradient buffers: only a :class:`Param` owns one, zeroed at creation;
its gradient accumulates in place across backward passes until
``zero_grad`` (so two backward calls on the same graph exactly double
it). Every other node starts each backward pass with no gradient. Its
first contribution is kept as is, not copied, and a later one makes a
new array (``old + g``) instead of writing in place, because that first
array may be the very one another node also holds. So no closure writes
into the gradient it is handed. A closure computes no gradient for a
parent that does not require one (a constant input), and a forward pass
allocates no gradient at all.

Broadcasting is deliberately narrow: ``+`` takes two tensors of the
same shape and ``*`` a Python number; a 1xd row (bias or gain) is
broadcast over the rows only inside the fused ops that take one
(``linear``, ``layer_norm``). ``+`` of different shapes raises
ShapeMismatchError instead of guessing, and any other operator or
operand type is a TypeError.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NonScalarLossError, ShapeMismatchError

Array = np.ndarray


class Tensor:
    """A matrix node in the computation graph."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad: bool = False):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ShapeMismatchError(
                f"expected a rank-2 array, got rank {arr.ndim}")
        self.value = arr
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], None] | None = None

    @classmethod
    def _result(cls, value: Array, parents: tuple["Tensor", ...],
                backward: Callable[[Array], None]) -> "Tensor":
        out = cls.__new__(cls)
        out.value = value
        out.grad = None
        out.requires_grad = any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    def _add_grad(self, g: Array) -> None:
        """Take one gradient contribution; never writes into g or into an
        array this node already holds (see the module doc)."""
        self.grad = g if self.grad is None else self.grad + g

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
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeMismatchError(
                f"cannot add shapes {self.shape} and {other.shape}")

        def backward(grad):
            if self.requires_grad:
                self._add_grad(grad)
            if other.requires_grad:
                other._add_grad(grad)

        return Tensor._result(self.value + other.value, (self, other), backward)

    def __mul__(self, other):
        if not isinstance(other, (int, float)):
            return NotImplemented
        c = float(other)

        def backward(grad):
            self._add_grad(c * grad)

        return Tensor._result(self.value * c, (self,), backward)

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
                node.grad = None
        self._add_grad(np.ones((1, 1)))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)


class Param(Tensor):
    """A named learnable tensor; gradients persist across backward calls."""

    __slots__ = ("name",)

    def __init__(self, value, name: str):
        super().__init__(value, requires_grad=True)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def _add_grad(self, g: Array) -> None:
        self.grad += g

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Param({self.name!r}, shape={self.shape})"


# ---------------------------------------------------------------------- #
# fused ops
# ---------------------------------------------------------------------- #

def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node; b is a 1 x w.cols row added to every row."""
    if x.cols != w.rows or b.shape != (1, w.cols):
        raise ShapeMismatchError(
            f"linear needs x @ w + b with a 1x{w.cols} bias, got "
            f"{x.shape} x {w.shape} + {b.shape}")
    value = x.value @ w.value
    value += b.value

    def backward(grad):
        if x.requires_grad:
            x._add_grad(grad @ w.value.T)
        if w.requires_grad:
            w._add_grad(x.value.T @ grad)
        if b.requires_grad:
            b._add_grad(grad.sum(axis=0, keepdims=True))

    return Tensor._result(value, (x, w, b), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.value > 0.0

    def backward(grad):
        x._add_grad(grad * mask)

    return Tensor._result(np.where(mask, x.value, 0.0), (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    # stable two-sided formulation
    value = np.where(x.value >= 0,
                     1.0 / (1.0 + np.exp(-np.abs(x.value))),
                     np.exp(-np.abs(x.value)) / (1.0 + np.exp(-np.abs(x.value))))

    def backward(grad):
        x._add_grad(grad * value * (1.0 - value))

    return Tensor._result(value, (x,), backward)


def _row_dot(a: Array, b: Array) -> Array:
    """Dot product of each row of a with the same row of b, as a column."""
    return np.einsum("ij,ij->i", a, b)[:, None]


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization to zero mean / unit variance (variance plus
    1e-5), then gain and bias.

    gain and bias are 1 x cols rows broadcast over every row of x.
    """
    if gain.shape != (1, x.cols) or bias.shape != (1, x.cols):
        raise ShapeMismatchError(
            f"layer_norm gain/bias must be 1x{x.cols}, "
            f"got {gain.shape} and {bias.shape}")
    d = x.cols
    xhat = x.value - x.value.sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(_row_dot(xhat, xhat) / d + 1e-5)
    xhat *= inv
    value = xhat * gain.value
    value += bias.value

    def backward(g):
        if gain.requires_grad:
            gain._add_grad(np.einsum("ij,ij->j", g, xhat)[None, :])
        if bias.requires_grad:
            bias._add_grad(g.sum(axis=0, keepdims=True))
        if x.requires_grad:
            # dx = (inv / d) (d dxhat - rowsum(dxhat) - xhat rowdot(dxhat, xhat))
            dx = g * gain.value
            row_sum = dx.sum(axis=1, keepdims=True)
            row_dot = _row_dot(dx, xhat)
            dx *= d
            dx -= row_sum
            dx -= xhat * row_dot
            dx *= inv / d
            x._add_grad(dx)

    return Tensor._result(value, (x, gain, bias), backward)


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
