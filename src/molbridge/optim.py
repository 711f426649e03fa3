"""AdamW with decoupled weight decay.

Update per step t (1-based), matching the decoupled formulation with
beta1 = 0.9, beta2 = 0.999 and eps = 1e-8:

    value *= 1 - lr * weight_decay
    m = beta1 * m + (1 - beta1) * grad
    v = beta2 * v + (1 - beta2) * grad**2
    value -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)

With lr = 0 both lines are exact no-ops, which the tests rely on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Param
from .errors import ShapeMismatchError


def adamw_step(params: Sequence[np.ndarray], grads: Sequence[np.ndarray],
               state: dict, *, lr: float, weight_decay: float = 0.0,
               t: int) -> None:
    """One in-place AdamW update over parallel lists of arrays.

    state is a dict carrying first/second moments under "m" and "v";
    pass the same dict every step. t is the 1-based step count.
    """
    if t < 1:
        raise ValueError("step count t must be >= 1")
    if len(params) != len(grads):
        raise ShapeMismatchError("params and grads length differ")
    if not state:
        state["m"] = [np.zeros_like(p) for p in params]
        state["v"] = [np.zeros_like(p) for p in params]
    beta1, beta2 = 0.9, 0.999
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        if p.shape != g.shape:
            raise ShapeMismatchError(
                f"gradient shape {g.shape} does not match param {p.shape}")
        p *= 1.0 - lr * weight_decay
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)


class AdamW:
    """Stateful wrapper binding adamw_step to a fixed list of Params."""

    def __init__(self, params: Sequence[Param], lr: float = 0.005,
                 weight_decay: float = 0.01):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.state: dict = {}

    def step(self) -> None:
        self.t += 1
        adamw_step([p.value for p in self.params],
                   [p.grad for p in self.params],
                   self.state, lr=self.lr,
                   weight_decay=self.weight_decay, t=self.t)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
