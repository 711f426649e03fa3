"""AdamW with decoupled weight decay, over one value array.

Update per step t (1-based), matching the decoupled formulation with
beta1 = 0.9, beta2 = 0.999 and eps = 1e-8:

    value *= 1 - lr * weight_decay
    m = beta1 * m + (1 - beta1) * grad
    v = beta2 * v + (1 - beta2) * grad**2
    value -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)

Every line is elementwise, so a step over a model's one value vector
(ModelParams.values) does the float operations of a step per Param.
With lr = 0 both value lines are exact no-ops, which the tests rely on.
"""

from __future__ import annotations

import numpy as np


class AdamW:
    """Steps values in place from grads, which the caller fills."""

    def __init__(self, values: np.ndarray, grads: np.ndarray,
                 lr: float = 0.005, weight_decay: float = 0.01):
        self.values, self.grads = values, grads
        self.lr, self.weight_decay = lr, weight_decay
        self.t = 0
        self.m, self.v = np.zeros_like(values), np.zeros_like(values)

    def step(self) -> None:
        self.t += 1
        beta1, beta2 = 0.9, 0.999
        g = self.grads
        self.values *= 1.0 - self.lr * self.weight_decay
        self.m *= beta1
        self.m += (1.0 - beta1) * g
        self.v *= beta2
        self.v += (1.0 - beta2) * (g * g)
        m_hat = self.m / (1.0 - beta1 ** self.t)
        v_hat = self.v / (1.0 - beta2 ** self.t)
        self.values -= self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)

    def zero_grad(self) -> None:
        self.grads[...] = 0.0
