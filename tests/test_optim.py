import numpy as np
import pytest

from molbridge.autodiff import Param
from molbridge.errors import ShapeMismatchError
from molbridge.optim import AdamW, adamw_step

from conftest import probe_loss


class TestAdamwStep:
    def test_zero_grad_zero_decay_is_noop(self):
        p = np.array([[1.0, -2.0]])
        state = {}
        adamw_step([p], [np.zeros_like(p)], state, lr=0.1, t=1)
        assert p.tolist() == [[1.0, -2.0]]

    def test_decoupled_decay_shrinks(self):
        p = np.array([[10.0]])
        adamw_step([p], [np.zeros_like(p)], {}, lr=0.1, weight_decay=0.5, t=1)
        assert p[0, 0] == 10.0 * (1.0 - 0.1 * 0.5)

    def test_single_step_closed_form(self):
        p = np.array([[1.0]])
        g = np.array([[0.5]])
        adamw_step([p], [g], {}, lr=0.1, betas=(0.9, 0.999), eps=1e-8, t=1)
        # bias-corrected moments cancel the (1 - beta) factors at t=1:
        # m_hat = g, v_hat = g^2, so the step is lr * g / (|g| + eps)
        expected = 1.0 - 0.1 * 0.5 / (np.sqrt(0.25) + 1e-8)
        assert abs(p[0, 0] - expected) < 1e-15

    def test_lr_zero_is_exact_noop(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=(3, 4))
        before = p.copy()
        state = {}
        for t in range(1, 6):
            adamw_step([p], [rng.normal(size=(3, 4))], state, lr=0.0,
                       weight_decay=0.01, t=t)
        assert np.array_equal(p, before)

    def test_two_steps_use_momentum(self):
        p = np.array([[0.0]])
        state = {}
        adamw_step([p], [np.array([[1.0]])], state, lr=0.1, t=1)
        after_one = p[0, 0]
        adamw_step([p], [np.array([[1.0]])], state, lr=0.1, t=2)
        # same gradient twice keeps moving the same direction
        assert p[0, 0] < after_one < 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            adamw_step([np.zeros((2, 2))], [np.zeros((2, 3))], {}, lr=0.1, t=1)

    def test_bad_step_count(self):
        with pytest.raises(ValueError):
            adamw_step([np.zeros((1, 1))], [np.zeros((1, 1))], {}, lr=0.1, t=0)


class TestAdamWClass:
    def test_descends_simple_quadratic(self):
        p = Param(np.array([[5.0]]), "p")
        opt = AdamW([p], lr=0.05, weight_decay=0.0)
        for _ in range(400):
            opt.zero_grad()
            probe_loss(p, 2.0 * p.value).backward()
            opt.step()
        assert abs(p.value[0, 0]) < 1e-2

    def test_zero_grad_clears(self):
        p = Param(np.ones((1, 1)), "p")
        opt = AdamW([p])
        probe_loss(p * 2.0, 1.0).backward()
        assert p.grad[0, 0] != 0.0
        opt.zero_grad()
        assert p.grad[0, 0] == 0.0

    def test_deterministic(self):
        results = []
        for _ in range(2):
            p = Param(np.array([[1.0, 2.0]]), "p")
            opt = AdamW([p], lr=0.01, weight_decay=0.01)
            for _ in range(10):
                opt.zero_grad()
                probe_loss(p, 2.0 * p.value).backward()
                opt.step()
            results.append(p.value.copy())
        assert np.array_equal(results[0], results[1])
