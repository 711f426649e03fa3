import numpy as np

from molbridge.autodiff import Param
from molbridge.optim import AdamW

from conftest import probe_loss


def step_once(values, grads, **kwargs):
    AdamW(values, grads, **kwargs).step()


class TestAdamwStep:
    def test_zero_grad_zero_decay_is_noop(self):
        p = np.array([[1.0, -2.0]])
        step_once(p, np.zeros_like(p), lr=0.1, weight_decay=0.0)
        assert p.tolist() == [[1.0, -2.0]]

    def test_decoupled_decay_shrinks(self):
        p = np.array([[10.0]])
        step_once(p, np.zeros_like(p), lr=0.1, weight_decay=0.5)
        assert p[0, 0] == 10.0 * (1.0 - 0.1 * 0.5)

    def test_single_step_closed_form(self):
        p = np.array([[1.0]])
        step_once(p, np.array([[0.5]]), lr=0.1, weight_decay=0.0)
        # bias-corrected moments cancel the (1 - beta) factors at t=1:
        # m_hat = g, v_hat = g^2, so the step is lr * g / (|g| + eps)
        expected = 1.0 - 0.1 * 0.5 / (np.sqrt(0.25) + 1e-8)
        assert abs(p[0, 0] - expected) < 1e-15

    def test_lr_zero_is_exact_noop(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=(3, 4))
        g = np.zeros_like(p)
        before = p.copy()
        opt = AdamW(p, g, lr=0.0, weight_decay=0.01)
        for _ in range(5):
            g[...] = rng.normal(size=(3, 4))
            opt.step()
        assert np.array_equal(p, before)

    def test_two_steps_use_momentum(self):
        p = np.array([[0.0]])
        opt = AdamW(p, np.array([[1.0]]), lr=0.1, weight_decay=0.0)
        opt.step()
        after_one = p[0, 0]
        opt.step()
        # same gradient twice keeps moving the same direction
        assert p[0, 0] < after_one < 0.0

    def test_one_vector_matches_each_array_alone(self):
        """Five decayed steps over three arrays laid end to end equal, bit
        for bit, the update written out for each array by itself."""
        rng = np.random.default_rng(7)
        shapes = [(3, 4), (1, 5), (1, 1)]
        start = [rng.normal(size=s) for s in shapes]
        steps = [[rng.normal(size=s) for s in shapes] for _ in range(5)]
        lr, wd, beta1, beta2 = 0.01, 0.1, 0.9, 0.999

        values = np.concatenate([a.ravel() for a in start])
        grads = np.zeros_like(values)
        opt = AdamW(values, grads, lr=lr, weight_decay=wd)
        for step in steps:
            grads[...] = np.concatenate([g.ravel() for g in step])
            opt.step()

        expected = []
        for i, p in enumerate(a.copy() for a in start):
            m, v = np.zeros_like(p), np.zeros_like(p)
            for t, step in enumerate(steps, 1):
                g = step[i]
                p *= 1.0 - lr * wd
                m = beta1 * m + (1.0 - beta1) * g
                v = beta2 * v + (1.0 - beta2) * (g * g)
                m_hat = m / (1.0 - beta1 ** t)
                v_hat = v / (1.0 - beta2 ** t)
                p -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            expected.append(p.ravel())
        assert np.array_equal(values, np.concatenate(expected))


class TestAdamWClass:
    def test_descends_simple_quadratic(self):
        p = Param(np.array([[5.0]]), "p")
        opt = AdamW(p.value, p.grad, lr=0.05, weight_decay=0.0)
        for _ in range(400):
            opt.zero_grad()
            probe_loss(p, 2.0 * p.value).backward()
            opt.step()
        assert abs(p.value[0, 0]) < 1e-2

    def test_zero_grad_clears(self):
        p = Param(np.ones((1, 1)), "p")
        opt = AdamW(p.value, p.grad)
        probe_loss(p, 2.0).backward()
        assert p.grad[0, 0] != 0.0
        opt.zero_grad()
        assert p.grad[0, 0] == 0.0

    def test_deterministic(self):
        results = []
        for _ in range(2):
            p = Param(np.array([[1.0, 2.0]]), "p")
            opt = AdamW(p.value, p.grad, lr=0.01, weight_decay=0.01)
            for _ in range(10):
                opt.zero_grad()
                probe_loss(p, 2.0 * p.value).backward()
                opt.step()
            results.append(p.value.copy())
        assert np.array_equal(results[0], results[1])
