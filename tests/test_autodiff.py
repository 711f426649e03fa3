import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import molbridge.autodiff as ad
from molbridge.autodiff import Param, Tensor
from molbridge.joint import cross_attention
from molbridge.errors import (
    NonFiniteInputError,
    NonScalarLossError,
    ShapeMismatchError,
)


class TestConstruction:
    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInputError):
            Tensor([[1.0, float("nan")]])
        with pytest.raises(NonFiniteInputError):
            Tensor([[float("inf")]])

    def test_rejects_rank_3(self):
        with pytest.raises(ShapeMismatchError):
            Tensor(np.zeros((2, 2, 2)))

    def test_row_vector_promotion(self):
        assert Tensor([1.0, 2.0]).shape == (1, 2)


class TestMatmul:
    def test_identity(self):
        m = Tensor([[3.0, 1.0], [4.0, 1.0]])
        out = Tensor(np.eye(2)) @ m
        assert np.array_equal(out.value, m.value)

    def test_hand_product(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([[1.0], [1.0]])
        assert out.value.tolist() == [[3.0], [7.0]]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 2)))

    def test_gradients(self):
        a = Param(np.array([[1.0, 2.0], [3.0, 4.0]]), "a")
        x = Tensor([[5.0], [6.0]])
        loss = ad.sum_all(a @ x)
        loss.backward()
        # d sum(Ax) / dA = ones @ x^T, every row equals x
        assert a.grad.tolist() == [[5.0, 6.0], [5.0, 6.0]]


class TestSoftmax:
    def test_symmetry(self):
        out = ad.log_softmax_rows(Tensor([[0.0, 0.0]]))
        assert out.value.tolist() == [[-math.log(2.0), -math.log(2.0)]]

    def test_shift_stability(self):
        out = ad.log_softmax_rows(Tensor([[1000.0, 1000.0]]))
        assert np.all(np.isfinite(out.value))
        assert out.value.tolist() == [[-math.log(2.0), -math.log(2.0)]]

    def test_closed_form(self):
        out = ad.log_softmax_rows(Tensor([[0.0, math.log(3.0)]]))
        assert np.allclose(np.exp(out.value), [[0.25, 0.75]], atol=1e-15)

    @given(st.integers(0, 10**6))
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 50, (4, 6))
        probs = np.exp(ad.log_softmax_rows(Tensor(x)).value)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(probs >= 0.0)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 3, (3, 5))
        direct = ad.log_softmax_rows(Tensor(x)).value
        exp = np.exp(x - x.max(axis=1, keepdims=True))
        via = np.log(exp / exp.sum(axis=1, keepdims=True))
        assert np.allclose(direct, via, atol=1e-12)


class TestLayerNorm:
    def test_constant_row_collapses(self):
        gain = Param(np.ones((1, 3)), "g")
        bias = Param(np.zeros((1, 3)), "b")
        out = ad.layer_norm(Tensor([[5.0, 5.0, 5.0]]), gain, bias)
        assert np.allclose(out.value, 0.0, atol=1e-9)

    def test_two_point_row(self):
        gain = Param(np.ones((1, 2)), "g")
        bias = Param(np.zeros((1, 2)), "b")
        out = ad.layer_norm(Tensor([[1.0, 3.0]]), gain, bias)
        expected = 1.0 / math.sqrt(1.0 + 1e-5)
        assert np.allclose(out.value, [[-expected, expected]], atol=1e-12)
        assert np.allclose(out.value, [[-1.0, 1.0]], atol=1e-4)

    def test_zero_gain_gives_bias(self):
        gain = Param(np.zeros((1, 2)), "g")
        bias = Param(np.array([[7.0, -2.0]]), "b")
        out = ad.layer_norm(Tensor([[1.0, 3.0], [0.0, 9.0]]), gain, bias)
        assert np.array_equal(out.value, [[7.0, -2.0], [7.0, -2.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ad.layer_norm(Tensor(np.zeros((2, 3))),
                          Param(np.ones((1, 2)), "g"),
                          Param(np.zeros((1, 3)), "b"))


class TestBackward:
    def test_requires_scalar(self):
        p = Param(np.ones((2, 2)), "p")
        with pytest.raises(NonScalarLossError):
            (p @ p).backward()

    def test_unreachable_param_zero(self):
        used = Param(np.ones((1, 1)), "used")
        unused = Param(np.ones((1, 1)), "unused")
        (used * 3.0).backward()
        assert used.grad[0, 0] == 3.0
        assert unused.grad[0, 0] == 0.0

    def test_double_backward_doubles(self):
        p = Param(np.array([[2.0, -1.0]]), "p")
        loss = ad.sum_all(p * p)
        loss.backward()
        first = p.grad.copy()
        loss.backward()
        assert np.array_equal(p.grad, 2.0 * first)

    def test_shared_subexpression(self):
        p = Param(np.array([[3.0]]), "p")
        q = p * 2.0
        loss = ad.sum_all(q + q)      # d/dp (4p) = 4
        loss.backward()
        assert p.grad[0, 0] == 4.0

    def test_broadcast_bias_grad(self):
        bias = Param(np.zeros((1, 3)), "b")
        x = Tensor(np.ones((4, 3)))
        ad.sum_all(x + bias).backward()
        assert bias.grad.tolist() == [[4.0, 4.0, 4.0]]

    def test_graph_freed_without_cycle_collector(self):
        # closures do not refer to their own node, so dropping the loss
        # frees the whole graph by reference counting alone
        rng = np.random.default_rng(2)
        w = Param(rng.normal(size=(3, 3)), "w")
        x = Tensor(rng.normal(size=(4, 3)))
        gc.collect()
        gc.disable()
        try:
            hidden = ad.relu(x @ w) + 1.0
            loss = ad.sum_all(ad.log_softmax_rows(hidden) * 2.0 - hidden)
            loss.backward()
            del hidden, loss
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_scalar_broadcast_grad(self):
        s = Param(np.array([[2.0]]), "s")
        x = Tensor(np.arange(6.0).reshape(2, 3))
        ad.sum_all(s * x).backward()
        assert s.grad[0, 0] == x.value.sum()


class TestGradCheck:
    def test_quadratic_form(self):
        rng = np.random.default_rng(5)
        w = Param(rng.normal(size=(3, 3)), "w")
        x_val = rng.normal(size=(3, 1))
        x, x_row = Tensor(x_val), Tensor(x_val.T)

        def f():
            return ad.sum_all(x_row @ (w @ x))

        assert ad.grad_check(f, [w]) < 1e-8

    def test_constant_function(self):
        p = Param(np.ones((2, 2)), "p")

        def f():
            return Tensor([[4.0]]) * 1.0

        assert ad.grad_check(f, [p]) == 0.0

    # per-op randomized checks, >= 20 seeds each via hypothesis profile
    @settings(max_examples=20)
    @given(st.integers(0, 10**6))
    def test_fused_ops_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = Param(rng.normal(size=(3, 4)), "x")
        gain = Param(rng.normal(size=(1, 4)), "gain")
        bias = Param(rng.normal(size=(1, 4)), "bias")
        w = Param(rng.normal(size=(4, 2)), "w")
        w_q = Param(rng.normal(size=(4, 4)), "w_q")
        w_k = Param(rng.normal(size=(4, 4)), "w_k")
        probe = Tensor(rng.normal(size=(3, 2)))

        def f():
            normed = ad.layer_norm(x, gain, bias)
            attn = cross_attention(normed, w_q, w_k, heads=2)
            mixed = attn @ ad.relu(normed @ w)
            return ad.sum_all(ad.log_softmax_rows(mixed) * probe)

        assert ad.grad_check(f, [x, gain, bias, w, w_q, w_k]) < 1e-4

    @settings(max_examples=20)
    @given(st.integers(0, 10**6))
    def test_pointwise_ops_gradients(self, seed):
        rng = np.random.default_rng(seed)
        a = Param(rng.normal(size=(2, 3)), "a")
        b = Param(rng.normal(size=(2, 3)), "b")
        s = Param(rng.normal(size=(1, 1)), "s")

        def f():
            mixed = (1.0 - ad.sigmoid(s)) * a + ad.sigmoid(s) * (a * b - 2.0 * b)
            return ad.sum_all(mixed * mixed)

        assert ad.grad_check(f, [a, b, s]) < 1e-4


class TestMisc:
    def test_relu(self):
        out = ad.relu(Tensor([[-1.0, 0.0, 2.0]]))
        assert out.value.tolist() == [[0.0, 0.0, 2.0]]

    def test_sigmoid_extremes_finite(self):
        out = ad.sigmoid(Tensor([[-1000.0, 0.0, 1000.0]]))
        assert np.all(np.isfinite(out.value))
        assert out.value[0, 1] == 0.5

