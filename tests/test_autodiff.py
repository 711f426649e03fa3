import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import molbridge.autodiff as ad
from molbridge.autodiff import Param, Tensor
from molbridge.joint import cross_attention, integrate
from molbridge.model import gcn_propagate, log_softmax
from molbridge.errors import NonScalarLossError, ShapeMismatchError

from conftest import probe_loss


class TestConstruction:
    def test_rejects_rank_3(self):
        with pytest.raises(ShapeMismatchError):
            Tensor(np.zeros((2, 2, 2)))

    def test_row_vector_promotion(self):
        assert Tensor([1.0, 2.0]).shape == (1, 2)


class TestLinear:
    def test_equals_matmul_plus_bias(self):
        rng = np.random.default_rng(3)
        x, w, b = (Tensor(rng.normal(size=shape))
                   for shape in ((5, 4), (4, 3), (1, 3)))
        assert np.array_equal(ad.linear(x, w, b).value,
                              x.value @ w.value + b.value)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))),
                      Tensor(np.zeros((1, 3))))

    @settings(max_examples=20)
    @given(st.integers(0, 10**6))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = Param(rng.normal(size=(5, 4)), "x")
        w = Param(rng.normal(size=(4, 3)), "w")
        b = Param(rng.normal(size=(1, 3)), "b")
        probe = rng.normal(size=(5, 3))

        def f():
            return probe_loss(ad.linear(x, w, b), probe)

        assert ad.grad_check(f, [x, w, b]) < 1e-6


class TestSoftmax:
    # model.log_softmax, the numpy row log-softmax behind the loss and
    # predict
    def test_symmetry(self):
        out = log_softmax(np.array([[0.0, 0.0]]))
        assert out.tolist() == [[-math.log(2.0), -math.log(2.0)]]

    def test_shift_stability(self):
        out = log_softmax(np.array([[1000.0, 1000.0]]))
        assert np.all(np.isfinite(out))
        assert out.tolist() == [[-math.log(2.0), -math.log(2.0)]]

    def test_closed_form(self):
        out = log_softmax(np.array([[0.0, math.log(3.0)]]))
        assert np.allclose(np.exp(out), [[0.25, 0.75]], atol=1e-15)

    @given(st.integers(0, 10**6))
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 50, (4, 6))
        probs = np.exp(log_softmax(x))
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(probs >= 0.0)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 3, (3, 5))
        direct = log_softmax(x)
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
            (p * 2.0).backward()

    def test_unreachable_param_zero(self):
        used = Param(np.ones((1, 1)), "used")
        unused = Param(np.ones((1, 1)), "unused")
        (used * 3.0).backward()
        assert used.grad[0, 0] == 3.0
        assert unused.grad[0, 0] == 0.0

    def test_double_backward_doubles(self):
        p = Param(np.array([[2.0, -1.0]]), "p")
        loss = probe_loss(p, 2.0 * p.value)
        loss.backward()
        first = p.grad.copy()
        loss.backward()
        assert np.array_equal(p.grad, 2.0 * first)

    def test_shared_subexpression(self):
        p = Param(np.array([[3.0]]), "p")
        q = p * 2.0
        loss = probe_loss(q + q, 1.0)     # d/dp (4p) = 4
        loss.backward()
        assert p.grad[0, 0] == 4.0

    def test_broadcast_bias_grad(self):
        # linear adds its 1xd bias to every row, so the bias gradient sums
        # the rows
        bias = Param(np.zeros((1, 3)), "b")
        x = Tensor(np.ones((4, 3)))
        probe_loss(ad.linear(x, Tensor(np.eye(3)), bias), 1.0).backward()
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
            hidden = ad.relu(ad.linear(x, w, Tensor(np.zeros((1, 3)))))
            loss = probe_loss(ad.sigmoid(hidden) * 2.0 + hidden, 1.0)
            loss.backward()
            del hidden, loss
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("op", ["add", "linear", "layer_norm",
                                    "gcn_propagate", "integrate",
                                    "cross_attention"])
    def test_constant_inputs_get_no_gradient(self, op):
        rng = np.random.default_rng(4)
        c = Tensor(rng.normal(size=(4, 4)))
        c_row = Tensor(rng.normal(size=(1, 4)))
        p = Param(rng.normal(size=(4, 4)), "p")
        p_row = Param(rng.normal(size=(1, 4)), "p_row")
        out = {
            "add": lambda: c + p,
            "linear": lambda: ad.linear(c, p, c_row),
            "layer_norm": lambda: ad.layer_norm(c, p_row, c_row),
            "gcn_propagate": lambda: gcn_propagate(p, c),
            "integrate": lambda: integrate(c, p, Param(np.zeros((1, 1)), "t"))[0],
            "cross_attention": lambda: cross_attention(c, p, p, heads=2),
        }[op]()
        constants = (c, c_row)
        before = [t.grad for t in constants]
        probe_loss(out, 2.0 * out.value).backward()
        assert [t.grad for t in constants] == before == [None] * 2
        assert np.any(p.grad != 0.0) or np.any(p_row.grad != 0.0)

    @pytest.mark.parametrize("shared_first", [True, False])
    def test_diamond_shared_first_contribution(self, shared_first):
        # u = a + b hands one array to both a and b; a later contribution
        # (from the probe on a) lands on a and must not show up in b's
        # gradient
        rng = np.random.default_rng(6)
        p = Param(rng.normal(size=(3, 4)), "p")
        w = rng.normal(size=(3, 4))
        v = rng.normal(size=(3, 4))
        nodes = {}

        def f():
            a = p * 3.0
            b = ad.relu(p)
            first = probe_loss(a + b, w)
            second = probe_loss(a, v)
            nodes.update(a=a, b=b)
            return first + second if shared_first else second + first

        assert ad.grad_check(f, [p]) < 1e-6
        p.zero_grad()
        f().backward()
        assert np.array_equal(nodes["b"].grad, w)
        assert np.allclose(nodes["a"].grad, w + v, rtol=1e-12, atol=1e-12)
        assert np.allclose(p.grad, 3.0 * (w + v) + (p.value > 0) * w,
                           rtol=1e-12, atol=1e-12)


class TestGradCheck:
    def test_quadratic_form(self):
        rng = np.random.default_rng(5)
        w = Param(rng.normal(size=(3, 3)), "w")
        x_val = rng.normal(size=(3, 1))
        x_row, zero = Tensor(x_val.T), Tensor(np.zeros((1, 3)))

        def f():
            # x^T W x = sum((x^T W) * x^T)
            return probe_loss(ad.linear(x_row, w, zero), x_val.T)

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
        probe = rng.normal(size=(3, 2))
        zero = Tensor(np.zeros((1, 2)))

        def f():
            normed = ad.layer_norm(x, gain, bias)
            attn = cross_attention(normed, w_q, w_k, heads=2)
            mixed = ad.linear(attn, ad.relu(ad.linear(normed, w, zero)), zero)
            return probe_loss(ad.sigmoid(mixed), probe)

        assert ad.grad_check(f, [x, gain, bias, w, w_q, w_k]) < 1e-4

    @settings(max_examples=20)
    @given(st.integers(0, 10**6))
    def test_pointwise_ops_gradients(self, seed):
        rng = np.random.default_rng(seed)
        a = Param(rng.normal(size=(2, 3)), "a")
        b = Param(rng.normal(size=(2, 3)), "b")
        probe = rng.normal(size=(2, 3))

        def f():
            mixed = ad.sigmoid(a * 2.0 + b) + ad.relu(b * -0.5)
            return probe_loss(ad.sigmoid(mixed), probe)

        assert ad.grad_check(f, [a, b]) < 1e-4


class TestSurface:
    # the model runs only same-shape + and * by a number; nothing else
    # may creep back in
    @pytest.mark.parametrize("op", [
        lambda x, y: x @ y,
        lambda x, y: x * y,
        lambda x, y: -x,
        lambda x, y: x - y,
        lambda x, y: x + 1.0,
        lambda x, y: 2.0 * x,
    ], ids=["matmul", "mul", "neg", "sub", "add_float", "rmul"])
    def test_dropped_operator_is_type_error(self, op):
        with pytest.raises(TypeError):
            op(Tensor(np.ones((2, 2))), Param(np.ones((2, 2)), "p"))

    def test_add_of_two_shapes_is_shape_error(self):
        with pytest.raises(ShapeMismatchError):
            Tensor(np.ones((4, 3))) + Param(np.zeros((1, 3)), "b")

    def test_module_callables(self):
        public = {name for name, value in vars(ad).items()
                  if callable(value) and not name.startswith("_")
                  and getattr(value, "__module__", None) == ad.__name__}
        assert public == {"Tensor", "Param", "linear", "relu", "sigmoid",
                          "layer_norm", "zero_grads", "grad_check",
                          # array kernels the fused GFormer layer shares
                          "row_sums", "col_sums", "norm_rows",
                          "norm_rows_backward"}


class TestMisc:
    def test_relu(self):
        out = ad.relu(Tensor([[-1.0, 0.0, 2.0]]))
        assert out.value.tolist() == [[0.0, 0.0, 2.0]]

    def test_sigmoid_extremes_finite(self):
        out = ad.sigmoid(Tensor([[-1000.0, 0.0, 1000.0]]))
        assert np.all(np.isfinite(out.value))
        assert out.value[0, 1] == 0.5

