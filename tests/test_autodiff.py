import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import molbridge.autodiff as ad
from molbridge.autodiff import Param, Tensor
from molbridge.joint import cross_attention, integrate, project
from molbridge.model import log_softmax
from molbridge.errors import ShapeMismatchError

from conftest import (
    add, check_pullback, node, positive_part, probe_loss, scale)


def logistic(x):
    x, pull = node(x)
    value = 1.0 / (1.0 + np.exp(-x))
    return value, lambda grad: pull(grad * value * (1.0 - value))


class TestLinear:
    # x @ w + b with a 1xd bias row: joint.project, the affine stage
    def test_equals_matmul_plus_bias(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 4))
        w = Param(rng.normal(size=(4, 3)), "w")
        b = Param(rng.normal(size=(1, 3)), "b")
        value, _ = project(x, w, b)
        assert np.array_equal(value, x @ w.value + b.value)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            project(np.zeros((2, 3)), Param(np.zeros((3, 4)), "w"),
                    Param(np.zeros((1, 3)), "b"))

    @settings(max_examples=20)
    @given(st.integers(0, 10**6))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, 4))
        w = Param(rng.normal(size=(4, 3)), "w")
        b = Param(rng.normal(size=(1, 3)), "b")
        probe = rng.normal(size=(5, 3))
        assert check_pullback(lambda: project(x, w, b), [], [w, b],
                              probe) < 1e-6


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
        out, _ = ad.layer_norm(np.array([[5.0, 5.0, 5.0]]), gain, bias)
        assert np.allclose(out, 0.0, atol=1e-9)

    def test_two_point_row(self):
        gain = Param(np.ones((1, 2)), "g")
        bias = Param(np.zeros((1, 2)), "b")
        out, _ = ad.layer_norm(np.array([[1.0, 3.0]]), gain, bias)
        expected = 1.0 / math.sqrt(1.0 + 1e-5)
        assert np.allclose(out, [[-expected, expected]], atol=1e-12)
        assert np.allclose(out, [[-1.0, 1.0]], atol=1e-4)

    def test_zero_gain_gives_bias(self):
        gain = Param(np.zeros((1, 2)), "g")
        bias = Param(np.array([[7.0, -2.0]]), "b")
        out, _ = ad.layer_norm(np.array([[1.0, 3.0], [0.0, 9.0]]), gain, bias)
        assert np.array_equal(out, [[7.0, -2.0], [7.0, -2.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ad.layer_norm(np.zeros((2, 3)), Param(np.ones((1, 2)), "g"),
                          Param(np.zeros((1, 3)), "b"))

    @settings(max_examples=20)
    @given(st.integers(0, 10**6))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 5))
        gain = Param(rng.normal(size=(1, 5)), "gain")
        bias = Param(rng.normal(size=(1, 5)), "bias")
        probe = rng.normal(size=(4, 5))
        assert check_pullback(lambda x: ad.layer_norm(x, gain, bias), [x],
                              [gain, bias], probe) < 1e-6


class TestBackward:
    def test_unreachable_param_zero(self):
        used = Param(np.ones((1, 1)), "used")
        unused = Param(np.ones((1, 1)), "unused")
        probe_loss(scale(used, 3.0), 1.0).backward()
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
        q = scale(p, 2.0)
        loss = probe_loss(add(q, q), 1.0)     # d/dp (4p) = 4
        loss.backward()
        assert p.grad[0, 0] == 4.0

    def test_broadcast_bias_grad(self):
        # project adds its 1xd bias to every row, so the bias gradient
        # sums the rows
        bias = Param(np.zeros((1, 3)), "b")
        _, backward = project(np.ones((4, 3)), Param(np.eye(3), "w"), bias)
        backward(np.ones((4, 3)))
        assert bias.grad.tolist() == [[4.0, 4.0, 4.0]]

    def test_graph_freed_without_cycle_collector(self):
        # no pullback refers to the value or the loss that holds it, so
        # dropping the loss frees the whole graph by reference counting
        # alone
        from molbridge import model as m
        from molbridge.smiles import featurize_smiles
        params = m.init_params(m.ModelConfig(dim=8, heads=2, layers=2,
                                             classes=3))
        pairs = [(featurize_smiles("CCO"), featurize_smiles("c1ccccc1")),
                 (featurize_smiles("CN"), featurize_smiles("O"))]
        rng = np.random.default_rng(2)
        w = Param(rng.normal(size=(3, 3)), "w")
        gc.collect()
        gc.disable()
        try:
            hidden = positive_part(scale(w, 2.0))
            loss = probe_loss(add(scale(hidden, 2.0), hidden), 1.0)
            loss.backward()
            chunk = m.cross_entropy_from_logits(
                m.forward_chunk(pairs, params), [0, 2])
            chunk.backward()
            del hidden, loss, chunk
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("op", ["linear", "integrate"])
    def test_constant_inputs_get_no_gradient(self, op):
        # the features (projected by the linear stage) and the bonded
        # adjacency are data: their stages' pullbacks return no gradient
        # for them and write into no input
        rng = np.random.default_rng(4)
        c = rng.normal(size=(4, 4))
        r = rng.dirichlet(np.ones(4), size=4)
        p = Param(rng.normal(size=(4, 4)), "p")
        p_row = Param(rng.normal(size=(1, 4)), "p_row")
        theta = Param(np.array([[0.3]]), "t")
        inputs = [c.copy(), r.copy()]
        value, backward = {
            "linear": lambda: project(inputs[0], p, p_row),
            "integrate": lambda: integrate(inputs[0], inputs[1], theta),
        }[op]()
        got = backward(2.0 * value)
        if op == "linear":
            assert got is None
            assert np.any(p.grad != 0.0) and np.any(p_row.grad != 0.0)
        else:
            assert got.shape == r.shape and np.any(got != 0.0)
            assert theta.grad[0, 0] != 0.0
        assert np.array_equal(inputs[0], c) and np.array_equal(inputs[1], r)

    @pytest.mark.parametrize("shared_first", [True, False])
    def test_diamond_shared_first_contribution(self, shared_first):
        # u = a + b hands one array to both a and b's pullbacks; a later
        # contribution (from the probe on a) must not show up in what
        # reaches p through b
        rng = np.random.default_rng(6)
        p = Param(rng.normal(size=(3, 4)), "p")
        w = rng.normal(size=(3, 4))
        v = rng.normal(size=(3, 4))

        def f():
            a = scale(p, 3.0)
            b = positive_part(p)
            first = probe_loss(add(a, b), w)
            second = probe_loss(a, v)
            both = add(first, second) if shared_first else add(second, first)
            return probe_loss(both, 1.0)

        assert ad.grad_check(f, [p]) < 1e-6
        p.zero_grad()
        f().backward()
        assert np.allclose(p.grad, 3.0 * (w + v) + (p.value > 0) * w,
                           rtol=1e-12, atol=1e-12)


class TestGradCheck:
    def test_quadratic_form(self):
        rng = np.random.default_rng(5)
        w = Param(rng.normal(size=(3, 3)), "w")
        x_val = rng.normal(size=(3, 1))

        def f():
            # x^T W x = sum(W * x x^T)
            return probe_loss(w, x_val @ x_val.T)

        assert ad.grad_check(f, [w]) < 1e-8

    def test_constant_function(self):
        p = Param(np.ones((2, 2)), "p")

        def f():
            return Tensor(np.full((1, 1), 4.0), lambda grad: None)

        assert ad.grad_check(f, [p]) == 0.0

    # randomized checks of chained stages, >= 20 seeds via hypothesis
    @settings(max_examples=20)
    @given(st.integers(0, 10**6))
    def test_fused_ops_gradients(self, seed):
        # layer norm, then attention, then a linear stage: each pullback
        # takes the gradient the next one returns
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 4))
        gain = Param(rng.normal(size=(1, 4)), "gain")
        bias = Param(rng.normal(size=(1, 4)), "bias")
        w = Param(rng.normal(size=(3, 2)), "w")
        b = Param(rng.normal(size=(1, 2)), "b")
        w_q = Param(rng.normal(size=(4, 4)), "w_q")
        w_k = Param(rng.normal(size=(4, 4)), "w_k")
        probe = rng.normal(size=(3, 2))

        def stages(x):
            normed, ln_back = ad.layer_norm(x, gain, bias)
            attn, attn_back = cross_attention(normed, w_q, w_k, 2,
                                              np.ones((1, 3), dtype=bool))
            out, out_back = project(attn, w, b)

            def backward(grad):
                out_back(grad)      # adds w's and b's gradients only
                return ln_back(attn_back(grad @ w.value.T))

            return out, backward

        assert check_pullback(stages, [x], [gain, bias, w, b, w_q, w_k],
                              probe) < 1e-4

    @settings(max_examples=20)
    @given(st.integers(0, 10**6))
    def test_pointwise_ops_gradients(self, seed):
        # b reaches the loss along two paths of pointwise nodes
        rng = np.random.default_rng(seed)
        a = Param(rng.normal(size=(2, 3)), "a")
        b = Param(rng.normal(size=(2, 3)), "b")
        probe = rng.normal(size=(2, 3))

        def f():
            mixed = add(logistic(add(scale(a, 2.0), b)),
                        positive_part(scale(b, -0.5)))
            return probe_loss(logistic(mixed), probe)

        assert ad.grad_check(f, [a, b]) < 1e-4


class TestSurface:
    # the model's stages work on arrays; the loss Tensor and Params have
    # no operators, so none may creep back in
    @pytest.mark.parametrize("op", [
        lambda x, y: x @ y,
        lambda x, y: x * y,
        lambda x, y: -x,
        lambda x, y: x - y,
        lambda x, y: x + 1.0,
        lambda x, y: 2.0 * x,
        lambda x, y: x + y,
        lambda x, y: x * 2.0,
    ], ids=["matmul", "mul", "neg", "sub", "add_float", "rmul", "add",
            "mul_float"])
    def test_dropped_operator_is_type_error(self, op):
        with pytest.raises(TypeError):
            op(Tensor(np.ones((1, 1)), lambda grad: None),
               Param(np.ones((1, 1)), "p"))

    def test_module_callables(self):
        public = {name for name, value in vars(ad).items()
                  if callable(value) and not name.startswith("_")
                  and getattr(value, "__module__", None) == ad.__name__}
        assert public == {"Tensor", "Param", "layer_norm", "grad_check",
                          # row math the stages share
                          "row_sums", "col_sums"}


class TestMisc:
    def test_sigmoid_extremes_finite(self):
        # integrate's gate alpha = logistic(theta), read off a blend of
        # A' = 0 and A_r = 1, which is alpha itself
        zero, one = np.zeros((1, 1)), np.ones((1, 1))
        alphas = [integrate(zero, one, Param(np.array([[t]]), "t"))[0][0, 0]
                  for t in (-1000.0, 0.0, 1000.0)]
        assert np.all(np.isfinite(alphas))
        assert alphas == [0.0, 0.5, 1.0]

