import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import molbridge.autodiff as ad
from molbridge.autodiff import Param, Tensor
from molbridge.errors import (
    HeadsNotDividingError,
    ShapeMismatchError,
    SizeCapExceededError,
)
from molbridge.joint import (
    SIZE_CAP,
    build_joint,
    cross_attention,
    integrate,
    project,
)
from molbridge.smiles import FEATURE_DIM, FeaturedGraph, featurize, parse_smiles


def graph(text):
    return featurize(parse_smiles(text))


class TestBuildJoint:
    def test_two_single_atoms(self):
        joint = build_joint(graph("C"), graph("O"))
        assert joint.adjacency.shape == (2, 2)
        assert np.all(joint.adjacency == 0.0)
        assert joint.features.shape == (2, FEATURE_DIM)
        assert joint.boundary == 1

    def test_hand_placed_blocks(self):
        joint = build_joint(graph("CCO"), graph("C"))
        assert joint.adjacency.shape == (4, 4)
        nonzero = {(int(p), int(q)) for p, q in zip(*np.nonzero(joint.adjacency))}
        assert nonzero == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_self_pair_blocks_match(self):
        g = graph("C1CC1")
        joint = build_joint(g, g)
        n = g.n_atoms
        assert np.array_equal(joint.adjacency[:n, :n], joint.adjacency[n:, n:])
        assert np.array_equal(joint.adjacency[:n, :n], g.adjacency)

    def test_block_diagonality_random_pairs(self):
        from conftest import CORPUS
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.choice(len(CORPUS), size=2)
            joint = build_joint(graph(CORPUS[a]), graph(CORPUS[b]))
            k = joint.boundary
            assert np.all(joint.adjacency[:k, k:] == 0.0)
            assert np.all(joint.adjacency[k:, :k] == 0.0)

    def test_size_cap(self):
        big = FeaturedGraph(np.zeros((60, FEATURE_DIM)), np.zeros((60, 60)))
        with pytest.raises(SizeCapExceededError):
            build_joint(big, big)
        assert 2 * 60 > SIZE_CAP


class TestProject:
    def test_identity_block(self):
        g = build_joint(graph("CC"), graph("O"))
        w = Param(np.eye(FEATURE_DIM), "w")
        b = Param(np.zeros((1, FEATURE_DIM)), "b")
        h = project(Tensor(g.features), w, b)
        assert np.array_equal(h.value, g.features)

    def test_zero_map(self):
        g = build_joint(graph("CC"), graph("O"))
        w = Param(np.zeros((FEATURE_DIM, 4)), "w")
        b = Param(np.zeros((1, 4)), "b")
        assert np.all(project(Tensor(g.features), w, b).value == 0.0)

    def test_matches_manual_matmul(self):
        rng = np.random.default_rng(3)
        g = build_joint(graph("CCO"), graph("CN"))
        w_val = rng.normal(size=(FEATURE_DIM, 6))
        b_val = rng.normal(size=(1, 6))
        h = project(Tensor(g.features),
                    Param(w_val, "w"), Param(b_val, "b"))
        assert np.allclose(h.value, g.features @ w_val + b_val, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            project(Tensor(np.zeros((2, 5))),
                    Param(np.zeros((4, 3)), "w"), Param(np.zeros((1, 3)), "b"))


class TestCrossAttention:
    def test_identical_rows_uniform(self):
        h = Tensor(np.ones((5, 4)))
        w_q = Param(np.full((4, 4), 0.3), "q")
        w_k = Param(np.full((4, 4), -0.2), "k")
        a_r = cross_attention(h, w_q, w_k, heads=1)
        assert np.allclose(a_r.value, 0.2, atol=1e-12)

    def test_two_singletons(self):
        h = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))
        w_q = Param(np.eye(2), "q")
        w_k = Param(np.eye(2), "k")
        a_r = cross_attention(h, w_q, w_k, heads=1)
        assert a_r.shape == (2, 2)
        assert np.allclose(a_r.value.sum(axis=1), 1.0, atol=1e-12)

    def test_hand_table_three_nodes(self):
        # one head, dim 2: scores = softmax(H Wq (H Wk)^T / sqrt(2))
        h_val = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        wq_val = np.array([[1.0, 0.0], [0.0, -1.0]])
        wk_val = np.array([[0.5, 0.5], [0.0, 1.0]])
        q = h_val @ wq_val
        k = h_val @ wk_val
        logits = q @ k.T / math.sqrt(2.0)
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected = exp / exp.sum(axis=1, keepdims=True)
        a_r = cross_attention(Tensor(h_val), Param(wq_val, "q"),
                              Param(wk_val, "k"), heads=1)
        assert np.allclose(a_r.value, expected, atol=1e-12)

    def test_heads_must_divide(self):
        with pytest.raises(HeadsNotDividingError):
            cross_attention(Tensor(np.zeros((2, 6))),
                            Param(np.zeros((6, 6)), "q"),
                            Param(np.zeros((6, 6)), "k"), heads=4)

    @given(st.integers(0, 10**6))
    def test_rows_stochastic(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        h = Tensor(rng.normal(0, 3, (n, 4)))
        w_q = Param(rng.normal(size=(4, 4)), "q")
        w_k = Param(rng.normal(size=(4, 4)), "k")
        a_r = cross_attention(h, w_q, w_k, heads=2)
        assert np.all(np.abs(a_r.value.sum(axis=1) - 1.0) <= 1e-9)
        assert np.all(a_r.value >= 0.0)

    @given(st.integers(0, 10**6), st.sampled_from([1, 2, 4]))
    def test_matches_per_head_restatement(self, seed, heads):
        rng = np.random.default_rng(seed)
        n, dim = int(rng.integers(2, 9)), 8
        h = rng.normal(0, 2, (n, dim))
        wq, wk = rng.normal(size=(dim, dim)), rng.normal(size=(dim, dim))
        head_dim = dim // heads
        expected = np.zeros((n, n))
        for idx in range(heads):
            cols = slice(idx * head_dim, (idx + 1) * head_dim)
            logits = (h @ wq[:, cols]) @ (h @ wk[:, cols]).T / math.sqrt(head_dim)
            exp = np.exp(logits - logits.max(axis=1, keepdims=True))
            expected += exp / exp.sum(axis=1, keepdims=True)
        expected /= heads
        a_r = cross_attention(Tensor(h), Param(wq, "q"), Param(wk, "k"), heads)
        assert np.allclose(a_r.value, expected, atol=1e-12)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_gradients_against_finite_differences(self, heads):
        rng = np.random.default_rng(heads)
        h = Param(rng.normal(size=(5, 8)), "h")
        w_q = Param(rng.normal(0, 0.5, (8, 8)), "q")
        w_k = Param(rng.normal(0, 0.5, (8, 8)), "k")
        probe = Tensor(rng.normal(size=(5, 5)))

        def f():
            return ad.sum_all(cross_attention(h, w_q, w_k, heads) * probe)

        assert ad.grad_check(f, [h, w_q, w_k]) < 1e-6

    def test_projection_shape_checked(self):
        with pytest.raises(ShapeMismatchError):
            cross_attention(Tensor(np.zeros((2, 4))),
                            Param(np.zeros((4, 2)), "q"),
                            Param(np.zeros((4, 4)), "k"), heads=2)


class TestIntegrate:
    def test_alpha_zero_limit(self):
        a_prime = Tensor(np.eye(3))
        a_r = Tensor(np.full((3, 3), 1.0 / 3.0))
        combined, alpha = integrate(a_prime, a_r, Param(np.array([[-40.0]]), "t"))
        assert alpha.item() < 1e-15
        assert np.allclose(combined.value, np.eye(3), atol=1e-12)

    def test_theta_zero_averages(self):
        a_prime = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        a_r = Tensor(np.array([[0.5, 0.5], [0.5, 0.5]]))
        combined, alpha = integrate(a_prime, a_r, Param(np.zeros((1, 1)), "t"))
        assert alpha.item() == 0.5
        assert np.allclose(combined.value, 0.5 * (a_prime.value + a_r.value),
                           atol=1e-15)

    def test_theta_one_hand_formula(self):
        rng = np.random.default_rng(7)
        a_prime_val = (rng.random((4, 4)) < 0.4).astype(float)
        a_r_val = rng.dirichlet(np.ones(4), size=4)
        combined, alpha = integrate(Tensor(a_prime_val), Tensor(a_r_val),
                                    Param(np.array([[1.0]]), "t"))
        expected_alpha = 1.0 / (1.0 + math.exp(-1.0))
        assert abs(alpha.item() - expected_alpha) < 1e-12
        assert abs(expected_alpha - 0.7311) < 1e-4
        expected = (1 - expected_alpha) * a_prime_val + expected_alpha * a_r_val
        assert np.allclose(combined.value, expected, atol=1e-12)

    def test_entries_stay_in_unit_interval(self):
        rng = np.random.default_rng(1)
        a_prime = (rng.random((5, 5)) < 0.5).astype(float)
        a_r = rng.dirichlet(np.ones(5), size=5)
        for theta in (-3.0, 0.0, 0.4, 5.0):
            combined, _ = integrate(Tensor(a_prime), Tensor(a_r),
                                    Param(np.array([[theta]]), "t"))
            assert np.all(combined.value >= 0.0)
            assert np.all(combined.value <= 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            integrate(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 3))),
                      Param(np.zeros((1, 1)), "t"))

    def test_one_node_returning_alpha(self):
        theta = Param(np.array([[0.4]]), "t")
        combined, alpha = integrate(Tensor(np.eye(3)),
                                    Param(np.full((3, 3), 0.2), "r"), theta)
        assert combined._parents[2] is alpha
        assert alpha._parents == (theta,)

    @settings(max_examples=20)
    @given(st.integers(0, 10**6), st.booleans())
    def test_gradients(self, seed, bonded_constant):
        rng = np.random.default_rng(seed)
        a_prime_val = (rng.random((5, 5)) < 0.4).astype(float)
        a_prime = (Tensor(a_prime_val) if bonded_constant
                   else Param(a_prime_val, "a_prime"))
        a_r = Param(rng.dirichlet(np.ones(5), size=5), "a_r")
        theta = Param(rng.normal(size=(1, 1)), "theta")
        probe = Tensor(rng.normal(size=(5, 5)))

        def f():
            combined, _ = integrate(a_prime, a_r, theta)
            return ad.sum_all(combined * probe)

        params = [a_r, theta] if bonded_constant else [a_prime, a_r, theta]
        assert ad.grad_check(f, params) < 1e-6
        if bonded_constant:
            assert a_prime.grad is None


class TestEquivariance:
    @given(st.integers(0, 10**6))
    def test_within_drug_permutation(self, seed):
        """Permuting drug one's atoms permutes the refined adjacency
        consistently."""
        rng = np.random.default_rng(seed)
        g1, g2 = graph("CC(O)CN"), graph("CCO")
        n1 = g1.n_atoms
        perm1 = rng.permutation(n1)
        g1_p = FeaturedGraph(g1.features[perm1],
                             g1.adjacency[np.ix_(perm1, perm1)])

        dim = 4
        w = Param(rng.normal(size=(FEATURE_DIM, dim)), "w")
        b = Param(rng.normal(size=(1, dim)), "b")
        w_q = Param(rng.normal(size=(dim, dim)), "q")
        w_k = Param(rng.normal(size=(dim, dim)), "k")
        theta = Param(np.array([[0.3]]), "t")

        def refined(ga, gb):
            joint = build_joint(ga, gb)
            h = project(Tensor(joint.features), w, b)
            a_r = cross_attention(h, w_q, w_k, 1)
            combined, _ = integrate(Tensor(joint.adjacency), a_r, theta)
            return combined.value

        base = refined(g1, g2)
        permuted = refined(g1_p, g2)
        full = np.concatenate([perm1, np.arange(n1, n1 + g2.n_atoms)])
        assert np.allclose(permuted, base[np.ix_(full, full)], atol=1e-10)
