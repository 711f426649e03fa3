import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from molbridge.autodiff import Param
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
    refine,
    stack_joints,
)
from molbridge.smiles import FEATURE_DIM, FeaturedGraph, featurize, parse_smiles

from conftest import check_pullback


def graph(text):
    return featurize(parse_smiles(text))


def whole(rows):
    """The mask of one block of `rows` real atoms."""
    return np.ones((1, rows), dtype=bool)


class TestBuildJoint:
    def test_two_single_atoms(self):
        g1 = graph("C")
        joint = build_joint(g1, graph("O"))
        assert joint.adjacency.shape == (2, 2)
        assert np.all(joint.adjacency == 0.0)
        assert joint.features.shape == (2, FEATURE_DIM)
        assert g1.n_atoms == 1

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
            g1 = graph(CORPUS[a])
            joint = build_joint(g1, graph(CORPUS[b]))
            k = g1.n_atoms
            assert np.all(joint.adjacency[:k, k:] == 0.0)
            assert np.all(joint.adjacency[k:, :k] == 0.0)

    def test_size_cap(self):
        big = FeaturedGraph(np.zeros((60, FEATURE_DIM)), np.zeros((60, 60)))
        with pytest.raises(SizeCapExceededError):
            build_joint(big, big)
        assert 2 * 60 > SIZE_CAP


class TestStackJoints:
    PAIRS = [("CCO", "C"), ("c1ccccc1", "CC(=O)O"), ("N", "O"),
             ("CCCCCCCCCCCC", "C1CC1"), ("CC(C)C", "CC(C)C")]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_mixed_sizes(self, dtype):
        pairs = [(graph(a), graph(b)) for a, b in self.PAIRS]
        sizes = [g1.n_atoms + g2.n_atoms for g1, g2 in pairs]
        n = max(sizes)
        chunk = stack_joints(pairs, dtype)
        assert chunk.features.shape == (len(pairs) * n, FEATURE_DIM)
        assert chunk.adjacency.shape == (len(pairs) * n, n)
        assert chunk.features.dtype == chunk.adjacency.dtype == dtype
        for b, ((g1, g2), size) in enumerate(zip(pairs, sizes)):
            one = build_joint(g1, g2)
            assert np.array_equal(one.features,
                                  np.vstack([g1.features, g2.features]))
            block = chunk.adjacency[b * n:(b + 1) * n]
            real = slice(b * n, b * n + size)
            assert np.array_equal(chunk.features[real], one.features)
            assert np.array_equal(block[:size, :size], one.adjacency)
            assert not chunk.features[b * n + size:(b + 1) * n].any()
            assert not block[size:].any() and not block[:, size:].any()
            assert chunk.mask[b].tolist() == \
                [True] * size + [False] * (n - size)

    def test_oversized_pair_names_its_size(self):
        big = FeaturedGraph(np.zeros((90, FEATURE_DIM)), np.zeros((90, 90)))
        pairs = [(graph("CC"), graph("O")), (big, graph("CCCCCCCCCCCC")),
                 (graph("N"), graph("C"))]
        with pytest.raises(SizeCapExceededError, match=f"joint graph has "
                           f"102 atoms, cap is {SIZE_CAP}"):
            stack_joints(pairs, np.float64)


class TestProject:
    def test_identity_block(self):
        g = build_joint(graph("CC"), graph("O"))
        w = Param(np.eye(FEATURE_DIM), "w")
        b = Param(np.zeros((1, FEATURE_DIM)), "b")
        h, _ = project(g.features, w, b)
        assert np.array_equal(h, g.features)

    def test_zero_map(self):
        g = build_joint(graph("CC"), graph("O"))
        w = Param(np.zeros((FEATURE_DIM, 4)), "w")
        b = Param(np.zeros((1, 4)), "b")
        assert np.all(project(g.features, w, b)[0] == 0.0)

    def test_matches_manual_matmul(self):
        rng = np.random.default_rng(3)
        g = build_joint(graph("CCO"), graph("CN"))
        w_val = rng.normal(size=(FEATURE_DIM, 6))
        b_val = rng.normal(size=(1, 6))
        h, _ = project(g.features, Param(w_val, "w"), Param(b_val, "b"))
        assert np.allclose(h, g.features @ w_val + b_val, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            project(np.zeros((2, 5)),
                    Param(np.zeros((4, 3)), "w"), Param(np.zeros((1, 3)), "b"))


class TestCrossAttention:
    def test_identical_rows_uniform(self):
        h = np.ones((5, 4))
        w_q = Param(np.full((4, 4), 0.3), "q")
        w_k = Param(np.full((4, 4), -0.2), "k")
        a_r, _ = cross_attention(h, w_q, w_k, 1, whole(5))
        assert np.allclose(a_r, 0.2, atol=1e-12)

    def test_two_singletons(self):
        h = np.array([[1.0, 0.0], [0.0, 2.0]])
        w_q = Param(np.eye(2), "q")
        w_k = Param(np.eye(2), "k")
        a_r, _ = cross_attention(h, w_q, w_k, 1, whole(2))
        assert a_r.shape == (2, 2)
        assert np.allclose(a_r.sum(axis=1), 1.0, atol=1e-12)

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
        a_r, _ = cross_attention(h_val, Param(wq_val, "q"),
                                 Param(wk_val, "k"), 1, whole(3))
        assert np.allclose(a_r, expected, atol=1e-12)

    def test_heads_must_divide(self):
        with pytest.raises(HeadsNotDividingError):
            cross_attention(np.zeros((2, 6)),
                            Param(np.zeros((6, 6)), "q"),
                            Param(np.zeros((6, 6)), "k"), 4, whole(2))

    @given(st.integers(0, 10**6))
    def test_rows_stochastic(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        h = rng.normal(0, 3, (n, 4))
        w_q = Param(rng.normal(size=(4, 4)), "q")
        w_k = Param(rng.normal(size=(4, 4)), "k")
        a_r, _ = cross_attention(h, w_q, w_k, 2, whole(n))
        assert np.all(np.abs(a_r.sum(axis=1) - 1.0) <= 1e-9)
        assert np.all(a_r >= 0.0)

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
        a_r, _ = cross_attention(h, Param(wq, "q"), Param(wk, "k"), heads,
                                 whole(n))
        assert np.allclose(a_r, expected, atol=1e-12)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_gradients_against_finite_differences(self, heads):
        rng = np.random.default_rng(heads)
        h = rng.normal(size=(5, 8))
        w_q = Param(rng.normal(0, 0.5, (8, 8)), "q")
        w_k = Param(rng.normal(0, 0.5, (8, 8)), "k")
        probe = rng.normal(size=(5, 5))
        assert check_pullback(
            lambda h: cross_attention(h, w_q, w_k, heads, whole(5)), [h],
            [w_q, w_k], probe) < 1e-6

    def test_padded_chunk_gradients(self):
        # two blocks of 4 rows, the first with one padding row
        rng = np.random.default_rng(12)
        h = rng.normal(size=(8, 4))
        mask = np.array([[True, True, True, False], [True] * 4])
        w_q = Param(rng.normal(0, 0.5, (4, 4)), "q")
        w_k = Param(rng.normal(0, 0.5, (4, 4)), "k")
        probe = rng.normal(size=(8, 4))
        assert check_pullback(
            lambda h: cross_attention(h, w_q, w_k, 2, mask), [h],
            [w_q, w_k], probe) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_mask_matches_broadcast_add(self, dtype):
        # padding in the middle and at the front too, not only a suffix
        mask = np.array([[True, False, True, True, False],
                         [True] * 5,
                         [False, True, True, True, True]])
        blocks, n = mask.shape
        heads, dim = 2, 4
        rng = np.random.default_rng(5)
        h = rng.normal(size=(blocks * n, dim)).astype(dtype)
        wq, wk = (rng.normal(0, 0.5, (dim, dim)).astype(dtype)
                  for _ in range(2))
        grad = rng.normal(size=(blocks * n, n)).astype(dtype)
        w_q, w_k = Param(wq.copy(), "q"), Param(wk.copy(), "k")
        value, backward = cross_attention(h, w_q, w_k, heads, mask)
        d_h = backward(grad)

        # the same operations with the mask added over the whole buffer
        scale = 1.0 / math.sqrt(dim // heads)

        def split(x):
            return x.reshape(blocks, n, heads, -1).transpose(0, 2, 1, 3)

        def merge(x):
            return x.transpose(0, 2, 1, 3).reshape(blocks * n, dim)

        q = h @ wq
        q *= scale
        q = split(q)
        k = split(h @ wk)
        probs = q @ k.transpose(0, 1, 3, 2)
        probs += np.where(mask, 0.0, -np.inf).astype(dtype)[:, None, None]
        probs -= probs.max(axis=3, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs @ np.ones((n, 1), dtype)
        want = probs.sum(axis=1)
        want *= 1.0 / heads
        g = grad.reshape(blocks, 1, n, n)
        d_scores = g * probs
        d_scores = (g - d_scores @ np.ones((n, 1), dtype)) * probs
        d_q = merge(d_scores @ k)
        d_q *= scale / heads
        d_k = merge(d_scores.transpose(0, 1, 3, 2) @ q)
        d_k *= 1.0 / heads
        want_d_h = d_q @ wq.T
        want_d_h += d_k @ wk.T
        for got, ref in ((value, want.reshape(blocks * n, n)),
                         (d_h, want_d_h), (w_q.grad, h.T @ d_q),
                         (w_k.grad, h.T @ d_k)):
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()
        assert np.all(value.reshape(blocks, n, n)[~mask[:, None, :]
                                                  .repeat(n, 1)] == 0)

    def test_projection_shape_checked(self):
        with pytest.raises(ShapeMismatchError):
            cross_attention(np.zeros((2, 4)),
                            Param(np.zeros((4, 2)), "q"),
                            Param(np.zeros((4, 4)), "k"), 2, whole(2))


def alpha_of(theta: Param) -> float:
    """integrate's gate alpha, read off the blend of A' = 0 and A_r = 1."""
    zero, one = np.zeros((1, 1)), np.ones((1, 1))
    return float(integrate(zero, one, theta)[0][0, 0])


class TestIntegrate:
    def test_alpha_zero_limit(self):
        a_prime = np.eye(3)
        a_r = np.full((3, 3), 1.0 / 3.0)
        theta = Param(np.array([[-40.0]]), "t")
        combined, _ = integrate(a_prime, a_r, theta)
        assert alpha_of(theta) < 1e-15
        assert np.allclose(combined, np.eye(3), atol=1e-12)

    def test_theta_zero_averages(self):
        a_prime = np.array([[1.0, 0.0], [0.0, 1.0]])
        a_r = np.array([[0.5, 0.5], [0.5, 0.5]])
        theta = Param(np.zeros((1, 1)), "t")
        combined, _ = integrate(a_prime, a_r, theta)
        assert alpha_of(theta) == 0.5
        assert np.allclose(combined, 0.5 * (a_prime + a_r), atol=1e-15)

    def test_theta_one_hand_formula(self):
        rng = np.random.default_rng(7)
        a_prime_val = (rng.random((4, 4)) < 0.4).astype(float)
        a_r_val = rng.dirichlet(np.ones(4), size=4)
        theta = Param(np.array([[1.0]]), "t")
        combined, _ = integrate(a_prime_val, a_r_val, theta)
        expected_alpha = 1.0 / (1.0 + math.exp(-1.0))
        assert abs(alpha_of(theta) - expected_alpha) < 1e-12
        assert abs(expected_alpha - 0.7311) < 1e-4
        expected = (1 - expected_alpha) * a_prime_val + expected_alpha * a_r_val
        assert np.allclose(combined, expected, atol=1e-12)

    def test_entries_stay_in_unit_interval(self):
        rng = np.random.default_rng(1)
        a_prime = (rng.random((5, 5)) < 0.5).astype(float)
        a_r = rng.dirichlet(np.ones(5), size=5)
        for theta in (-3.0, 0.0, 0.4, 5.0):
            combined, _ = integrate(a_prime, a_r,
                                    Param(np.array([[theta]]), "t"))
            assert np.all(combined >= 0.0)
            assert np.all(combined <= 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            integrate(np.zeros((2, 2)), np.zeros((3, 3)),
                      Param(np.zeros((1, 1)), "t"))

    @settings(max_examples=20)
    @given(st.integers(0, 10**6))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        a_prime = (rng.random((5, 5)) < 0.4).astype(float)
        a_r = rng.dirichlet(np.ones(5), size=5)
        theta = Param(rng.normal(size=(1, 1)), "theta")
        probe = rng.normal(size=(5, 5))
        assert check_pullback(lambda a_r: integrate(a_prime, a_r, theta),
                              [a_r], [theta], probe) < 1e-6


class TestRefine:
    @pytest.mark.parametrize("output", ["projected", "combined"])
    def test_gradients(self, output):
        # the pullback of projection, attention and blend on a padded
        # chunk, from the gradient of either output
        rng = np.random.default_rng(13)
        chunk = stack_joints([(graph("CCO"), graph("C")),
                              (graph("CN"), graph("OCCO"))], np.float64)
        params = [Param(rng.normal(0, 0.3, (FEATURE_DIM, 4)), "w"),
                  Param(rng.normal(size=(1, 4)), "b"),
                  Param(rng.normal(0, 0.5, (4, 4)), "q"),
                  Param(rng.normal(0, 0.5, (4, 4)), "k"),
                  Param(np.array([[0.3]]), "t")]

        def stage():
            refined = refine(chunk, *params[:4], 2, params[4])
            value = getattr(refined, output)

            def backward(grad):
                grads = {"projected": np.zeros_like(refined.projected),
                         "combined": np.zeros_like(refined.combined),
                         output: grad}
                refined.backward(grads["projected"], grads["combined"])

            return value, backward

        probe = rng.normal(size=stage()[0].shape)
        assert check_pullback(stage, [], params, probe) < 1e-6


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
            h, _ = project(joint.features, w, b)
            a_r, _ = cross_attention(h, w_q, w_k, 1, joint.mask)
            combined, _ = integrate(joint.adjacency, a_r, theta)
            return combined

        base = refined(g1, g2)
        permuted = refined(g1_p, g2)
        full = np.concatenate([perm1, np.arange(n1, n1 + g2.n_atoms)])
        assert np.allclose(permuted, base[np.ix_(full, full)], atol=1e-10)
