import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import molbridge.autodiff as ad
import molbridge.model as mb
from molbridge.autodiff import Param, Tensor
from molbridge.errors import (
    HeadsNotDividingError,
    LabelOutOfRangeError,
    ShapeMismatchError,
)
from molbridge.smiles import FEATURE_DIM, FeaturedGraph, featurize, parse_smiles

from conftest import CORPUS, probe_loss


def graph(text):
    return featurize(parse_smiles(text))


def tiny_params(classes=3, seed=0):
    cfg = mb.ModelConfig(dim=8, heads=2, layers=2, d_hid=16,
                         classes=classes, seed=seed)
    return mb.init_params(cfg)


def oracle_logits(params, g1, g2):
    """Criterion 2's straight-line numpy forward, for one pair."""
    v = {name: p.value for name, p in params.named()}
    heads, layers = params.config.heads, params.config.layers
    n1 = g1.n_atoms
    f = np.vstack([g1.features, g2.features])
    n = f.shape[0]
    a = np.zeros((n, n))
    a[:n1, :n1] = g1.adjacency
    a[n1:, n1:] = g2.adjacency
    h = f @ v["proj.weight"] + v["proj.bias"]
    head_dim = h.shape[1] // heads
    attn = np.zeros((n, n))
    for idx in range(heads):
        cols = slice(idx * head_dim, (idx + 1) * head_dim)
        scores = (h @ v["attn.q"][:, cols]) @ (h @ v["attn.k"][:, cols]).T \
            / np.sqrt(head_dim)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn += e / e.sum(axis=1, keepdims=True)
    attn /= heads
    alpha = 1.0 / (1.0 + np.exp(-v["alpha.theta"][0, 0]))
    comb = (1.0 - alpha) * a + alpha * attn

    def ln(x, gain, bias):
        centered = x - x.mean(axis=1, keepdims=True)
        var = (centered * centered).mean(axis=1, keepdims=True)
        return centered / np.sqrt(var + 1e-5) * gain + bias

    trace = [h]
    for l in range(layers):
        prev = trace[-1]
        x = ln((comb + np.eye(n)) @ prev, v[f"layer{l}.ln1.gain"],
               v[f"layer{l}.ln1.bias"]) + prev
        hidden = np.maximum(x @ v[f"layer{l}.ffn.w1"] + v[f"layer{l}.ffn.b1"],
                            0.0)
        trace.append(ln(hidden @ v[f"layer{l}.ffn.w2"] + v[f"layer{l}.ffn.b2"]
                        + x, v[f"layer{l}.ln2.gain"], v[f"layer{l}.ln2.bias"]))
    pooled = sum(t.sum(axis=0) for t in trace)
    hidden = np.maximum(pooled @ v["head.w1"] + v["head.b1"][0], 0.0)
    return hidden @ v["head.w2"] + v["head.b2"][0]


CORPUS_GRAPHS = [graph(text) for text in CORPUS]
# pairs of the largest corpus molecules that fit in one chunk
PER_CHUNK = mb.CHUNK_ROWS // (2 * max(g.n_atoms for g in CORPUS_GRAPHS))


def zero_layer(dim, d_hid, bias2_value=0.0):
    return mb.GFormerLayerParams(
        ln1_gain=Param(np.zeros((1, dim)), "g1"),
        ln1_bias=Param(np.zeros((1, dim)), "b1"),
        w1=Param(np.zeros((dim, d_hid)), "w1"),
        b1=Param(np.zeros((1, d_hid)), "fb1"),
        w2=Param(np.zeros((d_hid, dim)), "w2"),
        b2=Param(np.zeros((1, dim)), "fb2"),
        ln2_gain=Param(np.zeros((1, dim)), "g2"),
        ln2_bias=Param(np.full((1, dim), bias2_value), "b2"),
    )


class TestGcnPropagate:
    def test_zero_adjacency_is_identity(self):
        f = Tensor(np.arange(6.0).reshape(3, 2))
        out = mb.gcn_propagate(f, Tensor(np.zeros((3, 3))))
        assert np.array_equal(out.value, f.value)

    def test_identity_adjacency_doubles(self):
        f = Tensor(np.arange(6.0).reshape(3, 2))
        out = mb.gcn_propagate(f, Tensor(np.eye(3)))
        assert np.array_equal(out.value, 2.0 * f.value)

    def test_path_graph_one_hots(self):
        adjacency = Tensor(np.array([[0.0, 1.0, 0.0],
                                     [1.0, 0.0, 1.0],
                                     [0.0, 1.0, 0.0]]))
        f = Tensor(np.eye(3))
        out = mb.gcn_propagate(f, adjacency)
        assert out.value.tolist() == [[1.0, 1.0, 0.0],
                                      [1.0, 1.0, 1.0],
                                      [0.0, 1.0, 1.0]]

    def test_stacked_blocks_propagate_separately(self):
        rng = np.random.default_rng(6)
        a1, a2 = rng.random((3, 3)), rng.random((3, 3))
        f1, f2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        out = mb.gcn_propagate(Tensor(np.vstack([f1, f2])),
                               Tensor(np.vstack([a1, a2])))
        assert np.allclose(out.value, np.vstack([a1 @ f1 + f1, a2 @ f2 + f2]),
                           atol=1e-12)

    def test_stacked_gradients_against_finite_differences(self):
        rng = np.random.default_rng(8)
        f = Param(rng.normal(size=(6, 2)), "f")
        a = Param(rng.random((6, 3)), "a")
        probe = rng.normal(size=(6, 2))

        def loss():
            return probe_loss(mb.gcn_propagate(f, a), probe)

        assert ad.grad_check(loss, [f, a]) < 1e-6

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatchError):
            mb.gcn_propagate(Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 3))))
        with pytest.raises(ShapeMismatchError):
            mb.gcn_propagate(Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 2))))


class TestGFormerLayer:
    def test_zero_params_collapse_to_bias(self):
        # zero gains kill both normalized terms; zero FFN passes X through
        # the second residual, so out = broadcast ln2 bias
        dim, d_hid = 4, 8
        layer = zero_layer(dim, d_hid, bias2_value=1.5)
        f = Tensor(np.arange(12.0).reshape(3, 4))
        out = mb.gformer_layer(f, Tensor(np.zeros((3, 3))), layer)
        assert np.allclose(out.value, 1.5, atol=1e-12)

    def test_output_shape_matches_input(self):
        params = tiny_params()
        f = Tensor(np.random.default_rng(0).normal(size=(5, 8)))
        a = Tensor(np.zeros((5, 5)))
        out = mb.gformer_layer(f, a, params.gformer[0])
        assert out.shape == f.shape

    def test_layer_gradients_against_finite_differences(self):
        rng = np.random.default_rng(4)
        dim, d_hid = 4, 8
        cfg = mb.ModelConfig(dim=dim, heads=1, layers=1, d_hid=d_hid,
                             classes=2, seed=11)
        layer = mb.init_params(cfg).gformer[0]
        f = Tensor(rng.normal(size=(3, dim)))
        a = Tensor((rng.random((3, 3)) < 0.5).astype(float))

        def f_loss():
            return probe_loss(mb.gformer_layer(f, a, layer), 1.0)

        assert ad.grad_check(f_loss, layer.all()) < 1e-4


class TestScmForward:
    def test_trace_length(self):
        params = tiny_params()
        h = Tensor(np.zeros((3, 8)))
        a = Tensor(np.zeros((3, 3)))
        trace = mb.scm_forward(h, a, params.gformer[:1])
        assert len(trace) == 2

    def test_trace_zero_is_h_itself(self):
        params = tiny_params()
        h = Tensor(np.random.default_rng(1).normal(size=(4, 8)))
        trace = mb.scm_forward(h, Tensor(np.zeros((4, 4))), params.gformer)
        assert trace[0] is h

    def test_zero_params_unroll_by_hand(self):
        # layer 1 output = bias (zero), layer 2 input zero -> output bias
        dim, d_hid = 4, 8
        layers = [zero_layer(dim, d_hid), zero_layer(dim, d_hid)]
        h = Tensor(np.zeros((2, dim)))
        trace = mb.scm_forward(h, Tensor(np.zeros((2, 2))), layers)
        assert np.all(trace[1].value == 0.0)
        assert np.all(trace[2].value == 0.0)


class TestAggregate:
    def test_single_matrix_column_sum(self):
        h = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = mb.aggregate([h])
        assert out.value.tolist() == [[4.0, 6.0]]

    def test_counts_layers_times_atoms(self):
        ones = [Tensor(np.ones((4, 5))) for _ in range(3)]   # L = 2
        out = mb.aggregate(ones)
        assert np.all(out.value == 12.0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 3))
        perm = rng.permutation(6)
        a = mb.aggregate([Tensor(x)]).value
        b = mb.aggregate([Tensor(x[perm])]).value
        assert np.allclose(a, b, atol=1e-12)


    def test_mask_sums_each_pairs_real_rows(self):
        rng = np.random.default_rng(5)
        trace = [Tensor(rng.normal(size=(6, 2))) for _ in range(2)]
        mask = np.array([[True, True, False], [True, True, True]])
        out = mb.aggregate(trace, mask)
        both = trace[0].value + trace[1].value
        assert out.shape == (2, 2)
        assert np.allclose(out.value, [both[0:2].sum(axis=0),
                                       both[3:6].sum(axis=0)], atol=1e-12)

    def test_nan_in_padding_row_reaches_pooled_row(self):
        # padding rows are masked by a product with 0, and NaN * 0 is NaN,
        # so forward_chunk's check of the pooled rows sees them
        value = np.ones((4, 3))
        value[1, 2] = np.nan                 # block 0's padding row
        mask = np.array([[True, False], [True, True]])
        out = mb.aggregate([Tensor(value)], mask).value
        assert np.isfinite(out).tolist() == [[True, True, False],
                                             [True, True, True]]

    def test_padding_rows_get_no_gradient(self):
        trace = [Param(np.ones((4, 3)), "f0"), Param(np.ones((4, 3)), "f1")]
        mask = np.array([[True, False], [True, True]])
        probe_loss(mb.aggregate(trace, mask), 1.0).backward()
        for p in trace:
            assert p.grad[:, 0].tolist() == [1.0, 0.0, 1.0, 1.0]


class TestChunks:
    def test_sorted_by_size_then_index(self):
        assert mb.plan_chunks([5, 3, 5, 3]) == [[1, 3, 0, 2]]

    def test_budget_and_cover(self):
        sizes = [20, 90, 7, 90, 33, 41, 90, 12] * 20
        chunks = mb.plan_chunks(sizes)
        assert sorted(i for c in chunks for i in c) == list(range(len(sizes)))
        flat = [i for c in chunks for i in c]
        assert flat == sorted(flat, key=lambda i: (sizes[i], i))
        for c in chunks:
            assert len(c) * max(sizes[i] for i in c) <= mb.CHUNK_ROWS

    def test_oversized_pair_gets_its_own_chunk(self):
        assert mb.plan_chunks([mb.CHUNK_ROWS + 1, 2]) == [[1], [0]]

    def test_largest_corpus_pairs_fill_chunks(self):
        assert PER_CHUNK >= 2
        big = 2 * max(g.n_atoms for g in CORPUS_GRAPHS)
        assert len(mb.plan_chunks([big] * (2 * PER_CHUNK + 1))) == 3

    @given(st.lists(st.tuples(st.integers(0, len(CORPUS) - 1),
                              st.integers(0, len(CORPUS) - 1)),
                    min_size=1, max_size=2 * PER_CHUNK + 1),
           st.integers(0, 10**6))
    def test_batch_logits_match_oracle_in_any_order(self, picks, seed):
        params = tiny_params(seed=4)
        params.theta.value[...] = 0.7
        pairs = [(CORPUS_GRAPHS[i], CORPUS_GRAPHS[j]) for i, j in picks]
        got = mb.batch_logits(pairs, params)
        want = np.array([oracle_logits(params, g1, g2) for g1, g2 in pairs])
        assert got.shape == (len(pairs), 3)
        assert np.max(np.abs(got - want)) <= 1e-10
        perm = np.random.default_rng(seed).permutation(len(pairs))
        shuffled = mb.batch_logits([pairs[i] for i in perm], params)
        assert np.max(np.abs(shuffled - got[perm])) <= 1e-12

    def test_padded_chunk_gradients(self):
        params = mb.init_params(mb.ModelConfig(dim=8, heads=2, layers=2,
                                               d_hid=16, classes=3, seed=21))
        pairs = [(graph("CCO"), graph("C")),
                 (graph("c1ccccc1"), graph("CC(=O)O")),
                 (graph("CN"), graph("O"))]
        labels = [2, 0, 1]

        def loss():
            return mb.cross_entropy_from_logits(
                mb.forward_chunk(pairs, params), labels)

        assert ad.grad_check(loss, params.all()) < 1e-6
        # the chunk's gradient is the mean of the one-pair gradients
        loss().backward()
        chunk_grads = [p.grad.copy() for p in params.all()]
        ad.zero_grads(params.all())
        for (g1, g2), label in zip(pairs, labels):
            (mb.cross_entropy_from_logits(mb.forward_pair(g1, g2, params),
                                          label) * (1.0 / 3.0)).backward()
        for p, want in zip(params.all(), chunk_grads):
            assert np.allclose(p.grad, want, rtol=1e-10, atol=1e-13), p.name


class TestPredict:
    def test_distribution(self):
        params = tiny_params(classes=5)
        probs = mb.predict(graph("CCO"), graph("CN"), params)
        assert probs.shape == (5,)
        assert np.all(probs >= 0.0)
        assert abs(probs.sum() - 1.0) <= 1e-9

    def test_zero_classifier_uniform(self):
        params = tiny_params(classes=4)
        params.head_w1.value[...] = 0.0
        params.head_b1.value[...] = 0.0
        params.head_w2.value[...] = 0.0
        params.head_b2.value[...] = 0.0
        probs = mb.predict(graph("CC"), graph("O"), params)
        assert np.allclose(probs, 0.25, atol=1e-12)

    def test_deterministic(self):
        params = tiny_params()
        a = mb.predict(graph("CCN"), graph("CO"), params)
        b = mb.predict(graph("CCN"), graph("CO"), params)
        assert np.array_equal(a, b)

    @given(st.integers(0, 10**6))
    def test_atom_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        params = tiny_params(seed=3)
        g1, g2 = graph("CC(O)CN"), graph("c1ccccc1")
        base = mb.predict(g1, g2, params)
        perm = rng.permutation(g1.n_atoms)
        g1_p = FeaturedGraph(g1.features[perm],
                             g1.adjacency[np.ix_(perm, perm)])
        assert np.allclose(mb.predict(g1_p, g2, params), base, atol=1e-9)

    def test_pair_order_invariance_structural(self):
        # block swap is an atom permutation, so order cannot matter
        params = tiny_params(seed=5)
        a = mb.predict(graph("CCO"), graph("CN"), params)
        b = mb.predict(graph("CN"), graph("CCO"), params)
        assert np.allclose(a, b, atol=1e-10)

    def test_isolated_atoms_with_alpha_zero(self):
        # no bonds and a closed attention gate leave only self-loops, so
        # the combined adjacency of a bond-free pair is essentially zero
        from molbridge.joint import build_joint, refine
        params = tiny_params(seed=9)
        params.theta.value[...] = -50.0
        logits = mb.forward_pair(graph("C"), graph("C"), params)
        refined = refine(build_joint(graph("C"), graph("C")),
                         params.proj_w, params.proj_b, params.w_q, params.w_k,
                         params.config.heads, params.theta)
        assert np.allclose(refined.combined.value, np.zeros((2, 2)), atol=1e-12)
        assert np.all(np.isfinite(logits.value))


class TestCrossEntropy:
    def test_certain_prediction(self):
        loss = mb.cross_entropy_from_logits(Tensor([[-1000.0, 0.0]]), 1)
        assert loss.item() == 0.0

    def test_uniform_four_way(self):
        loss = mb.cross_entropy_from_logits(Tensor(np.zeros((1, 4))), 2).item()
        assert abs(loss - math.log(4.0)) < 1e-12
        assert abs(loss - 1.3863) < 1e-4

    def test_quarter_three_quarter(self):
        logits = Tensor([[0.0, math.log(3.0)]])
        loss = mb.cross_entropy_from_logits(logits, 1).item()
        assert abs(loss - (-math.log(0.75))) < 1e-12
        assert abs(loss - 0.2877) < 1e-4

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRangeError):
            mb.cross_entropy_from_logits(Tensor([[0.0, 0.0]]), 2)
        with pytest.raises(LabelOutOfRangeError):
            mb.cross_entropy_from_logits(Tensor([[0.0, 0.0]]), -1)

    def test_label_vector_gives_mean(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(0, 2, (3, 4))
        rows = [mb.cross_entropy_from_logits(Tensor(logits[i:i + 1]), c).item()
                for i, c in enumerate([0, 3, 1])]
        batch = mb.cross_entropy_from_logits(Tensor(logits), [0, 3, 1])
        assert abs(batch.item() - sum(rows) / 3) < 1e-12

    def test_batch_gradient(self):
        rng = np.random.default_rng(10)
        logits = Param(rng.normal(0, 2, (3, 4)), "z")
        assert ad.grad_check(
            lambda: mb.cross_entropy_from_logits(logits, [2, 2, 0]),
            [logits]) < 1e-8

    def test_label_count_must_match_rows(self):
        with pytest.raises(ShapeMismatchError):
            mb.cross_entropy_from_logits(Tensor(np.zeros((2, 3))), [0])

    def test_fused_matches_plain(self):
        rng = np.random.default_rng(8)
        logits_val = rng.normal(0, 2, (1, 5))
        fused = mb.cross_entropy_from_logits(Tensor(logits_val), 3).item()
        exp = np.exp(logits_val[0] - logits_val.max())
        probs = exp / exp.sum()
        assert abs(fused - (-math.log(probs[3]))) < 1e-12


class TestConfig:
    def test_heads_must_divide(self):
        with pytest.raises(HeadsNotDividingError):
            mb.ModelConfig(dim=10, heads=4)

    def test_d_hid_default(self):
        assert mb.ModelConfig(dim=16, heads=4).d_hid == 32

    def test_init_is_seeded(self):
        a = mb.init_params(mb.ModelConfig(seed=1, classes=3))
        b = mb.init_params(mb.ModelConfig(seed=1, classes=3))
        for (_, pa), (_, pb) in zip(a.named(), b.named()):
            assert np.array_equal(pa.value, pb.value)

    def test_param_names_unique(self):
        params = tiny_params()
        names = [n for n, _ in params.named()]
        assert len(names) == len(set(names))

    def test_default_config_param_names(self):
        params = mb.init_params(mb.ModelConfig(classes=86))
        shapes = dict((n, p.shape) for n, p in params.named())
        assert len(shapes) == 33
        assert shapes["attn.q"] == shapes["attn.k"] == (32, 32)

    def test_attention_init_is_per_head_draws_side_by_side(self):
        cfg = mb.ModelConfig(dim=8, heads=2, layers=1, classes=3, seed=7)
        params = mb.init_params(cfg)
        rng = np.random.default_rng(7)
        for fused in (params.w_q, params.w_k):
            blocks = [rng.normal(0.0, 1.0 / np.sqrt(8), (8, 4))
                      for _ in range(2)]
            assert np.array_equal(fused.value, np.concatenate(blocks, axis=1))
