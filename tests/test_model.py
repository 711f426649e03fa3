import dataclasses
import math
import os
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

import molbridge.autodiff as ad
import molbridge.joint as jg
import molbridge.model as mb
import molbridge.parallel as par
from molbridge.autodiff import Param
from molbridge.errors import (
    HeadsNotDividingError,
    LabelOutOfRangeError,
    ModelConfigError,
    MolBridgeError,
    ShapeMismatchError,
    SizeCapExceededError,
)
from molbridge.smiles import (
    FEATURE_DIM, FeaturedGraph, featurize, featurize_records, pack_scan,
    parse_smiles, scan_smiles)

from conftest import (
    CORPUS, add, check_pullback, linear, node, positive_part, probe_loss,
    stage_node)


def graph(text):
    return featurize(parse_smiles(text))


def fixed(logits):
    """Logits that take no gradient, as a (value, pullback) pair."""
    return np.array(logits, dtype=np.float64), lambda grad: None


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
        f = np.arange(6.0).reshape(3, 2)
        out, _ = mb.gcn_propagate(f, np.zeros((3, 3)))
        assert np.array_equal(out, f)

    def test_identity_adjacency_doubles(self):
        f = np.arange(6.0).reshape(3, 2)
        out, _ = mb.gcn_propagate(f, np.eye(3))
        assert np.array_equal(out, 2.0 * f)

    def test_path_graph_one_hots(self):
        adjacency = np.array([[0.0, 1.0, 0.0],
                              [1.0, 0.0, 1.0],
                              [0.0, 1.0, 0.0]])
        out, _ = mb.gcn_propagate(np.eye(3), adjacency)
        assert out.tolist() == [[1.0, 1.0, 0.0],
                                [1.0, 1.0, 1.0],
                                [0.0, 1.0, 1.0]]

    def test_stacked_blocks_propagate_separately(self):
        rng = np.random.default_rng(6)
        a1, a2 = rng.random((3, 3)), rng.random((3, 3))
        f1, f2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        out, _ = mb.gcn_propagate(np.vstack([f1, f2]), np.vstack([a1, a2]))
        assert np.allclose(out, np.vstack([a1 @ f1 + f1, a2 @ f2 + f2]),
                           atol=1e-12)

    def test_stacked_gradients_against_finite_differences(self):
        rng = np.random.default_rng(8)
        f = rng.normal(size=(6, 2))
        a = rng.random((6, 3))
        probe = rng.normal(size=(6, 2))
        assert check_pullback(mb.gcn_propagate, [f, a], [], probe) < 1e-6

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatchError):
            mb.gcn_propagate(np.zeros((3, 2)), np.zeros((2, 3)))
        with pytest.raises(ShapeMismatchError):
            mb.gcn_propagate(np.zeros((3, 2)), np.zeros((2, 2)))


class TestGFormerLayer:
    def test_zero_params_collapse_to_bias(self):
        # zero gains kill both normalized terms; zero FFN passes X through
        # the second residual, so out = broadcast ln2 bias
        dim, d_hid = 4, 8
        layer = zero_layer(dim, d_hid, bias2_value=1.5)
        f = np.arange(12.0).reshape(3, 4)
        out, _ = mb.gformer_layer(f, np.zeros((3, 3)), layer)
        assert np.allclose(out, 1.5, atol=1e-12)

    def test_zero_params_unroll_by_hand(self):
        # layer 1 output = bias (zero), layer 2 input zero -> output bias
        dim, d_hid = 4, 8
        out = np.zeros((2, dim))
        for layer in (zero_layer(dim, d_hid), zero_layer(dim, d_hid)):
            out, _ = mb.gformer_layer(out, np.zeros((2, 2)), layer)
            assert np.all(out == 0.0)

    def test_output_shape_matches_input(self):
        params = tiny_params()
        f = np.random.default_rng(0).normal(size=(5, 8))
        out, _ = mb.gformer_layer(f, np.zeros((5, 5)), params.gformer[0])
        assert out.shape == f.shape

    def test_layer_gradients_against_finite_differences(self):
        rng = np.random.default_rng(4)
        dim, d_hid = 4, 8
        cfg = mb.ModelConfig(dim=dim, heads=1, layers=1, d_hid=d_hid,
                             classes=2, seed=11)
        layer = mb.init_params(cfg).gformer[0]
        f = rng.normal(size=(3, dim))
        a = (rng.random((3, 3)) < 0.5).astype(float)
        assert check_pullback(lambda f, a: mb.gformer_layer(f, a, layer),
                              [f, a], layer.all(), 1.0) < 1e-4


# a chunk of three pairs padded to the largest (3, 8 and 3 atoms), and
# one of three 5-atom pairs with no padding
LAYER_CHUNKS = pytest.mark.parametrize("texts", [
    [("CCO", "C"), ("c1ccccc1", "CN"), ("CN", "O")],
    [("CCO", "CN"), ("CCC", "CO"), ("CC", "CCO")],
], ids=["padded", "unpadded"])


def layer_inputs(texts, seed=3, dim=4, d_hid=8):
    """One layer's inputs on the chunk of `texts`: features, the chunk's
    bonds mixed with random weights on each block's real atoms (as
    attention mixes them in), layer weights with gains and biases moved
    off 1 and 0, and a probe for the loss."""
    rng = np.random.default_rng(seed)
    joint = jg.stack_joints([(graph(a), graph(b)) for a, b in texts],
                            np.float64)
    rows, n = joint.adjacency.shape
    keys = np.repeat(joint.mask, n, axis=0)
    f = rng.normal(size=(rows, dim))
    a = 0.7 * joint.adjacency + 0.3 * rng.random((rows, n)) * keys
    layer = mb.ModelParams(mb.ModelConfig(dim=dim, heads=1, layers=1,
                                          d_hid=d_hid)).gformer[0]
    mb.fill_layer(rng, layer)
    for p in layer.all():
        p.value[...] += rng.normal(0.0, 0.3, p.shape)
    return f, a, layer, rng.normal(size=(rows, dim))


def composed_layer(f, a, p):
    """The GFormer layer op by op, one (value, pullback) pair per op: the
    propagation and layer-norm stages through stage_node, the rest as the
    tests' own ops."""
    def norm(x, gain, bias):
        return stage_node(lambda v: ad.layer_norm(v, gain, bias), x)

    x = add(norm(stage_node(mb.gcn_propagate, f, a), p.ln1_gain, p.ln1_bias),
            f)
    hidden = positive_part(linear(x, p.w1, p.b1))
    return norm(add(linear(hidden, p.w2, p.b2), x), p.ln2_gain, p.ln2_bias)


class TestFusedLayer:
    @LAYER_CHUNKS
    def test_gradients_against_finite_differences(self, texts):
        f, a, layer, probe = layer_inputs(texts)
        assert check_pullback(lambda f, a: mb.gformer_layer(f, a, layer),
                              [f, a], layer.all(), probe) < 1e-6

    @LAYER_CHUNKS
    def test_equals_op_by_op_composition(self, texts):
        f_val, a_val, layer, probe = layer_inputs(texts)
        f, a = Param(f_val, "f_prev"), Param(a_val, "adjacency")
        wrt = [f, a, *layer.all()]

        def fused(f, a, p):
            return stage_node(lambda f, a: mb.gformer_layer(f, a, p), f, a)

        results = []
        for run in (fused, composed_layer):
            for q in wrt:
                q.zero_grad()
            out = run(f, a, layer)
            probe_loss(out, probe).backward()
            results.append((out[0], [q.grad.copy() for q in wrt]))
        (got, got_grads), (want, want_grads) = results
        assert np.max(np.abs(got - want)) <= 1e-12
        for q, got_grad, want_grad in zip(wrt, got_grads, want_grads):
            assert np.max(np.abs(got_grad - want_grad)) <= 1e-12, q.name
            assert np.any(want_grad != 0.0), q.name


class TestAggregate:
    def test_single_matrix_column_sum(self):
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        out, _ = mb.aggregate([h], np.ones((1, 2), dtype=bool))
        assert out.tolist() == [[4.0, 6.0]]

    def test_counts_layers_times_atoms(self):
        ones = [np.ones((4, 5)) for _ in range(3)]   # L = 2
        out, _ = mb.aggregate(ones, np.ones((1, 4), dtype=bool))
        assert np.all(out == 12.0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 3))
        perm = rng.permutation(6)
        whole = np.ones((1, 6), dtype=bool)
        a, _ = mb.aggregate([x], whole)
        b, _ = mb.aggregate([x[perm]], whole)
        assert np.allclose(a, b, atol=1e-12)


    def test_mask_sums_each_pairs_real_rows(self):
        rng = np.random.default_rng(5)
        trace = [rng.normal(size=(6, 2)) for _ in range(2)]
        mask = np.array([[True, True, False], [True, True, True]])
        out, _ = mb.aggregate(trace, mask)
        both = trace[0] + trace[1]
        assert out.shape == (2, 2)
        assert np.allclose(out, [both[0:2].sum(axis=0),
                                 both[3:6].sum(axis=0)], atol=1e-12)

    def test_nan_in_padding_row_reaches_pooled_row(self):
        # padding rows are masked by a product with 0, and NaN * 0 is NaN,
        # so forward_chunk's check of the pooled rows sees them
        value = np.ones((4, 3))
        value[1, 2] = np.nan                 # block 0's padding row
        mask = np.array([[True, False], [True, True]])
        out, _ = mb.aggregate([value], mask)
        assert np.isfinite(out).tolist() == [[True, True, False],
                                             [True, True, True]]

    def test_padding_rows_get_no_gradient(self):
        trace = [np.ones((4, 3)), np.ones((4, 3))]
        mask = np.array([[True, False], [True, True]])
        _, backward = mb.aggregate(trace, mask)
        assert backward(np.ones((2, 3)))[:, 0].tolist() == [1.0, 0.0, 1.0, 1.0]


class TestChunks:
    def test_sorted_by_size_then_index(self):
        assert mb.plan_chunks([5, 3, 5, 3])[0] == [[1, 3, 0, 2]]

    def test_budget_and_cover(self):
        sizes = [20, 90, 7, 90, 33, 41, 90, 12] * 20
        chunks = mb.plan_chunks(sizes)[0]
        assert sorted(i for c in chunks for i in c) == list(range(len(sizes)))
        flat = [i for c in chunks for i in c]
        assert flat == sorted(flat, key=lambda i: (sizes[i], i))
        for c in chunks:
            assert len(c) * max(sizes[i] for i in c) <= mb.CHUNK_ROWS

    def test_oversized_pair_gets_its_own_chunk(self):
        assert mb.plan_chunks([mb.CHUNK_ROWS + 1, 2])[0] == [[1], [0]]

    def test_largest_corpus_pairs_fill_chunks(self):
        assert PER_CHUNK >= 2
        big = 2 * max(g.n_atoms for g in CORPUS_GRAPHS)
        assert len(mb.plan_chunks([big] * (2 * PER_CHUNK + 1))[0]) == 3

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
        params.grads[...] = 0.0
        for (g1, g2), label in zip(pairs, labels):
            mb.cross_entropy_from_logits(mb.forward_pair(g1, g2, params),
                                         label, 1.0 / 3.0).backward()
        for p, want in zip(params.all(), chunk_grads):
            assert np.allclose(p.grad, want, rtol=1e-10, atol=1e-13), p.name

    def test_loss_backward_is_the_chunk_pullback(self):
        # the loss's pullback hands the cross-entropy gradient straight to
        # the chunk's pullback, which adds every Param's gradient
        params = tiny_params()
        pairs = [(graph("CCO"), graph("C")), (graph("c1ccccc1"), graph("CN"))]
        labels = [1, 0]
        chunk = mb.forward_chunk(pairs, params)
        mb.cross_entropy_from_logits(chunk, labels, 0.5).backward()
        via_loss = params.grads.copy()
        params.grads[...] = 0.0
        logits, backward = chunk
        d = np.exp(mb.log_softmax(logits))
        d[[0, 1], labels] -= 1.0
        d *= 0.5 / 2
        backward(d)
        assert np.any(via_loss != 0.0)
        assert np.array_equal(params.grads, via_loss)


class TestScoringWithoutPullback:
    """Scoring runs forward_chunk keeping no pullback: the logits are the
    bits of the pullback-keeping call, in either precision, on padded
    chunks of drug-sized pairs, and whatever the processes."""

    @pytest.fixture(scope="class")
    def drug_pairs(self, bench_corpus):
        rng = random.Random(31)
        graphs = featurize_records([
            pack_scan(scan_smiles(bench_corpus.make_drug(rng, n)))
            for n in bench_corpus.spread_sizes(rng, 24, 20, 50)])
        return list(zip(graphs[::2], graphs[1::2]))

    @staticmethod
    def params(dtype):
        params = mb.init_params(mb.ModelConfig(classes=86, seed=8))
        params.theta.value[...] = 0.4
        return params.astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("count", [1, 12])
    def test_logits_bit_equal(self, drug_pairs, dtype, count):
        params, pairs = self.params(dtype), drug_pairs[:count]
        kept, backward = mb.forward_chunk(pairs, params)
        logits, none = mb.forward_chunk(pairs, params, pullback=False)
        assert callable(backward) and none is None
        assert logits.dtype == kept.dtype == dtype
        assert logits.shape == (count, 86)
        assert logits.tobytes() == kept.tobytes()

    def test_batch_logits_one_and_two_processes(self, drug_pairs,
                                                monkeypatch):
        params = self.params(np.float32)
        assert len(mb.plan_chunks(mb.joint_sizes(drug_pairs))[0]) >= 2
        forked, fork = [], os.fork

        def counting():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting)
        monkeypatch.setattr(mb, "FORK_COST", 0)
        got = []
        for count in (1, 2):
            monkeypatch.setattr(par, "processes", lambda: count)
            got.append(mb.batch_logits(drug_pairs, params))
        assert len(forked) == 1
        assert got[0].tobytes() == got[1].tobytes()
        want = np.vstack([mb.forward_chunk([pair], params)[0]
                          for pair in drug_pairs])
        assert np.allclose(got[0], want, rtol=1e-5, atol=1e-4)


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
        logits, _ = mb.forward_pair(graph("C"), graph("C"), params)
        refined = refine(build_joint(graph("C"), graph("C")),
                         params.proj_w, params.proj_b, params.w_q, params.w_k,
                         params.config.heads, params.theta)
        assert np.allclose(refined.combined, np.zeros((2, 2)), atol=1e-12)
        assert np.all(np.isfinite(logits))


class TestCrossEntropy:
    def test_certain_prediction(self):
        loss = mb.cross_entropy_from_logits(fixed([[-1000.0, 0.0]]), 1)
        assert loss.item() == 0.0

    def test_uniform_four_way(self):
        loss = mb.cross_entropy_from_logits(fixed(np.zeros((1, 4))), 2).item()
        assert abs(loss - math.log(4.0)) < 1e-12
        assert abs(loss - 1.3863) < 1e-4

    def test_quarter_three_quarter(self):
        logits = fixed([[0.0, math.log(3.0)]])
        loss = mb.cross_entropy_from_logits(logits, 1).item()
        assert abs(loss - (-math.log(0.75))) < 1e-12
        assert abs(loss - 0.2877) < 1e-4

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRangeError):
            mb.cross_entropy_from_logits(fixed([[0.0, 0.0]]), 2)
        with pytest.raises(LabelOutOfRangeError):
            mb.cross_entropy_from_logits(fixed([[0.0, 0.0]]), -1)

    def test_label_vector_gives_mean(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(0, 2, (3, 4))
        rows = [mb.cross_entropy_from_logits(fixed(logits[i:i + 1]), c).item()
                for i, c in enumerate([0, 3, 1])]
        batch = mb.cross_entropy_from_logits(fixed(logits), [0, 3, 1])
        assert abs(batch.item() - sum(rows) / 3) < 1e-12

    def test_batch_gradient(self):
        rng = np.random.default_rng(10)
        logits = Param(rng.normal(0, 2, (3, 4)), "z")
        assert ad.grad_check(
            lambda: mb.cross_entropy_from_logits(node(logits), [2, 2, 0]),
            [logits]) < 1e-8

    def test_label_count_must_match_rows(self):
        with pytest.raises(ShapeMismatchError):
            mb.cross_entropy_from_logits(fixed(np.zeros((2, 3))), [0])

    def test_weight_scales_loss_and_gradient(self):
        rng = np.random.default_rng(11)
        logits = Param(rng.normal(0, 2, (3, 4)), "z")
        plain = mb.cross_entropy_from_logits(node(logits), [1, 0, 3])
        plain.backward()
        grad = logits.grad.copy()
        logits.zero_grad()
        weighted = mb.cross_entropy_from_logits(node(logits), [1, 0, 3],
                                                 0.25)
        weighted.backward()
        assert weighted.item() == 0.25 * plain.item()
        assert np.array_equal(logits.grad, 0.25 * grad)

    def test_fused_matches_plain(self):
        rng = np.random.default_rng(8)
        logits_val = rng.normal(0, 2, (1, 5))
        fused = mb.cross_entropy_from_logits(fixed(logits_val), 3).item()
        exp = np.exp(logits_val[0] - logits_val.max())
        probs = exp / exp.sum()
        assert abs(fused - (-math.log(probs[3]))) < 1e-12


class TestConfig:
    def test_heads_must_divide(self):
        with pytest.raises(HeadsNotDividingError):
            mb.ModelConfig(dim=10, heads=4)

    @pytest.mark.parametrize("fields", [
        {"d_hid": 4_000_000_000}, {"dim": 20_000},
        {"layers": 1_000_000_000_000}, {"classes": 10**9},
        {"feature_dim": 10**9}],
        ids=["d_hid", "dim", "layers", "classes", "feature_dim"])
    def test_size_cap(self, fields):
        with pytest.raises(SizeCapExceededError,
                           match="values, cap is 16777216") as info:
            mb.ModelConfig(**fields)
        assert isinstance(info.value, MolBridgeError)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("fields", [
        {}, {"dim": 8, "heads": 2, "layers": 2, "d_hid": 16, "classes": 5},
        {"layers": 1, "d_hid": 7, "classes": 86}])
    def test_size_is_params_and_one_chunk(self, fields, monkeypatch):
        config = mb.ModelConfig(**fields)
        size = sum(p.value.size for p in mb.init_params(config).all()) \
            + mb.CHUNK_ROWS * config.layers * (config.dim + config.d_hid)
        monkeypatch.setattr(mb, "MAX_MODEL_VALUES", size)
        mb.ModelConfig(**fields)
        monkeypatch.setattr(mb, "MAX_MODEL_VALUES", size - 1)
        with pytest.raises(SizeCapExceededError, match=f"implies {size} "):
            mb.ModelConfig(**fields)

    @pytest.mark.parametrize("field, value", [
        ("d_hid", -1), ("feature_dim", 0), ("dim", 0), ("heads", 0),
        ("layers", 0), ("dim", -8), ("classes", 1)])
    def test_refuses_a_dimension_below_its_least(self, field, value):
        # checked before anything is sized or built: a -1 would otherwise
        # reach numpy as a shape, or a reshape as "infer this axis"
        with pytest.raises(ModelConfigError,
                           match=f"^{field} is {value}: ") as info:
            mb.ModelConfig(**{field: value})
        assert isinstance(info.value, MolBridgeError)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("field, value", [("d_hid", -1), ("dim", 0)])
    def test_is_frozen(self, field, value):
        # every field is checked once, at construction; an assignment
        # after it would lay the Params out from an unchecked shape
        config = mb.ModelConfig(dim=8, heads=2, layers=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field, value)
        assert (config.dim, config.d_hid) == (8, 16)

    def test_large_model_within_cap(self):
        mb.ModelConfig(dim=256, heads=8, layers=6, d_hid=1024, classes=86)

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


def assert_laid_out(params, dtype):
    """Each Param's value and grad view the model's values and grads at
    the offset all() implies; the vectors hold nothing else."""
    for vector in (params.values, params.grads):
        assert vector.dtype == dtype and vector.ndim == 1
        assert vector.flags.c_contiguous and vector.flags.owndata
    offset = 0
    for p in params.all():
        for view, vector in ((p.value, params.values), (p.grad, params.grads)):
            assert view.shape == p.shape and view.dtype == dtype, p.name
            start = vector.ctypes.data + offset * vector.itemsize
            assert view.ctypes.data == start, p.name
            assert view.flags.c_contiguous, p.name
            assert np.shares_memory(view, vector), p.name
        offset += p.value.size
    assert offset == params.values.size
    assert not params.grads.any()


class TestLayout:
    def test_init_params(self):
        params = tiny_params()
        assert_laid_out(params, np.float64)
        params.values[...] = np.arange(params.values.size)
        assert params.proj_w.value[0, 1] == 1.0
        assert params.head_b2.value[0, -1] == params.values.size - 1

    def test_load_checkpoint(self, tmp_path):
        from molbridge.checkpoint import load_checkpoint, save_checkpoint
        saved = tiny_params(seed=3)
        save_checkpoint(tmp_path / "m.ckpt", saved)
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        assert_laid_out(loaded, np.float64)
        assert np.array_equal(loaded.values, saved.values)

    def test_astype_float32_is_a_separate_copy(self):
        params = tiny_params()
        params.grads[...] = 1.0
        fast = params.astype(np.float32)
        assert_laid_out(fast, np.float32)
        assert fast.config == params.config
        assert np.array_equal(fast.values, params.values.astype(np.float32))
        for a in (fast.values, fast.grads):
            for b in (params.values, params.grads):
                assert not np.shares_memory(a, b)
        for (name, p), (fast_name, f) in zip(params.named(), fast.named()):
            assert name == fast_name and p is not f

    @pytest.mark.parametrize("fields", [
        {}, {"layers": 1}, {"dim": 8, "heads": 2, "layers": 2, "d_hid": 7,
                            "classes": 5},
        {"dim": 6, "heads": 3, "layers": 1, "d_hid": 1, "classes": 2}],
        ids=["default", "one_layer", "odd_d_hid", "d_hid_1"])
    def test_views_the_vector_it_is_given(self, fields):
        config = mb.ModelConfig(**fields)
        shapes = mb.param_shapes(config)
        values = np.arange(sum(rows * cols for _, rows, cols in shapes),
                           dtype=np.float64)
        params = mb.ModelParams(config, values)
        assert params.values is values and params.config is config
        assert [(p.name, *p.shape) for p in params.all()] == shapes
        assert_laid_out(params, np.float64)
        values[0], values[-1] = -1.0, -2.0      # no copy: writes show through
        assert params.proj_w.value[0, 0] == -1.0
        assert params.head_b2.value[0, -1] == -2.0
        assert len(params.gformer) == config.layers
        for l, layer in enumerate(params.gformer):
            assert layer.all() == params.all()[5 + 8 * l:13 + 8 * l]
