import numpy as np
import pytest
from hypothesis import given, strategies as st

from molbridge.analysis import (
    assign_stratum,
    avg_shortest_path,
    depth_probe,
    mean_pairwise_cosine,
    quantile_boundaries,
    stratify_by_distance,
    top_edges,
)
from molbridge.errors import KExceedsEdgesError, SizeCapExceededError
from molbridge.model import ModelConfig
from molbridge.smiles import featurize_smiles, parse_smiles

from conftest import CORPUS, run_python

CHAINS = [featurize_smiles("C" * k) for k in range(1, 7)]


def floyd_warshall_mean(mol):
    n = len(mol.atoms)
    if n == 1:
        return 0.0
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for b in mol.bonds:
        dist[b.a, b.b] = dist[b.b, b.a] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i, k] + dist[k, j] < dist[i, j]:
                    dist[i, j] = dist[i, k] + dist[k, j]
    upper = dist[np.triu_indices(n, k=1)]
    finite = upper[np.isfinite(upper)]
    return float(finite.mean()) if finite.size else 0.0


class TestAvgShortestPath:
    def test_single_atom(self):
        assert avg_shortest_path(parse_smiles("C")) == 0.0

    def test_three_atom_path(self):
        assert abs(avg_shortest_path(parse_smiles("CCO")) - 4 / 3) < 1e-12

    def test_triangle(self):
        assert avg_shortest_path(parse_smiles("C1CC1")) == 1.0

    def test_matches_floyd_warshall_on_corpus(self):
        checked = 0
        for text in CORPUS:
            mol = parse_smiles(text)
            if len(mol.atoms) > 12:
                continue
            assert abs(avg_shortest_path(mol) - floyd_warshall_mean(mol)) \
                < 1e-12, text
            checked += 1
        assert checked >= 30


class TestQuantiles:
    def test_boundaries_match_sort_and_cut(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            values = rng.normal(size=int(rng.integers(5, 40)))
            boundaries = quantile_boundaries(values, 5)
            ordered = np.sort(values)
            groups = np.array_split(ordered, 5)
            expected = [g[-1] for g in groups[:-1] if g.size]
            assert np.array_equal(boundaries, expected)
            assert np.all(np.diff(boundaries) >= 0.0)

    def test_ties_assigned_low(self):
        boundaries = np.array([1.0, 1.0, 2.0, 3.0])
        assert assign_stratum(1.0, boundaries) == 0
        assert assign_stratum(2.0, boundaries) == 2
        assert assign_stratum(9.0, boundaries) == 4

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=30),
           st.integers(1, 30))
    def test_ties_land_alike_both_ways(self, lengths, quantiles):
        # few distinct statistics, so many samples tie with a boundary:
        # the whole-split assignment matches the one-value rule and a
        # plain walk over the boundaries
        pairs = [(CHAINS[k], CHAINS[k]) for k in lengths]
        quantiles = min(quantiles, len(pairs))
        strata = stratify_by_distance(pairs, [0] * len(pairs),
                                      [0] * len(pairs), 1, quantiles)
        walked = [next((k for k, cut in enumerate(strata.boundaries)
                        if value <= cut), len(strata.boundaries))
                  for value in strata.statistics]
        assert strata.assignments.tolist() == walked
        assert walked == [assign_stratum(value, strata.boundaries)
                          for value in strata.statistics]

    def test_more_quantiles_than_samples_refused(self):
        pairs = [(CHAINS[1], CHAINS[2])] * 3
        with pytest.raises(ValueError, match="^4 quantiles for 3 samples$"):
            stratify_by_distance(pairs, [0] * 3, [0] * 3, 1, quantiles=4)
        for quantiles in (0, -2):
            with pytest.raises(ValueError, match="must be at least 1"):
                stratify_by_distance(pairs, [0] * 3, [0] * 3, 1, quantiles)

    def test_huge_quantile_count_is_linear(self):
        # one boundary per value at most, cut arithmetically; run capped
        # at 1 GiB, so one array per quantile fails fast instead
        code = ("import numpy as np\n"
                "from molbridge.analysis import quantile_boundaries\n"
                "print(quantile_boundaries(np.arange(7.0)[::-1], 10**12)"
                ".tolist())\n"
                "from molbridge.analysis import stratify_by_distance\n"
                "try:\n"
                "    stratify_by_distance([], [], [], 1, quantiles=10**12)\n"
                "except ValueError as e:\n"
                "    print(e)\n")
        done = run_python("-c", code, memory_cap=2 ** 30)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            str([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            "1000000000000 quantiles for 0 samples"]

    def test_identical_statistics_collapse_to_stratum_zero(self):
        pairs = [(featurize_smiles("CC"), featurize_smiles("CC"))
                 for _ in range(6)]
        strata = stratify_by_distance(pairs, [0] * 6, [0] * 6, 2)
        assert np.all(strata.assignments == 0)
        assert strata.counts.tolist() == [6, 0, 0, 0, 0]
        assert strata.per_stratum.tolist() == [[1.0] * 4] + [[0.0] * 4] * 4

    def test_five_distinct_statistics_one_per_stratum(self):
        texts = ["CC", "CCC", "CCCC", "CCCCC", "CCCCCC"]
        pairs = [(featurize_smiles(t), featurize_smiles(t)) for t in texts]
        strata = stratify_by_distance(pairs, [0] * 5, [0] * 5, 1)
        assert sorted(strata.assignments.tolist()) == [0, 1, 2, 3, 4]

    def test_partition_covers_all_samples(self):
        rng = np.random.default_rng(3)
        texts = [CORPUS[i] for i in rng.integers(0, len(CORPUS), 20)]
        pairs = [(featurize_smiles(t), featurize_smiles(texts[(i + 1) % 20]))
                 for i, t in enumerate(texts)]
        preds = rng.integers(0, 2, 20).tolist()
        labels = rng.integers(0, 2, 20).tolist()
        strata = stratify_by_distance(pairs, preds, labels, 2)
        counts = [int((strata.assignments == k).sum()) for k in range(5)]
        assert sum(counts) == 20

    @pytest.mark.parametrize("combine", ["pair_mean", "first"])
    def test_statistics_equal_avg_shortest_path_on_corpus(self, combine):
        texts = list(zip(CORPUS, CORPUS[1:] + CORPUS[:1]))
        graphs = {text: featurize_smiles(text) for text in CORPUS}
        pairs = [(graphs[a], graphs[b]) for a, b in texts]
        strata = stratify_by_distance(pairs, [0] * len(pairs),
                                      [0] * len(pairs), 2, combine=combine)
        for (a, b), stat in zip(texts, strata.statistics):
            p1 = avg_shortest_path(parse_smiles(a))
            p2 = avg_shortest_path(parse_smiles(b))
            assert stat == (0.5 * (p1 + p2) if combine == "pair_mean"
                            else p1), (a, b)

    def test_pair_mean_vs_first_statistic(self):
        g1, g2 = featurize_smiles("CCCC"), featurize_smiles("C")
        from molbridge.analysis import pair_distance_statistic
        pm = pair_distance_statistic(g1, g2, "pair_mean")
        first = pair_distance_statistic(g1, g2, "first")
        m1 = parse_smiles("CCCC")
        assert pm == pytest.approx(0.5 * avg_shortest_path(m1))
        assert first == pytest.approx(avg_shortest_path(m1))


class TestDepthProbe:
    def test_report_shapes(self):
        report = depth_probe(0, max_depth=4, trials=3)
        assert report.depths.tolist() == [1, 2, 3, 4]
        assert report.plain.shape == (3, 4)
        assert report.gformer.shape == (3, 4)

    def test_similarities_in_range(self):
        report = depth_probe(1, max_depth=5, trials=5)
        for arr in (report.plain, report.gformer):
            assert np.all(arr <= 1.0 + 1e-12)
            assert np.all(arr >= -1.0 - 1e-12)

    def test_depth_one_below_one(self):
        report = depth_probe(2, max_depth=2, trials=10)
        assert np.all(report.plain[:, 0] < 1.0)
        assert np.all(report.gformer[:, 0] < 1.0)

    def test_deterministic_per_seed(self):
        a = depth_probe(3, max_depth=3, trials=4)
        b = depth_probe(3, max_depth=3, trials=4)
        assert np.array_equal(a.plain, b.plain)
        assert np.array_equal(a.gformer, b.gformer)

    def test_deeper_than_one_model_may_be(self):
        # each probe layer is that of its own one-layer model, drawn in
        # depth order: a probe deeper than one model may be still runs,
        # and its first depths are those of a shallower probe
        with pytest.raises(SizeCapExceededError):
            ModelConfig(dim=16, heads=1, layers=700, d_hid=32)
        deep = depth_probe(3, max_depth=700, trials=1)
        shallow = depth_probe(3, max_depth=8, trials=1)
        assert deep.gformer.shape == deep.plain.shape == (1, 700)
        assert np.array_equal(deep.gformer[:, :8], shallow.gformer)
        assert np.array_equal(deep.plain[:, :8], shallow.plain)

    def test_complete_graph_collapses(self):
        # K3 with uniform averaging: one step leaves all rows equal to the
        # mean, cosine 1 thereafter
        adj = np.ones((3, 3)) - np.eye(3)
        deg = adj.sum(axis=1) + 1.0
        scale = 1.0 / np.sqrt(deg)
        smooth = scale[:, None] * (adj + np.eye(3)) * scale[None, :]
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (3, 6))
        for _ in range(40):
            x = smooth @ x
        assert mean_pairwise_cosine(x) > 1.0 - 1e-9

    def test_plain_mostly_monotone_on_connected_graphs(self):
        # statistical analogue: similarity should be nondecreasing with
        # depth in at least 90% of single-component trials
        from molbridge.analysis import _random_block
        wins = 0
        trials = 50
        for t in range(trials):
            rng = np.random.default_rng([77, t])
            n = int(rng.integers(4, 10))
            adj = _random_block(rng, n)
            deg = adj.sum(axis=1) + 1.0
            scale = 1.0 / np.sqrt(deg)
            smooth = scale[:, None] * (adj + np.eye(n)) * scale[None, :]
            x = rng.uniform(0, 1, (n, 8))
            sims = []
            for _ in range(8):
                x = smooth @ x
                sims.append(mean_pairwise_cosine(x))
            if np.all(np.diff(sims) >= -1e-9):
                wins += 1
        assert wins >= 0.9 * trials


class TestTopEdges:
    def test_uniform_ties_lexicographic(self):
        a = np.full((4, 4), 0.25)
        edges = top_edges(a, 3, boundary=2)
        assert [(p, q) for p, q, _ in edges] == [(0, 2), (0, 3), (1, 2)]

    def test_dominant_entry_first(self):
        a = np.zeros((4, 4))
        a[1, 3] = 0.9
        a[0, 2] = 0.1
        edges = top_edges(a, 2, boundary=2)
        assert edges[0][:2] == (1, 3)
        assert edges[0][2] == 0.9

    def test_matches_exhaustive_sort(self):
        rng = np.random.default_rng(11)
        a = rng.random((6, 6))
        edges = top_edges(a, 3, boundary=3)
        oracle = sorted(((p, q, float(a[p, q]))
                         for p in range(3) for q in range(3, 6)),
                        key=lambda e: (-e[2], e[0], e[1]))[:3]
        assert edges == oracle

    def test_cross_molecular_only(self):
        a = np.zeros((4, 4))
        a[0, 1] = 5.0      # within drug one, must be ignored
        a[0, 2] = 0.5
        edges = top_edges(a, 1, boundary=2)
        assert edges[0][:2] == (0, 2)

    def test_k_exceeds_edges(self):
        with pytest.raises(KExceedsEdgesError):
            top_edges(np.zeros((3, 3)), 5, boundary=1)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        a = rng.random((5, 5))
        assert top_edges(a, 4, 2) == top_edges(a.copy(), 4, 2)
