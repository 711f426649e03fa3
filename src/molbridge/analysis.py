"""Diagnostics: depth-collapse probe, path-length strata, strong edges.

The depth probe contrasts two untrained stacks on the same random
block-diagonal graphs: symmetric degree-normalized propagation (the
classic averaging operator, no residuals) versus randomly initialized
GFormer layers. Collapse is measured as mean pairwise cosine similarity
of node rows at each depth.

Path lengths are one BFS over a featured graph's neighbor lists; distance
strata take them from the scored split's graphs, once per graph object.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import model as m
from .errors import KExceedsEdgesError
from .metrics import grouped_metrics
from .smiles import FeaturedGraph, Molecule, featurize


# ---------------------------------------------------------------------- #
# shortest paths
# ---------------------------------------------------------------------- #

def avg_shortest_path(mol: Molecule) -> float:
    """Mean BFS distance over unordered atom pairs.

    Disconnected molecules average within-component pairs only; a single
    atom (or no reachable pairs at all) gives 0.
    """
    return graph_path_mean(featurize(mol))


def graph_path_mean(g: FeaturedGraph) -> float:
    """avg_shortest_path of a featured graph: BFS over its neighbor lists."""
    adj = [np.flatnonzero(row).tolist() for row in g.adjacency]
    n = len(adj)
    total = pairs = 0
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for dst in range(src + 1, n):
            if dist[dst] > 0:
                total += dist[dst]
                pairs += 1
    return total / pairs if pairs else 0.0


# ---------------------------------------------------------------------- #
# distance stratification
# ---------------------------------------------------------------------- #

@dataclass
class DistanceStrata:
    statistics: np.ndarray          # per evaluated sample
    boundaries: np.ndarray          # quantiles - 1 nondecreasing cut values
    assignments: np.ndarray         # stratum index per sample
    counts: np.ndarray              # samples per stratum
    per_stratum: np.ndarray         # METRIC_KEYS row per stratum, 0 if empty


def pair_distance_statistic(g_1: FeaturedGraph, g_2: FeaturedGraph,
                            combine: str = "pair_mean",
                            path_mean=graph_path_mean) -> float:
    """Per-sample path-length statistic, path_mean giving each drug's.

    pair_mean averages the two drugs' values; first uses only drug one,
    for checking how sensitive strata are to that choice.
    """
    if combine == "pair_mean":
        return 0.5 * (path_mean(g_1) + path_mean(g_2))
    if combine == "first":
        return path_mean(g_1)
    raise ValueError(f"unknown combine rule {combine!r}")


def quantile_boundaries(values: np.ndarray, quantiles: int) -> np.ndarray:
    """Sort-and-cut boundaries: the last value of each nonempty run but the
    final one, cutting the sorted values as np.array_split does."""
    if quantiles < 1:
        raise ValueError(f"quantiles must be at least 1, got {quantiles}")
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    base, extra = divmod(ordered.size, quantiles)
    runs = np.arange(1, min(quantiles - 1, ordered.size) + 1)
    return ordered[runs * base + np.minimum(runs, extra) - 1]


def assign_stratum(value: float, boundaries: np.ndarray) -> int:
    """Index of the first boundary at or above value; ties go low."""
    return int(np.searchsorted(boundaries, value, side="left"))


def stratify_by_distance(pairs: list[tuple[FeaturedGraph, FeaturedGraph]],
                         preds: list[int], labels: list[int],
                         n_classes: int, quantiles: int = 5,
                         combine: str = "pair_mean") -> DistanceStrata:
    """Quintile the samples by path-length statistic and score each
    stratum with the macro metrics over the labels it contains."""
    if quantiles > len(pairs):
        raise ValueError(f"{quantiles} quantiles for {len(pairs)} samples")
    known: dict[int, float] = {}    # by graph object, one per SMILES

    def path_mean(g: FeaturedGraph) -> float:
        if id(g) not in known:
            known[id(g)] = graph_path_mean(g)
        return known[id(g)]

    stats = np.array([pair_distance_statistic(g1, g2, combine, path_mean)
                      for g1, g2 in pairs])
    boundaries = quantile_boundaries(stats, quantiles)
    assignments = np.searchsorted(boundaries, stats, side="left")
    return DistanceStrata(
        stats, boundaries, assignments,
        np.bincount(assignments, minlength=quantiles),
        grouped_metrics(preds, labels, n_classes, assignments, quantiles))


# ---------------------------------------------------------------------- #
# depth probe
# ---------------------------------------------------------------------- #

@dataclass
class DepthProbeReport:
    depths: np.ndarray              # 1..max_depth
    plain: np.ndarray               # (trials, depth) cosine means
    gformer: np.ndarray             # (trials, depth)

    @property
    def plain_mean(self) -> np.ndarray:
        return self.plain.mean(axis=0)

    @property
    def gformer_mean(self) -> np.ndarray:
        return self.gformer.mean(axis=0)


def mean_pairwise_cosine(rows: np.ndarray) -> float:
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    unit = rows / np.maximum(norms, 1e-12)
    gram = unit @ unit.T
    n = rows.shape[0]
    upper = gram[np.triu_indices(n, k=1)]
    return float(upper.mean())


def _random_block(rng: np.random.Generator, size: int) -> np.ndarray:
    adj = np.zeros((size, size))
    for node in range(1, size):
        other = int(rng.integers(0, node))
        adj[node, other] = adj[other, node] = 1.0
    for p in range(size):
        for q in range(p + 1, size):
            if adj[p, q] == 0 and rng.random() < 0.28:
                adj[p, q] = adj[q, p] = 1.0
    return adj


def random_joint_graph(rng: np.random.Generator,
                       dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Two connected random blocks of 3 to 8 nodes with uniform [0, 1)
    features; returns (adjacency, features)."""
    sizes = rng.integers(3, 9, size=2)
    n = int(sizes.sum())
    adj = np.zeros((n, n))
    adj[:sizes[0], :sizes[0]] = _random_block(rng, int(sizes[0]))
    adj[sizes[0]:, sizes[0]:] = _random_block(rng, int(sizes[1]))
    features = rng.uniform(0.0, 1.0, (n, dim))
    return adj, features


def depth_probe(seed: int, max_depth: int = 8,
                trials: int = 100) -> DepthProbeReport:
    """Per-trial, per-depth cosine similarity for both stacks, width 16.

    Trial t draws its graph, then its GFormer layers in depth order (each
    that of a one-layer model), from default_rng([seed, t]), so trials are
    reproducible independently of each other.
    """
    if max_depth < 2:
        raise ValueError("max_depth must be at least 2")
    if trials < 1:
        raise ValueError("need at least one trial")
    plain = np.zeros((trials, max_depth))
    gformer = np.zeros((trials, max_depth))
    probe = m.ModelConfig(dim=16, heads=1, layers=1, d_hid=32)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        adj, features = random_joint_graph(rng, 16)
        n = adj.shape[0]

        deg = adj.sum(axis=1) + 1.0
        scale = 1.0 / np.sqrt(deg)
        smooth = scale[:, None] * (adj + np.eye(n)) * scale[None, :]
        current = features
        for depth in range(max_depth):
            current = smooth @ current
            plain[t, depth] = mean_pairwise_cosine(current)

        out = features
        for depth in range(max_depth):
            layer = m.ModelParams(probe).gformer[0]
            m.fill_layer(rng, layer)
            out, _ = m.gformer_layer(out, adj, layer)
            gformer[t, depth] = mean_pairwise_cosine(out)
    return DepthProbeReport(np.arange(1, max_depth + 1), plain, gformer)


# ---------------------------------------------------------------------- #
# strong cross-molecular edges
# ---------------------------------------------------------------------- #

def top_edges(adjacency: np.ndarray, k: int,
              boundary: int) -> list[tuple[int, int, float]]:
    """The k heaviest entries linking the two drugs, as (p, q, weight)
    with p before the boundary and q after; descending weight, ties in
    (p, q) order."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = adjacency.shape[0]
    if not 0 < boundary < n:
        raise ValueError(f"boundary {boundary} outside (0, {n})")
    cross = [(p, q, float(adjacency[p, q]))
             for p in range(boundary) for q in range(boundary, n)]
    if k > len(cross):
        raise KExceedsEdgesError(
            f"k={k} exceeds the {len(cross)} cross-molecular entries")
    cross.sort(key=lambda e: (-e[2], e[0], e[1]))
    return cross[:k]
