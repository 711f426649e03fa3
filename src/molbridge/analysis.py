"""Diagnostics: depth-collapse probe, path-length strata, strong edges.

The depth probe contrasts two untrained stacks on the same random
block-diagonal graphs: symmetric degree-normalized propagation (the
classic averaging operator, no residuals) versus randomly initialized
GFormer layers. Collapse is measured as mean pairwise cosine similarity
of node rows at each depth.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import model as m
from .autodiff import Tensor
from .errors import KExceedsEdgesError
from .metrics import stratified_metrics
from .smiles import Molecule


# ---------------------------------------------------------------------- #
# shortest paths
# ---------------------------------------------------------------------- #

def avg_shortest_path(mol: Molecule) -> float:
    """Mean BFS distance over unordered atom pairs.

    Disconnected molecules average within-component pairs only; a single
    atom (or no reachable pairs at all) gives 0.
    """
    n = len(mol.atoms)
    if n == 1:
        return 0.0
    adj = mol.neighbor_lists()
    total = 0
    pairs = 0
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
    per_stratum: list[dict[str, float] | None]  # None for empty strata


def pair_distance_statistic(mol_1: Molecule, mol_2: Molecule,
                            combine: str = "pair_mean") -> float:
    """Per-sample path-length statistic.

    pair_mean averages the two drugs' values; first uses only drug one,
    for checking how sensitive strata are to that choice.
    """
    if combine == "pair_mean":
        return 0.5 * (avg_shortest_path(mol_1) + avg_shortest_path(mol_2))
    if combine == "first":
        return avg_shortest_path(mol_1)
    raise ValueError(f"unknown combine rule {combine!r}")


def quantile_boundaries(values: np.ndarray, quantiles: int) -> np.ndarray:
    """Sort-and-cut boundaries: split the sorted values into `quantiles`
    runs and take the last value of each run but the final one."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    groups = np.array_split(ordered, quantiles)
    return np.array([g[-1] for g in groups[:-1] if g.size > 0])


def assign_stratum(value: float, boundaries: np.ndarray) -> int:
    """Index of the first boundary at or above value; ties go low."""
    for k, cut in enumerate(boundaries):
        if value <= cut:
            return k
    return len(boundaries)


def stratify_by_distance(mols: list[tuple[Molecule, Molecule]],
                         preds: list[int], labels: list[int],
                         n_classes: int, quantiles: int = 5,
                         combine: str = "pair_mean") -> DistanceStrata:
    """Quintile the samples by path-length statistic and score each
    stratum with the macro metrics over the labels it contains."""
    stats = np.array([pair_distance_statistic(m1, m2, combine)
                      for m1, m2 in mols])
    boundaries = quantile_boundaries(stats, quantiles)
    assignments = np.array([assign_stratum(v, boundaries) for v in stats])
    per_stratum: list[dict[str, float] | None] = []
    for k in range(quantiles):
        keep = np.nonzero(assignments == k)[0]
        if keep.size == 0:
            per_stratum.append(None)
            continue
        sub_labels = [labels[i] for i in keep]
        sub_preds = [preds[i] for i in keep]
        per_stratum.append(stratified_metrics(
            sub_preds, sub_labels, n_classes, sorted(set(sub_labels))))
    return DistanceStrata(stats, boundaries, assignments, per_stratum)


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

    Trial t draws its graph from default_rng([seed, t]) so trials are
    reproducible independently of each other.
    """
    if max_depth < 2:
        raise ValueError("max_depth must be at least 2")
    if trials < 1:
        raise ValueError("need at least one trial")
    plain = np.zeros((trials, max_depth))
    gformer = np.zeros((trials, max_depth))
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

        layers = [m.init_layer(rng, depth, 16, 32)
                  for depth in range(max_depth)]
        adj_t = Tensor(adj)
        out = Tensor(features)
        for depth in range(max_depth):
            out = m.gformer_layer(out, adj_t, layers[depth])
            gformer[t, depth] = mean_pairwise_cosine(out.value)
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
