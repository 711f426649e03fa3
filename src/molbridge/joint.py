"""Two-drug joint graph assembly and attention-based adjacency refinement.

The pipeline here is: stack both drugs' features and adjacencies into one
block-diagonal graph, project features to the working width, score all
atom pairs with multi-head attention (weights only, no value path), and
blend the attention matrix with the bonded adjacency through a learned
scalar gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Param, Tensor
from .errors import HeadsNotDividingError, ShapeMismatchError, SizeCapExceededError
from .smiles import FeaturedGraph

# Joint graph size cap: two drugs of at most 50 atoms each.
SIZE_CAP = 100


@dataclass
class JointGraph:
    """Stacked features, block-diagonal adjacency, and the block boundary.

    boundary is the index of the first atom of the second drug, so rows
    [0, boundary) belong to drug one and [boundary, N) to drug two.
    """

    features: np.ndarray
    adjacency: np.ndarray
    boundary: int


@dataclass
class RefinedAdjacency:
    """Outputs of the refinement stage, kept as graph nodes for backprop."""

    projected: Tensor       # H, (N_i+N_j) x dim
    attention: Tensor       # A_r, row-stochastic
    combined: Tensor        # A = (1-alpha) A' + alpha A_r
    alpha: Tensor           # 1x1, in (0, 1)


def build_joint(g_i: FeaturedGraph, g_j: FeaturedGraph) -> JointGraph:
    """Stack two featured graphs into one block-diagonal joint graph."""
    n_i, n_j = g_i.n_atoms, g_j.n_atoms
    if n_i + n_j > SIZE_CAP:
        raise SizeCapExceededError(
            f"joint graph has {n_i + n_j} atoms, cap is {SIZE_CAP}")
    features = np.vstack([g_i.features, g_j.features])
    n = n_i + n_j
    adjacency = np.zeros((n, n), dtype=np.float64)
    adjacency[:n_i, :n_i] = g_i.adjacency
    adjacency[n_i:, n_i:] = g_j.adjacency
    return JointGraph(features, adjacency, n_i)


def project(features: Tensor, weight: Param, bias: Param) -> Tensor:
    """Affine map of stacked features to the working width."""
    if features.cols != weight.rows:
        raise ShapeMismatchError(
            f"projection expects {weight.rows} input columns, "
            f"got {features.cols}")
    return features @ weight + bias


def cross_attention(h: Tensor, w_q: Param, w_k: Param, heads: int) -> Tensor:
    """Mean over heads of softmax(Q K^T / sqrt(dim/heads)) on node features.

    w_q and w_k are dim x dim; column block h (head_dim = dim/heads
    columns) holds head h's projection. Only the attention weights are
    used; there is no value projection, so the result is directly a
    row-stochastic adjacency over all atoms. One tape node: the backward
    runs over (heads, n, head_dim) arrays.
    """
    n, dim = h.shape
    if dim % heads != 0:
        raise HeadsNotDividingError(f"{heads} heads do not divide dim {dim}")
    if w_q.shape != (dim, dim) or w_k.shape != (dim, dim):
        raise ShapeMismatchError(
            f"W_Q and W_K must be {dim}x{dim}, got {w_q.shape} and {w_k.shape}")
    head_dim = dim // heads
    scale = 1.0 / math.sqrt(head_dim)

    def split(x: np.ndarray) -> np.ndarray:
        return x.reshape(n, heads, head_dim).transpose(1, 0, 2)

    def merge(x: np.ndarray) -> np.ndarray:
        return x.transpose(1, 0, 2).reshape(n, dim)

    q = split(h.value @ w_q.value)
    k = split(h.value @ w_k.value)
    scores = (q @ k.transpose(0, 2, 1)) * scale
    exp = np.exp(scores - scores.max(axis=2, keepdims=True))
    probs = exp / exp.sum(axis=2, keepdims=True)

    def backward():
        g = out.grad * (1.0 / heads)
        d_scores = scale * (probs * (g - (g * probs).sum(axis=2, keepdims=True)))
        d_q = merge(d_scores @ k)
        d_k = merge(d_scores.transpose(0, 2, 1) @ q)
        w_q.grad += h.value.T @ d_q
        w_k.grad += h.value.T @ d_k
        h.grad += d_q @ w_q.value.T + d_k @ w_k.value.T

    out = Tensor._result(probs.sum(axis=0) * (1.0 / heads), (h, w_q, w_k),
                         backward)
    return out


def integrate(a_prime: Tensor, a_r: Tensor, theta: Param) -> tuple[Tensor, Tensor]:
    """Blend bonded and attention adjacencies: A = (1-alpha) A' + alpha A_r.

    alpha = logistic(theta) keeps the mix a convex combination.
    Returns (A, alpha).
    """
    if a_prime.shape != a_r.shape:
        raise ShapeMismatchError(
            f"adjacency shapes differ: {a_prime.shape} vs {a_r.shape}")
    if theta.shape != (1, 1):
        raise ShapeMismatchError("theta must be 1x1")
    alpha = ad.sigmoid(theta)
    combined = (1.0 - alpha) * a_prime + alpha * a_r
    return combined, alpha


def refine(joint: JointGraph, proj_w: Param, proj_b: Param,
           w_q: Param, w_k: Param, heads: int,
           theta: Param) -> RefinedAdjacency:
    """Run projection, attention, and integration on one joint graph."""
    features = Tensor(joint.features)
    h = project(features, proj_w, proj_b)
    a_r = cross_attention(h, w_q, w_k, heads)
    combined, alpha = integrate(Tensor(joint.adjacency), a_r, theta)
    return RefinedAdjacency(h, a_r, combined, alpha)
