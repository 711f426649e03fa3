"""Two-drug joint graph assembly and attention-based adjacency refinement.

The pipeline here is: stack both drugs' features and adjacencies into one
block-diagonal graph, project features to the working width, score all
atom pairs with multi-head attention (weights only, no value path), and
blend the attention matrix with the bonded adjacency through a learned
scalar gate.

Several pairs run together as a chunk: each pair's joint graph is padded
to the chunk's largest size N and the blocks are stacked, so every value
stays a matrix. For B pairs the features are (B*N) x d, each adjacency
is (B*N) x N with rows [b*N, (b+1)*N) holding block b, and a B x N mask
marks the real atoms. Padding rows have zero features and no bonds, and
attention gives them no weight, so a real atom never reads a padding
row. A single pair is the chunk with B = 1 and no padding: n x d
features and an n x n adjacency.
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

    @property
    def mask(self) -> np.ndarray:
        """1 x N, all real atoms: one pair is a chunk with no padding."""
        return np.ones((1, self.adjacency.shape[0]), dtype=bool)


@dataclass
class JointChunk:
    """B joint graphs padded to N atoms and stacked (see the module doc)."""

    features: np.ndarray    # (B*N) x feature_dim, zero on padding rows
    adjacency: np.ndarray   # (B*N) x N stacked blocks
    mask: np.ndarray        # B x N, True on real atoms


@dataclass
class RefinedAdjacency:
    """Outputs of the refinement stage, kept as graph nodes for backprop."""

    projected: Tensor       # H, (B*N) x dim
    attention: Tensor       # A_r, (B*N) x N, row-stochastic over real atoms
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


def stack_joints(joints: list[JointGraph]) -> JointChunk:
    """Pad every joint graph to the largest and stack them as one chunk."""
    n = max(j.adjacency.shape[0] for j in joints)
    features = np.zeros((len(joints) * n, joints[0].features.shape[1]))
    adjacency = np.zeros((len(joints) * n, n))
    mask = np.zeros((len(joints), n), dtype=bool)
    for b, joint in enumerate(joints):
        size = joint.adjacency.shape[0]
        features[b * n:b * n + size] = joint.features
        adjacency[b * n:b * n + size, :size] = joint.adjacency
        mask[b, :size] = True
    return JointChunk(features, adjacency, mask)


def project(features: Tensor, weight: Param, bias: Param) -> Tensor:
    """Affine map of stacked features to the working width (one node)."""
    return ad.linear(features, weight, bias)


def cross_attention(h: Tensor, w_q: Param, w_k: Param, heads: int,
                    mask: np.ndarray | None = None) -> Tensor:
    """Mean over heads of softmax(Q K^T / sqrt(dim/heads)) on node features.

    w_q and w_k are dim x dim; column block h (head_dim = dim/heads
    columns) holds head h's projection. Only the attention weights are
    used; there is no value projection, so the result is directly a
    row-stochastic adjacency over all atoms. h holds B blocks of N rows
    and the result is (B*N) x N, block b attending within itself; mask
    (B x N, default one block with no padding) marks the real atoms, and
    padding keys get zero weight. One tape node: the backward runs over
    (B, heads, N, head_dim) arrays.
    """
    rows, dim = h.shape
    if mask is None:
        mask = np.ones((1, rows), dtype=bool)
    blocks, n = mask.shape
    if blocks * n != rows:
        raise ShapeMismatchError(
            f"mask {mask.shape} does not cover {rows} feature rows")
    if dim % heads != 0:
        raise HeadsNotDividingError(f"{heads} heads do not divide dim {dim}")
    if w_q.shape != (dim, dim) or w_k.shape != (dim, dim):
        raise ShapeMismatchError(
            f"W_Q and W_K must be {dim}x{dim}, got {w_q.shape} and {w_k.shape}")
    head_dim = dim // heads
    scale = 1.0 / math.sqrt(head_dim)

    def split(x: np.ndarray) -> np.ndarray:
        return x.reshape(blocks, n, heads, head_dim).transpose(0, 2, 1, 3)

    def merge(x: np.ndarray) -> np.ndarray:
        return x.transpose(0, 2, 1, 3).reshape(rows, dim)

    q = split(h.value @ w_q.value)
    k = split(h.value @ w_k.value)
    # scores, then softmax over keys, in place on one (B, heads, N, N) buffer
    probs = q @ k.transpose(0, 1, 3, 2)
    probs *= scale
    if not mask.all():
        probs += np.where(mask, 0.0, -np.inf)[:, None, None, :]
    probs -= probs.max(axis=3, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=3, keepdims=True)

    def backward(grad):
        # softmax pullback probs * (g - rowdot(g, probs)) in one buffer;
        # the head mean and the score scale go on the (B*N) x dim results
        g = grad.reshape(blocks, 1, n, n)
        d_scores = g * probs
        row_dot = d_scores.sum(axis=3, keepdims=True)
        np.subtract(g, row_dot, out=d_scores)
        d_scores *= probs
        d_q = merge(d_scores @ k)
        d_q *= scale / heads
        d_k = merge(d_scores.transpose(0, 1, 3, 2) @ q)
        d_k *= scale / heads
        if w_q.requires_grad:
            w_q._add_grad(h.value.T @ d_q)
        if w_k.requires_grad:
            w_k._add_grad(h.value.T @ d_k)
        if h.requires_grad:
            d_h = d_q @ w_q.value.T
            d_h += d_k @ w_k.value.T
            h._add_grad(d_h)

    value = probs.sum(axis=1)
    value *= 1.0 / heads
    return Tensor._result(value.reshape(rows, n), (h, w_q, w_k), backward)


def integrate(a_prime: Tensor, a_r: Tensor, theta: Param) -> tuple[Tensor, Tensor]:
    """Blend bonded and attention adjacencies: A = (1-alpha) A' + alpha A_r,
    computed as A' + alpha (A_r - A') in one node.

    alpha = logistic(theta) keeps the mix a convex combination.
    Returns (A, alpha).
    """
    if a_prime.shape != a_r.shape:
        raise ShapeMismatchError(
            f"adjacency shapes differ: {a_prime.shape} vs {a_r.shape}")
    if theta.shape != (1, 1):
        raise ShapeMismatchError("theta must be 1x1")
    alpha = ad.sigmoid(theta)
    a = alpha.value[0, 0]
    diff = a_r.value - a_prime.value
    value = diff * a
    value += a_prime.value

    def backward(grad):
        if a_prime.requires_grad:
            a_prime._add_grad(grad * (1.0 - a))
        if a_r.requires_grad:
            a_r._add_grad(grad * a)
        if alpha.requires_grad:
            alpha._add_grad(np.full((1, 1), np.vdot(grad, diff)))

    combined = Tensor._result(value, (a_prime, a_r, alpha), backward)
    return combined, alpha


def refine(joint: JointGraph | JointChunk, proj_w: Param, proj_b: Param,
           w_q: Param, w_k: Param, heads: int,
           theta: Param) -> RefinedAdjacency:
    """Run projection, attention, and integration on one joint graph or
    on a chunk of them."""
    features = Tensor(joint.features)
    h = project(features, proj_w, proj_b)
    a_r = cross_attention(h, w_q, w_k, heads, joint.mask)
    combined, alpha = integrate(Tensor(joint.adjacency), a_r, theta)
    return RefinedAdjacency(h, a_r, combined, alpha)
