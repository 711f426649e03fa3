"""Two-drug joint graph assembly and attention-based adjacency refinement.

The pipeline here is: stack both drugs' features and adjacencies into one
block-diagonal graph, project features to the working width, score all
atom pairs with multi-head attention (weights only, no value path), and
blend the attention matrix with the bonded adjacency through a learned
scalar gate. Each stage is a function of numpy arrays that returns its
value and a pullback (see autodiff.py); the features and the bonded
adjacency are data and get no gradient.

Pairs run together as a chunk, written straight from their featured
graphs: each pair's joint graph, drug one's atoms first, is padded to the
chunk's largest size N. For B pairs the features are (B*N) x d, each
adjacency is (B*N) x N with rows [b*N, (b+1)*N) holding block b, and a
B x N mask marks the real atoms. Padding rows have zero features and no
bonds, and attention gives them no weight, so a real atom never reads a
padding row. A single pair (build_joint) is the chunk with B = 1 and no
padding: n x d features and an n x n adjacency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Param
from .errors import HeadsNotDividingError, ShapeMismatchError, SizeCapExceededError
from .smiles import FeaturedGraph

# Joint graph size cap: two drugs of at most 50 atoms each.
SIZE_CAP = 100


@dataclass
class JointChunk:
    """B joint graphs padded to N atoms and stacked (see the module doc)."""

    features: np.ndarray    # (B*N) x feature_dim, zero on padding rows
    adjacency: np.ndarray   # (B*N) x N stacked blocks
    mask: np.ndarray        # B x N, True on real atoms


@dataclass
class RefinedAdjacency:
    """Outputs of the refinement stage, and its pullback."""

    projected: np.ndarray   # H, (B*N) x dim
    attention: np.ndarray   # A_r, (B*N) x N, row-stochastic over real atoms
    combined: np.ndarray    # A = (1-alpha) A' + alpha A_r, alpha in (0, 1)
    # backward(dH, dA) adds the gradients of every refinement Param
    backward: Callable[[np.ndarray, np.ndarray], None]


def build_joint(g_i: FeaturedGraph, g_j: FeaturedGraph) -> JointChunk:
    """One pair's block-diagonal joint graph: the chunk of that pair alone."""
    return stack_joints([(g_i, g_j)], np.float64)


def stack_joints(pairs: list[tuple[FeaturedGraph, FeaturedGraph]],
                 dtype) -> JointChunk:
    """Pad every pair's joint graph to the largest and stack them in dtype."""
    sizes = [g_i.n_atoms + g_j.n_atoms for g_i, g_j in pairs]
    n = max(sizes)
    if n > SIZE_CAP:
        raise SizeCapExceededError(
            f"joint graph has {n} atoms, cap is {SIZE_CAP}")
    features = np.zeros((len(pairs) * n, pairs[0][0].features.shape[1]), dtype)
    adjacency = np.zeros((len(pairs) * n, n), dtype)
    mask = np.arange(n) < np.array(sizes)[:, None]
    for b, ((g_i, g_j), size) in enumerate(zip(pairs, sizes)):
        top, k = b * n, g_i.n_atoms
        features[top:top + k] = g_i.features
        features[top + k:top + size] = g_j.features
        adjacency[top:top + k, :k] = g_i.adjacency
        adjacency[top + k:top + size, k:size] = g_j.adjacency
    return JointChunk(features, adjacency, mask)


def project(features: np.ndarray, weight: Param, bias: Param):
    """Affine map features @ weight + bias of stacked features to the
    working width; bias is a 1 x width row added to every row. Returns
    (value, backward); backward(grad) adds the weight and bias gradients
    and returns None, the features being data."""
    rows, width = weight.shape
    if features.shape[1] != rows or bias.shape != (1, width):
        raise ShapeMismatchError(
            f"project needs features @ weight + a 1x{width} bias, got "
            f"{features.shape} x {weight.shape} + {bias.shape}")
    value = features @ weight.value
    value += bias.value

    def backward(grad):
        weight._pull(features.T @ grad)
        bias._pull(ad.col_sums(grad))

    return value, backward


def cross_attention(h: np.ndarray, w_q: Param, w_k: Param, heads: int,
                    mask: np.ndarray):
    """Mean over heads of softmax(Q K^T / sqrt(dim/heads)) on node features.

    w_q and w_k are dim x dim; column block h (head_dim = dim/heads
    columns) holds head h's projection. Only the attention weights are
    used; there is no value projection, so the result is directly a
    row-stochastic adjacency over all atoms. h holds B blocks of N rows
    and the result is (B*N) x N, block b attending within itself; mask
    (B x N) marks the real atoms, and padding keys get zero weight.
    Returns (value, backward); backward(grad) adds the W_Q and W_K
    gradients and returns h's, running over (B, heads, N, head_dim)
    arrays.
    """
    rows, dim = h.shape
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

    # the score scale goes on the rows x dim query, not the score buffer
    q = h @ w_q.value
    q *= scale
    q = split(q)
    k = split(h @ w_k.value)
    # scores, then softmax over keys, in place on one (B, heads, N, N)
    # buffer; row sums are products with a ones column, as in autodiff
    probs = q @ k.transpose(0, 1, 3, 2)
    # -inf in each block's padding key columns: what adding 0 on real
    # keys and -inf on padding would give, less the pass over the buffer
    block, key = np.nonzero(~mask)
    probs[block, :, :, key] = -np.inf
    probs -= probs.max(axis=3, keepdims=True)
    np.exp(probs, out=probs)
    probs /= ad.row_sums(probs)

    def backward(grad):
        # softmax pullback probs * (g - rowdot(g, probs)) in one buffer;
        # the head mean and the score scale go on the (B*N) x dim results
        g = grad.reshape(blocks, 1, n, n)
        d_scores = g * probs
        row_dot = ad.row_sums(d_scores)
        np.subtract(g, row_dot, out=d_scores)
        d_scores *= probs
        d_q = merge(d_scores @ k)
        d_q *= scale / heads
        d_k = merge(d_scores.transpose(0, 1, 3, 2) @ q)
        d_k *= 1.0 / heads
        w_q._pull(h.T @ d_q)
        w_k._pull(h.T @ d_k)
        d_h = d_q @ w_q.value.T
        d_h += d_k @ w_k.value.T
        return d_h

    value = probs.sum(axis=1)
    value *= 1.0 / heads
    return value.reshape(rows, n), backward


def integrate(a_prime: np.ndarray, a_r: np.ndarray, theta: Param):
    """Blend bonded and attention adjacencies: A = (1-alpha) A' + alpha A_r,
    computed as A' + alpha (A_r - A'), with alpha = logistic(theta) (1x1)
    so the mix is a convex combination. Returns (A, backward);
    backward(grad) adds theta's gradient and returns A_r's."""
    if a_prime.shape != a_r.shape:
        raise ShapeMismatchError(
            f"adjacency shapes differ: {a_prime.shape} vs {a_r.shape}")
    # stable two-sided logistic
    t = theta.value
    gate = np.where(t >= 0, 1.0 / (1.0 + np.exp(-np.abs(t))),
                    np.exp(-np.abs(t)) / (1.0 + np.exp(-np.abs(t))))
    a = gate[0, 0]
    diff = a_r - a_prime
    value = diff * a
    value += a_prime

    def backward(grad):
        d_gate = np.full((1, 1), np.vdot(grad, diff))
        theta._pull(d_gate * gate * (1.0 - gate))
        return grad * a

    return value, backward


def refine(joint: JointChunk, proj_w: Param, proj_b: Param, w_q: Param,
           w_k: Param, heads: int, theta: Param) -> RefinedAdjacency:
    """Run projection, attention, and integration on a chunk."""
    h, project_back = project(joint.features, proj_w, proj_b)
    a_r, attention_back = cross_attention(h, w_q, w_k, heads, joint.mask)
    combined, integrate_back = integrate(joint.adjacency, a_r, theta)

    def backward(d_h, d_combined):
        d_h = d_h + attention_back(integrate_back(d_combined))
        project_back(d_h)

    return RefinedAdjacency(h, a_r, combined, backward)
