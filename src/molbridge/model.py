"""The full predictor: GFormer stack, multi-scale aggregation, classifier.

A GFormer layer is graph propagation (A + I) F followed by layer
normalization and a residual, then a two-layer ReLU feed-forward block,
again normalized with a residual. Layer outputs from every depth
(including the projected input) are summed over atoms and depths into a
single vector before the classifier head.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import joint as jg
from .autodiff import Param, Tensor
from .errors import (
    HeadsNotDividingError,
    LabelOutOfRangeError,
    NonFiniteActivationError,
    ShapeMismatchError,
)
from .smiles import FEATURE_DIM, FeaturedGraph


@dataclass
class ModelConfig:
    feature_dim: int = FEATURE_DIM
    dim: int = 32
    heads: int = 4
    layers: int = 3
    d_hid: int = 0          # 0 means 2 * dim
    classes: int = 2
    seed: int = 42

    def __post_init__(self):
        if self.d_hid == 0:
            self.d_hid = 2 * self.dim
        if self.layers < 1:
            raise ValueError("need at least one propagation layer")
        if self.classes < 2:
            raise ValueError("need at least two classes")
        if self.dim % self.heads != 0:
            raise HeadsNotDividingError(
                f"{self.heads} heads do not divide dim {self.dim}")


@dataclass
class GFormerLayerParams:
    ln1_gain: Param
    ln1_bias: Param
    w1: Param
    b1: Param
    w2: Param
    b2: Param
    ln2_gain: Param
    ln2_bias: Param

    def all(self) -> list[Param]:
        return [self.ln1_gain, self.ln1_bias, self.w1, self.b1,
                self.w2, self.b2, self.ln2_gain, self.ln2_bias]


@dataclass
class ModelParams:
    config: ModelConfig
    proj_w: Param
    proj_b: Param
    w_q: Param              # dim x dim, column block h is head h
    w_k: Param
    theta: Param
    gformer: list[GFormerLayerParams]
    head_w1: Param
    head_b1: Param
    head_w2: Param
    head_b2: Param

    def all(self) -> list[Param]:
        out = [self.proj_w, self.proj_b, self.w_q, self.w_k, self.theta]
        for layer in self.gformer:
            out.extend(layer.all())
        out.extend([self.head_w1, self.head_b1, self.head_w2, self.head_b2])
        return out

    def named(self) -> list[tuple[str, Param]]:
        return [(p.name, p) for p in self.all()]


def _weight(rng: np.random.Generator, name: str, rows: int, cols: int) -> Param:
    return Param(rng.normal(0.0, 1.0 / np.sqrt(rows), (rows, cols)), name)


def _zeros(name: str, cols: int) -> Param:
    return Param(np.zeros((1, cols)), name)


def _ones(name: str, cols: int) -> Param:
    return Param(np.ones((1, cols)), name)


def init_layer(rng: np.random.Generator, index: int, dim: int,
               d_hid: int) -> GFormerLayerParams:
    """One GFormer layer: scaled-normal w1 then w2 drawn from rng, unit
    gains, zero biases."""
    pre = f"layer{index}"
    return GFormerLayerParams(
        ln1_gain=_ones(f"{pre}.ln1.gain", dim),
        ln1_bias=_zeros(f"{pre}.ln1.bias", dim),
        w1=_weight(rng, f"{pre}.ffn.w1", dim, d_hid),
        b1=_zeros(f"{pre}.ffn.b1", d_hid),
        w2=_weight(rng, f"{pre}.ffn.w2", d_hid, dim),
        b2=_zeros(f"{pre}.ffn.b2", dim),
        ln2_gain=_ones(f"{pre}.ln2.gain", dim),
        ln2_bias=_zeros(f"{pre}.ln2.bias", dim),
    )


def init_params(config: ModelConfig) -> ModelParams:
    """Seeded initialization: scaled-normal weights, unit gains, zero biases.

    theta starts at 0 so the adjacency mix opens at alpha = 0.5.
    """
    rng = np.random.default_rng(config.seed)
    dim, heads = config.dim, config.heads

    def attention(name: str) -> Param:
        # column block h is head h's own dim x head_dim draw, in head
        # order, so a head's seeded values do not depend on the layout
        blocks = rng.normal(0.0, 1.0 / np.sqrt(dim), (heads, dim, dim // heads))
        return Param(np.hstack(blocks), name)

    w_q = attention("attn.q")
    w_k = attention("attn.k")
    gformer = [init_layer(rng, l, dim, config.d_hid)
               for l in range(config.layers)]
    return ModelParams(
        config=config,
        proj_w=_weight(rng, "proj.weight", config.feature_dim, dim),
        proj_b=_zeros("proj.bias", dim),
        w_q=w_q,
        w_k=w_k,
        theta=Param(np.zeros((1, 1)), "alpha.theta"),
        gformer=gformer,
        head_w1=_weight(rng, "head.w1", dim, dim),
        head_b1=_zeros("head.b1", dim),
        head_w2=_weight(rng, "head.w2", dim, config.classes),
        head_b2=_zeros("head.b2", config.classes),
    )


# ---------------------------------------------------------------------- #
# layers
# ---------------------------------------------------------------------- #

def gcn_propagate(features: Tensor, adjacency: Tensor) -> Tensor:
    """Neighborhood aggregation (A + I) F, computed as A F + F: no
    weights, no degree normalization."""
    if adjacency.rows != adjacency.cols:
        raise ShapeMismatchError(f"adjacency must be square, got {adjacency.shape}")
    if adjacency.cols != features.rows:
        raise ShapeMismatchError(
            f"adjacency {adjacency.shape} does not match features "
            f"{features.shape}")
    return adjacency @ features + features


def gformer_layer(f_prev: Tensor, adjacency: Tensor,
                  p: GFormerLayerParams) -> Tensor:
    """One propagation block: X = LN((A+I)F) + F; out = LN(FFN(X) + X)."""
    x = ad.layer_norm(gcn_propagate(f_prev, adjacency), p.ln1_gain, p.ln1_bias) \
        + f_prev
    hidden = ad.relu(x @ p.w1 + p.b1)
    ffn = hidden @ p.w2 + p.b2
    out = ad.layer_norm(ffn + x, p.ln2_gain, p.ln2_bias)
    if not np.all(np.isfinite(out.value)):
        raise NonFiniteActivationError("non-finite activations in GFormer layer")
    return out


def scm_forward(h: Tensor, adjacency: Tensor,
                layers: list[GFormerLayerParams]) -> list[Tensor]:
    """Run the layer stack; returns [F0, F1, ..., FL] with F0 = h itself."""
    trace = [h]
    for p in layers:
        trace.append(gformer_layer(trace[-1], adjacency, p))
    return trace


def aggregate(trace: list[Tensor]) -> Tensor:
    """Sum every layer's features over all atoms: a single 1 x dim vector."""
    if not trace:
        raise ShapeMismatchError("aggregate needs a nonempty trace")
    total = ad.sum_rows(trace[0])
    for layer_out in trace[1:]:
        total = total + ad.sum_rows(layer_out)
    return total


# ---------------------------------------------------------------------- #
# end-to-end forward
# ---------------------------------------------------------------------- #

def forward_pair(g_i: FeaturedGraph, g_j: FeaturedGraph,
                 params: ModelParams) -> Tensor:
    """Full pipeline up to class logits (1 x C)."""
    joint = jg.build_joint(g_i, g_j)
    refined = jg.refine(joint, params.proj_w, params.proj_b,
                        params.w_q, params.w_k, params.config.heads,
                        params.theta)
    trace = scm_forward(refined.projected, refined.combined, params.gformer)
    pooled = aggregate(trace)
    hidden = ad.relu(pooled @ params.head_w1 + params.head_b1)
    return hidden @ params.head_w2 + params.head_b2


def predict(g_i: FeaturedGraph, g_j: FeaturedGraph,
            params: ModelParams) -> np.ndarray:
    """Class probability vector of length C; sums to 1."""
    logits = forward_pair(g_i, g_j, params)
    return np.exp(ad.log_softmax_rows(logits).value[0])


def cross_entropy_from_logits(logits: Tensor, label: int) -> Tensor:
    """Differentiable loss fused with log-softmax for stability.

    Value equals -log(softmax(logits)[label]).
    """
    if logits.rows != 1:
        raise ShapeMismatchError(f"expected 1 x C logits, got {logits.shape}")
    if not 0 <= label < logits.cols:
        raise LabelOutOfRangeError(
            f"label {label} outside [0, {logits.cols})")
    return -ad.select(ad.log_softmax_rows(logits), 0, label)
