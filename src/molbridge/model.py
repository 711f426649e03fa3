"""The full predictor: GFormer stack, multi-scale aggregation, classifier.

A GFormer layer is graph propagation (A + I) F followed by layer
normalization and a residual, then a two-layer ReLU feed-forward block,
again normalized with a residual. Layer outputs from every depth
(including the projected input) are summed over atoms and depths into a
single vector per pair before the classifier head.

Pairs run in chunks laid out as in joint.py: B joint graphs padded to N
atoms, features (B*N) x d, adjacency (B*N) x N, and a B x N mask of real
atoms. Row-wise ops (projection, layer norm, the feed-forward block) run
over every row of a chunk; propagation works block by block, pooling
sums each pair's real atoms into row b of a B x d matrix, and the head
gives B x C logits. A batch is cut into chunks by plan_chunks;
batch_logits cuts the chunks into slices of about equal cost
(chunk_costs) and scores the later slices on helper processes
(parallel.py), each chunk's logits landing in its own rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import joint as jg
from . import parallel as par
from .autodiff import Param, Tensor
from .errors import (
    HeadsNotDividingError,
    LabelOutOfRangeError,
    NonFiniteActivationError,
    ShapeMismatchError,
)
from .smiles import FEATURE_DIM, FeaturedGraph

# Padded rows (pairs x largest joint graph) per chunk. On a batch of 128
# drug-sized pairs (40-100 atoms), 256 to 1024 rows trained equally fast;
# 128 rows paid more per-op overhead, and 2048 rows more padding and
# cache traffic.
CHUNK_ROWS = 512


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
    """Neighborhood aggregation (A + I) F, computed as A F + F per block:
    no weights, no degree normalization. adjacency is (B*N) x N stacked
    blocks over (B*N) x d features; one tape node."""
    rows, n = adjacency.shape
    if rows != features.rows or rows % n != 0:
        raise ShapeMismatchError(
            f"adjacency {adjacency.shape} does not match features "
            f"{features.shape}")
    blocks, dim = rows // n, features.cols
    a = adjacency.value.reshape(blocks, n, n)
    f = features.value.reshape(blocks, n, dim)

    def backward(grad):
        g = grad.reshape(blocks, n, dim)
        if adjacency.requires_grad:
            adjacency._add_grad((g @ f.transpose(0, 2, 1)).reshape(rows, n))
        if features.requires_grad:
            d_f = (a.transpose(0, 2, 1) @ g).reshape(rows, dim)
            d_f += grad
            features._add_grad(d_f)

    return Tensor._result((a @ f).reshape(rows, dim) + features.value,
                          (features, adjacency), backward)


def gformer_layer(f_prev: Tensor, adjacency: Tensor,
                  p: GFormerLayerParams) -> Tensor:
    """One propagation block: X = LN((A+I)F) + F; out = LN(FFN(X) + X)."""
    x = ad.layer_norm(gcn_propagate(f_prev, adjacency), p.ln1_gain, p.ln1_bias) \
        + f_prev
    hidden = ad.relu(ad.linear(x, p.w1, p.b1))
    ffn = ad.linear(hidden, p.w2, p.b2)
    return ad.layer_norm(ffn + x, p.ln2_gain, p.ln2_bias)


def scm_forward(h: Tensor, adjacency: Tensor,
                layers: list[GFormerLayerParams]) -> list[Tensor]:
    """Run the layer stack; returns [F0, F1, ..., FL] with F0 = h itself."""
    trace = [h]
    for p in layers:
        trace.append(gformer_layer(trace[-1], adjacency, p))
    return trace


def aggregate(trace: list[Tensor], mask: np.ndarray | None = None) -> Tensor:
    """Sum every layer's features over each pair's real atoms: B x dim,
    row b for block b. mask is B x N (default one block, no padding);
    one tape node."""
    if not trace:
        raise ShapeMismatchError("aggregate needs a nonempty trace")
    rows, dim = trace[0].shape
    if mask is None:
        mask = np.ones((1, rows), dtype=bool)
    blocks, n = mask.shape
    if blocks * n != rows or any(t.shape != (rows, dim) for t in trace):
        raise ShapeMismatchError(
            f"mask {mask.shape} does not cover layer outputs {trace[0].shape}")
    keep = mask[:, :, None]
    total = np.zeros((blocks, dim))
    for layer_out in trace:
        total += (layer_out.value.reshape(blocks, n, dim) * keep).sum(axis=1)

    def backward(grad):
        # every layer output gets the same array; none writes into it
        g = (grad[:, None, :] * keep).reshape(rows, dim)
        for layer_out in trace:
            if layer_out.requires_grad:
                layer_out._add_grad(g)

    return Tensor._result(total, tuple(trace), backward)


# ---------------------------------------------------------------------- #
# end-to-end forward
# ---------------------------------------------------------------------- #

def plan_chunks(sizes: list[int]) -> list[list[int]]:
    """Indices of a batch's pairs, by joint size then index, cut into
    runs of at most CHUNK_ROWS padded rows (at least one pair each)."""
    chunks: list[list[int]] = []
    current: list[int] = []
    for i in sorted(range(len(sizes)), key=lambda i: (sizes[i], i)):
        if current and (len(current) + 1) * sizes[i] > CHUNK_ROWS:
            chunks.append(current)
            current = []
        current.append(i)
    if current:
        chunks.append(current)
    return chunks


def joint_sizes(pairs: list[tuple[FeaturedGraph, FeaturedGraph]]) -> list[int]:
    """Atom count of each pair's joint graph, as plan_chunks takes it."""
    return [g_i.n_atoms + g_j.n_atoms for g_i, g_j in pairs]


def forward_chunk(pairs: list[tuple[FeaturedGraph, FeaturedGraph]],
                  params: ModelParams) -> Tensor:
    """Full pipeline up to class logits (B x C, row b for pairs[b]) on
    the pairs padded to one chunk."""
    joint = jg.stack_joints([jg.build_joint(g_i, g_j) for g_i, g_j in pairs])
    refined = jg.refine(joint, params.proj_w, params.proj_b,
                        params.w_q, params.w_k, params.config.heads,
                        params.theta)
    trace = scm_forward(refined.projected, refined.combined, params.gformer)
    pooled = aggregate(trace, joint.mask)
    hidden = ad.relu(ad.linear(pooled, params.head_w1, params.head_b1))
    logits = ad.linear(hidden, params.head_w2, params.head_b2)
    # the one finiteness check of a forward pass: any non-finite layer
    # output, padding rows included, reaches the pooled rows (NaN * 0 is
    # NaN), and the head's ReLU can hide it from the logits
    if not (np.isfinite(pooled.value).all()
            and np.isfinite(logits.value).all()):
        raise NonFiniteActivationError(
            "non-finite activations in the forward pass")
    return logits


def forward_pair(g_i: FeaturedGraph, g_j: FeaturedGraph,
                 params: ModelParams) -> Tensor:
    """Full pipeline up to class logits (1 x C)."""
    return forward_chunk([(g_i, g_j)], params)


def chunk_costs(sizes: list[int], chunks: list[list[int]]) -> list[int]:
    """Estimated time of each chunk, pairs x N x (64 + N) for padding N:
    row-wise work plus N-wide propagation and attention per row."""
    return [len(c) * sizes[c[-1]] * (64 + sizes[c[-1]]) for c in chunks]


def chunk_logits(pairs: list[tuple[FeaturedGraph, FeaturedGraph]],
                 params: ModelParams, chunk: list[int]) -> np.ndarray:
    return forward_chunk([pairs[i] for i in chunk], params).value


def batch_logits(pairs: list[tuple[FeaturedGraph, FeaturedGraph]],
                 params: ModelParams,
                 helpers: par.Helpers | None = None) -> np.ndarray:
    """Class logits (len(pairs) x C) in input order, chunk by chunk.

    Chunks after the first slice run on helper processes (see
    parallel.py): given ones, whose "logits" task must score these same
    pairs, or else ones forked for this call alone.
    """
    run = functools.partial(chunk_logits, pairs, params)
    if helpers is None:
        with par.Helpers(params.all(), {"logits": run}) as helpers:
            return batch_logits(pairs, params, helpers)
    sizes = joint_sizes(pairs)
    chunks = plan_chunks(sizes)
    out = np.zeros((len(pairs), params.config.classes))
    for chunk, logits in zip(chunks, helpers.run(
            "logits", chunks, chunk_costs(sizes, chunks), run)):
        out[chunk] = logits
    return out


def predict(g_i: FeaturedGraph, g_j: FeaturedGraph,
            params: ModelParams) -> np.ndarray:
    """Class probability vector of length C; sums to 1."""
    return np.exp(log_softmax(forward_pair(g_i, g_j, params).value)[0])


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a B x C array; exp never overflows."""
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy_from_logits(logits: Tensor, labels) -> Tensor:
    """Mean over rows of -log(softmax(logits)[row, label]) as a 1x1 loss.

    logits are B x C and labels a length-B sequence (an int for B = 1).
    Fused with the log-softmax for stability; one tape node.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.size != logits.rows:
        raise ShapeMismatchError(
            f"{labels.size} labels for {logits.rows} rows of logits")
    outside = (labels < 0) | (labels >= logits.cols)
    if outside.any():
        raise LabelOutOfRangeError(
            f"label {labels[outside][0]} outside [0, {logits.cols})")
    log_p = log_softmax(logits.value)
    rows = np.arange(labels.size)

    def backward(grad):
        d = np.exp(log_p)
        d[rows, labels] -= 1.0
        d *= grad[0, 0] / labels.size
        logits._add_grad(d)

    return Tensor._result(-log_p[rows, labels].mean().reshape(1, 1),
                          (logits,), backward)
