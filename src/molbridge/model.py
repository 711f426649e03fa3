"""The full predictor: GFormer stack, multi-scale aggregation, classifier.

A GFormer layer is graph propagation (A + I) F followed by layer
normalization and a residual, then a two-layer ReLU feed-forward block,
again normalized with a residual. Layer outputs from every depth
(including the projected input) are summed over atoms and depths into a
single vector per pair before the classifier head.

Each stage here and in joint.py is a function of numpy arrays that
returns its value and a pullback (see autodiff.py). forward_chunk runs
them and the head, and returns the logits and a pullback that calls the
stages' pullbacks in reverse; the loss is the one Tensor. Scoring
(chunk_logits) keeps no pullback: each stage's is dropped once the next
stage has its value, with the arrays it holds.

Pairs run in chunks laid out as in joint.py: B joint graphs padded to N
atoms, features (B*N) x d, adjacency (B*N) x N, and a B x N mask of real
atoms. Row-wise ops (projection, layer norm, the feed-forward block) run
over every row of a chunk; propagation works block by block, pooling
sums each pair's real atoms into row b of a B x d matrix, and the head
gives B x C logits. plan_chunks cuts a batch into chunks and estimates
each one's cost; batch_logits cuts the chunks into slices of about equal
cost and scores the later slices on helper processes (parallel.py), each
chunk's logits landing in its own rows. Stages compute in the dtype of
their parameters: float32 in training chunks and in `eval` and `analyze
distance`, float64 in `predict` and validation.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import joint as jg
from . import parallel as par
from .autodiff import Param, Tensor
from .errors import (
    HeadsNotDividingError,
    LabelOutOfRangeError,
    ModelConfigError,
    NonFiniteActivationError,
    ShapeMismatchError,
    SizeCapExceededError,
)
from .smiles import FEATURE_DIM, FeaturedGraph

# Padded rows (pairs x largest joint graph) per chunk. On a batch of 128
# drug-sized pairs (40-100 atoms), 256 to 1024 rows trained equally fast;
# 128 rows paid more per-op overhead, and 2048 rows more padding and
# cache traffic.
CHUNK_ROWS = 512

# glibc's malloc returns the heap's free top to the system past a threshold
# that follows the largest block freed; a chunk's few MB straddle it, so
# chunks page-faulted them back in. Pin both thresholds at their caps.
with contextlib.suppress(OSError, AttributeError):
    ctypes.CDLL(None).mallopt(-3, 32 << 20)     # M_MMAP_THRESHOLD
    ctypes.CDLL(None).mallopt(-1, 64 << 20)     # M_TRIM_THRESHOLD

# Least total plan_chunks cost at which batch_logits forks its own helpers.
# On 3-50-atom drug pairs in float32 (default model, 1 BLAS thread, 2 cores)
# a fork cost 10 ms and broke even near 800k: it won 9/21 at 760k, 16/21 at 1M.
FORK_COST = 900_000

# Split modes, folds and train selection metrics, for splits.py and
# train.py; kept here so the command line offers them without loading
# either module.
MODES = ("transductive", "s1", "s2")
N_FOLDS = 5
SELECTION_METRICS = ("accuracy", "macro_f1")

# Most values a ModelConfig may imply: its parameters plus one chunk's layer
# outputs (0.16M for the default model). Training keeps several arrays of
# each, so 2^24 keeps a run to a few GB; more is refused before allocating.
MAX_MODEL_VALUES = 2 ** 24


@dataclass(frozen=True)
class ModelConfig:
    feature_dim: int = FEATURE_DIM
    dim: int = 32
    heads: int = 4
    layers: int = 3
    d_hid: int = 0          # 0 means 2 * dim
    classes: int = 2
    seed: int = 42

    def __post_init__(self):
        for name, least in dict(feature_dim=1, dim=1, heads=1, layers=1,
                                d_hid=0, classes=2).items():
            if getattr(self, name) < least:
                raise ModelConfigError(
                    f"{name} is {getattr(self, name)}: feature_dim, dim, "
                    "heads and layers must be at least 1, d_hid at least 0 "
                    "and classes at least 2")
        if self.d_hid == 0:
            object.__setattr__(self, "d_hid", 2 * self.dim)
        if self.dim % self.heads != 0:
            raise HeadsNotDividingError(
                f"{self.heads} heads do not divide dim {self.dim}")
        d, h = self.dim, self.d_hid
        size = (self.feature_dim + 2 * d + 1) * d + 1 \
            + (d + 1) * (d + self.classes) \
            + self.layers * (2 * d * h + h + 5 * d + CHUNK_ROWS * (d + h))
        if size > MAX_MODEL_VALUES:
            raise SizeCapExceededError(
                f"the model implies {size} values, cap is {MAX_MODEL_VALUES}")


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
        return list(vars(self).values())


class ModelParams:
    """The model's Params, laid out as param_shapes(config) says: their
    values and grads are views into one `values` vector (zeros if not
    given, never copied) and one zeroed `grads` vector, so whole-model
    updates are single array ops. Write them in place; never rebind."""

    def __init__(self, config: ModelConfig, values: np.ndarray | None = None):
        shapes = param_shapes(config)
        if values is None:
            values = np.zeros(sum(rows * cols for _, rows, cols in shapes))
        self.config, self.values = config, values
        self.grads = np.zeros_like(values)
        self._params = p = []
        end = 0
        for name, rows, cols in shapes:
            start, end = end, end + rows * cols
            p.append(Param(values[start:end].reshape(rows, cols), name,
                           self.grads[start:end].reshape(rows, cols)))
        self.proj_w, self.proj_b, self.w_q, self.w_k, self.theta = p[:5]
        self.gformer = [GFormerLayerParams(*p[5 + 8 * l:13 + 8 * l])
                        for l in range(config.layers)]
        self.head_w1, self.head_b1, self.head_w2, self.head_b2 = p[-4:]

    def astype(self, dtype) -> ModelParams:
        """A copy in dtype, laid out alike, sharing no memory with self."""
        return ModelParams(self.config, self.values.astype(dtype))

    def all(self) -> list[Param]:
        return list(self._params)

    def named(self) -> list[tuple[str, Param]]:
        return [(p.name, p) for p in self._params]


def param_shapes(config: ModelConfig) -> list[tuple[str, int, int]]:
    """Name, rows and cols of every Param, in ModelParams.all() order: the
    one table that ModelParams lays its vectors out by and that
    checkpoint.layout writes."""
    d, h, c = config.dim, config.d_hid, config.classes
    return [("proj.weight", config.feature_dim, d), ("proj.bias", 1, d),
            ("attn.q", d, d), ("attn.k", d, d), ("alpha.theta", 1, 1),
            *((f"layer{l}.{name}", rows, cols) for l in range(config.layers)
              for name, rows, cols in (
                  ("ln1.gain", 1, d), ("ln1.bias", 1, d),
                  ("ffn.w1", d, h), ("ffn.b1", 1, h),
                  ("ffn.w2", h, d), ("ffn.b2", 1, d),
                  ("ln2.gain", 1, d), ("ln2.bias", 1, d))),
            ("head.w1", d, d), ("head.b1", 1, d),
            ("head.w2", d, c), ("head.b2", 1, c)]


def _draw(rng: np.random.Generator, *weights: Param) -> None:
    """Fill each weight in turn with normal values scaled by 1/sqrt(rows)."""
    for w in weights:
        w.value[...] = rng.normal(0.0, 1.0 / np.sqrt(w.shape[0]), w.shape)


def fill_layer(rng: np.random.Generator, layer: GFormerLayerParams) -> None:
    """Draw w1 then w2 from rng and set the gains to 1."""
    _draw(rng, layer.w1, layer.w2)
    layer.ln1_gain.value[...] = 1.0
    layer.ln2_gain.value[...] = 1.0


def init_params(config: ModelConfig) -> ModelParams:
    """Seeded initialization: scaled-normal weights, unit gains, zero biases.

    theta starts at 0 so the adjacency mix opens at alpha = 0.5. The
    draws run attention, layers, then projection and head.
    """
    rng = np.random.default_rng(config.seed)
    dim, heads = config.dim, config.heads
    params = ModelParams(config)
    for w in (params.w_q, params.w_k):
        # column block h is head h's own dim x head_dim draw, in head
        # order, so a head's seeded values do not depend on the layout
        w.value[...] = np.hstack(rng.normal(
            0.0, 1.0 / np.sqrt(dim), (heads, dim, dim // heads)))
    for layer in params.gformer:
        fill_layer(rng, layer)
    _draw(rng, params.proj_w, params.head_w1, params.head_w2)
    return params


# ---------------------------------------------------------------------- #
# layers
# ---------------------------------------------------------------------- #

def gcn_propagate(features: np.ndarray, adjacency: np.ndarray):
    """Neighborhood aggregation (A + I) F, computed as A F + F per block:
    no weights, no degree normalization. adjacency is (B*N) x N stacked
    blocks over (B*N) x d features. Returns (value, backward);
    backward(grad) returns the features' and the adjacency's gradients."""
    rows, n = adjacency.shape
    if rows != features.shape[0] or rows % n != 0:
        raise ShapeMismatchError(
            f"adjacency {adjacency.shape} does not match features "
            f"{features.shape}")
    a = adjacency.reshape(rows // n, n, n)
    f = features.reshape(rows // n, n, features.shape[1])
    value = (a @ f).reshape(features.shape)
    value += features

    def backward(grad):
        g = grad.reshape(f.shape)
        d_f = (a.transpose(0, 2, 1) @ g).reshape(features.shape)
        d_f += grad
        return d_f, (g @ f.transpose(0, 2, 1)).reshape(adjacency.shape)

    return value, backward


def gformer_layer(f_prev: np.ndarray, adjacency: np.ndarray,
                  p: GFormerLayerParams):
    """One propagation block: X = LN((A+I)F) + F; out = LN(FFN(X) + X)
    with FFN(X) = relu(X W1 + b1) W2 + b2. Returns (value, backward);
    backward(grad) adds the layer's 8 Param gradients and returns the
    gradients of f_prev and of the adjacency."""
    prop, prop_back = gcn_propagate(f_prev, adjacency)
    x, ln1_back = ad.layer_norm(prop, p.ln1_gain, p.ln1_bias)
    x += f_prev
    hidden = x @ p.w1.value
    hidden += p.b1.value
    np.maximum(hidden, 0.0, out=hidden)
    s = hidden @ p.w2.value
    s += p.b2.value
    s += x
    value, ln2_back = ad.layer_norm(s, p.ln2_gain, p.ln2_bias)

    def backward(grad):
        d_s = ln2_back(grad)
        p.w2._pull(hidden.T @ d_s)
        p.b2._pull(ad.col_sums(d_s))
        d_z = d_s @ p.w2.value.T
        d_z *= hidden > 0.0
        p.w1._pull(x.T @ d_z)
        p.b1._pull(ad.col_sums(d_z))
        d_x = d_z @ p.w1.value.T
        d_x += d_s
        d_f, d_a = prop_back(ln1_back(d_x))
        d_f += d_x
        return d_f, d_a

    return value, backward


def aggregate(trace: list[np.ndarray], mask: np.ndarray):
    """Sum every layer's features over each pair's real atoms: B x dim,
    row b for block b, for a B x N mask of real atoms.
    Returns (value, backward); backward(grad) returns the one gradient
    every layer output gets."""
    rows, dim = trace[0].shape
    blocks, n = mask.shape
    if blocks * n != rows or any(t.shape != (rows, dim) for t in trace):
        raise ShapeMismatchError(
            f"mask {mask.shape} does not cover layer outputs {trace[0].shape}")
    keep = mask[:, :, None]
    total = np.zeros((blocks, dim), trace[0].dtype)
    for layer_out in trace:
        total += (layer_out.reshape(blocks, n, dim) * keep).sum(axis=1)

    def backward(grad):
        return (grad[:, None, :] * keep).reshape(rows, dim)

    return total, backward


# ---------------------------------------------------------------------- #
# end-to-end forward
# ---------------------------------------------------------------------- #

def plan_chunks(sizes: list[int]) -> tuple[list[list[int]], list[int]]:
    """Indices of a batch's pairs, by joint size then index, cut into
    runs of at most CHUNK_ROWS padded rows (at least one pair each), and
    each run's estimated time, pairs x N x (64 + N) for padding N:
    row-wise work plus N-wide propagation and attention per row."""
    chunks: list[list[int]] = []
    current: list[int] = []
    for i in sorted(range(len(sizes)), key=lambda i: (sizes[i], i)):
        if current and (len(current) + 1) * sizes[i] > CHUNK_ROWS:
            chunks.append(current)
            current = []
        current.append(i)
    if current:
        chunks.append(current)
    return chunks, [len(c) * sizes[c[-1]] * (64 + sizes[c[-1]])
                    for c in chunks]


def joint_sizes(pairs: list[tuple[FeaturedGraph, FeaturedGraph]]) -> list[int]:
    """Atom count of each pair's joint graph, as plan_chunks takes it."""
    return [g_i.n_atoms + g_j.n_atoms for g_i, g_j in pairs]


def forward_chunk(pairs: list[tuple[FeaturedGraph, FeaturedGraph]],
                  params: ModelParams, pullback: bool = True):
    """(logits, backward): the full pipeline up to class logits (B x C,
    row b for pairs[b]) on the pairs padded to one chunk, and a pullback
    that runs the stages' in reverse, adding every Param's gradient.
    With pullback false, backward is None and each stage's pullback, with
    what it holds, is dropped once the next stage has its value; the
    logits are the same bits."""
    joint = jg.stack_joints(pairs, params.proj_w.value.dtype)
    refined = jg.refine(joint, params.proj_w, params.proj_b,
                        params.w_q, params.w_k, params.config.heads,
                        params.theta)
    trace, combined, layer_backs = [refined.projected], refined.combined, []
    if not pullback:
        refined = None
    for p in params.gformer:
        out, back = gformer_layer(trace[-1], combined, p)
        trace.append(out)
        if pullback:
            layer_backs.append(back)
    pooled, pool_back = aggregate(trace, joint.mask)
    z = pooled @ params.head_w1.value
    z += params.head_b1.value
    hidden = np.maximum(z, 0.0)
    logits = hidden @ params.head_w2.value
    logits += params.head_b2.value
    # a non-finite layer output, padding rows too, reaches the pooled rows
    # (NaN * 0 is NaN); the head's ReLU (np.maximum) passes a NaN on, but
    # turns a -inf into 0, so the pooled rows are checked as well
    require_finite(pooled, logits)
    if not pullback:
        return logits, None

    def backward(grad):
        params.head_w2._pull(hidden.T @ grad)
        params.head_b2._pull(ad.col_sums(grad))
        d_z = grad @ params.head_w2.value.T
        d_z *= z > 0.0
        params.head_w1._pull(pooled.T @ d_z)
        params.head_b1._pull(ad.col_sums(d_z))
        # every layer output, the projection too, gets the pooled rows'
        # gradient g; F_l gets layer l+1's input gradient as well
        g = pool_back(d_z @ params.head_w1.value.T)
        d_f, d_a = g, None
        for back in reversed(layer_backs):
            d_f, d_layer = back(d_f)
            d_f += g
            d_a = d_layer if d_a is None else d_a + d_layer
        refined.backward(d_f, d_a)

    return logits, backward


def require_finite(*arrays: np.ndarray) -> None:
    """The one finiteness check of a forward pass, on its outputs."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise NonFiniteActivationError(
            "non-finite activations in the forward pass")


def forward_pair(g_i: FeaturedGraph, g_j: FeaturedGraph,
                 params: ModelParams):
    """Full pipeline up to class logits (1 x C), as forward_chunk."""
    return forward_chunk([(g_i, g_j)], params)


def chunk_logits(pairs: list[tuple[FeaturedGraph, FeaturedGraph]],
                 params: ModelParams, chunk: list[int]) -> np.ndarray:
    return forward_chunk([pairs[i] for i in chunk], params, pullback=False)[0]


def batch_logits(pairs: list[tuple[FeaturedGraph, FeaturedGraph]],
                 params: ModelParams,
                 helpers: par.Helpers | None = None) -> np.ndarray:
    """Class logits (len(pairs) x C) in input order, chunk by chunk.

    Chunks after the first slice run on helper processes (see
    parallel.py): given ones, whose "logits" task must score these same
    pairs, or else ones forked for this call alone if its chunks cost
    at least FORK_COST.
    """
    chunks, costs = plan_chunks(joint_sizes(pairs))
    own = par.Helpers([params.values], {"logits": functools.partial(
        chunk_logits, pairs, params)}, sum(costs) >= FORK_COST)
    with (own if helpers is None else contextlib.nullcontext(helpers)) as pool:
        out = np.zeros((len(pairs), params.config.classes))
        for chunk, logits in zip(chunks, pool.run("logits", chunks, costs)):
            out[chunk] = logits
    return out


def predict(g_i: FeaturedGraph, g_j: FeaturedGraph,
            params: ModelParams) -> np.ndarray:
    """Class probability vector of length C; sums to 1."""
    return np.exp(log_softmax(forward_pair(g_i, g_j, params)[0])[0])


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a B x C array; exp never overflows."""
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy_from_logits(chunk, labels, weight: float = 1.0) -> Tensor:
    """weight times the mean over rows of -log(softmax(logits)[row, label])
    as a 1x1 loss, for chunk = forward_chunk's (logits, backward).

    logits are B x C and labels a length-B sequence (an int for B = 1);
    a chunk's weight is its share of the batch. Fused with the
    log-softmax for stability; the loss's pullback hands the logits'
    gradient to the chunk's backward.
    """
    logits, chunk_backward = chunk
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, classes = logits.shape
    if labels.size != n:
        raise ShapeMismatchError(
            f"{labels.size} labels for {n} rows of logits")
    outside = (labels < 0) | (labels >= classes)
    if outside.any():
        raise LabelOutOfRangeError(
            f"label {labels[outside][0]} outside [0, {classes})")
    log_p = log_softmax(logits)
    rows = np.arange(n)

    def backward(grad):
        d = np.exp(log_p)
        d[rows, labels] -= 1.0
        d *= grad[0, 0] * weight / labels.size
        chunk_backward(d)

    return Tensor(-log_p[rows, labels].mean().reshape(1, 1) * weight, backward)
