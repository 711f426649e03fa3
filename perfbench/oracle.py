"""Straight-line numpy forward of the molbridge predictor.

An independent restatement of the model from its description, used to
check the program's outputs: projection, per-head softmax(Q K^T / sqrt(d)),
the alpha-mix with the bonded adjacency, GFormer layers, sum pooling over
atoms and depths, and the two-layer head. It reads the parameters by
name, so it depends only on the checkpoint's parameter naming.
"""

from __future__ import annotations

import numpy as np


def _layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def _softmax(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _head_blocks(weights, prefix: str, heads: int) -> list[np.ndarray]:
    """Per-head query or key matrices, stored either one per head
    (``attn.q0`` ...) or fused column-wise into one dim x dim matrix."""
    names = sorted(name for name in weights if name.startswith(prefix))
    if len(names) == heads:
        return [weights[f"{prefix}{k}"] for k in range(heads)]
    if len(names) == 1:
        return np.split(weights[names[0]], heads, axis=1)
    raise KeyError(f"cannot find {heads} heads of {prefix!r} in {names}")


def logits(weights: dict[str, np.ndarray], heads: int, layers: int,
           graph_1, graph_2) -> np.ndarray:
    """Class logits (length C) for one pair of (features, adjacency)."""
    (feats_1, adj_1), (feats_2, adj_2) = graph_1, graph_2
    n1, n2 = adj_1.shape[0], adj_2.shape[0]
    x = np.vstack([feats_1, feats_2])
    adjacency = np.zeros((n1 + n2, n1 + n2))
    adjacency[:n1, :n1] = adj_1
    adjacency[n1:, n1:] = adj_2

    h = x @ weights["proj.weight"] + weights["proj.bias"]
    head_dim = h.shape[1] // heads
    attention = np.zeros_like(adjacency)
    for w_q, w_k in zip(_head_blocks(weights, "attn.q", heads),
                        _head_blocks(weights, "attn.k", heads)):
        attention += _softmax((h @ w_q) @ (h @ w_k).T / np.sqrt(head_dim))
    attention /= heads
    theta = weights["alpha.theta"][0, 0]
    alpha = 1.0 / (1.0 + np.exp(-theta))
    mixed = (1.0 - alpha) * adjacency + alpha * attention

    f = h
    pooled = f.sum(axis=0)
    for layer in range(layers):
        w = {key.split(".", 1)[1]: value for key, value in weights.items()
             if key.startswith(f"layer{layer}.")}
        x1 = _layer_norm(mixed @ f + f, w["ln1.gain"], w["ln1.bias"]) + f
        hidden = np.maximum(x1 @ w["ffn.w1"] + w["ffn.b1"], 0.0)
        f = _layer_norm(hidden @ w["ffn.w2"] + w["ffn.b2"] + x1,
                        w["ln2.gain"], w["ln2.bias"])
        pooled = pooled + f.sum(axis=0)

    hidden = np.maximum(pooled @ weights["head.w1"] + weights["head.b1"], 0.0)
    return (hidden @ weights["head.w2"] + weights["head.b2"])[0]


def probabilities(weights, heads, layers, graph_1, graph_2) -> np.ndarray:
    z = logits(weights, heads, layers, graph_1, graph_2)
    e = np.exp(z - z.max())
    return e / e.sum()


def cross_entropy(weights, heads, layers, graph_1, graph_2,
                  label: int) -> float:
    z = logits(weights, heads, layers, graph_1, graph_2)
    shifted = z - z.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[label])
