"""Multi-class evaluation: accuracy and macro precision/recall/F1.

Convention, fixed and tested: any per-class ratio with a zero
denominator is 0, and macro averages run over the full label set, so
classes absent from the evaluated samples drag the macro down rather
than being skipped. The stratified variant filters samples by true
label and averages over the subset classes only.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyMatrixError,
    EmptySubsetError,
    IndexOutOfRangeError,
    NoMatchingSamplesError,
)

# the order of eval's report and of runrecord.csv's columns
METRIC_KEYS = ("accuracy", "macro_precision", "macro_recall", "macro_f1")


def accumulate(preds: Sequence[int], labels: Sequence[int],
               n_classes: int) -> np.ndarray:
    """The (C, C) int64 confusion matrix: counts[t, p] = number of
    samples with true class t predicted as p."""
    if len(preds) != len(labels):
        raise ValueError(
            f"{len(preds)} predictions vs {len(labels)} labels")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    for p, t in zip(preds, labels):
        if not (0 <= t < n_classes and 0 <= p < n_classes):
            raise IndexOutOfRangeError(
                f"class pair ({t}, {p}) outside [0, {n_classes})")
        counts[t, p] += 1
    return counts


def _per_class(diag, row, col) -> np.ndarray:
    """Precision, recall and F1 (rows) per class from its true positives,
    true-class total and predicted total."""
    diag, row, col = (np.asarray(v, dtype=np.float64) for v in (diag, row, col))
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(col > 0, diag / np.where(col > 0, col, 1), 0.0)
        recall = np.where(row > 0, diag / np.where(row > 0, row, 1), 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1), 0.0)
    return np.stack((precision, recall, f1))


def _metrics(counts: np.ndarray, classes=slice(None)) -> dict[str, float]:
    """Accuracy, and precision, recall and F1 averaged over classes."""
    scores = _per_class(np.diag(counts), counts.sum(axis=1), counts.sum(axis=0))
    return dict(zip(METRIC_KEYS, (
        float(np.trace(counts) / counts.sum()),
        *(float(v[classes].mean()) for v in scores))))


def macro_metrics(counts: np.ndarray) -> dict[str, float]:
    if counts.sum() == 0:
        raise EmptyMatrixError("confusion matrix has no samples")
    return _metrics(counts)


def check_subset(label_subset: Iterable[int], n_classes: int,
                 labels: Sequence[int]) -> list[int]:
    """The indices of the labels in the subset. Refuses a subset class
    outside [0, n_classes), the smallest first, then a subset that no
    label falls in."""
    subset = sorted(set(label_subset))
    for c in subset:
        if not 0 <= c < n_classes:
            raise IndexOutOfRangeError(f"subset class {c} outside [0, {n_classes})")
    wanted = set(subset)
    keep = [i for i, t in enumerate(labels) if t in wanted]
    if not keep:
        raise NoMatchingSamplesError(
            f"no samples with true label in {subset}")
    return keep


def stratified_metrics(preds: Sequence[int], labels: Sequence[int],
                       n_classes: int,
                       label_subset: Iterable[int]) -> dict[str, float]:
    subset = sorted(set(label_subset))
    if not subset:
        raise EmptySubsetError("label subset is empty")
    keep = check_subset(subset, n_classes, labels)
    counts = accumulate([preds[i] for i in keep],
                        [labels[i] for i in keep], n_classes)
    return _metrics(counts, np.array(subset))


def grouped_metrics(preds: Sequence[int], labels: Sequence[int],
                    n_classes: int, groups: Sequence[int],
                    n_groups: int) -> np.ndarray:
    """Row g < n_groups: stratified_metrics' floats for the samples in
    group g over the labels they hold, in METRIC_KEYS order (zeros for an
    empty group), from one count of true positives and of true and
    predicted totals per (group, class) cell, not a matrix per group."""
    preds, labels, groups = (np.asarray(v, dtype=np.int64)
                             for v in (preds, labels, groups))
    outside = ((np.minimum(preds, labels) < 0)
               | (np.maximum(preds, labels) >= n_classes))
    if outside.any():
        i = np.flatnonzero(outside)[0]
        raise IndexOutOfRangeError(
            f"class pair ({labels[i]}, {preds[i]}) outside [0, {n_classes})")
    # the (group, true class) cells in order: each group's label subset
    cells, cell, row = np.unique(groups * n_classes + labels,
                                 return_inverse=True, return_counts=True)
    predicted = groups * n_classes + preds
    at = np.minimum(np.searchsorted(cells, predicted), len(cells) - 1)
    col = np.bincount(at[cells[at] == predicted], minlength=len(cells))
    right = preds == labels
    scores = _per_class(np.bincount(cell[right], minlength=len(cells)),
                        row, col)
    edges = np.searchsorted(cells // n_classes, np.arange(n_groups + 1))
    # class means a group size at a time: take lays each group's cells
    # out contiguously, as a slice does, so the means sum pairwise alike
    size = np.diff(edges)
    rows = np.zeros((n_groups, len(METRIC_KEYS)))
    rows[:, 0] = (np.bincount(groups[right], minlength=n_groups)
                  / np.maximum(np.bincount(groups, minlength=n_groups), 1))
    for s in np.unique(size[size > 0]):
        alike = np.flatnonzero(size == s)
        rows[alike, 1:] = np.take(scores, edges[alike, None] + np.arange(s),
                                  axis=1).mean(axis=2).T
    return rows


def format_metrics(values: dict[str, float]) -> str:
    """key=value lines, one metric per line, fixed key order."""
    return "\n".join(f"{k}={values[k]:.6f}" for k in METRIC_KEYS)
