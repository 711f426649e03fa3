"""Multi-class evaluation: accuracy and macro precision/recall/F1.

Every metric is read off one per-class tally (accumulate): the true
positives, the true totals and the predicted totals of each class.
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


def _checked(n_classes: int, preds, labels, *more) -> list[np.ndarray]:
    """The per-sample arrays as int64; refuses unequal lengths, then the
    first row whose prediction or label lies outside [0, n_classes)."""
    arrays = [np.asarray(v, dtype=np.int64) for v in (preds, labels, *more)]
    if len({len(v) for v in arrays}) > 1:
        raise ValueError(" vs ".join(
            f"{len(v)} {name}" for v, name in
            zip(arrays, ("predictions", "labels", "groups"))))
    preds, labels = arrays[:2]
    outside = ((np.minimum(preds, labels) < 0)
               | (np.maximum(preds, labels) >= n_classes))
    if outside.any():
        i = np.flatnonzero(outside)[0]
        raise IndexOutOfRangeError(
            f"class pair ({labels[i]}, {preds[i]}) outside [0, {n_classes})")
    return arrays


def accumulate(preds: Sequence[int], labels: Sequence[int],
               n_classes: int) -> np.ndarray:
    """The (3, C) int64 tally per class: its true positives, the samples
    whose true class it is and the samples predicted as it."""
    preds, labels = _checked(n_classes, preds, labels)
    return np.stack([np.bincount(v, minlength=n_classes) for v in
                     (labels[preds == labels], labels, preds)])


def _per_class(tally: np.ndarray) -> np.ndarray:
    """Precision, recall and F1 (rows) per class from its true positives,
    true-class total and predicted total."""
    diag, row, col = tally.astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(col > 0, diag / np.where(col > 0, col, 1), 0.0)
        recall = np.where(row > 0, diag / np.where(row > 0, row, 1), 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1), 0.0)
    return np.stack((precision, recall, f1))


def _metrics(tally: np.ndarray, classes=slice(None)) -> dict[str, float]:
    """Accuracy, and precision, recall and F1 averaged over classes."""
    scores = _per_class(tally)
    return dict(zip(METRIC_KEYS, (
        float(tally[0].sum() / tally[1].sum()),
        *(float(v[classes].mean()) for v in scores))))


def macro_metrics(tally: np.ndarray) -> dict[str, float]:
    if tally[1].sum() == 0:
        raise EmptyMatrixError("the class tally has no samples")
    return _metrics(tally)


def check_subset(label_subset: Iterable[int], n_classes: int,
                 labels: Sequence[int]) -> tuple[list[int], np.ndarray]:
    """The subset's classes, sorted, and the mask of the labels in it.
    Refuses an empty subset, a subset class outside [0, n_classes), the
    smallest first, then a subset that no label falls in."""
    subset = sorted(set(label_subset))
    if not subset:
        raise EmptySubsetError("label subset is empty")
    for c in subset:
        if not 0 <= c < n_classes:
            raise IndexOutOfRangeError(f"subset class {c} outside [0, {n_classes})")
    keep = np.isin(labels, subset)
    if not keep.any():
        raise NoMatchingSamplesError(
            f"no samples with true label in {subset}")
    return subset, keep


def stratified_metrics(preds: Sequence[int], labels: Sequence[int],
                       n_classes: int,
                       label_subset: Iterable[int]) -> dict[str, float]:
    preds, labels = _checked(n_classes, preds, labels)
    subset, keep = check_subset(label_subset, n_classes, labels)
    return _metrics(accumulate(preds[keep], labels[keep], n_classes), subset)


def grouped_metrics(preds: Sequence[int], labels: Sequence[int],
                    n_classes: int, groups: Sequence[int],
                    n_groups: int) -> np.ndarray:
    """Row g < n_groups: stratified_metrics' floats for the samples in
    group g over the labels they hold, in METRIC_KEYS order (zeros for an
    empty group), from one class tally over all (group, class) cells."""
    preds, labels, groups = _checked(n_classes, preds, labels, groups)
    # the (group, true class) cells in order: each group's label subset;
    # a prediction outside its group's subset counts in a last cell, dropped
    cells, cell = np.unique(groups * n_classes + labels, return_inverse=True)
    predicted = groups * n_classes + preds
    at = np.where(np.isin(predicted, cells),
                  np.searchsorted(cells, predicted), len(cells))
    scores = _per_class(accumulate(at, cell, len(cells) + 1)[:, :-1])
    edges = np.searchsorted(cells // n_classes, np.arange(n_groups + 1))
    # class means a group size at a time: take lays each group's cells
    # out contiguously, as a slice does, so the means sum pairwise alike
    size = np.diff(edges)
    rows = np.zeros((n_groups, len(METRIC_KEYS)))
    rows[:, 0] = (np.bincount(groups[preds == labels], minlength=n_groups)
                  / np.maximum(np.bincount(groups, minlength=n_groups), 1))
    for s in np.unique(size[size > 0]):
        alike = np.flatnonzero(size == s)
        rows[alike, 1:] = np.take(scores, edges[alike, None] + np.arange(s),
                                  axis=1).mean(axis=2).T
    return rows


def format_metrics(values: dict[str, float]) -> str:
    """key=value lines, one metric per line, fixed key order."""
    return "\n".join(f"{k}={values[k]:.6f}" for k in METRIC_KEYS)
