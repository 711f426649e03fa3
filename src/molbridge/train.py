"""Mini-batch training with validation-based model selection.

A batch's pairs are sorted by joint graph size and cut into chunks
(model.plan_chunks); each chunk is padded to its largest pair and runs
as one forward pass and one backward pass, its mean cross-entropy
weighted by its share of the batch. Parameter gradients add up across
the chunks, so only one chunk's tape is alive at a time, and the batch
gets one AdamW step on the gradient of its mean loss. After every epoch
the validation metrics are computed and the best parameters (by the
configured selection metric, earliest epoch on ties) are kept.

The chunks are cut into contiguous slices of about equal cost
(parallel.py). This process runs the first slice as above; helpers
forked once per train() call run the later ones, each chunk's
gradient from zero, and their losses and gradients are added in chunk
order after the first slice's, with the loss check after every chunk:
the same float operations in the same order as one process. Validation
is split the same way on the same helpers.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import model as m
from . import parallel as par
from .autodiff import Tensor, zero_grads
from .data import DDISample, featurize_samples
from .errors import EmptySplitError, TrainingAbortedError
from .metrics import METRIC_KEYS, accumulate, macro_metrics
from .model import ModelConfig, ModelParams
from .optim import AdamW
from .smiles import FEATURE_DIM, FeaturedGraph
from .splits import SplitPlan

SELECTION_METRICS = ("accuracy", "macro_f1")


@dataclass
class TrainConfig:
    batch_size: int = 512
    lr: float = 0.005
    seed: int = 42
    layers: int = 3
    heads: int = 4
    dim: int = 32
    d_hid: int = 0              # 0 means 2 * dim
    max_epochs: int = 500
    weight_decay: float = 0.01
    selection: str = "accuracy"

    def __post_init__(self):
        if self.selection not in SELECTION_METRICS:
            raise ValueError(
                f"selection must be one of {SELECTION_METRICS}, "
                f"got {self.selection!r}")
        for name in ("batch_size", "max_epochs", "layers", "heads", "dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value}")

    def model_config(self, n_classes: int) -> ModelConfig:
        return ModelConfig(feature_dim=FEATURE_DIM, dim=self.dim,
                           heads=self.heads, layers=self.layers,
                           d_hid=self.d_hid, classes=n_classes,
                           seed=self.seed)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val: dict[str, float]


@dataclass
class RunRecord:
    config: TrainConfig
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_value: float = float("-inf")

    def write_csv(self, path) -> None:
        """Line-delimited epoch log; floats via repr so reruns are
        byte-identical."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", *METRIC_KEYS])
            for rec in self.epochs:
                writer.writerow([rec.epoch, repr(rec.train_loss),
                                 *(repr(rec.val[k]) for k in METRIC_KEYS)])


def predict_labels(params: ModelParams,
                   pairs: list[tuple[FeaturedGraph, FeaturedGraph]],
                   helpers: par.Helpers | None = None) -> list[int]:
    return [int(c) for c in
            np.argmax(m.batch_logits(pairs, params, helpers), axis=1)]


def evaluate(params: ModelParams,
             pairs: list[tuple[FeaturedGraph, FeaturedGraph]],
             labels: list[int], n_classes: int,
             helpers: par.Helpers | None = None) -> dict[str, float]:
    preds = predict_labels(params, pairs, helpers)
    return macro_metrics(accumulate(preds, labels, n_classes))


def train(samples: list[DDISample], plan: SplitPlan,
          config: TrainConfig) -> tuple[ModelParams, RunRecord]:
    """Train on plan.train, select on plan.val; returns the best params
    and the per-epoch record."""
    for idx_list in (plan.train, plan.val):
        for i in idx_list:
            if not 0 <= i < len(samples):
                raise ValueError(f"plan index {i} outside the sample list")
    if not plan.train:
        raise EmptySplitError(
            f"the train split of {len(samples)} samples is empty; "
            "nothing to train on")
    n_classes = 1 + max(s.label for s in samples)
    pairs = featurize_samples(samples)
    labels = [s.label for s in samples]

    params = m.init_params(config.model_config(n_classes))
    plist = params.all()
    opt = AdamW(plist, lr=config.lr, weight_decay=config.weight_decay)
    rng = np.random.default_rng(config.seed)
    record = RunRecord(config=config)
    val_pairs = [pairs[i] for i in plan.val]
    val_labels = [labels[i] for i in plan.val]
    best_values: dict[str, np.ndarray] | None = None

    def chunk_loss(work) -> Tensor:
        rows, share = work
        logits = m.forward_chunk([pairs[i] for i in rows], params)
        return m.cross_entropy_from_logits(
            logits, [labels[i] for i in rows]) * share

    def local(work) -> tuple[float, Tensor]:
        loss = chunk_loss(work)
        return loss.item(), loss

    def helper_grads(work) -> tuple[float, list[np.ndarray]]:
        """A helper's chunk: its loss, and unless that is not finite (the
        parent stops there) its gradient from zero."""
        loss = chunk_loss(work)
        zero_grads(plist)
        if np.isfinite(loss.item()):
            loss.backward()
        return loss.item(), [p.grad.copy() for p in plist]

    tasks = {"grads": helper_grads,
             "logits": functools.partial(m.chunk_logits, val_pairs, params)}
    train_idx = np.array(plan.train)
    with par.Helpers(plist, tasks) as helpers:
        for epoch in range(config.max_epochs):
            order = train_idx[rng.permutation(len(train_idx))]
            loss_sum = 0.0
            for batch_no, start in enumerate(
                    range(0, len(order), config.batch_size)):
                batch = order[start:start + config.batch_size]
                sizes = m.joint_sizes([pairs[i] for i in batch])
                chunks = m.plan_chunks(sizes)
                work = [(batch[c], len(c) / len(batch)) for c in chunks]
                costs = m.chunk_costs(sizes, chunks)
                opt.zero_grad()
                value = 0.0
                try:
                    for loss_value, loss_or_grads in helpers.run(
                            "grads", work, costs, local):
                        value += loss_value
                        if not np.isfinite(value):
                            raise TrainingAbortedError(
                                f"non-finite loss at epoch {epoch} "
                                f"batch {batch_no}")
                        if isinstance(loss_or_grads, Tensor):
                            loss_or_grads.backward()    # the parent's chunk
                        else:                           # a helper's chunk
                            for p, g in zip(plist, loss_or_grads):
                                p._add_grad(g)
                except FloatingPointError as exc:   # NonFiniteActivationError
                    raise TrainingAbortedError(
                        f"epoch {epoch} batch {batch_no}: {exc}") from exc
                opt.step()
                loss_sum += value * len(batch)

            val = evaluate(params, val_pairs, val_labels, n_classes, helpers) \
                if val_pairs else dict.fromkeys(METRIC_KEYS, 0.0)
            record.epochs.append(
                EpochRecord(epoch, loss_sum / len(order), val))
            if val_pairs and val[config.selection] > record.best_value:
                record.best_value = val[config.selection]
                record.best_epoch = epoch
                best_values = {name: p.value.copy()
                               for name, p in params.named()}

    if best_values is not None:
        for name, p in params.named():
            p.value[...] = best_values[name]
    return params, record
