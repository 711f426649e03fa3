"""Mini-batch training with validation-based model selection.

A batch's pairs are sorted by joint graph size and cut into chunks
(model.plan_chunks); each chunk is padded to its largest pair and runs
as one forward pass and one backward pass, its mean cross-entropy
weighted by its share of the batch. Parameter gradients add up across
the chunks, so only one chunk's tape is alive at a time, and the batch
gets one AdamW step on the gradient of its mean loss. After every epoch
the validation metrics are computed and the best parameters (by the
configured selection metric, earliest epoch on ties) are kept.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import model as m
from .data import DDISample, featurize_samples
from .errors import (
    EmptySplitError,
    NonFiniteActivationError,
    NonFiniteInputError,
    TrainingAbortedError,
)
from .metrics import accumulate, macro_metrics
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
        for name in ("batch_size", "lr", "max_epochs", "layers", "heads", "dim"):
            if getattr(self, name) < 0 or (name != "lr" and getattr(self, name) == 0):
                raise ValueError(f"{name} must be positive")

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
            writer.writerow(["epoch", "train_loss", "accuracy",
                             "macro_precision", "macro_recall", "macro_f1"])
            for rec in self.epochs:
                writer.writerow([rec.epoch, repr(rec.train_loss),
                                 repr(rec.val["accuracy"]),
                                 repr(rec.val["macro_precision"]),
                                 repr(rec.val["macro_recall"]),
                                 repr(rec.val["macro_f1"])])


def predict_labels(params: ModelParams,
                   pairs: list[tuple[FeaturedGraph, FeaturedGraph]]) -> list[int]:
    return [int(c) for c in np.argmax(m.batch_logits(pairs, params), axis=1)]


def evaluate(params: ModelParams,
             pairs: list[tuple[FeaturedGraph, FeaturedGraph]],
             labels: list[int], n_classes: int) -> dict[str, float]:
    preds = predict_labels(params, pairs)
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
    opt = AdamW(params.all(), lr=config.lr,
                weight_decay=config.weight_decay)
    rng = np.random.default_rng(config.seed)
    record = RunRecord(config=config)
    val_pairs = [pairs[i] for i in plan.val]
    val_labels = [labels[i] for i in plan.val]
    best_values: dict[str, np.ndarray] | None = None

    train_idx = np.array(plan.train)
    for epoch in range(config.max_epochs):
        order = train_idx[rng.permutation(len(train_idx))]
        loss_sum = 0.0
        for batch_no, start in enumerate(range(0, len(order), config.batch_size)):
            batch = order[start:start + config.batch_size]
            opt.zero_grad()
            value = 0.0
            try:
                for chunk in m.plan_chunks(m.joint_sizes(
                        [pairs[i] for i in batch])):
                    rows = batch[chunk]
                    logits = m.forward_chunk([pairs[i] for i in rows], params)
                    loss = m.cross_entropy_from_logits(
                        logits, [labels[i] for i in rows]) \
                        * (len(rows) / len(batch))
                    value += loss.item()
                    if not np.isfinite(value):
                        raise TrainingAbortedError(
                            f"non-finite loss at epoch {epoch} batch {batch_no}")
                    loss.backward()
            except (NonFiniteActivationError, NonFiniteInputError,
                    FloatingPointError) as exc:
                raise TrainingAbortedError(
                    f"epoch {epoch} batch {batch_no}: {exc}") from exc
            opt.step()
            loss_sum += value * len(batch)

        val = evaluate(params, val_pairs, val_labels, n_classes) if val_pairs \
            else {"accuracy": 0.0, "macro_precision": 0.0,
                  "macro_recall": 0.0, "macro_f1": 0.0}
        record.epochs.append(EpochRecord(epoch, loss_sum / len(order), val))
        if val_pairs and val[config.selection] > record.best_value:
            record.best_value = val[config.selection]
            record.best_epoch = epoch
            best_values = {name: p.value.copy() for name, p in params.named()}

    if best_values is not None:
        for name, p in params.named():
            p.value[...] = best_values[name]
    return params, record
