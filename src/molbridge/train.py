"""Mini-batch training with validation-based model selection.

A batch's pairs are sorted by joint graph size and cut into chunks
(model.plan_chunks). Each chunk is padded to its largest pair and runs
one forward and one backward pass on a float32 copy of the parameters,
all in float32: its mean cross-entropy, weighted by its share of the
batch, and that loss's gradient vector from zero. The float64 masters
add the chunks' gradient vectors up in chunk order, so only one chunk's
pullbacks are alive at a time, and the batch gets one float64 AdamW step
on the gradient of its mean loss, after which the copy is refreshed from
the masters. Each of these is one array op on the parameter vectors
(ModelParams.values and .grads). After every epoch the validation
metrics are computed on the masters and the best parameter vector (by
the configured selection metric, earliest epoch on ties) is kept.

The chunks are cut into contiguous slices of about equal cost
(parallel.py): this process runs the first, helpers forked once per
train() call the later ones, with the same chunk function everywhere,
so the results do not depend on the number of helpers. Validation is
split the same way on the same helpers.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import model as m
from . import parallel as par
from .data import DDISample, PairTable, featurize_samples
from .errors import EmptySplitError, TrainingAbortedError
from .metrics import METRIC_KEYS, accumulate, macro_metrics
from .model import SELECTION_METRICS, ModelConfig, ModelParams
from .optim import AdamW
from .smiles import FEATURE_DIM, FeaturedGraph
from .splits import SplitPlan


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
        for name in ("batch_size", "max_epochs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value}")
        self.model_config(2)        # the fewest classes a dataset has

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


def train(samples: PairTable | list[DDISample], plan: SplitPlan,
          config: TrainConfig) -> tuple[ModelParams, RunRecord]:
    """Train on plan.train, select on plan.val; returns the best params
    and the per-epoch record."""
    samples = PairTable.of(samples)
    # train then validation rows; the test split stays text
    read = samples.take([*plan.train, *plan.val])
    if not plan.train:
        raise EmptySplitError(
            f"the train split of {len(samples)} samples is empty; "
            "nothing to train on")
    n_classes = 1 + int(samples.label.max())
    params = m.init_params(config.model_config(n_classes))
    pairs, labels = featurize_samples(read), read.label
    n_train = len(plan.train)

    fast = params.astype(np.float32)    # the copy every chunk runs on
    opt = AdamW(params.values, params.grads, lr=config.lr,
                weight_decay=config.weight_decay)
    rng = np.random.default_rng(config.seed)
    record = RunRecord(config=config)
    val_pairs, val_labels = pairs[n_train:], labels[n_train:]
    best_values: np.ndarray | None = None

    def chunk_grads(work) -> tuple[float, np.ndarray]:
        """A chunk's loss and, if finite, its float32 gradient from zero."""
        rows, share = work
        logits = m.forward_chunk([pairs[i] for i in rows], fast)
        loss = m.cross_entropy_from_logits(logits, labels[rows], share)
        fast.grads[...] = 0.0
        if np.isfinite(loss.item()):
            loss.backward()
        return loss.item(), fast.grads.copy()

    # requests refresh a helper's float32 copy; validation scores masters
    tasks = {"grads": chunk_grads,
             "logits": functools.partial(m.chunk_logits, val_pairs, params)}
    with par.Helpers([params.values, fast.values], tasks) as helpers:
        for epoch in range(config.max_epochs):
            order = rng.permutation(n_train)
            loss_sum = 0.0
            try:
                for batch_no, start in enumerate(
                        range(0, len(order), config.batch_size)):
                    stage = f"batch {batch_no}"
                    batch = order[start:start + config.batch_size]
                    chunks, costs = m.plan_chunks(
                        m.joint_sizes([pairs[i] for i in batch]))
                    work = [(batch[c], len(c) / len(batch)) for c in chunks]
                    opt.zero_grad()
                    value = 0.0
                    for loss_value, grads in helpers.run("grads", work, costs):
                        value += loss_value
                        if not np.isfinite(value):
                            raise TrainingAbortedError(
                                f"non-finite loss at epoch {epoch} {stage}")
                        params.grads += grads
                    opt.step()
                    fast.values[...] = params.values
                    loss_sum += value * len(batch)
                stage = "validation"
                val = dict.fromkeys(METRIC_KEYS, 0.0) if not val_pairs else \
                    evaluate(params, val_pairs, val_labels, n_classes, helpers)
            except FloatingPointError as exc:   # NonFiniteActivationError
                raise TrainingAbortedError(
                    f"epoch {epoch} {stage}: {exc}") from exc
            record.epochs.append(
                EpochRecord(epoch, loss_sum / len(order), val))
            if val_pairs and val[config.selection] > record.best_value:
                record.best_value = val[config.selection]
                record.best_epoch = epoch
                best_values = params.values.copy()

    if best_values is not None:
        params.values[...] = best_values
    return params, record
