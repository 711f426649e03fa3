"""Split generation: transductive folds and cold-start S1/S2 partitions.

Transductive mode shuffles samples once per seed, takes one fifth as the
test fold, a tenth as validation, and the rest as train (7:1:2 within
rounding). The two inductive modes partition drugs first: a fifth of
drugs are held out as unseen, the pairs among the remaining drugs split
7:1 into train and validation, and the test set contains pairs with
exactly one unseen drug (S1) or two unseen drugs (S2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InsufficientDrugsError
from .model import MODES, N_FOLDS

if TYPE_CHECKING:
    from .data import DDISample


@dataclass
class SplitPlan:
    mode: str
    fold: int
    seed: int
    train: list[int]
    val: list[int]
    test: list[int]


def make_splits(samples: list[DDISample], mode: str, fold: int,
                seed: int) -> SplitPlan:
    """Deterministic split plan for one fold of one mode."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not 0 <= fold < N_FOLDS:
        raise ValueError(f"fold must be in [0, {N_FOLDS}), got {fold}")
    if mode == "transductive":
        return _transductive(samples, fold, seed)
    return _inductive(samples, mode, fold, seed)


def _transductive(samples: list[DDISample], fold: int, seed: int) -> SplitPlan:
    n = len(samples)
    chunks = np.array_split(np.random.default_rng(seed).permutation(n), N_FOLDS)
    rest = np.concatenate([chunks[k] for k in range(N_FOLDS) if k != fold])
    n_val = round(n / 10)
    return SplitPlan("transductive", fold, seed, rest[n_val:].tolist(),
                     rest[:n_val].tolist(), chunks[fold].tolist())


def _inductive(samples: list[DDISample], mode: str, fold: int,
               seed: int) -> SplitPlan:
    drugs = sorted({s.smiles_1 for s in samples} | {s.smiles_2 for s in samples})
    if len(drugs) < N_FOLDS:
        raise InsufficientDrugsError(
            f"{mode} split needs at least {N_FOLDS} distinct drugs, "
            f"have {len(drugs)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(drugs))
    unseen = {drugs[i] for i in np.array_split(order, N_FOLDS)[fold]}

    seen_pairs = [i for i, s in enumerate(samples)
                  if s.smiles_1 not in unseen and s.smiles_2 not in unseen]
    if not seen_pairs:
        raise InsufficientDrugsError(f"{mode} fold {fold}: no fully seen pairs")
    seen_perm = rng.permutation(len(seen_pairs))
    n_val = len(seen_pairs) // 8
    val = [seen_pairs[i] for i in seen_perm[:n_val]]
    train = [seen_pairs[i] for i in seen_perm[n_val:]]
    if not train:
        raise InsufficientDrugsError(f"{mode} fold {fold}: empty train set")

    train_drugs = {samples[i].smiles_1 for i in train} \
        | {samples[i].smiles_2 for i in train}
    test: list[int] = []
    for i, s in enumerate(samples):
        in_unseen = (s.smiles_1 in unseen) + (s.smiles_2 in unseen)
        if mode == "s1" and in_unseen == 1:
            other = s.smiles_2 if s.smiles_1 in unseen else s.smiles_1
            if other in train_drugs:
                test.append(i)
        elif mode == "s2" and in_unseen == 2:
            test.append(i)
    if not test:
        raise InsufficientDrugsError(
            f"{mode} fold {fold}: no test pairs satisfy the cold-start rule")
    return SplitPlan(mode, fold, seed, train, val, test)
