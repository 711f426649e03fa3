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

import numpy as np

from .data import DDISample, PairTable
from .errors import InsufficientDrugsError
from .model import MODES, N_FOLDS


@dataclass
class SplitPlan:
    mode: str
    fold: int
    seed: int
    train: list[int]
    val: list[int]
    test: list[int]


def make_splits(samples: PairTable | list[DDISample], mode: str, fold: int,
                seed: int) -> SplitPlan:
    """Deterministic split plan for one fold of one mode."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not 0 <= fold < N_FOLDS:
        raise ValueError(f"fold must be in [0, {N_FOLDS}), got {fold}")
    if mode == "transductive":
        return _transductive(len(samples), fold, seed)
    return _inductive(PairTable.of(samples), mode, fold, seed)


def _transductive(n: int, fold: int, seed: int) -> SplitPlan:
    chunks = np.array_split(np.random.default_rng(seed).permutation(n), N_FOLDS)
    rest = np.concatenate([chunks[k] for k in range(N_FOLDS) if k != fold])
    n_val = round(n / 10)
    return SplitPlan("transductive", fold, seed, rest[n_val:].tolist(),
                     rest[:n_val].tolist(), chunks[fold].tolist())


def _inductive(table: PairTable, mode: str, fold: int,
               seed: int) -> SplitPlan:
    # the table's drugs by SMILES; masks over them
    drugs = sorted(range(len(table.smiles)), key=table.smiles.__getitem__)
    if len(drugs) < N_FOLDS:
        raise InsufficientDrugsError(
            f"{mode} split needs at least {N_FOLDS} distinct drugs, "
            f"have {len(drugs)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(drugs))
    unseen = np.zeros(len(table.smiles), bool)
    unseen[np.array(drugs)[np.array_split(order, N_FOLDS)[fold]]] = True
    unseen_1, unseen_2 = unseen[table.drug_1], unseen[table.drug_2]

    seen_pairs = np.flatnonzero(~unseen_1 & ~unseen_2)
    if not len(seen_pairs):
        raise InsufficientDrugsError(f"{mode} fold {fold}: no fully seen pairs")
    seen_perm = rng.permutation(len(seen_pairs))
    n_val = len(seen_pairs) // 8
    val = seen_pairs[seen_perm[:n_val]].tolist()
    train = seen_pairs[seen_perm[n_val:]].tolist()
    if not train:
        raise InsufficientDrugsError(f"{mode} fold {fold}: empty train set")

    in_train = np.zeros(len(table.smiles), bool)
    in_train[table.drug_1[train]] = in_train[table.drug_2[train]] = True
    if mode == "s1":    # one unseen drug, the other one trained on
        test = (unseen_1 != unseen_2) & np.where(
            unseen_1, in_train[table.drug_2], in_train[table.drug_1])
    else:
        test = unseen_1 & unseen_2
    if not test.any():
        raise InsufficientDrugsError(
            f"{mode} fold {fold}: no test pairs satisfy the cold-start rule")
    return SplitPlan(mode, fold, seed, train, val, np.flatnonzero(test).tolist())
