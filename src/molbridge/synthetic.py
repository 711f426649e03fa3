"""Constructed datasets with known decision rules, for tests and smoke runs.

The four-class rule is symmetric in the pair (the model is invariant to
drug order, so order-dependent rules would be unlearnable): drug one is
drawn from oxygen-bearing or heteroatom-free pools and drug two from
nitrogen-bearing or heteroatom-free pools, making

    label = 2 * (pair contains oxygen) + (pair contains nitrogen)

a deterministic function of functional-group presence.
"""

from __future__ import annotations

import csv

import numpy as np

from .data import DDISample
from .smiles import parse_smiles

# no nitrogen in OXYGEN_POOL, no oxygen in NITROGEN_POOL, neither in PLAIN_POOL
OXYGEN_POOL = ("CCO", "CC(=O)O", "COC", "OCCO", "CC(O)C", "C=O", "CCOC",
               "OC1CCC1", "CC(=O)C", "OCC(C)C")
NITROGEN_POOL = ("CCN", "CNC", "NCCC", "CN(C)C", "C#N", "CCNC", "NC1CC1",
                 "c1ccncc1", "CCCN", "CNCC")
PLAIN_POOL = ("C", "CC", "CCC", "CCCC", "C1CC1", "C1CCC1", "CC(C)C",
              "c1ccccc1", "C=C", "CCCCC")


def contains_element(smiles: str, symbol: str) -> bool:
    return any(a.symbol == symbol for a in parse_smiles(smiles).atoms)


def pair_label(smiles_1: str, smiles_2: str) -> int:
    symbols = {a.symbol for text in (smiles_1, smiles_2)
               for a in parse_smiles(text).atoms}
    return 2 * ("O" in symbols) + ("N" in symbols)


def make_balanced_dataset(n_samples: int, seed: int = 0) -> list[DDISample]:
    """Four classes, near-equal counts, labels from pair_label."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n_samples):
        want_o = (i % 4) in (2, 3)
        want_n = (i % 4) in (1, 3)
        d1 = _pick(rng, OXYGEN_POOL if want_o else PLAIN_POOL)
        d2 = _pick(rng, NITROGEN_POOL if want_n else PLAIN_POOL)
        samples.append(DDISample(d1, d2, pair_label(d1, d2)))
    rng.shuffle(samples)
    return samples


def make_imbalanced_dataset(n_samples: int, seed: int = 0,
                            majority: float = 0.49) -> list[DDISample]:
    """Same rule, but class 0 holds roughly `majority` of the samples."""
    rng = np.random.default_rng(seed)
    rest = (1.0 - majority) / 3.0
    samples = []
    for _ in range(n_samples):
        cls = int(rng.choice(4, p=[majority, rest, rest, rest]))
        want_o, want_n = cls in (2, 3), cls in (1, 3)
        d1 = _pick(rng, OXYGEN_POOL if want_o else PLAIN_POOL)
        d2 = _pick(rng, NITROGEN_POOL if want_n else PLAIN_POOL)
        samples.append(DDISample(d1, d2, pair_label(d1, d2)))
    return samples


def make_two_class_dataset(n_samples: int, seed: int = 0) -> list[DDISample]:
    """Label = oxygen present in drug one; drug two is kept oxygen-free
    so the rule survives the model's pair-order invariance."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n_samples):
        d1 = _pick(rng, OXYGEN_POOL if i % 2 else PLAIN_POOL)
        d2 = _pick(rng, NITROGEN_POOL if rng.random() < 0.5 else PLAIN_POOL)
        samples.append(DDISample(d1, d2, int(contains_element(d1, "O"))))
    rng.shuffle(samples)
    return samples


def _pick(rng: np.random.Generator, pool: tuple[str, ...]) -> str:
    return pool[int(rng.integers(0, len(pool)))]


def make_drug_pool(count: int) -> list[str]:
    """`count` distinct small drugs cycling through ether, amine, and
    alkane families; used by the cold-start split tests."""
    drugs = []
    i = 0
    while len(drugs) < count:
        family = i % 3
        a = 1 + (i // 3) % 5
        b = 1 + (i // 15) % 5
        if family == 0:
            s = "C" * a + "O" + "C" * b
        elif family == 1:
            s = "C" * a + "N" + "C" * b
        else:
            s = "C" * (2 + (i // 3))
        if s not in drugs:
            drugs.append(s)
        i += 1
    return drugs


def make_pair_dataset(drugs: list[str], n_pairs: int,
                      seed: int = 0) -> list[DDISample]:
    """Random distinct-drug pairs over a pool, labeled by pair_label."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_pairs):
        i, j = rng.choice(len(drugs), size=2, replace=False)
        d1, d2 = drugs[int(i)], drugs[int(j)]
        samples.append(DDISample(d1, d2, pair_label(d1, d2)))
    return samples


def write_dataset(samples: list[DDISample], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["smiles_1", "smiles_2", "label"])
        for s in samples:
            writer.writerow([s.smiles_1, s.smiles_2, s.label])
