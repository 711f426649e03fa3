"""Seeded drug-pair corpora for the benchmark, using only the standard library.

Drugs are assembled from ring-system templates (fused bicyclics, aromatic
and saturated monocycles), linkers, substituents (some charged) and
acyclic tails. Ring labels are drawn from both the single-digit and the
``%nn`` forms. Every valid drug stays inside the parser's SMILES subset
and its 50-atom cap; the generator counts atoms itself and never relies
on the program under test to tell it what it wrote.

Labels follow a rule symmetric in the two drugs,
``(score(d1) + score(d2)) % CLASSES``, where ``score`` weighs element,
charge and ring counts, so the label is a function of the unordered pair.
Missing classes are filled by resampling, so every class occurs.
"""

from __future__ import annotations

import csv
import random
import re
from dataclasses import dataclass

CLASSES = 86
ATOM_CAP = 50

# One match per heavy atom: two-letter halogens, bracket atoms, then the
# single-letter organic and aromatic symbols.
_ATOM_RE = re.compile(r"Cl|Br|\[[^\]]*\]|[BCNOPSFIbcnops]")
_RING_RE = re.compile(r"%\d\d|\d")

# {a}/{b}: ring labels; {s}: substituent slot. Each template closes all
# of its own rings, so labels can be reused by the next ring system.
_FUSED = (
    "c{a}c{s}cc{b}ccccc{b}c{a}",          # naphthalene
    "c{a}c{s}cc{b}ncccc{b}c{a}",          # quinoline
    "c{a}c{s}cc{b}[nH]ccc{b}c{a}",        # indole
    "c{a}c{s}cc{b}[nH]cnc{b}c{a}",        # benzimidazole
    "c{a}c{s}cc{b}occc{b}c{a}",           # benzofuran
    "c{a}c{s}cc{b}sccc{b}c{a}",           # benzothiophene
    "c{a}nc{s}c{b}[nH]cnc{b}n{a}",        # purine
    "C{a}CC{s}c{b}ccccc{b}C{a}",          # tetralin
    "C{a}CC{s}C{b}CCCCC{b}C{a}",          # decalin
)
_MONO = (
    "c{a}cc{s}ccc{a}",                    # benzene
    "c{a}cc{s}ncc{a}",                    # pyridine
    "c{a}cnc{s}nc{a}",                    # pyrimidine
    "c{a}cc[n+](C)cc{a}",                 # N-methylpyridinium
    "c{a}c{s}csc{a}",                     # thiophene
    "c{a}ccoc{a}",                        # furan
    "C{a}CC{s}CCC{a}",                    # cyclohexane
    "C{a}CN{s}CCN{a}",                    # piperazine
    "C{a}COCCN{a}",                       # morpholine
    "C{a}CC{s}CCN{a}",                    # piperidine
    "C{a}CC{s}CC{a}",                     # cyclopentane
)
_LINKERS = ("", "C", "CC", "O", "N", "C(=O)N", "NC(=O)", "S", "CO", "OC",
            "C=C", "CN", "S(=O)(=O)", "CC(C)", "C(=O)")
_SUBSTITUENTS = ("C", "O", "N", "F", "Cl", "Br", "I", "C(F)(F)F", "C(=O)O",
                 "C(=O)N", "C#N", "OC", "[N+](=O)[O-]", "C(=O)[O-]",
                 "[NH3+]", "S(=O)(=O)N", "P(=O)(O)O", "CC(C)C")
_CHAIN_ATOMS = ("C", "C", "C", "C", "N", "O", "S")
_CHAIN_BRANCHES = ("(C)", "(=O)", "(N)", "(O)", "(F)", "(Cl)")

# Rows outside the SMILES subset, each built around a valid drug.
INVALID_KINDS = ("stereo", "dot", "slash", "isotope", "wildcard",
                 "unclosed_ring", "atom_cap")


def count_atoms(smiles: str) -> int:
    return len(_ATOM_RE.findall(smiles))


def score(smiles: str) -> int:
    """Structural score per drug; the pair label is the sum mod CLASSES."""
    total = 0
    for atom in _ATOM_RE.findall(smiles):
        body = atom.strip("[]")
        element = body[:2] if body[:2] in ("Cl", "Br") else body[:1].upper()
        total += {"N": 3, "O": 5, "S": 7, "P": 19, "F": 11, "Cl": 11,
                  "Br": 11, "I": 11}.get(element, 1)
        if "+" in body or "-" in body:
            total += 13
    return total + 17 * (len(_RING_RE.findall(smiles)) // 2)


def pair_label(smiles_1: str, smiles_2: str) -> int:
    return (score(smiles_1) + score(smiles_2)) % CLASSES


def _ring_label(rng: random.Random, taken: str = "") -> str:
    while True:
        label = (str(rng.randint(1, 9)) if rng.random() < 0.7
                 else f"%{rng.randint(10, 99)}")
        if label != taken:
            return label


def _ring_system(rng: random.Random, fused: bool) -> str:
    template = rng.choice(_FUSED if fused else _MONO)
    a = _ring_label(rng)
    b = _ring_label(rng, taken=a)
    sub = f"({rng.choice(_SUBSTITUENTS)})" if rng.random() < 0.6 else ""
    return template.format(a=a, b=b, s=sub)


def _chain(rng: random.Random, k: int) -> str:
    """Acyclic fragment of exactly k heavy atoms with short branches."""
    out, n = [], 0
    while n < k:
        sym = rng.choice(_CHAIN_ATOMS)
        out.append(sym)
        n += 1
        if n < k and sym == "C" and rng.random() < 0.3:
            out.append(rng.choice(_CHAIN_BRANCHES))
            n += 1
    return "".join(out)


def spread_sizes(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """count sizes spread evenly over [lo, hi], in seeded order. Even
    spreading keeps the work per corpus nearly the same for every seed."""
    sizes = [lo + k * (hi - lo + 1) // count for k in range(count)]
    rng.shuffle(sizes)
    return sizes


def make_drug(rng: random.Random, target: int) -> str:
    """One valid drug with exactly target heavy atoms (at most ATOM_CAP)."""
    parts: list[str] = []
    n = 0
    while target - n >= 5:
        ring = _ring_system(rng, fused=rng.random() < 0.5)
        linker = rng.choice(_LINKERS) if parts else ""
        size = count_atoms(ring) + count_atoms(linker)
        if n + size > target:
            break
        parts.append(linker + ring)
        n += size
    if n < target:
        tail = _chain(rng, target - n)
        # A tail either trails the last ring or hangs off it as a branch.
        if parts and rng.random() < 0.5:
            parts[-1] = parts[-1] + f"({tail})"
        else:
            parts.append(tail)
    smiles = "".join(parts)
    if count_atoms(smiles) != target:
        raise AssertionError(f"{smiles} does not have {target} atoms")
    return smiles


def make_invalid(rng: random.Random, valid: str) -> str:
    """A string outside the supported subset, derived from a valid drug."""
    kind = rng.choice(INVALID_KINDS)
    if kind == "stereo":
        return "[C@H](F)(Cl)" + valid
    if kind == "dot":
        return valid + ".CCO"
    if kind == "slash":
        return "F/C=C/" + valid
    if kind == "isotope":
        return "[13CH3]" + valid
    if kind == "wildcard":
        return "*" + valid
    if kind == "unclosed_ring":
        return valid + "C%98CC"
    return "C" * (ATOM_CAP + 1 + rng.randint(0, 9))


@dataclass
class Corpus:
    rows: list[tuple[str, str, int]]
    invalid_lines: set[int]       # 1-based file lines (header is line 1)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["smiles_1", "smiles_2", "label"])
            writer.writerows(self.rows)


def _cover_classes(rows: list[tuple[str, str, int]], skip: set[int],
                   draw_pair) -> None:
    """Resample rows in place until every class occurs among valid rows."""
    counts = [0] * CLASSES
    for i, (_, _, label) in enumerate(rows):
        if i not in skip:
            counts[label] += 1
    victim = len(rows) - 1
    for cls in range(CLASSES):
        if counts[cls]:
            continue
        while True:
            d1, d2 = draw_pair()
            if pair_label(d1, d2) == cls:
                break
        while victim in skip or counts[rows[victim][2]] < 2:
            victim -= 1
        counts[rows[victim][2]] -= 1
        rows[victim] = (d1, d2, cls)
        counts[cls] += 1
        victim -= 1


def pooled_corpus(seed: int, n_rows: int, pool_size: int,
                  lo: int = 20, hi: int = 50) -> Corpus:
    """Pairs over a shared pool of drug-sized molecules; all rows valid.
    Every drug of the pool occurs in nearly the same number of rows."""
    rng = random.Random(seed)
    pool: list[str] = []
    seen: set[str] = set()
    for size in spread_sizes(rng, pool_size, lo, hi):
        drug = make_drug(rng, size)
        while drug in seen:
            drug = make_drug(rng, size)
        seen.add(drug)
        pool.append(drug)

    def draw_pair():
        d1, d2 = rng.sample(pool, 2)
        return d1, d2

    slots: list[int] = []
    while len(slots) < 2 * n_rows:
        block = list(range(pool_size))
        rng.shuffle(block)
        slots += block
    rows = []
    for r in range(n_rows):
        i, j = slots[2 * r], slots[2 * r + 1]
        if i == j:
            j = (j + 1) % pool_size
        d1, d2 = pool[i], pool[j]
        rows.append((d1, d2, pair_label(d1, d2)))
    _cover_classes(rows, set(), draw_pair)
    return Corpus(rows, set())


def open_corpus(seed: int, n_rows: int, invalid_share: float,
                lo: int = 3, hi: int = 50) -> Corpus:
    """Pairs of freshly drawn drugs over a wide size range (mostly
    distinct), with a share of rows made invalid on purpose."""
    rng = random.Random(seed)

    def draw_pair():
        return (make_drug(rng, rng.randint(lo, hi)),
                make_drug(rng, rng.randint(lo, hi)))

    sizes = spread_sizes(rng, 2 * n_rows, lo, hi)
    rows = []
    invalid: set[int] = set()
    for i in range(n_rows):
        d1 = make_drug(rng, sizes[2 * i])
        d2 = make_drug(rng, sizes[2 * i + 1])
        if rng.random() < invalid_share:
            if rng.random() < 0.5:
                d1 = make_invalid(rng, d1)
            else:
                d2 = make_invalid(rng, d2)
            invalid.add(i)
        rows.append((d1, d2, pair_label(d1, d2)))
    _cover_classes(rows, invalid, draw_pair)
    return Corpus(rows, {i + 2 for i in invalid})
