"""SMILES subset parser and atom featurisation.

Supported grammar: organic-subset atoms (B, C, N, O, P, S, F, Cl, Br, I),
lowercase aromatic atoms (b, c, n, o, p, s), bracket atoms with an explicit
hydrogen count and formal charge, bond symbols ``- = # :``, branches, and
ring closures (single digit or ``%nn``). Digits (ring labels, hydrogen
counts, charges) are ASCII ``0-9`` only. Stereochemistry (``/ \\ @``),
isotopes, wildcards, atom classes, and multi-fragment dots are rejected
with :class:`UnsupportedTokenError` rather than silently ignored.

Implicit hydrogens on organic-subset atoms follow the usual valence rule:
bond orders are summed (aromatic counts 1.5), rounded up, and the smallest
standard valence at or above that sum determines the hydrogen count.
Bracket atoms carry exactly the hydrogens written in the brackets.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AtomCapExceededError,
    SmilesError,
    UnclosedBranchError,
    UnmatchedRingBondError,
    UnsupportedTokenError,
)

# Per-drug atom cap; enforced at parse time so oversized drugs fail early.
ATOM_CAP = 50

ELEMENTS = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I")
AROMATIC_SYMBOLS = frozenset("bcnops")

_VALENCES = {
    "B": (3,),
    "C": (4,),
    "N": (3, 5),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

_BOND_CHARS = {"-": "single", "=": "double", "#": "triple", ":": "aromatic"}
_BOND_VALUE = {"single": 1.0, "double": 2.0, "triple": 3.0, "aromatic": 1.5}

# symbol, optional hydrogen count, optional charge -- nothing else.
_BRACKET_RE = re.compile(r"^(Cl|Br|[BCNOPSFI]|[bcnops])(H[0-9]?)?(\+\+|--|[+-][0-9]?)?$")
# ASCII only: str.isdigit() and \d also accept other scripts' digits.
_DIGITS = frozenset("0123456789")


@dataclass
class Atom:
    symbol: str
    formal_charge: int = 0
    aromatic: bool = False
    hydrogens: int = 0


@dataclass
class Bond:
    a: int
    b: int
    order: str  # "single" | "double" | "triple" | "aromatic"


@dataclass
class Molecule:
    """Parsed chemical graph: heavy atoms plus explicit bond list."""

    atoms: list[Atom] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)

    def validate(self) -> None:
        if not self.atoms:
            raise ValueError("molecule must contain at least one atom")
        n = len(self.atoms)
        seen: set[tuple[int, int]] = set()
        for bond in self.bonds:
            if bond.a == bond.b:
                raise ValueError(f"bond joins atom {bond.a} to itself")
            if not (0 <= bond.a < n and 0 <= bond.b < n):
                raise ValueError(f"bond ({bond.a}, {bond.b}) out of range")
            key = (min(bond.a, bond.b), max(bond.a, bond.b))
            if key in seen:
                raise ValueError(f"duplicate bond between atoms {key}")
            seen.add(key)

    def degrees(self) -> list[int]:
        deg = [0] * len(self.atoms)
        for bond in self.bonds:
            deg[bond.a] += 1
            deg[bond.b] += 1
        return deg

    def neighbor_lists(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.atoms]
        for bond in self.bonds:
            adj[bond.a].append(bond.b)
            adj[bond.b].append(bond.a)
        return adj


def _parse_charge(token: str | None) -> int:
    if token is None:
        return 0
    if token == "++":
        return 2
    if token == "--":
        return -2
    sign = 1 if token[0] == "+" else -1
    magnitude = int(token[1:]) if len(token) > 1 else 1
    return sign * magnitude


def parse_smiles(text: str) -> Molecule:
    """Parse a SMILES string from the documented subset into a Molecule.

    Atoms appear in left-to-right SMILES order. Raises a
    :class:`SmilesError` subclass (with the offending position) on any
    input outside the subset.
    """
    if not text:
        raise SmilesError("empty SMILES string", 0)

    atoms: list[Atom] = []
    bonds: list[Bond] = []
    bracketed: list[bool] = []
    seen_pairs: set[tuple[int, int]] = set()
    prev: int | None = None
    pending: str | None = None
    pending_pos = 0
    branch_stack: list[int] = []
    open_rings: dict[int, tuple[int, str | None]] = {}

    def add_bond(a: int, b: int, order: str, pos: int) -> None:
        if a == b:
            raise UnmatchedRingBondError("ring bond joins an atom to itself", pos)
        key = (min(a, b), max(a, b))
        if key in seen_pairs:
            raise UnmatchedRingBondError(f"duplicate bond between atoms {key}", pos)
        seen_pairs.add(key)
        bonds.append(Bond(key[0], key[1], order))

    def add_atom(symbol: str, aromatic: bool, charge: int, hydrogens: int,
                 pos: int, from_bracket: bool) -> None:
        nonlocal prev, pending
        if len(atoms) >= ATOM_CAP:
            raise AtomCapExceededError(f"molecule exceeds {ATOM_CAP} atoms", pos)
        idx = len(atoms)
        atoms.append(Atom(symbol, charge, aromatic, hydrogens))
        bracketed.append(from_bracket)
        if prev is not None:
            order = pending
            if order is None:
                order = "aromatic" if atoms[prev].aromatic and aromatic else "single"
            add_bond(prev, idx, order, pos)
        pending = None
        prev = idx

    def ring(num: int, pos: int) -> None:
        nonlocal pending
        if prev is None:
            raise SmilesError("ring-closure digit before any atom", pos)
        if num in open_rings:
            other, opened_order = open_rings.pop(num)
            if pending and opened_order and pending != opened_order:
                raise UnmatchedRingBondError(
                    f"conflicting bond orders on ring closure {num}", pos)
            order = pending or opened_order
            if order is None:
                order = ("aromatic" if atoms[other].aromatic and atoms[prev].aromatic
                         else "single")
            add_bond(prev, other, order, pos)
        else:
            open_rings[num] = (prev, pending)
        pending = None

    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "[":
            end = text.find("]", pos)
            if end < 0:
                raise SmilesError("unterminated bracket atom", pos)
            body = text[pos + 1:end]
            match = _BRACKET_RE.match(body)
            if match is None:
                raise UnsupportedTokenError(f"unsupported bracket atom [{body}]", pos)
            sym, h_part, charge_part = match.groups()
            hydrogens = 0
            if h_part is not None:
                hydrogens = int(h_part[1:]) if len(h_part) > 1 else 1
            add_atom(sym.upper() if sym.islower() else sym, sym.islower(),
                     _parse_charge(charge_part), hydrogens, pos, True)
            pos = end + 1
        elif text[pos:pos + 2] in ("Cl", "Br"):
            add_atom(text[pos:pos + 2], False, 0, 0, pos, False)
            pos += 2
        elif ch in "BCNOPSFI":
            add_atom(ch, False, 0, 0, pos, False)
            pos += 1
        elif ch in AROMATIC_SYMBOLS:
            add_atom(ch.upper(), True, 0, 0, pos, False)
            pos += 1
        elif ch in _BOND_CHARS:
            if prev is None:
                raise SmilesError("bond symbol before any atom", pos)
            if pending is not None:
                raise SmilesError("two consecutive bond symbols", pos)
            pending = _BOND_CHARS[ch]
            pending_pos = pos
            pos += 1
        elif ch == "(":
            if prev is None:
                raise SmilesError("branch opened before any atom", pos)
            if pending is not None:
                raise SmilesError("bond symbol directly before '('", pos)
            branch_stack.append(prev)
            pos += 1
        elif ch == ")":
            if not branch_stack:
                raise UnclosedBranchError("unmatched ')'", pos)
            if pending is not None:
                raise SmilesError("dangling bond symbol before ')'", pos)
            prev = branch_stack.pop()
            pos += 1
        elif ch in _DIGITS:
            ring(int(ch), pos)
            pos += 1
        elif ch == "%":
            digits = text[pos + 1:pos + 3]
            if len(digits) != 2 or not _DIGITS.issuperset(digits):
                raise UnsupportedTokenError(
                    "'%' ring closure needs two ASCII digits", pos)
            ring(int(digits), pos)
            pos += 3
        else:
            raise UnsupportedTokenError(f"unsupported token {ch!r}", pos)

    if pending is not None:
        raise SmilesError("dangling bond symbol at end of input", pending_pos)
    if branch_stack:
        raise UnclosedBranchError(f"{len(branch_stack)} unclosed branch(es)", n)
    if open_rings:
        raise UnmatchedRingBondError(
            f"unclosed ring bond(s): {sorted(open_rings)}", n)

    # Implicit hydrogens for organic-subset atoms; bracket atoms keep the
    # count written in the brackets (zero if omitted).
    order_sum = [0.0] * len(atoms)
    for bond in bonds:
        value = _BOND_VALUE[bond.order]
        order_sum[bond.a] += value
        order_sum[bond.b] += value
    for i, atom in enumerate(atoms):
        if bracketed[i]:
            continue
        needed = math.ceil(order_sum[i])
        atom.hydrogens = 0
        for valence in _VALENCES[atom.symbol]:
            if valence >= needed:
                atom.hydrogens = valence - needed
                break

    return Molecule(atoms, bonds)


# ---------------------------------------------------------------------- #
# featurisation
# ---------------------------------------------------------------------- #

# Fixed per-atom feature layout, in order:
#   element one-hot over ELEMENTS plus "other"   -> 11
#   heavy-atom degree one-hot 0..6               ->  7
#   formal charge one-hot -2..+2                 ->  5
#   attached-hydrogen one-hot 0..4               ->  5
#   aromatic flag                                ->  1
# Values outside a block's range clamp to its nearest edge so every
# one-hot block always sums to exactly one.
FEATURE_BLOCKS = {
    "element": (0, 11),
    "degree": (11, 18),
    "charge": (18, 23),
    "hydrogens": (23, 28),
}
AROMATIC_INDEX = 28
FEATURE_DIM = 29


@dataclass
class FeaturedGraph:
    """Per-drug node features (N x FEATURE_DIM) and binary adjacency (N x N)."""

    features: np.ndarray
    adjacency: np.ndarray

    @property
    def n_atoms(self) -> int:
        return self.features.shape[0]


def featurize(mol: Molecule) -> FeaturedGraph:
    """Encode a Molecule as a feature matrix and binary adjacency.

    All bond orders collapse to a single adjacency entry of 1; the
    adjacency is symmetric with a zero diagonal.
    """
    mol.validate()
    n = len(mol.atoms)
    features = np.zeros((n, FEATURE_DIM), dtype=np.float64)
    adjacency = np.zeros((n, n), dtype=np.float64)
    for bond in mol.bonds:
        adjacency[bond.a, bond.b] = 1.0
        adjacency[bond.b, bond.a] = 1.0

    degrees = mol.degrees()
    for i, atom in enumerate(mol.atoms):
        try:
            element = ELEMENTS.index(atom.symbol)
        except ValueError:
            element = 10  # "other"
        features[i, element] = 1.0
        features[i, 11 + min(degrees[i], 6)] = 1.0
        features[i, 18 + min(max(atom.formal_charge, -2), 2) + 2] = 1.0
        features[i, 23 + min(max(atom.hydrogens, 0), 4)] = 1.0
        if atom.aromatic:
            features[i, AROMATIC_INDEX] = 1.0
    return FeaturedGraph(features, adjacency)
