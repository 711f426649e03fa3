"""SMILES subset scanner, parser and atom featurisation.

Supported grammar: organic-subset atoms (B, C, N, O, P, S, F, Cl, Br, I),
lowercase aromatic atoms (b, c, n, o, p, s), bracket atoms with an explicit
hydrogen count and formal charge, bond symbols ``- = # :``, branches, and
ring closures (single digit or ``%nn``). Digits (ring labels, hydrogen
counts, charges) are ASCII ``0-9`` only. Stereochemistry (``/ \\ @``),
isotopes, wildcards, atom classes, and multi-fragment dots are rejected
with :class:`UnsupportedTokenError` rather than silently ignored.

There is one grammar implementation, :func:`scan_smiles`: a single pass
that checks the grammar and emits one integer code per atom and a flat
bond list, building no per-atom or per-bond object. Everything else is
an adapter over it. :func:`pack_scan` keeps a scan as one compact
record, which a caller can hold on to or send between processes instead
of scanning the text again; this module alone knows the record's layout
and decodes it. :func:`featurize_records` decodes many records at once,
their atom codes and bond keys concatenated with per-molecule offsets,
into one bool feature matrix and one bool adjacency buffer, of which
each molecule's arrays are views; :func:`featurize_smiles` is the batch of
one text. :func:`parse_smiles` turns a record into a :class:`Molecule`
for callers that walk atoms and bonds, and :func:`featurize` encodes a
Molecule with the same array builder, so every route gives identical
arrays.

Implicit hydrogens on organic-subset atoms follow the usual valence rule:
bond orders are summed (aromatic counts 1.5), rounded up, and the smallest
standard valence at or above that sum determines the hydrogen count.
Bracket atoms carry exactly the hydrogens written in the brackets.
"""

from __future__ import annotations

import re
import struct
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
OTHER_ELEMENT = len(ELEMENTS)          # feature slot for any other symbol
_ELEMENT_INDEX = {symbol: i for i, symbol in enumerate(ELEMENTS)}

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

# Bond orders are kept doubled so aromatic (1.5) stays an integer.
_ORDER2 = {"-": 2, "=": 4, "#": 6, ":": 3}
_ORDER_NAME = {2: "single", 4: "double", 6: "triple", 3: "aromatic"}

# Atom code: element index in bits 0-3, aromatic flag in bit 4, bracket
# flag in bit 5, bracket hydrogen count in bits 6-9, formal charge + 16
# in bits 10-14.
_AROMATIC = 1 << 4
_BRACKET = 1 << 5
_H_SHIFT = 6
_CHARGE_SHIFT = 10
_NEUTRAL = 16 << _CHARGE_SHIFT
_ORGANIC = {ch: _ELEMENT_INDEX[ch] | _NEUTRAL for ch in "BCNOPSFI"}
_ORGANIC.update({ch: _ELEMENT_INDEX[ch.upper()] | _AROMATIC | _NEUTRAL
                 for ch in "bcnops"})
_CHLORINE = _ELEMENT_INDEX["Cl"] | _NEUTRAL
_BROMINE = _ELEMENT_INDEX["Br"] | _NEUTRAL

# Implicit hydrogens by the low six code bits and the doubled bond-order
# sum: the smallest valence at or above the rounded-up sum, less the sum.
# Bracket rows are zero (their count is in the code); sums past the last
# column exceed every valence and give none.
_IMPLICIT_H = [[0] * 14 for _ in range(_BRACKET << 1)]
for _symbol, _valences in _VALENCES.items():
    _i = _ELEMENT_INDEX[_symbol]
    for _sum in range(14):
        _needed = (_sum + 1) // 2
        _IMPLICIT_H[_i][_sum] = _IMPLICIT_H[_i | _AROMATIC][_sum] = next(
            (v - _needed for v in _valences if v >= _needed), 0)
_IMPLICIT_H = np.array(_IMPLICIT_H, dtype=np.intp)

# symbol, optional hydrogen count, optional charge -- nothing else.
_BRACKET_RE = re.compile(r"^(Cl|Br|[BCNOPSFI]|[bcnops])(H[0-9]?)?(\+\+|--|[+-][0-9]?)?$")
# a bracket charge as int() reads it; "+2" and "-3" read as they are
_CHARGE_TEXT = {None: "0", "++": "2", "--": "-2", "+": "1", "-": "-1"}
# ASCII only: str.isdigit() and \d also accept other scripts' digits.
_DIGIT = {str(d): d for d in range(10)}
_INTEGER = re.compile(r"-?[0-9]+")


def parse_int(text: str) -> int:
    """A label or an integer setting: ASCII digits after an optional minus
    (int() also takes "+", "_", spaces and other scripts' digits)."""
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


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


def _bracket_code(body: str, pos: int) -> int:
    match = _BRACKET_RE.match(body)
    if match is None:
        raise UnsupportedTokenError(f"unsupported bracket atom [{body}]", pos)
    symbol, h_part, charge_part = match.groups()
    code = _ORGANIC.get(symbol)
    if code is None:
        code = _CHLORINE if symbol == "Cl" else _BROMINE
    hydrogens = 0 if h_part is None else int(h_part[1:] or 1)
    charge = int(_CHARGE_TEXT.get(charge_part, charge_part))
    return ((code | _BRACKET) + (hydrogens << _H_SHIFT)
            + (charge << _CHARGE_SHIFT))


def scan_smiles(text: str) -> tuple[list[int], list[int], list[int]]:
    """Check text against the documented subset in one pass.

    Returns ``(codes, bonds, orders)``: one atom code per atom in
    left-to-right order, and per bond its key ``a * ATOM_CAP + b``
    (``a < b``) and twice its order. Raises a :class:`SmilesError`
    subclass (with the offending position) on any input outside the
    subset.
    """
    if not text:
        raise SmilesError("empty SMILES string", 0)

    codes: list[int] = []
    bonds: list[int] = []
    orders: list[int] = []
    prev = -1                 # atom the next bond starts from
    pending = 0               # doubled order of a written bond symbol
    pending_pos = 0
    branches: list[int] = []
    rings: dict[int, int] = {}    # label -> opening atom * 8 + its order

    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        code = _ORGANIC.get(ch)
        if code is not None:
            width = 1
            if ch == "C" and text.startswith("l", pos + 1):
                code, width = _CHLORINE, 2
            elif ch == "B" and text.startswith("r", pos + 1):
                code, width = _BROMINE, 2
        elif ch == "[":
            end = text.find("]", pos)
            if end < 0:
                raise SmilesError("unterminated bracket atom", pos)
            code = _bracket_code(text[pos + 1:end], pos)
            width = end + 1 - pos
        else:
            label = _DIGIT.get(ch)
            if label is not None:
                width = 1
            elif ch == "%":
                digits = text[pos + 1:pos + 3]
                if (len(digits) != 2 or digits[0] not in _DIGIT
                        or digits[1] not in _DIGIT):
                    raise UnsupportedTokenError(
                        "'%' ring closure needs two ASCII digits", pos)
                label, width = int(digits), 3
            else:
                order = _ORDER2.get(ch)
                if order is not None:
                    if prev < 0:
                        raise SmilesError("bond symbol before any atom", pos)
                    if pending:
                        raise SmilesError("two consecutive bond symbols", pos)
                    pending, pending_pos = order, pos
                elif ch == "(":
                    if prev < 0:
                        raise SmilesError("branch opened before any atom", pos)
                    if pending:
                        raise SmilesError("bond symbol directly before '('", pos)
                    branches.append(prev)
                elif ch == ")":
                    if not branches:
                        raise UnclosedBranchError("unmatched ')'", pos)
                    if pending:
                        raise SmilesError("dangling bond symbol before ')'", pos)
                    prev = branches.pop()
                else:
                    raise UnsupportedTokenError(f"unsupported token {ch!r}", pos)
                pos += 1
                continue

            # ring-closure label
            if prev < 0:
                raise SmilesError("ring-closure digit before any atom", pos)
            opened = rings.pop(label, None)
            if opened is None:
                rings[label] = prev * 8 + pending
            else:
                other, written = divmod(opened, 8)
                if pending and written and pending != written:
                    raise UnmatchedRingBondError(
                        f"conflicting bond orders on ring closure {label}", pos)
                if other == prev:
                    raise UnmatchedRingBondError(
                        "ring bond joins an atom to itself", pos)
                a, b = (other, prev) if other < prev else (prev, other)
                key = a * ATOM_CAP + b
                if key in bonds:
                    raise UnmatchedRingBondError(
                        f"duplicate bond between atoms {(a, b)}", pos)
                bonds.append(key)
                orders.append(pending or written or (
                    3 if codes[other] & codes[prev] & _AROMATIC else 2))
            pending = 0
            pos += width
            continue

        # atom
        idx = len(codes)
        if idx >= ATOM_CAP:
            raise AtomCapExceededError(f"molecule exceeds {ATOM_CAP} atoms", pos)
        codes.append(code)
        if prev >= 0:
            bonds.append(prev * ATOM_CAP + idx)
            orders.append(pending or (
                3 if codes[prev] & code & _AROMATIC else 2))
        pending = 0
        prev = idx
        pos += width

    if pending:
        raise SmilesError("dangling bond symbol at end of input", pending_pos)
    if branches:
        raise UnclosedBranchError(f"{len(branches)} unclosed branch(es)", n)
    if rings:
        raise UnmatchedRingBondError(f"unclosed ring bond(s): {sorted(rings)}", n)
    return codes, bonds, orders


def pack_scan(scan: tuple[list[int], list[int], list[int]]) -> bytes:
    """A scan as one record: native uint16 words holding the atom count,
    then the atom codes, the bond keys and the doubled bond orders."""
    codes, bonds, orders = scan
    return struct.pack(f"{1 + len(codes) + 2 * len(bonds)}H", len(codes),
                       *codes, *bonds, *orders)


def _decode(records: list[bytes]):
    """Per-atom arrays (element, charge, hydrogens, aromatic) over the
    atoms of all records end to end, with implicit hydrogens filled in;
    bond ends (a, b) as indices into them; and each record's atom count."""
    words = np.frombuffer(b"".join(records), np.uint16).astype(np.intp)
    sizes = np.fromiter(map(len, records), np.intp, len(records)) // 2
    atoms = words[np.cumsum(sizes) - sizes]
    bonds = (sizes - 1 - atoms) // 2
    # each word's part of its record: 0 count, 1 code, 2 bond key, 3 order
    part = np.repeat(np.tile(np.arange(4), len(records)), np.column_stack(
        (np.ones_like(atoms), atoms, bonds, bonds)).ravel())
    code, keys, doubled = (words[part == k] for k in (1, 2, 3))
    a, b = np.divmod(keys, ATOM_CAP)
    shift = np.repeat(np.cumsum(atoms) - atoms, bonds)
    a += shift
    b += shift
    n = len(code)
    order_sum = (np.bincount(a, doubled, n)
                 + np.bincount(b, doubled, n)).astype(np.intp)
    hydrogens = (_IMPLICIT_H[code & (_BRACKET | _AROMATIC | 15),
                             np.minimum(order_sum, _IMPLICIT_H.shape[1] - 1)]
                 + ((code >> _H_SHIFT) & 15))
    charge = (code >> _CHARGE_SHIFT) - 16
    return code & 15, charge, hydrogens, (code >> 4) & 1, a, b, atoms


def parse_smiles(text: str) -> Molecule:
    """Parse a SMILES string from the documented subset into a Molecule.

    Atoms appear in left-to-right SMILES order. Raises a
    :class:`SmilesError` subclass (with the offending position) on any
    input outside the subset.
    """
    scan = scan_smiles(text)
    element, charge, hydrogens, aromatic, a, b, _ = _decode([pack_scan(scan)])
    atoms = [Atom(ELEMENTS[e], c, ar == 1, h) for e, c, ar, h in zip(
        element.tolist(), charge.tolist(), aromatic.tolist(), hydrogens.tolist())]
    return Molecule(atoms, [Bond(i, j, _ORDER_NAME[o]) for i, j, o in zip(
        a.tolist(), b.tolist(), scan[2])])


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
    """Per-drug one-hot node features (N x FEATURE_DIM) and bonded
    adjacency (N x N), both bool: a chunk casts them to its dtype."""

    features: np.ndarray
    adjacency: np.ndarray

    @property
    def n_atoms(self) -> int:
        return self.features.shape[0]


def _graphs(element, charge, hydrogens, aromatic, a, b,
            atoms) -> list[FeaturedGraph]:
    """One FeaturedGraph per molecule from per-atom arrays over the atoms
    of all molecules end to end, bond ends indexing them, and each
    molecule's atom count. The graphs' arrays are views of one bool feature
    matrix and one flat bool buffer holding each n x n adjacency in turn."""
    n = len(element)
    ends = np.cumsum(atoms)
    starts = ends - atoms
    blocks = np.cumsum(atoms * atoms) - atoms * atoms   # adjacency offsets
    # entry (i, j) of molecule m's block is at blocks[m] + (i - s) * w + j - s,
    # with s = starts[m] and w = atoms[m]
    m = np.searchsorted(ends, a, side="right")  # each bond's molecule
    w = atoms[m]
    base = blocks[m] - starts[m] * (w + 1)
    adjacency = np.zeros(atoms @ atoms, dtype=bool)
    adjacency[base + a * w + b] = True
    adjacency[base + b * w + a] = True
    degree = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    hot = np.stack((element,
                    FEATURE_BLOCKS["degree"][0] + np.minimum(degree, 6),
                    FEATURE_BLOCKS["charge"][0] + 2 + np.clip(charge, -2, 2),
                    FEATURE_BLOCKS["hydrogens"][0] + np.clip(hydrogens, 0, 4)),
                   axis=1)
    hot += np.arange(0, n * FEATURE_DIM, FEATURE_DIM)[:, None]
    features = np.zeros((n, FEATURE_DIM), dtype=bool)
    features.ravel()[hot.ravel()] = True
    features[:, AROMATIC_INDEX] = aromatic
    return [FeaturedGraph(features[s:e], adjacency[c:c + k * k].reshape(k, k))
            for s, e, c, k in zip(starts.tolist(), ends.tolist(),
                                  blocks.tolist(), atoms.tolist())]


def featurize_records(records: list[bytes]) -> list[FeaturedGraph]:
    """Decode the records of pack_scan and encode them all in one pass;
    the same arrays as ``featurize(parse_smiles(text))`` for each text,
    without building a Molecule."""
    return _graphs(*_decode(records))


def featurize_smiles(text: str) -> FeaturedGraph:
    """Scan text and featurize its record."""
    return featurize_records([pack_scan(scan_smiles(text))])[0]


def featurize(mol: Molecule) -> FeaturedGraph:
    """Encode a Molecule as a bool feature matrix and bool adjacency.

    All bond orders collapse to a single True adjacency entry; the
    adjacency is symmetric with a False diagonal.
    """
    mol.validate()
    atoms = np.array([(_ELEMENT_INDEX.get(x.symbol, OTHER_ELEMENT),
                       x.formal_charge, x.hydrogens, x.aromatic)
                      for x in mol.atoms], dtype=np.intp)
    ends = np.array([(x.a, x.b) for x in mol.bonds], dtype=np.intp)
    ends = ends.reshape(-1, 2)
    return _graphs(atoms[:, 0], atoms[:, 1], atoms[:, 2], atoms[:, 3],
                   ends[:, 0], ends[:, 1], np.array([len(atoms)]))[0]
