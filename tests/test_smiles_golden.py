"""Parser equivalence: every SMILES outcome matches a recorded fixture.

``golden/parse_outcomes.json`` holds, for each input string, what
``parse_smiles`` and ``featurize`` gave when it was recorded: atoms,
bonds, feature one-hots and adjacency for a valid string; error class,
message and position for a rejected one. The inputs are the shared
test ``CORPUS``, the ``synthetic`` pools, seeded drug-sized strings from
the benchmark's corpus generator (valid and deliberately invalid), and
one string per parser error branch.

Regenerate (only when a parse outcome is meant to change) with

    PYTHONPATH=src python tests/test_smiles_golden.py
"""

import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from molbridge.data import featurize_samples, load_dataset
from molbridge.errors import SmilesError
from molbridge.smiles import (
    ATOM_CAP,
    FEATURE_DIM,
    featurize,
    featurize_smiles,
    parse_smiles,
)

from conftest import CORPUS

GOLDEN = Path(__file__).parent / "golden" / "parse_outcomes.json"

# One string per way the parser can reject its input.
ERROR_BRANCHES = [
    "C11",                  # ring bond joins an atom to itself
    "C12CC12",              # duplicate bond
    "C=1CC-1",              # conflicting ring-closure orders
    "C%1a",                 # malformed %nn
    "C\u00b2",              # non-ASCII digit
    "[Xe]",                 # unsupported bracket atom
    "[",                    # unterminated bracket
    "C(",                   # unclosed branch
    "C)",                   # unmatched ')'
    "=C",                   # bond before any atom
    "C==C",                 # two bond symbols
    "C=",                   # dangling bond at the end
    "C" * (ATOM_CAP + 1),   # atom cap
    "",                     # empty string
]

# Further edge cases: accepted oddities and the remaining error messages.
EDGE_CASES = [
    "1C", "%12C", "(C)", "C=(C)", "C(=)C", "C1C1", "C(C1)1", "C1=C1",
    "C=1CC=1", "C=1CC1", "C1CC=1", "C#1CC=1", "C%00CC0", "C%05CC5",
    "C12CC1C2", "C%1\u00b2", "C1CC\u0661", "[CH\u0663]", "[N+\u0662]",
    "[]", "C[", "[C]]", "C[NH2", "[NH4+]", "[O--]", "[N++]", "[C+0]",
    "[CH0]", "[cH]", "[nH]1cccc1", "[Cl-]", "[I+3]", "[BrH]", "[b]",
    "b1ccccc1", "[13C]", "[C@H]", "C@C", "C/C", "C.C", "C*", " C", "CC\n",
    "P(=O)(O)(O)O", "S(=O)(=O)(=O)=O", "C(C)(C)(C)(C)C", "N(=O)=O",
    "O=S=O", "c1ccccc1-c1ccccc1", "c1cc:c:c1", "C:C", "cc", "cC",
    "C" * ATOM_CAP + "[N]", "C" * (ATOM_CAP - 1) + "(C)", "C(C(C(C",
    "C1CC", "C1CC2", "CC)C", "C=C=C=C", "C#C#C", "ClBr", "Cl", "BrC",
    "Bc", "Cc", "CCl", "CBr", "Cb", "S(F)(F)(F)(F)(F)F",
    "C(C)(C)(C)(C)(C)(C)C", "P(F)(F)(F)(F)F",
]


def outcome(text: str) -> dict:
    """What parse_smiles and featurize make of text, as plain JSON data."""
    try:
        mol = parse_smiles(text)
    except SmilesError as exc:
        return {"error": type(exc).__name__, "message": str(exc),
                "position": exc.position}
    g = featurize(mol)
    assert g.features.dtype == np.float64 and g.adjacency.dtype == np.float64
    hot = [np.flatnonzero(row).tolist() for row in g.features]
    edges = [[int(i), int(j)] for i, j in zip(*np.nonzero(np.triu(g.adjacency)))]
    # the sparse record must say everything the dense arrays do
    dense = np.zeros_like(g.features)
    for i, cols in enumerate(hot):
        dense[i, cols] = 1.0
    adjacency = np.zeros_like(g.adjacency)
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = 1.0
    assert np.array_equal(dense, g.features), text
    assert np.array_equal(adjacency, g.adjacency), text
    return {
        "atoms": [[a.symbol, a.formal_charge, a.aromatic, a.hydrogens]
                  for a in mol.atoms],
        "bonds": [[b.a, b.b, b.order] for b in mol.bonds],
        "features": hot,
        "adjacency": edges,
    }


def load_golden() -> dict[str, dict]:
    return dict(json.loads(GOLDEN.read_text(encoding="utf-8")))


GOLDEN_CASES = load_golden() if GOLDEN.exists() else {}


class TestGolden:
    def test_fixture_covers_required_inputs(self):
        for text in [*CORPUS, *ERROR_BRANCHES]:
            assert text in GOLDEN_CASES, repr(text)
        assert sum("error" in o for o in GOLDEN_CASES.values()) >= 60
        assert sum("error" not in o for o in GOLDEN_CASES.values()) >= 150

    def test_error_branches_are_rejected(self):
        for text in ERROR_BRANCHES:
            assert "error" in GOLDEN_CASES[text], repr(text)

    def test_outcomes_unchanged(self):
        changed = [text for text, want in GOLDEN_CASES.items()
                   if outcome(text) != want]
        assert changed == []

    def test_one_pass_route_gives_the_same_arrays(self):
        for text, want in GOLDEN_CASES.items():
            if "error" in want:
                with pytest.raises(SmilesError, match=re.escape(want["message"])):
                    featurize_smiles(text)
                continue
            got, ref = featurize_smiles(text), featurize(parse_smiles(text))
            assert np.array_equal(got.features, ref.features), text
            assert np.array_equal(got.adjacency, ref.adjacency), text


# The SMILES alphabet the parser knows, plus a few characters it must
# reject: a non-ASCII digit, a stereo mark, a dot and a space.
ALPHABET = list("BCNOPSFIbcnops[]()=#-:+%0123456789H") + [
    "Cl", "Br", "\u00b2", "@", ".", " "]


@st.composite
def smiles_like(draw):
    return "".join(draw(st.lists(st.sampled_from(ALPHABET), max_size=24)))


@st.composite
def near_valid(draw):
    """Mostly valid strings: a CORPUS entry with one token spliced in."""
    base = draw(st.sampled_from(CORPUS))
    at = draw(st.integers(0, len(base)))
    token = draw(st.sampled_from(ALPHABET))
    return base[:at] + token + base[at:]


class TestScannerProperties:
    @given(st.one_of(smiles_like(), near_valid()))
    def test_parse_succeeds_or_names_a_position(self, text):
        try:
            mol = parse_smiles(text)
        except SmilesError as exc:
            assert exc.position is not None
            assert 0 <= exc.position <= len(text)
            assert f"(position {exc.position})" in str(exc)
            return
        assert 1 <= len(mol.atoms) <= ATOM_CAP
        g = featurize(mol)
        assert g.features.shape == (len(mol.atoms), FEATURE_DIM)

    @given(st.lists(st.tuples(st.one_of(smiles_like(), near_valid()),
                              st.one_of(smiles_like(), near_valid())),
                    min_size=1, max_size=12))
    def test_loader_quarantines_exactly_the_rejects(self, rows):
        rows = [(a.strip(), b.strip()) for a, b in rows]
        rows.append(("CC", "CO"))          # at least one usable row
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.csv"
            path.write_text("smiles_1,smiles_2,label\n" + "".join(
                f"{a},{b},{i % 3}\n" for i, (a, b) in enumerate(rows)),
                encoding="utf-8")
            result = load_dataset(path)

        def rejected(text):
            try:
                parse_smiles(text)
            except SmilesError as exc:
                return str(exc)
            return None

        reasons = [rejected(a) or rejected(b) for a, b in rows]
        assert {q.line: q.reason for q in result.quarantined} == {
            line: r for line, r in enumerate(reasons, start=2) if r is not None}
        assert [(s.smiles_1, s.smiles_2) for s in result.samples] == [
            row for row, r in zip(rows, reasons) if r is None]
        pairs = featurize_samples(result.samples)
        for sample, (g1, g2) in zip(result.samples, pairs):
            for text, g in ((sample.smiles_1, g1), (sample.smiles_2, g2)):
                ref = featurize(parse_smiles(text))
                assert np.array_equal(g.features, ref.features)
                assert np.array_equal(g.adjacency, ref.adjacency)


def write_golden() -> None:
    """Record the current outcomes for every fixture input."""
    import random
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import corpus
    from molbridge import synthetic

    rng = random.Random(913)
    drugs = [corpus.make_drug(rng, k)
             for k in corpus.spread_sizes(rng, 96, 3, corpus.ATOM_CAP)]
    invalid = [corpus.make_invalid(rng, d) for d in drugs[:32]]
    pools = [*synthetic.OXYGEN_POOL, *synthetic.NITROGEN_POOL,
             *synthetic.PLAIN_POOL]
    texts = list(dict.fromkeys(
        [*CORPUS, *pools, *drugs, *invalid, *ERROR_BRANCHES, *EDGE_CASES]))
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps([t, outcome(t)]) for t in texts)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"{GOLDEN}: {len(texts)} inputs")


if __name__ == "__main__":
    write_golden()
