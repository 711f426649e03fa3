import numpy as np
import pytest
from hypothesis import given, strategies as st

from molbridge.errors import (
    AtomCapExceededError,
    SmilesError,
    UnclosedBranchError,
    UnmatchedRingBondError,
    UnsupportedTokenError,
)
from molbridge.smiles import (
    ATOM_CAP,
    FEATURE_DIM,
    Molecule,
    featurize,
    parse_smiles,
)

from conftest import CORPUS


def bond_set(mol):
    return {(b.a, b.b) for b in mol.bonds}


class TestParse:
    def test_single_atom(self):
        mol = parse_smiles("C")
        assert len(mol.atoms) == 1
        assert mol.bonds == []
        assert mol.atoms[0].hydrogens == 4

    def test_chain(self):
        mol = parse_smiles("CCO")
        assert len(mol.atoms) == 3
        assert bond_set(mol) == {(0, 1), (1, 2)}
        assert [a.symbol for a in mol.atoms] == ["C", "C", "O"]
        # ethanol: CH3, CH2, OH
        assert [a.hydrogens for a in mol.atoms] == [3, 2, 1]

    def test_ring(self):
        mol = parse_smiles("C1CC1")
        assert len(mol.atoms) == 3
        assert bond_set(mol) == {(0, 1), (1, 2), (0, 2)}

    def test_percent_ring(self):
        mol = parse_smiles("C%12CC%12")
        assert bond_set(mol) == {(0, 1), (1, 2), (0, 2)}

    def test_branch(self):
        mol = parse_smiles("CC(C)C")
        assert bond_set(mol) == {(0, 1), (1, 2), (1, 3)}

    def test_bond_orders(self):
        mol = parse_smiles("C=C")
        assert mol.bonds[0].order == "double"
        assert [a.hydrogens for a in mol.atoms] == [2, 2]
        mol = parse_smiles("C#N")
        assert mol.bonds[0].order == "triple"
        assert mol.atoms[0].hydrogens == 1
        assert mol.atoms[1].hydrogens == 0

    def test_aromatic_ring(self):
        mol = parse_smiles("c1ccccc1")
        assert all(a.aromatic for a in mol.atoms)
        assert all(b.order == "aromatic" for b in mol.bonds)
        assert len(mol.bonds) == 6
        assert [a.hydrogens for a in mol.atoms] == [1] * 6

    def test_pyridine_nitrogen_has_no_h(self):
        mol = parse_smiles("c1ccncc1")
        n_atom = next(a for a in mol.atoms if a.symbol == "N")
        assert n_atom.aromatic
        assert n_atom.hydrogens == 0

    def test_bracket_atom(self):
        mol = parse_smiles("[NH4+]")
        atom = mol.atoms[0]
        assert atom.symbol == "N"
        assert atom.hydrogens == 4
        assert atom.formal_charge == 1

    def test_bracket_charges(self):
        assert parse_smiles("[O-]C").atoms[0].formal_charge == -1
        assert parse_smiles("[N+2]").atoms[0].formal_charge == 2
        assert parse_smiles("[O--]").atoms[0].formal_charge == -2

    def test_bracket_without_h(self):
        # explicit bracket means exactly the written hydrogens
        assert parse_smiles("[C]").atoms[0].hydrogens == 0

    def test_two_letter_elements(self):
        mol = parse_smiles("ClCBr")
        assert [a.symbol for a in mol.atoms] == ["Cl", "C", "Br"]
        assert [a.hydrogens for a in mol.atoms] == [0, 2, 0]

    def test_left_to_right_order(self):
        mol = parse_smiles("NCO")
        assert [a.symbol for a in mol.atoms] == ["N", "C", "O"]

    def test_sulfur_valences(self):
        # sulfoxide S has bond sum 4 -> valence 4 -> no H
        mol = parse_smiles("CS(=O)C")
        s_atom = next(a for a in mol.atoms if a.symbol == "S")
        assert s_atom.hydrogens == 0
        assert parse_smiles("S").atoms[0].hydrogens == 2

    def test_deterministic(self):
        for text in CORPUS:
            a, b = parse_smiles(text), parse_smiles(text)
            assert [vars(x) for x in a.atoms] == [vars(x) for x in b.atoms]
            assert [vars(x) for x in a.bonds] == [vars(x) for x in b.bonds]


class TestParseErrors:
    def test_unclosed_branch(self):
        with pytest.raises(UnclosedBranchError):
            parse_smiles("C(C")

    def test_unmatched_close(self):
        with pytest.raises(UnclosedBranchError):
            parse_smiles("CC)C")

    def test_unclosed_ring(self):
        with pytest.raises(UnmatchedRingBondError):
            parse_smiles("C1CC")

    def test_ring_order_conflict(self):
        with pytest.raises(UnmatchedRingBondError):
            parse_smiles("C=1CC#1")

    def test_duplicate_ring_bond(self):
        with pytest.raises(UnmatchedRingBondError):
            parse_smiles("C12C12")

    @pytest.mark.parametrize("text", ["C@C", "C/C=C", "[13C]", "C.C",
                                      "C*", "[Na+]", "[C@@H]"])
    def test_unsupported_tokens(self, text):
        with pytest.raises(UnsupportedTokenError):
            parse_smiles(text)

    # str.isdigit() and the regex class \d also accept these digits
    @pytest.mark.parametrize("text, position", [
        ("C\u00b2", 1),            # superscript two as a ring label
        ("C%1\u00b2", 1),          # ... as the second %nn digit
        ("C1CC\u0661", 4),         # Arabic-Indic one closing ring 1
        ("[CH\u0663]", 0),         # Arabic-Indic three as an H count
        ("[N+\u0662]", 0),         # Arabic-Indic two as a charge
    ])
    def test_non_ascii_digits(self, text, position):
        with pytest.raises(UnsupportedTokenError) as exc:
            parse_smiles(text)
        assert exc.value.position == position

    def test_error_reports_position(self):
        with pytest.raises(SmilesError) as exc:
            parse_smiles("CC*C")
        assert exc.value.position == 2
        assert "position 2" in str(exc.value)

    def test_empty(self):
        with pytest.raises(SmilesError):
            parse_smiles("")

    def test_dangling_bond(self):
        with pytest.raises(SmilesError):
            parse_smiles("CC=")

    def test_double_bond_symbol(self):
        with pytest.raises(SmilesError):
            parse_smiles("C==C")

    def test_atom_cap(self):
        assert len(parse_smiles("C" * ATOM_CAP).atoms) == ATOM_CAP
        with pytest.raises(AtomCapExceededError):
            parse_smiles("C" * (ATOM_CAP + 1))

    def test_unterminated_bracket(self):
        with pytest.raises(SmilesError):
            parse_smiles("C[NH2")

    def test_percent_needs_two_digits(self):
        with pytest.raises(SmilesError):
            parse_smiles("C%1CC")


class TestFeaturize:
    def test_single_atom(self):
        g = featurize(parse_smiles("C"))
        assert g.features.shape == (1, FEATURE_DIM)
        assert g.adjacency.tolist() == [[0.0]]

    def test_chain_adjacency(self):
        g = featurize(parse_smiles("CCO"))
        assert int(g.adjacency.sum()) == 4
        # middle atom has degree 2
        assert g.features[1, 11 + 2] == 1.0

    def test_one_hot_blocks(self):
        for text in CORPUS:
            g = featurize(parse_smiles(text))
            for start, end in ((0, 11), (11, 18), (18, 23), (23, 28)):
                sums = g.features[:, start:end].sum(axis=1)
                assert np.all(sums == 1.0), text

    def test_element_block(self):
        g = featurize(parse_smiles("CN"))
        assert g.features[0, 1] == 1.0   # C
        assert g.features[1, 2] == 1.0   # N

    def test_charge_block(self):
        g = featurize(parse_smiles("[NH4+]"))
        assert g.features[0, 18 + 3] == 1.0   # +1 maps past the -2..0 slots

    def test_aromatic_flag(self):
        g = featurize(parse_smiles("c1ccccc1"))
        assert np.all(g.features[:, 28] == 1.0)
        g = featurize(parse_smiles("CCC"))
        assert np.all(g.features[:, 28] == 0.0)

    def test_hydrogen_block_clamps(self):
        g = featurize(parse_smiles("C"))   # methane, 4 H
        assert g.features[0, 23 + 4] == 1.0

    def test_bond_orders_collapse(self):
        single = featurize(parse_smiles("CC")).adjacency
        double = featurize(parse_smiles("C=C")).adjacency
        assert np.array_equal(single, double)

    def test_adjacency_symmetric_zero_diagonal(self):
        for text in CORPUS:
            a = featurize(parse_smiles(text)).adjacency
            assert np.array_equal(a, a.T), text
            assert np.all(np.diag(a) == 0.0), text

    def test_row_sums_match_degree(self):
        for text in CORPUS:
            mol = parse_smiles(text)
            g = featurize(mol)
            assert g.adjacency.sum(axis=1).astype(int).tolist() == mol.degrees()

    def test_molecule_validation(self):
        from molbridge.smiles import Bond
        bad = Molecule(atoms=parse_smiles("CC").atoms,
                       bonds=[Bond(0, 0, "single")])
        with pytest.raises(ValueError):
            bad.validate()


@st.composite
def random_chain(draw):
    """Random branched chains over the organic subset."""
    n = draw(st.integers(1, 14))
    parts = []
    depth = 0
    for i in range(n):
        parts.append(draw(st.sampled_from(["C", "N", "O", "C", "C"])))
        if i < n - 1:
            step = draw(st.sampled_from(["", "", "=", "("]))
            if step == "(" and depth < 3 and i < n - 2:
                parts.append("(")
                depth += 1
            elif step == "=":
                parts.append("=")
        if depth and draw(st.booleans()):
            parts.append(")")
            depth -= 1
    parts.extend(")" * depth)
    return "".join(parts)


class TestProperties:
    @given(random_chain())
    def test_random_chains_parse_or_fail_cleanly(self, text):
        try:
            mol = parse_smiles(text)
        except SmilesError:
            return
        g = featurize(mol)
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert np.all(np.diag(g.adjacency) == 0.0)
        assert g.features.shape == (len(mol.atoms), FEATURE_DIM)

    @given(st.sampled_from(CORPUS))
    def test_corpus_roundtrip_features(self, text):
        g1 = featurize(parse_smiles(text))
        g2 = featurize(parse_smiles(text))
        assert np.array_equal(g1.features, g2.features)
        assert np.array_equal(g1.adjacency, g2.adjacency)
