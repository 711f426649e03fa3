import itertools

from molbridge import synthetic
from molbridge.synthetic import (
    NITROGEN_POOL, OXYGEN_POOL, PLAIN_POOL, contains_element, pair_label)

POOLS = OXYGEN_POOL + NITROGEN_POOL + PLAIN_POOL


def test_pair_label_is_the_element_rule():
    for a, b in itertools.product(POOLS, repeat=2):
        has_o = contains_element(a, "O") or contains_element(b, "O")
        has_n = contains_element(a, "N") or contains_element(b, "N")
        assert pair_label(a, b) == 2 * has_o + has_n, (a, b)


def test_pair_label_parses_each_drug_once(monkeypatch):
    parsed = []
    parse = synthetic.parse_smiles

    def counted(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(synthetic, "parse_smiles", counted)
    for a, b in itertools.product(POOLS, repeat=2):
        parsed.clear()
        pair_label(a, b)
        assert parsed == [a, b]
