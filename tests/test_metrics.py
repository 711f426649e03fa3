import numpy as np
import pytest
from hypothesis import given, strategies as st

from molbridge.errors import (
    EmptyMatrixError,
    EmptySubsetError,
    IndexOutOfRangeError,
    NoMatchingSamplesError,
)
from molbridge.metrics import (
    METRIC_KEYS,
    accumulate,
    format_metrics,
    grouped_metrics,
    macro_metrics,
    stratified_metrics,
)


class TestAccumulate:
    def test_perfect_predictions_diagonal(self):
        cm = accumulate([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert np.array_equal(cm, np.diag([1, 2, 1]))

    def test_empty_zero_matrix(self):
        cm = accumulate([], [], 2)
        assert cm.tolist() == [[0, 0], [0, 0]]

    def test_hand_tally(self):
        cm = accumulate([0, 1, 1], [0, 0, 1], 2)
        assert cm.tolist() == [[1, 1], [0, 1]]
        assert cm.dtype == np.int64

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            accumulate([2], [0], 2)
        with pytest.raises(IndexOutOfRangeError):
            accumulate([0], [-1], 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accumulate([0, 1], [0], 2)


class TestMacroMetrics:
    def test_diagonal_all_ones(self):
        values = macro_metrics(np.diag([3, 2, 5]))
        assert values == {"accuracy": 1.0, "macro_precision": 1.0,
                          "macro_recall": 1.0, "macro_f1": 1.0}

    def test_hand_computed_two_class(self):
        values = macro_metrics(np.array([[1, 1], [0, 1]]))
        assert abs(values["accuracy"] - 2 / 3) < 1e-9
        # class 0: P=1, R=1/2, F1=2/3; class 1: P=1/2, R=1, F1=2/3
        assert abs(values["macro_f1"] - 2 / 3) < 1e-9
        assert abs(values["macro_precision"] - 3 / 4) < 1e-9
        assert abs(values["macro_recall"] - 3 / 4) < 1e-9

    def test_absent_class_counts_as_zero(self):
        # all samples class 0 and correct, but C = 2
        values = macro_metrics(np.array([[4, 0], [0, 0]]))
        assert values["accuracy"] == 1.0
        assert values["macro_recall"] == 0.5
        assert values["macro_precision"] == 0.5
        assert values["macro_f1"] == 0.5

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrixError):
            macro_metrics(np.zeros((2, 2), dtype=np.int64))

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    min_size=1, max_size=60))
    def test_values_in_unit_interval_and_permutation_invariant(self, pairs):
        preds = [p for p, _ in pairs]
        labels = [t for _, t in pairs]
        values = macro_metrics(accumulate(preds, labels, 3))
        for v in values.values():
            assert 0.0 <= v <= 1.0
        rev = macro_metrics(accumulate(preds[::-1], labels[::-1], 3))
        assert values == rev


def brute_force_subset(preds, labels, n_classes, subset):
    """Filter samples, recompute per-class ratios, average over subset."""
    keep = [(p, t) for p, t in zip(preds, labels) if t in subset]
    correct = sum(1 for p, t in keep if p == t)
    per_class = {}
    for c in subset:
        tp = sum(1 for p, t in keep if p == c and t == c)
        pred_c = sum(1 for p, _ in keep if p == c)
        true_c = sum(1 for _, t in keep if t == c)
        precision = tp / pred_c if pred_c else 0.0
        recall = tp / true_c if true_c else 0.0
        f1 = 2 * precision * recall / (precision + recall) \
            if precision + recall else 0.0
        per_class[c] = (precision, recall, f1)
    k = len(subset)
    return {
        "accuracy": correct / len(keep),
        "macro_precision": sum(v[0] for v in per_class.values()) / k,
        "macro_recall": sum(v[1] for v in per_class.values()) / k,
        "macro_f1": sum(v[2] for v in per_class.values()) / k,
    }


class TestStratified:
    def test_full_subset_equals_macro(self):
        preds = [0, 1, 2, 2, 0, 1, 0]
        labels = [0, 1, 1, 2, 2, 1, 0]
        full = macro_metrics(accumulate(preds, labels, 3))
        strat = stratified_metrics(preds, labels, 3, [0, 1, 2])
        for key in full:
            assert abs(full[key] - strat[key]) < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(5, 40))
            preds = rng.integers(0, 3, n).tolist()
            labels = rng.integers(0, 3, n).tolist()
            subset = [0, 1]
            if not any(t in subset for t in labels):
                continue
            mine = stratified_metrics(preds, labels, 3, subset)
            oracle = brute_force_subset(preds, labels, 3, subset)
            for key in oracle:
                assert abs(mine[key] - oracle[key]) < 1e-12

    def test_empty_subset(self):
        with pytest.raises(EmptySubsetError):
            stratified_metrics([0], [0], 2, [])

    def test_no_matching_samples(self):
        with pytest.raises(NoMatchingSamplesError):
            stratified_metrics([0, 0], [0, 0], 2, [1])

    def test_subset_class_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            stratified_metrics([0], [0], 2, [5])


def check_grouped_against_stratified(sizes, seed):
    """grouped_metrics over groups of the given sizes (300 classes) gives
    each group stratified_metrics' floats, bit for bit."""
    rng = np.random.default_rng(seed)
    groups = np.repeat(np.arange(len(sizes)), sizes)
    rng.shuffle(groups)
    labels = rng.integers(0, 300, len(groups)).tolist()
    preds = [t if rng.random() < 0.4 else int(rng.integers(0, 300))
             for t in labels]
    got = grouped_metrics(preds, labels, 300, groups, len(sizes) + 1)
    assert got.shape == (len(sizes) + 1, len(METRIC_KEYS))
    assert not got[-1].any()
    for g, values in enumerate(got.tolist()):
        keep = np.flatnonzero(groups == g)
        if not len(keep):
            assert values == [0.0] * len(METRIC_KEYS)
            continue
        want = stratified_metrics(
            [preds[i] for i in keep], [labels[i] for i in keep], 300,
            {labels[i] for i in keep})
        assert tuple(want) == METRIC_KEYS
        assert [v.hex() for v in values] == [v.hex() for v in want.values()]


class TestGrouped:
    def test_bit_equal_to_stratified_per_group(self):
        # groups of 1 to 400 samples over 300 classes, so the class means
        # run over fewer than 8, up to 128 and more than 128 classes
        check_grouped_against_stratified([1, 3, 7, 9, 40, 400, 0, 2], 23)

    def test_bit_equal_when_groups_share_a_size(self):
        # several groups of each size, whose class means are taken together
        check_grouped_against_stratified(
            [9, 40, 1, 9, 200, 40, 0, 9, 1, 200, 3, 3, 40], 5)

    @pytest.mark.parametrize("pred, label", [(3, 0), (0, 3), (-1, 0)])
    def test_class_out_of_range(self, pred, label):
        with pytest.raises(IndexOutOfRangeError,
                           match=rf"\({label}, {pred}\) outside \[0, 3\)"):
            grouped_metrics([0, pred], [1, label], 3, [0, 1], 2)


class TestFormat:
    def test_key_value_lines(self):
        text = format_metrics({"accuracy": 0.5, "macro_precision": 0.25,
                               "macro_recall": 1.0, "macro_f1": 0.4})
        lines = text.splitlines()
        assert lines[0] == "accuracy=0.500000"
        assert len(lines) == 4
