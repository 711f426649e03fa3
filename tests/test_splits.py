import numpy as np
import pytest
from hypothesis import given, strategies as st

from molbridge.data import DDISample
from molbridge.errors import InsufficientDrugsError
from molbridge.splits import N_FOLDS, SplitPlan, make_splits
from molbridge.synthetic import make_drug_pool, make_pair_dataset


def chain_samples(n):
    """n distinct samples over a generous drug pool."""
    drugs = make_drug_pool(30)
    return [DDISample(drugs[i % 30], drugs[(i * 7 + 1) % 30], i % 3)
            for i in range(n)]


class TestTransductive:
    def test_exact_ratio_on_ten(self):
        plan = make_splits(chain_samples(10), "transductive", 0, 42)
        assert (len(plan.train), len(plan.val), len(plan.test)) == (7, 1, 2)

    def test_deterministic(self):
        samples = chain_samples(40)
        a = make_splits(samples, "transductive", 2, 7)
        b = make_splits(samples, "transductive", 2, 7)
        assert (a.train, a.val, a.test) == (b.train, b.val, b.test)

    def test_folds_partition_tests(self):
        samples = chain_samples(103)
        seen = []
        for fold in range(N_FOLDS):
            plan = make_splits(samples, "transductive", fold, 13)
            seen.extend(plan.test)
        assert sorted(seen) == list(range(103))

    def test_each_fold_disjoint_cover(self):
        samples = chain_samples(53)
        for fold in range(N_FOLDS):
            plan = make_splits(samples, "transductive", fold, 3)
            combined = sorted(plan.train + plan.val + plan.test)
            assert combined == list(range(53))

    @given(st.integers(20, 120), st.integers(0, 4), st.integers(0, 1000))
    def test_ratio_within_rounding(self, n, fold, seed):
        plan = make_splits(chain_samples(n), "transductive", fold, seed)
        assert abs(len(plan.test) - n / 5) <= 1
        assert abs(len(plan.val) - n / 10) <= 1
        assert len(plan.train) + len(plan.val) + len(plan.test) == n

    def test_bad_fold(self):
        with pytest.raises(ValueError):
            make_splits(chain_samples(10), "transductive", 5, 0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            make_splits(chain_samples(10), "nope", 0, 0)


def drug_set(samples, indices):
    out = set()
    for i in indices:
        out.add(samples[i].smiles_1)
        out.add(samples[i].smiles_2)
    return out


class TestInductive:
    @pytest.mark.parametrize("n_drugs", [20, 35, 50])
    @pytest.mark.parametrize("fold", [0, 2, 4])
    def test_s1_exhaustive_scan(self, n_drugs, fold):
        drugs = make_drug_pool(n_drugs)
        samples = make_pair_dataset(drugs, 30 * n_drugs, seed=fold)
        plan = make_splits(samples, "s1", fold, 42)
        train_drugs = drug_set(samples, plan.train)
        for i in plan.test:
            s = samples[i]
            absent = (s.smiles_1 not in train_drugs) + \
                     (s.smiles_2 not in train_drugs)
            assert absent == 1

    @pytest.mark.parametrize("n_drugs", [20, 35, 50])
    @pytest.mark.parametrize("fold", [0, 2, 4])
    def test_s2_exhaustive_scan(self, n_drugs, fold):
        drugs = make_drug_pool(n_drugs)
        samples = make_pair_dataset(drugs, 30 * n_drugs, seed=fold)
        plan = make_splits(samples, "s2", fold, 42)
        train_drugs = drug_set(samples, plan.train)
        for i in plan.test:
            s = samples[i]
            assert s.smiles_1 not in train_drugs
            assert s.smiles_2 not in train_drugs

    def test_sets_disjoint(self):
        drugs = make_drug_pool(25)
        samples = make_pair_dataset(drugs, 600, seed=1)
        for mode in ("s1", "s2"):
            plan = make_splits(samples, mode, 1, 9)
            assert not set(plan.train) & set(plan.val)
            assert not set(plan.train) & set(plan.test)
            assert not set(plan.val) & set(plan.test)

    def test_deterministic(self):
        drugs = make_drug_pool(20)
        samples = make_pair_dataset(drugs, 300, seed=5)
        a = make_splits(samples, "s2", 3, 21)
        b = make_splits(samples, "s2", 3, 21)
        assert (a.train, a.val, a.test) == (b.train, b.val, b.test)

    def test_insufficient_drugs(self):
        samples = [DDISample("CC", "CCO", 0), DDISample("CCO", "CC", 1)]
        with pytest.raises(InsufficientDrugsError):
            make_splits(samples, "s2", 0, 0)

    def test_train_val_drugs_all_seen(self):
        # no train or val pair may touch an unseen drug
        drugs = make_drug_pool(24)
        samples = make_pair_dataset(drugs, 500, seed=2)
        plan = make_splits(samples, "s1", 0, 11)
        test_only = set()
        for i in plan.test:
            s = samples[i]
            train_drugs = drug_set(samples, plan.train)
            if s.smiles_1 not in train_drugs:
                test_only.add(s.smiles_1)
            else:
                test_only.add(s.smiles_2)
        for i in plan.train + plan.val:
            s = samples[i]
            assert s.smiles_1 not in test_only
            assert s.smiles_2 not in test_only


def row_loop_plan(samples, mode, fold, seed):
    """The cold-start rules written as loops over the rows' SMILES: the
    reference the drug-index masks of make_splits must match; a refusal
    comes back as its message."""
    drugs = sorted({s.smiles_1 for s in samples} | {s.smiles_2 for s in samples})
    if len(drugs) < N_FOLDS:
        return f"{mode} split needs at least {N_FOLDS} distinct drugs, " \
            f"have {len(drugs)}"
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(drugs))
    unseen = {drugs[i] for i in np.array_split(order, N_FOLDS)[fold]}
    seen_pairs = [i for i, s in enumerate(samples)
                  if s.smiles_1 not in unseen and s.smiles_2 not in unseen]
    if not seen_pairs:
        return f"{mode} fold {fold}: no fully seen pairs"
    seen_perm = rng.permutation(len(seen_pairs))
    n_val = len(seen_pairs) // 8
    val = [seen_pairs[i] for i in seen_perm[:n_val]]
    train = [seen_pairs[i] for i in seen_perm[n_val:]]
    if not train:
        return f"{mode} fold {fold}: empty train set"
    train_drugs = drug_set(samples, train)
    test = []
    for i, s in enumerate(samples):
        in_unseen = (s.smiles_1 in unseen) + (s.smiles_2 in unseen)
        if mode == "s1" and in_unseen == 1:
            other = s.smiles_2 if s.smiles_1 in unseen else s.smiles_1
            if other in train_drugs:
                test.append(i)
        elif mode == "s2" and in_unseen == 2:
            test.append(i)
    if not test:
        return f"{mode} fold {fold}: no test pairs satisfy the cold-start rule"
    return SplitPlan(mode, fold, seed, train, val, test)


class TestInductiveReference:
    @given(st.integers(3, 30), st.integers(1, 120), st.integers(0, 4),
           st.integers(0, 10**6), st.sampled_from(["s1", "s2"]))
    def test_equals_the_row_loop(self, n_drugs, n_rows, fold, seed, mode):
        rng = np.random.default_rng(seed)
        drugs = make_drug_pool(n_drugs)
        samples = [DDISample(drugs[a], drugs[b], int(c)) for a, b, c in
                   rng.integers(0, [n_drugs, n_drugs, 4], (n_rows, 3))]
        want = row_loop_plan(samples, mode, fold, seed)
        try:
            got = make_splits(samples, mode, fold, seed)
        except InsufficientDrugsError as exc:
            got = str(exc)
        assert got == want
