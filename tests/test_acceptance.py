"""End-to-end acceptance gate.

Each test covers one numbered release criterion and writes a single
PASS or FAIL line straight to the real stdout so the verdicts survive
pytest's capture. Oracles are deliberately independent of the library
code: straight-line numpy reimplementations, hand-computed literals,
or brute-force recomputation.
"""

import sys
import time
from pathlib import Path

import numpy as np

from molbridge import model as m
from molbridge.analysis import avg_shortest_path, depth_probe, quantile_boundaries
from molbridge.autodiff import grad_check
from molbridge.data import featurize_samples
from molbridge.joint import build_joint, refine
from molbridge.metrics import accumulate, macro_metrics, stratified_metrics
from molbridge.smiles import featurize, parse_smiles
from molbridge.splits import make_splits
from molbridge.synthetic import (
    make_balanced_dataset,
    make_drug_pool,
    make_imbalanced_dataset,
    make_pair_dataset,
)
from molbridge.train import TrainConfig, evaluate, train

import conftest
from conftest import CORPUS


def report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {criterion}] {verdict}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def toy_config(classes: int, seed: int) -> m.ModelConfig:
    return m.ModelConfig(dim=8, heads=2, layers=2, d_hid=16,
                         classes=classes, seed=seed)


def small_molecules(lo: int = 2, hi: int = 10) -> list:
    out = []
    for text in CORPUS:
        mol = parse_smiles(text)
        if lo <= len(mol.atoms) <= hi:
            out.append(featurize(mol))
    return out


def test_criterion_1_full_pipeline_gradients():
    """Analytic gradients of the whole pipeline against central
    differences on 20 random toy configurations."""
    t0 = time.perf_counter()
    graphs = small_molecules()
    rng = np.random.default_rng(1234)
    worst = 0.0
    n_checks = 20
    for trial in range(n_checks):
        g1, g2 = rng.choice(len(graphs), 2)
        label = trial % 3
        params = m.init_params(toy_config(3, seed=trial))

        def loss():
            logits = m.forward_pair(graphs[g1], graphs[g2], params)
            return m.cross_entropy_from_logits(logits, label)

        err = grad_check(loss, params.all())
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    report(1, ok, f"{n_checks} configs, max rel err {worst:.3e}, "
                  f"{elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 60.0


def test_criterion_2_forward_matches_numpy_oracle():
    """predict() against a straight-line numpy transcription of the
    forward pass on a two-atom / two-atom pair."""
    g1 = featurize(parse_smiles("CO"))
    g2 = featurize(parse_smiles("CN"))
    params = m.init_params(m.ModelConfig(dim=4, heads=2, layers=2,
                                         d_hid=8, classes=3, seed=123))
    got = m.predict(g1, g2, params)

    values = {name: p.value.copy() for name, p in params.named()}
    n1 = g1.features.shape[0]
    f = np.vstack([g1.features, g2.features])
    n = f.shape[0]
    a = np.zeros((n, n))
    a[:n1, :n1] = g1.adjacency
    a[n1:, n1:] = g2.adjacency

    h = f @ values["proj.weight"] + values["proj.bias"]
    heads, dim = 2, 4
    head_dim = dim // heads
    attn = np.zeros((n, n))
    for idx in range(heads):
        cols = slice(idx * head_dim, (idx + 1) * head_dim)
        q = h @ values["attn.q"][:, cols]
        k = h @ values["attn.k"][:, cols]
        scores = (q @ k.T) * (1.0 / np.sqrt(head_dim))
        shifted = scores - scores.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        attn += e / e.sum(axis=1, keepdims=True)
    attn *= 1.0 / heads
    alpha = 1.0 / (1.0 + np.exp(-values["alpha.theta"][0, 0]))
    comb = (1.0 - alpha) * a + alpha * attn

    def ln(x, gain, bias):
        mu = x.mean(axis=1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=1, keepdims=True)
        return centered / np.sqrt(var + 1e-5) * gain + bias

    trace = [h]
    for l in range(2):
        prev = trace[-1]
        x = ln((comb + np.eye(n)) @ prev,
               values[f"layer{l}.ln1.gain"],
               values[f"layer{l}.ln1.bias"]) + prev
        hidden = np.maximum(x @ values[f"layer{l}.ffn.w1"]
                            + values[f"layer{l}.ffn.b1"], 0.0)
        out = ln(hidden @ values[f"layer{l}.ffn.w2"]
                 + values[f"layer{l}.ffn.b2"] + x,
                 values[f"layer{l}.ln2.gain"],
                 values[f"layer{l}.ln2.bias"])
        trace.append(out)
    pooled = sum(t.sum(axis=0, keepdims=True) for t in trace)
    hidden = np.maximum(pooled @ values["head.w1"] + values["head.b1"], 0.0)
    logits = hidden @ values["head.w2"] + values["head.b2"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    expected = (e / e.sum(axis=1, keepdims=True))[0]

    gap = float(np.max(np.abs(got - expected)))
    ok = gap < 1e-10
    report(2, ok, f"max abs deviation {gap:.3e}")
    assert gap < 1e-10


def test_criterion_3_structural_invariants():
    """Block-diagonal joint adjacency, row-stochastic attention,
    normalized predictions, atom-order invariance on random pairs."""
    graphs = small_molecules(1, 12)
    rng = np.random.default_rng(99)
    params = m.init_params(toy_config(4, seed=5))
    block_ok = attn_ok = prob_ok = perm_ok = True

    for trial in range(100):
        i, j = rng.choice(len(graphs), 2)
        g1, g2 = graphs[i], graphs[j]
        joint = build_joint(g1, g2)
        b = g1.n_atoms
        if np.any(joint.adjacency[:b, b:]) or np.any(joint.adjacency[b:, :b]):
            block_ok = False
        refined = refine(joint, params.proj_w, params.proj_b, params.w_q,
                         params.w_k, params.config.heads, params.theta)
        rows = refined.attention.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-9:
            attn_ok = False
        probs = m.predict(g1, g2, params)
        if abs(probs.sum() - 1.0) > 1e-9 or np.any(probs < 0):
            prob_ok = False
        perm = rng.permutation(g1.features.shape[0])
        g1p = type(g1)(features=g1.features[perm],
                       adjacency=g1.adjacency[np.ix_(perm, perm)])
        if np.max(np.abs(m.predict(g1p, g2, params) - probs)) > 1e-9:
            perm_ok = False

    ok = block_ok and attn_ok and prob_ok and perm_ok
    report(3, ok, f"100 pairs: block_diag={block_ok} "
                  f"attention_rows={attn_ok} prob_sum={prob_ok} "
                  f"perm_invariant={perm_ok}")
    assert block_ok and attn_ok and prob_ok and perm_ok


def test_criterion_4_oversmoothing_separation():
    """At depth 8 the unnormalized probe must show the plain smoothing
    arm more collapsed than the layer stack in at least 95 of 100
    trials."""
    t0 = time.perf_counter()
    rep = depth_probe(42, max_depth=8, trials=100)
    wins = int(np.sum(rep.plain[:, -1] > rep.gformer[:, -1]))
    elapsed = time.perf_counter() - t0
    ok = wins >= 95 and elapsed < 120.0
    report(4, ok, f"plain more collapsed in {wins}/100 trials at depth 8, "
                  f"plain mean {rep.plain_mean[-1]:.3f} vs gformer "
                  f"{rep.gformer_mean[-1]:.3f}, {elapsed:.1f}s")
    assert wins >= 95
    assert elapsed < 120.0


def test_criterion_5_synthetic_four_class_training():
    """Default configuration on 200 balanced synthetic samples reaches
    95 percent training accuracy within 200 epochs."""
    t0 = time.perf_counter()
    samples = make_balanced_dataset(200, seed=11)
    plan = make_splits(samples, "transductive", fold=0, seed=42)
    config = TrainConfig(max_epochs=200)
    params, record = train(samples, plan, config)
    chosen = [samples[i] for i in plan.train]
    metrics = evaluate(params, featurize_samples(chosen),
                       [s.label for s in chosen], 4)
    elapsed = time.perf_counter() - t0
    acc = metrics["accuracy"]
    ok = acc >= 0.95 and elapsed < 300.0
    report(5, ok, f"train accuracy {acc:.3f} "
                  f"(best val epoch {record.best_epoch}), {elapsed:.1f}s")
    assert acc >= 0.95
    assert elapsed < 300.0


def test_criterion_6_metric_oracle():
    """Macro metrics against hand-computed literals, then stratified
    metrics against filter-then-recompute on 100 random trials."""
    hand = [
        ([0, 1], [0, 1],
         dict(accuracy=1.0, macro_precision=1.0, macro_recall=1.0,
              macro_f1=1.0), 2),
        ([0, 1, 1, 0], [0, 1, 0, 1],
         dict(accuracy=0.5, macro_precision=0.5, macro_recall=0.5,
              macro_f1=0.5), 2),
        ([0, 0, 2], [0, 1, 0],
         dict(accuracy=1 / 3, macro_precision=1 / 6, macro_recall=1 / 6,
              macro_f1=1 / 6), 3),
    ]
    hand_ok = True
    for preds, labels, expected, n_classes in hand:
        got = macro_metrics(accumulate(preds, labels, n_classes))
        for key, val in expected.items():
            if abs(got[key] - val) > 1e-9:
                hand_ok = False

    def brute_force(preds, labels, n_classes, subset):
        keep = [i for i, t in enumerate(labels) if t in subset]
        kp = [preds[i] for i in keep]
        kl = [labels[i] for i in keep]
        correct = sum(p == t for p, t in zip(kp, kl))
        per = []
        for c in sorted(set(subset)):
            tp = sum(p == c and t == c for p, t in zip(kp, kl))
            fp = sum(p == c and t != c for p, t in zip(kp, kl))
            fn = sum(p != c and t == c for p, t in zip(kp, kl))
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            per.append((prec, rec, f1))
        k = len(per)
        return dict(
            accuracy=correct / len(keep),
            macro_precision=sum(p for p, _, _ in per) / k,
            macro_recall=sum(r for _, r, _ in per) / k,
            macro_f1=sum(f for _, _, f in per) / k,
        )

    rng = np.random.default_rng(77)
    rand_ok = True
    for _ in range(100):
        n = int(rng.integers(8, 40))
        preds = rng.integers(0, 3, n).tolist()
        labels = rng.integers(0, 3, n).tolist()
        subset = sorted(rng.choice(3, int(rng.integers(1, 4)),
                                   replace=False).tolist())
        if not any(t in subset for t in labels):
            continue
        got = stratified_metrics(preds, labels, 3, subset)
        want = brute_force(preds, labels, 3, subset)
        for key in want:
            if abs(got[key] - want[key]) > 1e-9:
                rand_ok = False

    ok = hand_ok and rand_ok
    report(6, ok, f"hand_examples={hand_ok} randomized_subsets={rand_ok}")
    assert hand_ok and rand_ok


def test_criterion_7_split_guarantees():
    """Transductive folds partition the data at 7:1:2 within one
    sample; cold-start splits isolate held-out drugs, scanned over
    pool sizes 20 through 50."""
    trans_ok = True
    for n in (50, 53, 103):
        drugs = make_drug_pool(12)
        samples = make_pair_dataset(drugs, n, seed=n)
        seen_test = []
        for fold in range(5):
            plan = make_splits(samples, "transductive", fold, seed=4)
            tr, va, te = set(plan.train), set(plan.val), set(plan.test)
            if tr & va or tr & te or va & te:
                trans_ok = False
            if abs(len(te) - 0.2 * n) > 1 or abs(len(va) - 0.1 * n) > 1 \
                    or abs(len(tr) - 0.7 * n) > 1:
                trans_ok = False
            seen_test.extend(plan.test)
        if sorted(seen_test) != list(range(n)):
            trans_ok = False

    cold_ok = True
    for count in range(20, 51):
        drugs = make_drug_pool(count)
        samples = make_pair_dataset(drugs, 6 * count, seed=count)
        universe = sorted({s for x in samples
                           for s in (x.smiles_1, x.smiles_2)})
        order = np.random.default_rng(9).permutation(len(universe))
        unseen = {universe[i] for i in np.array_split(order, 5)[2]}
        for mode in ("s1", "s2"):
            plan = make_splits(samples, mode, fold=2, seed=9)
            train_drugs = set()
            for i in plan.train:
                train_drugs.update((samples[i].smiles_1,
                                    samples[i].smiles_2))
            for i in plan.train + plan.val:
                pair = {samples[i].smiles_1, samples[i].smiles_2}
                if pair & unseen:
                    cold_ok = False
            for i in plan.test:
                s = samples[i]
                hits = (s.smiles_1 in unseen) + (s.smiles_2 in unseen)
                if mode == "s1":
                    other = s.smiles_2 if s.smiles_1 in unseen else s.smiles_1
                    if hits != 1 or other not in train_drugs:
                        cold_ok = False
                else:
                    if hits != 2:
                        cold_ok = False

    ok = trans_ok and cold_ok
    report(7, ok, f"transductive={trans_ok} cold_start_scan_20_50={cold_ok}")
    assert trans_ok and cold_ok


def test_criterion_8_distance_tools_oracle():
    """Average path length against Floyd-Warshall on every corpus
    molecule of at most 12 atoms; quantile cuts against sort-and-split."""
    def floyd_warshall_mean(mol):
        n = len(mol.atoms)
        if n == 1:
            return 0.0
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
        for bond in mol.bonds:
            dist[bond.a, bond.b] = dist[bond.b, bond.a] = 1.0
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if dist[i, k] + dist[k, j] < dist[i, j]:
                        dist[i, j] = dist[i, k] + dist[k, j]
        upper = dist[np.triu_indices(n, k=1)]
        finite = upper[np.isfinite(upper)]
        return float(finite.mean()) if finite.size else 0.0

    path_ok = True
    checked = 0
    for text in CORPUS:
        mol = parse_smiles(text)
        if len(mol.atoms) > 12:
            continue
        if abs(avg_shortest_path(mol) - floyd_warshall_mean(mol)) > 1e-12:
            path_ok = False
        checked += 1

    rng = np.random.default_rng(13)
    quant_ok = True
    for _ in range(20):
        values = rng.normal(size=int(rng.integers(5, 60)))
        got = quantile_boundaries(values, 5)
        ordered = np.sort(values)
        want = [chunk[-1] for chunk in np.array_split(ordered, 5)[:-1]
                if chunk.size]
        if not np.array_equal(got, want):
            quant_ok = False

    ok = path_ok and checked >= 30 and quant_ok
    report(8, ok, f"floyd_warshall on {checked} molecules={path_ok} "
                  f"quantile_cuts={quant_ok}")
    assert path_ok and quant_ok
    assert checked >= 30


def test_criterion_9_smoke_run_beats_majority():
    """A 600-sample imbalanced run at default settings, capped at 50
    epochs, must beat the majority-class baseline on the test fold by
    at least five accuracy points, and the README must document the
    full-scale recipe."""
    t0 = time.perf_counter()
    samples = make_imbalanced_dataset(600, seed=3)
    plan = make_splits(samples, "transductive", fold=0, seed=42)
    config = TrainConfig(max_epochs=50)
    params, _ = train(samples, plan, config)
    n_classes = 1 + max(s.label for s in samples)

    train_labels = [samples[i].label for i in plan.train]
    majority_class = max(set(train_labels), key=train_labels.count)
    test_labels = [samples[i].label for i in plan.test]
    baseline = test_labels.count(majority_class) / len(test_labels)

    chosen = [samples[i] for i in plan.test]
    metrics = evaluate(params, featurize_samples(chosen), test_labels,
                       n_classes)
    elapsed = time.perf_counter() - t0

    readme = Path(__file__).resolve().parents[1] / "README.md"
    recipe_ok = readme.is_file() and "full-scale" in \
        readme.read_text().lower()

    margin = metrics["accuracy"] - baseline
    ok = margin >= 0.05 and recipe_ok
    report(9, ok, f"test accuracy {metrics['accuracy']:.3f} vs majority "
                  f"{baseline:.3f} (margin {margin:+.3f}), "
                  f"readme_recipe={recipe_ok}, {elapsed:.1f}s")
    assert margin >= 0.05
    assert recipe_ok
