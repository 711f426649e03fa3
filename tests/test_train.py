import numpy as np
import pytest

from molbridge import model as m
from molbridge.data import DDISample, featurize_samples
from molbridge.errors import NonFiniteActivationError, TrainingAbortedError
from molbridge.splits import SplitPlan, make_splits
from molbridge.synthetic import make_two_class_dataset
from molbridge.train import (
    EpochRecord,
    RunRecord,
    TrainConfig,
    evaluate,
    predict_labels,
    train,
)

SMALL = dict(batch_size=16, dim=8, heads=2, layers=2, d_hid=16)


def small_config(**over):
    return TrainConfig(**{**SMALL, **over})


@pytest.fixture(scope="module")
def dataset():
    return make_two_class_dataset(40, seed=1)


@pytest.fixture(scope="module")
def plan(dataset):
    return make_splits(dataset, "transductive", fold=0, seed=7)


class TestConfig:
    def test_rejects_unknown_selection(self):
        with pytest.raises(ValueError):
            TrainConfig(selection="loss")

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(dim=-3)

    @pytest.mark.parametrize("field, value", [
        ("lr", float("nan")), ("lr", float("inf")), ("lr", -0.1),
        ("weight_decay", float("nan")), ("weight_decay", float("inf")),
        ("weight_decay", -0.01),
    ])
    def test_rejects_bad_optimizer_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_zero_lr_allowed(self):
        assert TrainConfig(lr=0.0).lr == 0.0

    def test_model_config_passthrough(self):
        cfg = small_config().model_config(4)
        assert (cfg.dim, cfg.heads, cfg.layers, cfg.classes) == (8, 2, 2, 4)


class TestTraining:
    def test_zero_lr_keeps_init_params(self, dataset, plan):
        config = small_config(lr=0.0, max_epochs=3)
        params, record = train(dataset, plan, config)
        reference = m.init_params(config.model_config(2))
        for (name, p), (rname, r) in zip(params.named(), reference.named()):
            assert name == rname
            assert np.array_equal(p.value, r.value), name
        vals = [rec.val["accuracy"] for rec in record.epochs]
        assert len(set(vals)) == 1

    def test_deterministic_reruns(self, dataset, plan, tmp_path):
        config = small_config(max_epochs=3)
        _, rec_a = train(dataset, plan, config)
        _, rec_b = train(dataset, plan, config)
        assert [r.train_loss for r in rec_a.epochs] == \
            [r.train_loss for r in rec_b.epochs]
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        rec_a.write_csv(pa)
        rec_b.write_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_learns_two_class_rule(self, dataset):
        # drug-one oxygen presence decides the class; a small model
        # should separate the training pairs completely. Empty val set
        # so the final-epoch parameters come back unselected.
        full = SplitPlan("transductive", 0, 0,
                         train=list(range(len(dataset))), val=[], test=[])
        config = small_config(lr=0.01, max_epochs=60)
        params, record = train(dataset, full, config)
        from molbridge.data import featurize_samples
        pairs = featurize_samples(dataset)
        metrics = evaluate(params, pairs,
                           [s.label for s in dataset], 2)
        assert metrics["accuracy"] >= 0.95
        assert record.epochs[-1].train_loss < record.epochs[0].train_loss

    def test_best_epoch_tracks_first_max(self, dataset, plan):
        config = small_config(max_epochs=5)
        _, record = train(dataset, plan, config)
        vals = [r.val["accuracy"] for r in record.epochs]
        assert record.best_value == max(vals)
        assert record.best_epoch == vals.index(max(vals))

    def test_best_params_reproduce_best_val_metric(self, dataset, plan):
        config = small_config(lr=0.01, max_epochs=8)
        params, record = train(dataset, plan, config)
        from molbridge.data import featurize_samples
        val_samples = [dataset[i] for i in plan.val]
        metrics = evaluate(params, featurize_samples(val_samples),
                           [s.label for s in val_samples], 2)
        assert metrics["accuracy"] == pytest.approx(record.best_value)

    def test_empty_val_returns_final_params(self, dataset):
        plan = SplitPlan("transductive", 0, 0,
                         train=list(range(len(dataset))), val=[], test=[])
        config = small_config(max_epochs=2)
        _, record = train(dataset, plan, config)
        assert record.best_epoch == -1
        assert record.best_value == float("-inf")

    def test_bad_plan_index_rejected(self, dataset):
        plan = SplitPlan("transductive", 0, 0, train=[0, 999], val=[],
                         test=[])
        with pytest.raises(ValueError, match="999"):
            train(dataset, plan, small_config(max_epochs=1))

    def test_abort_names_epoch_and_batch(self, dataset, plan, monkeypatch):
        def explode(*args, **kwargs):
            raise NonFiniteActivationError("layer 0 produced nan")
        monkeypatch.setattr(m, "forward_chunk", explode)
        with pytest.raises(TrainingAbortedError,
                           match=r"epoch 0 batch 0"):
            train(dataset, plan, small_config(max_epochs=1))


class TestFinitenessGate:
    # one chunk of two pairs of 2 and 7 atoms: block 0 holds the smaller
    # pair, so of its rows 0-6 only 0 and 1 are real
    SAMPLES = [DDISample("C", "C", 0), DDISample("CCCC", "CCO", 1)]

    @staticmethod
    def plant(monkeypatch, layer, row):
        """Make GFormer layer `layer`'s output hold inf in row `row`."""
        run = m.gformer_layer

        def planted(f_prev, adjacency, p):
            out = run(f_prev, adjacency, p)
            if p.w1.name == f"layer{layer}.ffn.w1":
                out.value[row, 0] = np.inf
            return out

        monkeypatch.setattr(m, "gformer_layer", planted)

    # in the last layer's padding row, the head's ReLU turns the pooled
    # NaN into 0, so only the pooled rows show it
    WHERE = pytest.mark.parametrize("layer, row", [(0, 0), (0, 6), (1, 6)],
                                    ids=["real row", "padding row",
                                         "last layer"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @WHERE
    def test_batch_logits_raises(self, layer, row, monkeypatch):
        self.plant(monkeypatch, layer, row)
        params = m.init_params(small_config().model_config(2))
        with pytest.raises(NonFiniteActivationError):
            m.batch_logits(featurize_samples(self.SAMPLES), params)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @WHERE
    def test_train_aborts(self, layer, row, monkeypatch):
        self.plant(monkeypatch, layer, row)
        plan = SplitPlan("transductive", 0, 0, train=[0, 1], val=[], test=[])
        with pytest.raises(TrainingAbortedError, match=(
                "^epoch 0 batch 0: non-finite activations in the forward "
                "pass$")):
            train(self.SAMPLES, plan, small_config(max_epochs=1))


class TestEvalHelpers:
    def test_predict_labels_length_and_range(self, dataset):
        from molbridge.data import featurize_samples
        pairs = featurize_samples(dataset[:6])
        params = m.init_params(small_config().model_config(2))
        preds = predict_labels(params, pairs)
        assert len(preds) == 6
        assert all(p in (0, 1) for p in preds)

    def test_evaluate_reports_four_metrics(self, dataset):
        from molbridge.data import featurize_samples
        pairs = featurize_samples(dataset[:6])
        params = m.init_params(small_config().model_config(2))
        out = evaluate(params, pairs, [s.label for s in dataset[:6]], 2)
        assert sorted(out) == ["accuracy", "macro_f1",
                               "macro_precision", "macro_recall"]


class TestRunRecordCsv:
    def test_header_and_rows(self, tmp_path):
        record = RunRecord(config=TrainConfig())
        record.epochs.append(EpochRecord(0, 0.5, {
            "accuracy": 0.75, "macro_precision": 0.5,
            "macro_recall": 0.25, "macro_f1": 1 / 3}))
        path = tmp_path / "run.csv"
        record.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == \
            "epoch,train_loss,accuracy,macro_precision,macro_recall,macro_f1"
        assert lines[1].startswith("0,0.5,0.75,0.5,0.25,")
        assert repr(1 / 3) in lines[1]
