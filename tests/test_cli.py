import json
import struct
import time

import numpy as np
import pytest

from molbridge import analysis, cli
from molbridge.checkpoint import load_checkpoint, save_checkpoint
from molbridge.cli import main, read_config_file
from molbridge.data import dataset_digest, featurize_samples, load_dataset
from molbridge.errors import MolBridgeError
from molbridge.metrics import (
    accumulate, format_metrics, macro_metrics, stratified_metrics)
from molbridge.model import ModelParams
from molbridge.synthetic import make_two_class_dataset, write_dataset
from molbridge.train import TrainConfig, predict_labels

from conftest import record_chunks, run_cli, save_unchecked

TRAIN_FLAGS = ["--epochs", "2", "--dim", "8", "--heads", "2",
               "--batch", "16", "--layers", "2", "--d-hid", "16"]


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "pairs.csv"
    write_dataset(make_two_class_dataset(40, seed=1), path)
    return path


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_path):
    out = tmp_path_factory.mktemp("runs") / "base"
    code = main(["train", "--data", str(data_path), *TRAIN_FLAGS,
                 "--out", str(out)])
    assert code == 0
    return out


def read_manifest(run_dir):
    """A manifest's command and config; it also holds exactly the outputs,
    the BLAS thread variables, the helper process count and a creation
    time."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert set(manifest) == {"command", "config", "outputs", "blas_threads",
                             "processes", "created_utc"}
    return manifest["command"], manifest["config"]


class TestTrainCommand:
    def test_outputs_present(self, run_dir):
        assert (run_dir / "best.ckpt").is_file()
        assert (run_dir / "runrecord.csv").is_file()
        assert (run_dir / "manifest.json").is_file()

    def test_manifest_records_digest_and_config(self, run_dir, data_path):
        assert read_manifest(run_dir) == ("train", {
            "data": str(data_path), "dataset_digest": dataset_digest(data_path),
            "mode": "transductive", "fold": 0, "seed": 42, "epochs": 2,
            "batch": 16, "lr": 0.005, "dim": 8, "layers": 2, "heads": 2,
            "d_hid": 16, "weight_decay": 0.01, "selection": "accuracy"})
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["outputs"] == {"checkpoint": "best.ckpt",
                                       "runrecord": "runrecord.csv"}

    def test_manifest_without_setting_flags_records_defaults(self, tmp_path,
                                                              capsys):
        data = tmp_path / "two.csv"
        write_dataset(make_two_class_dataset(2, seed=1), data)
        out = tmp_path / "defaults"
        assert main(["train", "--data", str(data), "--out", str(out)]) == 0
        capsys.readouterr()
        d = TrainConfig()
        assert read_manifest(out) == ("train", {
            "data": str(data), "dataset_digest": dataset_digest(data),
            "mode": "transductive", "fold": 0, "seed": d.seed,
            "epochs": d.max_epochs, "batch": d.batch_size, "lr": d.lr,
            "dim": d.dim, "layers": d.layers, "heads": d.heads,
            "d_hid": d.d_hid, "weight_decay": d.weight_decay,
            "selection": d.selection})

    def test_rerun_reproduces_runrecord_bytes(self, run_dir, data_path,
                                              tmp_path):
        out2 = tmp_path / "again"
        assert main(["train", "--data", str(data_path), *TRAIN_FLAGS,
                     "--out", str(out2)]) == 0
        for name in ("runrecord.csv", "best.ckpt"):
            assert (out2 / name).read_bytes() == (run_dir / name).read_bytes()

    def test_flag_beats_config_file(self, data_path, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("lr = 0.25\nepochs = 2\ndim = 8\nheads = 2\n"
                       "batch = 16\nlayers = 2\nd_hid = 16\n# comment\n"
                       "mode = s1\nfold = 2\nseed = 7\nweight_decay = 0.5\n"
                       "selection = macro_f1\n")
        out = tmp_path / "cfg-run"
        assert main(["train", "--data", str(data_path), "--config",
                     str(cfg), "--lr", "0.125", "--layers", "1",
                     "--out", str(out)]) == 0
        assert read_manifest(out) == ("train", {
            "data": str(data_path), "dataset_digest": dataset_digest(data_path),
            "mode": "s1", "fold": 2, "seed": 7, "epochs": 2, "batch": 16,
            "lr": 0.125, "dim": 8, "layers": 1, "heads": 2, "d_hid": 16,
            "weight_decay": 0.5, "selection": "macro_f1"})

    def test_no_validation_rows_writes_strict_json(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        write_dataset(make_two_class_dataset(2, seed=1), data)
        out = tmp_path / "tiny"
        assert main(["train", "--data", str(data), *TRAIN_FLAGS,
                     "--epochs", "1", "--out", str(out)]) == 0
        raw = (out / "best.ckpt").read_bytes()
        (header_len,) = struct.unpack("<I", raw[12:16])

        def reject(token):
            raise ValueError(token)

        header = json.loads(raw[16:16 + header_len], parse_constant=reject)
        assert header["extra"]["best_value"] is None
        assert header["extra"]["best_epoch"] is None
        printed = capsys.readouterr().out
        assert "no validation rows" in printed
        assert "kept the last epoch" in printed

    def test_empty_train_split_is_runtime_error(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        write_dataset(make_two_class_dataset(1, seed=1), data)
        assert main(["train", "--data", str(data), *TRAIN_FLAGS,
                     "--out", str(tmp_path / "o")]) == 1
        assert "train split" in capsys.readouterr().err

    def test_label_above_class_cap_fails_fast(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        data.write_text("smiles_1,smiles_2,label\nCCO,CN,0\nCC,CO,100000000\n")
        start = time.perf_counter()
        assert main(["train", "--data", str(data), *TRAIN_FLAGS,
                     "--out", str(tmp_path / "o")]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "huge.csv:3" in err and "100000000" in err

    def test_non_ascii_digit_row_is_quarantined(self, tmp_path, capsys):
        data = tmp_path / "digits.csv"
        write_dataset(make_two_class_dataset(40, seed=1), data)
        with open(data, "a", encoding="utf-8") as fh:
            fh.write("C\u00b2,CCO,1\n")            # line 42
        assert main(["train", "--data", str(data), *TRAIN_FLAGS,
                     "--epochs", "1", "--out", str(tmp_path / "o")]) == 0
        err = capsys.readouterr().err
        assert "quarantined line 42" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags, text", [
        (["--dim", "30", "--heads", "4"], "4 heads do not divide dim 30"),
        (["--d-hid", "4000000000"], "values, cap is 16777216"),
        (["--config", "model.cfg"], "4 heads do not divide dim 30")],
        ids=["heads", "d_hid", "config"])
    def test_bad_model_is_usage_error_before_data_is_read(
            self, flags, text, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "model.cfg").write_text("dim=30\nheads=4\n")
        write_dataset(make_two_class_dataset(40, seed=1), "pairs.csv")
        with open("pairs.csv", "a", encoding="utf-8") as fh:
            fh.write("C\u00b2,CCO,1\n")            # quarantined if read
        assert main(["train", "--data", "pairs.csv", *flags,
                     "--out", "run"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and text in err
        assert "quarantined" not in err
        assert not (tmp_path / "run").exists()

    def test_config_file_value_checked_like_flag(self, data_path, tmp_path,
                                                 capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("batch = 0\n")
        assert main(["train", "--data", str(data_path), "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "at least 1" in err
        assert f"{cfg}:1: batch: " in err
        assert not (tmp_path / "o").exists()

    def test_config_file_bad_float_names_key_and_line(self, data_path,
                                                      tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs = 2\nlr = abc\n")
        assert main(["train", "--data", str(data_path), "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"error: {cfg}:2: lr: could not convert" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_config_file_seed_checked_like_flag(self, data_path, tmp_path,
                                                capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("seed = -1\n")
        assert main(["train", "--data", str(data_path), "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "at least 0" in err and "Traceback" not in err
        assert f"{cfg}:1: seed: " in err
        assert not (tmp_path / "o").exists()
        # the line a key sits on, past blank and comment lines
        cfg.write_text("epochs = 2\n\n# seed below\nseed = -1\n")
        assert main(["train", "--data", str(data_path), "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"{cfg}:4: seed: must be at least 0, got -1" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_d_hid_is_usage_error(self, source, data_path, tmp_path,
                                           capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("d_hid = -1\n")
        flags = (["--d-hid", "-1"] if source == "flag"
                 else ["--config", str(cfg)])
        assert main(["train", "--data", str(data_path), *flags,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert "must be at least 0, got -1" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["1_0", "\u0663", "+2"])
    def test_config_file_integer_takes_only_ascii_decimal(
            self, value, data_path, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"seed = {value}\n", encoding="utf-8")
        assert main(["train", "--data", str(data_path), "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == \
            f"error: {cfg}:1: seed: expected an integer, got {value!r}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line, message", [
        ("mode = s3", "mode: must be one of ('transductive', 's1', 's2'), "
                      "got 's3'"),
        ("selection = loss", "selection: must be one of ('accuracy', "
                             "'macro_f1'), got 'loss'"),
    ], ids=["mode", "selection"])
    def test_config_file_choice_checked_like_flag(self, line, message,
                                                  data_path, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"epochs = 2\n{line}\n")
        assert main(["train", "--data", str(data_path), "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, text", [
        ("weight_decay", "nan"), ("lr", "-1"), ("lr", "inf")])
    def test_config_file_rate_checked_like_flag(self, key, text, data_path,
                                                tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"epochs = 2\n{key} = {text}\n")
        assert main(["train", "--data", str(data_path), "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: {key}: must be finite and non-negative, "
            f"got {float(text)}\n")
        assert not (tmp_path / "o").exists()

    def test_config_lines_break_only_at_newlines(self, tmp_path, capsys):
        # a form feed inside a comment does not start a new line
        cfg = tmp_path / "train.cfg"
        cfg.write_text("# a form feed \x0c inside a comment\nepoch = 1\n")
        assert main(["train", "--data", str(tmp_path / "absent.csv"),
                     "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "train.cfg:2" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs = 2\n# epochs, misspelled:\nepoch = 1\n")
        # the data file does not exist: the key must be refused before
        # anything is loaded (a load would exit 1) or written
        assert main(["train", "--data", str(tmp_path / "absent.csv"),
                     "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "train.cfg:3" in err and "'epoch'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_missing_data_flag_is_usage_error(self):
        assert main(["train"]) == 2

    def test_absent_dataset_file_is_runtime_error(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err


class TestBadInputBytes:
    """Bytes a data or config file must not hold end in an error line and
    exit 1, never a traceback, and nothing is written."""

    @staticmethod
    def check_runtime_error(argv, out, capsys, where):
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_non_utf8_data_file(self, command, run_dir, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"smiles_1,smiles_2,label\nCCO,CN,0\nC\xe9,CC,1\n")
        argv = [command, "--data", str(data)]
        if command == "eval":
            argv += ["--checkpoint", str(run_dir / "best.ckpt")]
        self.check_runtime_error(argv, tmp_path / "o", capsys,
                                 "latin1.csv:3: not UTF-8")

    def test_csv_field_over_size_limit(self, tmp_path, capsys):
        data = tmp_path / "wide.csv"
        data.write_text("smiles_1,smiles_2,label\nCCO,CN,0\n"
                        f"CC,{'C' * 131073},1\n")
        self.check_runtime_error(["train", "--data", str(data)],
                                 tmp_path / "o", capsys, "wide.csv:3: field larger")

    def test_non_utf8_config_file(self, data_path, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"epochs = 2\n# r\xe9sum\xe9\n")
        self.check_runtime_error(
            ["train", "--data", str(data_path), "--config", str(cfg)],
            tmp_path / "o", capsys, "latin1.cfg:2: not UTF-8")


class TestEvalCommand:
    def test_prints_four_metrics(self, run_dir, data_path, capsys):
        code = main(["eval", "--checkpoint", str(run_dir / "best.ckpt"),
                     "--data", str(data_path), "--split", "test"])
        assert code == 0
        out = capsys.readouterr().out
        for key in ("accuracy=", "macro_precision=", "macro_recall=",
                    "macro_f1="):
            assert key in out

    def test_label_subset(self, run_dir, data_path, capsys):
        code = main(["eval", "--checkpoint", str(run_dir / "best.ckpt"),
                     "--data", str(data_path), "--split", "all",
                     "--labels", "0"])
        assert code == 0
        assert "accuracy=" in capsys.readouterr().out

    def test_empty_label_list_is_usage_error(self, run_dir, data_path,
                                             capsys):
        code = main(["eval", "--checkpoint", str(run_dir / "best.ckpt"),
                     "--data", str(data_path), "--labels", ","])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_non_integer_label_is_usage_error(self, run_dir, data_path,
                                              capsys):
        code = main(["eval", "--checkpoint", str(run_dir / "best.ckpt"),
                     "--data", str(data_path), "--labels", "x,1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    # int() reads these as 10, 3 and 1
    @pytest.mark.parametrize("labels", ["0,1_0", "\u0663", "+1"])
    def test_label_takes_only_ascii_decimal(self, run_dir, data_path,
                                            labels, capsys):
        code = main(["eval", "--checkpoint", str(run_dir / "best.ckpt"),
                     "--data", str(data_path), "--labels", labels])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --labels must name at least one class as "
            "comma-separated integers\n")

    def test_writes_metrics_file_when_out_given(self, run_dir, data_path,
                                                tmp_path, capsys):
        out = tmp_path / "evalrun"
        code = main(["eval", "--checkpoint", str(run_dir / "best.ckpt"),
                     "--data", str(data_path), "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        assert (out / "metrics.txt").read_text().startswith("accuracy=")
        assert read_manifest(out) == ("eval", {
            "checkpoint": str(run_dir / "best.ckpt"), "data": str(data_path),
            "dataset_digest": dataset_digest(data_path), "split": "test",
            "mode": "transductive", "fold": 0, "seed": 42, "labels": None})

    def test_manifest_records_given_flags(self, run_dir, data_path,
                                          tmp_path, capsys):
        out = tmp_path / "evalrun"
        assert main(["eval", "--checkpoint", str(run_dir / "best.ckpt"),
                     "--data", str(data_path), "--split", "val", "--mode",
                     "s2", "--fold", "3", "--seed", "5", "--labels", "0,1",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert read_manifest(out) == ("eval", {
            "checkpoint": str(run_dir / "best.ckpt"), "data": str(data_path),
            "dataset_digest": dataset_digest(data_path), "split": "val",
            "mode": "s2", "fold": 3, "seed": 5, "labels": "0,1"})

    @pytest.mark.parametrize("command", [["eval"], ["analyze", "distance"]],
                             ids=["eval", "distance"])
    def test_label_past_checkpoint_classes_fails_before_scoring(
            self, command, run_dir, data_path, tmp_path, monkeypatch, capsys):
        wide = tmp_path / "wide.csv"
        wide.write_text(data_path.read_text() + "CCO,CCN,85\nCC,CO,7\n")

        def scored(*args, **kwargs):
            raise AssertionError("the split was scored")

        monkeypatch.setattr("molbridge.train.predict_labels", scored)
        assert main([*command, "--checkpoint", str(run_dir / "best.ckpt"),
                     "--data", str(wide), "--split", "all",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == \
            "error: label 85 is outside the checkpoint's 2 classes\n"
        assert not (tmp_path / "out").exists()

    def test_subset_past_checkpoint_classes_fails_before_scoring(
            self, run_dir, data_path, tmp_path, monkeypatch, capsys):
        def scored(*args, **kwargs):
            raise AssertionError("the split was featurized or scored")

        monkeypatch.setattr("molbridge.data.featurize_samples", scored)
        monkeypatch.setattr("molbridge.train.predict_labels", scored)
        assert main(["eval", "--checkpoint", str(run_dir / "best.ckpt"),
                     "--data", str(data_path), "--split", "all",
                     "--labels", "1,9,3", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == \
            "error: subset class 3 outside [0, 2)\n"
        assert not (tmp_path / "out").exists()

    def test_subset_no_row_is_in_fails_before_scoring(
            self, run_dir, tmp_path, monkeypatch, capsys):
        one_class = tmp_path / "zeros.csv"
        one_class.write_text("smiles_1,smiles_2,label\n"
                             "CCO,CCN,0\nCC,CO,0\nCCC,C=O,0\n")

        def scored(*args, **kwargs):
            raise AssertionError("the split was featurized or scored")

        monkeypatch.setattr("molbridge.data.featurize_samples", scored)
        monkeypatch.setattr("molbridge.train.predict_labels", scored)
        assert main(["eval", "--checkpoint", str(run_dir / "best.ckpt"),
                     "--data", str(one_class), "--split", "all",
                     "--labels", "1", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == \
            "error: no samples with true label in [1]\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["eval"], ["analyze", "distance"]],
                             ids=["eval", "distance"])
    def test_quarantined_rows_reported(self, command, run_dir, data_path,
                                       tmp_path, capsys):
        argv = [*command, "--checkpoint", str(run_dir / "best.ckpt"),
                "--split", "all", "--out", str(tmp_path / "o")]
        assert main([*argv, "--data", str(data_path)]) == 0
        clean = capsys.readouterr()
        assert clean.err == ""
        starred = tmp_path / "starred.csv"
        starred.write_text(data_path.read_text() + "C*,CCO,1\n")   # line 42
        assert main([*argv, "--data", str(starred)]) == 0
        got = capsys.readouterr()
        assert got.out == clean.out
        assert got.err == \
            "quarantined line 42: unsupported token '*' (position 1)\n"

    @pytest.mark.parametrize("command, report", [
        (["eval"], "metrics.txt"), (["analyze", "distance"], "distance.csv")],
        ids=["eval", "distance"])
    def test_empty_split_is_one_error_line(self, command, report, run_dir,
                                           tmp_path, capsys):
        # three rows: the transductive fold-0 split has no validation row
        data = tmp_path / "three.csv"
        write_dataset(make_two_class_dataset(3, seed=1), data)
        out = tmp_path / "o"
        assert main([*command, "--checkpoint", str(run_dir / "best.ckpt"),
                     "--data", str(data), "--split", "val",
                     "--out", str(out)]) == 1
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == (f"error: the val split of {data} (transductive, "
                           "fold 0) is empty; nothing to score\n")
        assert not (out / report).exists()
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", [
        ["train"], ["eval", "--checkpoint"], ["analyze", "distance",
                                              "--checkpoint"]],
        ids=["train", "eval", "distance"])
    def test_all_rows_quarantined_are_reported(self, command, run_dir,
                                               tmp_path, capsys):
        data = tmp_path / "starred.csv"
        data.write_text("smiles_1,smiles_2,label\nC*,CC,0\nCC,C*,1\n")
        if command[-1] == "--checkpoint":
            command = [*command, str(run_dir / "best.ckpt")]
        out = tmp_path / "o"
        assert main([*command, "--data", str(data), "--out", str(out)]) == 1
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == (
            "quarantined line 2: unsupported token '*' (position 1)\n"
            "quarantined line 3: unsupported token '*' (position 1)\n"
            f"error: {data}: no usable samples\n")
        assert not out.exists()

    def test_bad_checkpoint_path(self, data_path, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path / "no.ckpt"),
                     "--data", str(data_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestScoringPrecision:
    """eval and analyze distance score on a float32 copy of the
    checkpoint's parameters; predict scores on them as loaded."""

    @pytest.mark.parametrize("command", [["eval"], ["analyze", "distance"]],
                             ids=["eval", "distance"])
    def test_split_scored_on_float32_copy(self, command, run_dir, data_path,
                                          tmp_path, monkeypatch, capsys):
        ckpt = run_dir / "best.ckpt"
        before = ckpt.read_bytes()
        logits, _ = record_chunks(monkeypatch)
        returned, score_split = [], cli._score_split

        def kept(*args, **kwargs):
            out = score_split(*args, **kwargs)
            returned.append(out[0])
            return out

        monkeypatch.setattr(cli, "_score_split", kept)
        assert main([*command, "--checkpoint", str(ckpt), "--data",
                     str(data_path), "--split", "all",
                     "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        assert logits and all(a.dtype == np.float32 for a in logits)
        [params] = returned
        assert all(p.value.dtype == np.float64 for p in params.all())
        assert params.values.tobytes() == \
            load_checkpoint(ckpt)[0].values.tobytes()
        assert ckpt.read_bytes() == before

    def test_eval_agrees_with_float64_scoring(self, run_dir, data_path,
                                              capsys):
        ckpt = run_dir / "best.ckpt"
        assert main(["eval", "--checkpoint", str(ckpt), "--data",
                     str(data_path), "--split", "all"]) == 0
        params, _ = load_checkpoint(ckpt)
        samples = load_dataset(data_path).samples
        preds = predict_labels(params, featurize_samples(samples))
        cm = accumulate(preds, [s.label for s in samples],
                        params.config.classes)
        assert capsys.readouterr().out == \
            format_metrics(macro_metrics(cm)) + "\n"

    def test_predict_scores_as_loaded(self, run_dir, monkeypatch, capsys):
        def cast(self, dtype):
            raise AssertionError("predict cast the parameters")

        monkeypatch.setattr(ModelParams, "astype", cast)
        logits, _ = record_chunks(monkeypatch)
        assert main(["predict", "--checkpoint", str(run_dir / "best.ckpt"),
                     "CCO", "CCN"]) == 0
        capsys.readouterr()
        assert [a.dtype for a in logits] == [np.float64]


class TestPredictCommand:
    def test_version_1_checkpoint_is_runtime_error(self, run_dir, tmp_path,
                                                   capsys):
        raw = (run_dir / "best.ckpt").read_bytes()
        old = tmp_path / "v1.ckpt"
        old.write_bytes(raw[:8] + struct.pack("<I", 1) + raw[12:])
        assert main(["predict", "--checkpoint", str(old), "CCO", "CCN"]) == 1
        assert "version 1" in capsys.readouterr().err

    def test_distribution_sums_to_one(self, run_dir, capsys):
        code = main(["predict", "--checkpoint",
                     str(run_dir / "best.ckpt"), "CCO", "CCN"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        total = sum(float(ln.split("p=")[1]) for ln in lines)
        assert abs(total - 1.0) < 1e-6

    def test_topk_limits_rows(self, run_dir, capsys):
        code = main(["predict", "--checkpoint",
                     str(run_dir / "best.ckpt"), "--topk", "1",
                     "CCO", "CCN"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_zero_dim_checkpoint_is_one_error_line(self, tmp_path):
        # a consistent file whose model divides by dim / heads = 0
        ckpt = tmp_path / "dim0.ckpt"
        save_unchecked(ckpt, dim=0, heads=1, d_hid=0)
        proc = run_cli("predict", "--checkpoint", str(ckpt), "CCO", "CCN")
        assert_one_error(proc, 1, "dim, heads and layers must be at least 1")

    def test_negative_d_hid_checkpoint_is_one_error_line(self, tmp_path):
        # a consistent file whose config asks for a -1-wide hidden layer
        ckpt = tmp_path / "d_hid.ckpt"
        save_unchecked(ckpt, d_hid=-1)
        proc = run_cli("predict", "--checkpoint", str(ckpt), "CCO", "CCN")
        assert_one_error(proc, 1, "bad model_config: d_hid is -1: ")
        assert proc.stdout == ""

    def test_bad_smiles_is_usage_error(self, run_dir, capsys):
        code = main(["predict", "--checkpoint",
                     str(run_dir / "best.ckpt"), "C(", "CC"])
        assert code == 2
        assert "position" in capsys.readouterr().err


class TestNonFiniteForward:
    """A checkpoint of finite weights whose forward pass overflows ends
    in one error line and exit 1, whichever command scores with it, and
    numpy warns of nothing (a RuntimeWarning fails the suite)."""

    ERROR = "error: non-finite activations in the forward pass\n"

    @staticmethod
    def argv(command, name, run_dir, data_path, tmp_path) -> list[str]:
        """command's arguments on the checkpoint whose `name` is scaled
        by 1e307, writing any report under tmp_path / "out"."""
        params, extra = load_checkpoint(run_dir / "best.ckpt")
        dict(params.named())[name].value[...] *= 1e307
        ckpt = tmp_path / "scaled.ckpt"
        save_checkpoint(ckpt, params, extra)
        # head.w2 overflows the logits of only some pairs: score them all
        return {
            "eval": ["eval", "--checkpoint", str(ckpt), "--data",
                     str(data_path), "--split", "all"],
            "predict": ["predict", "--checkpoint", str(ckpt), "CCO", "CCN"],
            "edges": ["analyze", "edges", "--checkpoint", str(ckpt), "CCO",
                      "CCN", "--out", str(tmp_path / "out")],
        }[command]

    @pytest.mark.parametrize("name, command", [
        ("proj.weight", "eval"), ("proj.weight", "predict"),
        ("proj.weight", "edges"), ("head.w2", "eval")])
    def test_overflow_is_runtime_error(self, name, command, run_dir,
                                       data_path, tmp_path, capsys):
        assert main(self.argv(command, name, run_dir, data_path,
                              tmp_path)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == self.ERROR
        assert not (tmp_path / "out" / "edges.csv").exists()

    @pytest.mark.parametrize("command", ["eval", "predict", "edges"])
    def test_stderr_is_one_error_line(self, command, run_dir, data_path,
                                      tmp_path):
        # in a fresh process, where numpy's warnings would reach stderr
        proc = run_cli(*self.argv(command, "proj.weight", run_dir, data_path,
                                  tmp_path))
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (1, "", self.ERROR)
        assert not (tmp_path / "out" / "edges.csv").exists()


class TestAnalyzeCommands:
    def test_oversmooth_report(self, tmp_path, capsys):
        out = tmp_path / "os"
        code = main(["analyze", "oversmooth", "--seed", "7", "--depth",
                     "4", "--trials", "5", "--out", str(out)])
        assert code == 0
        lines = (out / "oversmooth.csv").read_text().splitlines()
        assert lines[0] == "depth,plain_cosine,gformer_cosine"
        assert len(lines) == 5
        assert read_manifest(out) == ("analyze.oversmooth", {
            "seed": 7, "depth": 4, "trials": 5})

    def test_distance_report(self, run_dir, data_path, tmp_path, capsys):
        out = tmp_path / "dist"
        code = main(["analyze", "distance", "--checkpoint",
                     str(run_dir / "best.ckpt"), "--data", str(data_path),
                     "--split", "all", "--out", str(out)])
        assert code == 0
        lines = (out / "distance.csv").read_text().splitlines()
        assert lines[0] == "stratum,upper_boundary,count,accuracy,macro_f1"
        counts = [int(ln.split(",")[2]) for ln in lines[1:]]
        assert sum(counts) == 40
        assert read_manifest(out) == ("analyze.distance", {
            "checkpoint": str(run_dir / "best.ckpt"), "data": str(data_path),
            "dataset_digest": dataset_digest(data_path), "split": "all",
            "mode": "transductive", "fold": 0, "seed": 42, "quantiles": 5,
            "combine": "pair_mean"})

    def test_distance_stratum_per_row_matches_per_stratum_scan(
            self, run_dir, data_path, tmp_path, capsys):
        # as many strata as rows: ties leave many strata empty
        ckpt = str(run_dir / "best.ckpt")
        samples = load_dataset(data_path).samples
        n = len(samples)
        out = tmp_path / "dist"
        assert main(["analyze", "distance", "--checkpoint", ckpt, "--data",
                     str(data_path), "--split", "all", "--quantiles", str(n),
                     "--out", str(out)]) == 0
        capsys.readouterr()

        # the reference scans every row for each stratum
        params, _ = load_checkpoint(ckpt)
        pairs = featurize_samples(samples)
        labels = [s.label for s in samples]
        preds = predict_labels(params, pairs)
        stats = [analysis.pair_distance_statistic(g1, g2) for g1, g2 in pairs]
        boundaries = analysis.quantile_boundaries(stats, n)
        strata = [analysis.assign_stratum(v, boundaries) for v in stats]
        lines = ["stratum,upper_boundary,count,accuracy,macro_f1"]
        for k in range(n):
            keep = [i for i in range(n) if strata[i] == k]
            upper = repr(float(boundaries[k])) if k < len(boundaries) else ""
            scores = stratified_metrics(
                [preds[i] for i in keep], [labels[i] for i in keep],
                params.config.classes, {labels[i] for i in keep}) \
                if keep else None
            lines.append(",".join([str(k), upper, str(len(keep)), *(
                repr(scores[key]) if scores else ""
                for key in ("accuracy", "macro_f1"))]))
        assert len(set(strata)) < n
        assert (out / "distance.csv").read_bytes() == \
            "".join(line + "\r\n" for line in lines).encode()

    def test_distance_path_length_once_per_drug(self, run_dir, data_path,
                                                tmp_path, monkeypatch,
                                                capsys):
        seen = []
        path_mean = analysis.graph_path_mean

        def counted(g):
            seen.append(id(g))
            return path_mean(g)

        monkeypatch.setattr(analysis, "graph_path_mean", counted)
        rows = load_dataset(data_path).samples
        drugs = {s for row in rows for s in (row.smiles_1, row.smiles_2)}
        assert len(drugs) < 2 * len(rows)       # the rows repeat drugs
        assert main(["analyze", "distance", "--checkpoint",
                     str(run_dir / "best.ckpt"), "--data", str(data_path),
                     "--split", "all", "--out", str(tmp_path / "dist")]) == 0
        capsys.readouterr()
        assert len(seen) == len(set(seen)) == len(drugs)

    def test_edges_report(self, run_dir, tmp_path, capsys):
        out = tmp_path / "edges"
        code = main(["analyze", "edges", "--checkpoint",
                     str(run_dir / "best.ckpt"), "CCO", "CCN",
                     "--k", "4", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert len(printed) == 4
        lines = (out / "edges.csv").read_text().splitlines()
        assert lines[0] == "atom_1,atom_2,weight"
        assert len(lines) == 5
        assert read_manifest(out) == ("analyze.edges", {
            "checkpoint": str(run_dir / "best.ckpt"), "smiles_1": "CCO",
            "smiles_2": "CCN", "k": 4})

    def test_out_root_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MOLBRIDGE_OUT_ROOT", str(tmp_path))
        code = main(["analyze", "oversmooth", "--seed", "3", "--depth",
                     "2", "--trials", "2"])
        assert code == 0
        assert (tmp_path / "oversmooth-3" / "oversmooth.csv").is_file()


def assert_one_error(proc, code: int, text: str) -> None:
    """A fresh CLI process failed with code, one `error:` line holding
    text, and no traceback."""
    errors = [line for line in proc.stderr.splitlines()
              if line.startswith("error:")]
    assert proc.returncode == code, proc.stderr
    assert len(errors) == 1 and text in errors[0], proc.stderr
    assert "Traceback" not in proc.stderr


class TestHugeSizes:
    """Sizes no host could hold end in one error line. Each runs in a
    fresh process capped at 1 GiB of address space, so a regression that
    allocates fails fast instead of taking the host's memory."""

    CAP = 2 ** 30

    @pytest.mark.parametrize("flags", [
        ["--d-hid", "4000000000"], ["--dim", "20000"],
        ["--layers", "1000000000000"]], ids=["d_hid", "dim", "layers"])
    def test_train_model_size(self, flags, data_path, tmp_path):
        proc = run_cli("train", "--data", str(data_path), *flags,
                       "--out", str(tmp_path / "run"), memory_cap=self.CAP)
        assert_one_error(proc, 2, "values, cap is 16777216")
        assert not (tmp_path / "run").exists()

    def test_checkpoint_header_model_size(self, run_dir, tmp_path):
        raw = (run_dir / "best.ckpt").read_bytes()
        (size,) = struct.unpack("<I", raw[12:16])
        header = json.loads(raw[16:16 + size])
        header["model_config"]["d_hid"] = 4_000_000_000
        body = json.dumps(header, sort_keys=True).encode("utf-8")
        ckpt = tmp_path / "huge.ckpt"
        ckpt.write_bytes(raw[:12] + struct.pack("<I", len(body)) + body
                         + raw[16 + size:])
        proc = run_cli("predict", "--checkpoint", str(ckpt), "CCO", "CCN",
                       memory_cap=self.CAP)
        assert_one_error(proc, 1, "bad model_config: the model implies")

    def test_distance_quantiles_above_split_rows(self, run_dir, data_path,
                                                  tmp_path):
        # the transductive fold-0 test split of the 40-row file has 8 rows
        out = tmp_path / "dist"
        proc = run_cli("analyze", "distance", "--checkpoint",
                       str(run_dir / "best.ckpt"), "--data", str(data_path),
                       "--quantiles", "1000000000000", "--out", str(out),
                       memory_cap=self.CAP)
        assert_one_error(proc, 1, "--quantiles 1000000000000 is more than "
                         "the 8 rows of the test split")
        assert proc.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--trials", "1000000000000"],
        ["--depth", "1000000000000", "--trials", "1"]],
        ids=["trials", "depth"])
    def test_oversmooth_out_of_memory(self, flags, tmp_path):
        proc = run_cli("analyze", "oversmooth", *flags,
                       "--out", str(tmp_path / "os"), memory_cap=self.CAP)
        assert_one_error(proc, 1, "Unable to allocate")
        assert not (tmp_path / "os").exists()


BAD_NUMBERS = [
    ["train", "--data", "d.csv", "--batch", "0"],
    ["train", "--data", "d.csv", "--epochs", "0"],
    ["train", "--data", "d.csv", "--fold", "9"],
    ["train", "--data", "d.csv", "--lr", "nan"],
    ["train", "--data", "d.csv", "--weight-decay", "nan"],
    ["train", "--data", "d.csv", "--weight-decay", "-0.5"],
    ["train", "--data", "d.csv", "--seed", "-1"],
    ["eval", "--checkpoint", "m.ckpt", "--data", "d.csv", "--seed", "-1"],
    ["predict", "--checkpoint", "m.ckpt", "CC", "CO", "--topk", "0"],
    ["predict", "--checkpoint", "m.ckpt", "CC", "CO", "--topk", "-3"],
    ["analyze", "oversmooth", "--seed", "-1"],
    ["eval", "--checkpoint", "m.ckpt", "--data", "d.csv", "--fold", "9"],
    ["analyze", "oversmooth", "--depth", "0"],
    ["analyze", "oversmooth", "--trials", "0"],
    ["analyze", "distance", "--checkpoint", "m.ckpt", "--data", "d.csv",
     "--quantiles", "0"],
    ["analyze", "distance", "--checkpoint", "m.ckpt", "--data", "d.csv",
     "--seed=-1"],
    ["analyze", "edges", "--checkpoint", "m.ckpt", "CC", "CO", "--k", "-3"],
]


class TestParsing:
    @pytest.mark.parametrize("argv", BAD_NUMBERS,
                             ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_bad_numeric_flag_is_usage_error(self, argv, tmp_path,
                                             monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)          # nothing may be written
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["1_0", "\u0663", "+2"])
    def test_integer_flag_takes_only_ascii_decimal(self, value, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)          # nothing may be written
        assert main(["train", "--data", "d.csv", "--seed", value]) == 2
        assert f"argument --seed: expected an integer, got {value!r}\n" in \
            capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "inf"), ("--lr", "-1"), ("--weight-decay", "nan")])
    def test_bad_rate_flag_is_named(self, flag, value, tmp_path, monkeypatch,
                                    capsys):
        monkeypatch.chdir(tmp_path)          # nothing may be written
        assert main(["train", "--data", "d.csv", flag, value]) == 2
        assert f"argument {flag}: must be finite and non-negative, got " \
            f"{float(value)}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value, choices", [
        ("--mode", "s3", "'transductive', 's1', 's2'"),
        ("--selection", "loss", "'accuracy', 'macro_f1'"),
    ], ids=["mode", "selection"])
    def test_bad_choice_flag_is_usage_error(self, flag, value, choices,
                                            capsys):
        assert main(["train", "--data", "d.csv", flag, value]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid choice: '{value}'" in err
        assert choices in err

    def test_train_help_lists_every_setting(self, capsys):
        assert main(["train", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        for usage in ("--mode {transductive,s1,s2}", "--fold FOLD",
                      "--seed SEED", "--epochs EPOCHS", "--batch BATCH",
                      "--lr LR", "--dim DIM", "--layers LAYERS",
                      "--heads HEADS", "--d-hid D_HID",
                      "--weight-decay WEIGHT_DECAY",
                      "--selection {accuracy,macro_f1}"):
            assert f"[{usage}]" in out

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_config_file_byte_order_mark(self, tmp_path):
        text = "epochs = 2\n# note\nlr = 0.01\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert read_config_file(marked) == read_config_file(plain) == {
            "epochs": ("2", 1), "lr": ("0.01", 3)}

    def test_config_file_rejects_bad_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("lr 0.1\n")
        with pytest.raises(MolBridgeError, match="key=value"):
            read_config_file(path)

    def test_module_entry_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert "train" in proc.stdout
        assert "Traceback" not in proc.stderr
