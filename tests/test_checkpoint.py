import hashlib
import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import save_unchecked
from molbridge.checkpoint import (
    MAGIC, VERSION, layout, load_checkpoint, save_checkpoint)
from molbridge.errors import CheckpointError, VersionMismatchError
from molbridge.model import ModelConfig, init_params


def params_with_noise(seed=0):
    params = init_params(ModelConfig(dim=8, heads=2, layers=2,
                                     d_hid=16, classes=3, seed=seed))
    rng = np.random.default_rng(seed + 100)
    for _, p in params.named():
        p.value += rng.normal(0, 0.1, p.shape)
    return params


class TestRoundTrip:
    def test_values_bit_exact(self, tmp_path):
        params = params_with_noise()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, extra={"note": "roundtrip"})
        loaded, extra = load_checkpoint(path)
        assert extra == {"note": "roundtrip"}
        for (name_a, a), (name_b, b) in zip(params.named(), loaded.named()):
            assert name_a == name_b
            assert np.array_equal(a.value, b.value)

    def test_config_restored(self, tmp_path):
        params = params_with_noise()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded, _ = load_checkpoint(path)
        assert loaded.config == params.config

    def test_same_params_same_bytes(self, tmp_path):
        params = params_with_noise()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params, extra={"k": 1})
        save_checkpoint(p2, params, extra={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_layout_starts_with_magic_and_version(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params_with_noise())
        raw = path.read_bytes()
        assert raw[:8] == MAGIC
        assert struct.unpack("<I", raw[8:12])[0] == VERSION
        header_len = struct.unpack("<I", raw[12:16])[0]
        total_values = sum(p.value.size
                           for _, p in params_with_noise().named())
        assert len(raw) == 16 + header_len + 8 * total_values


class TestFormat:
    def test_golden_bytes(self, tmp_path):
        # format version 2's bytes for this model since the format began
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(ModelConfig(classes=86, seed=7)),
                        extra={"best_epoch": 3})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "e6ab31d0d1e62b05e291d57b6e8bb4d01d3b1fdbcbb845cb33c5cdad8a23c1f6")

    def test_layout_tiles_the_value_vector(self):
        params = params_with_noise()
        entries = layout(params)
        assert [e["name"] for e in entries] == [n for n, _ in params.named()]
        ends = [e["offset"] + e["rows"] * e["cols"] for e in entries]
        assert [e["offset"] for e in entries] == [0] + ends[:-1]
        assert ends[-1] == params.values.size


class TestErrors:
    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params_with_noise())
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params_with_noise())
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 16])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params_with_noise())
        raw = path.read_bytes()
        path.write_bytes(raw[:20])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def _edit_header(raw: bytes, edit) -> bytes:
    (header_len,) = struct.unpack("<I", raw[12:16])
    header = json.loads(raw[16:16 + header_len])
    edit(header)
    body = json.dumps(header, sort_keys=True).encode("utf-8")
    return raw[:12] + struct.pack("<I", len(body)) + body + raw[16 + header_len:]


def _nan_first_value(raw: bytes) -> bytes:
    (header_len,) = struct.unpack("<I", raw[12:16])
    start = 16 + header_len
    return raw[:start] + struct.pack("<d", float("nan")) + raw[start + 8:]


def _nan_last_value(raw: bytes) -> bytes:
    return raw[:-8] + struct.pack("<d", float("nan"))


def _edit_entries(edit):
    return lambda raw: _edit_header(raw, lambda h: edit(h["params"]))


def _swap_bias_and_query(entries):
    # proj.bias (1x8) and attn.q (8x8) trade places, offsets kept tiling
    bias, query = entries[1], entries[2]
    entries[1:3] = [dict(query, offset=bias["offset"]),
                    dict(bias, offset=bias["offset"] + 64)]


def _saved_unchecked(**fields):
    def build(raw: bytes) -> bytes:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            save_unchecked(path, **fields)
            return path.read_bytes()
    return build


# each header-entry mismatch, and the entry its error must name
ENTRY_MISMATCHES = {
    "renamed_entry": (_edit_entries(
        lambda e: e[1].update(name="proj.offset")), "proj.offset"),
    "swapped_entries": (_edit_entries(_swap_bias_and_query), "attn.q"),
    "wrong_shape": (_edit_entries(
        lambda e: e[0].update(rows=8, cols=29)), "proj.weight"),
    "true_offset": (_edit_entries(
        lambda e: e[4].update(offset=True)), "alpha.theta"),
    # each equals the right integer by value; only its JSON type is wrong
    "float_rows": (_edit_entries(lambda e: e[2].update(rows=8.0)), "attn.q"),
    "bool_offset": (_edit_entries(
        lambda e: e[0].update(offset=False)), "proj.weight"),
    "bool_rows": (_edit_entries(lambda e: e[1].update(rows=True)),
                  "proj.bias"),
    "missing_entry": (_edit_entries(lambda e: e.pop()), "head.b2"),
    "extra_entry": (_edit_entries(lambda e: e.append(dict(
        name="head.b3", rows=1, cols=1, offset=1092))), "head.b3"),
}

MALFORMED = {
    "unknown_config_key": lambda raw: _edit_header(
        raw, lambda h: h["model_config"].update(bogus=1)),
    "non_integer_dim": lambda raw: _edit_header(
        raw, lambda h: h["model_config"].update(dim=8.5)),
    "zero_heads": lambda raw: _edit_header(
        raw, lambda h: h["model_config"].update(heads=0)),
    # refused before any allocation; the 954 GiB request fails at once
    # even if that regresses
    "huge_d_hid": lambda raw: _edit_header(
        raw, lambda h: h["model_config"].update(d_hid=4_000_000_000)),
    "missing_params": lambda raw: _edit_header(
        raw, lambda h: h.pop("params")),
    "negative_offset": lambda raw: _edit_header(
        raw, lambda h: h["params"][1].update(offset=-3)),
    "trailing_bytes": lambda raw: raw + bytes(8),
    "nan_in_payload": _nan_first_value,
    "infinity_in_header": lambda raw: _edit_header(
        raw, lambda h: h["extra"].update(best_value=float("-inf"))),
    "nan_in_last_value": _nan_last_value,
    # consistent files of a shape no layer can run
    "zero_dim": _saved_unchecked(dim=0, heads=1, d_hid=0),
    "negative_d_hid": _saved_unchecked(d_hid=-1),
    "feature_dim_5": _saved_unchecked(feature_dim=5),
    **{case: edit for case, (edit, _) in ENTRY_MISMATCHES.items()},
}


class TestMalformed:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejected_with_checkpoint_error(self, tmp_path, case):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params_with_noise())
        path.write_bytes(MALFORMED[case](path.read_bytes()))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(ENTRY_MISMATCHES))
    def test_entry_mismatch_names_the_entry(self, tmp_path, case):
        edit, name = ENTRY_MISMATCHES[case]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params_with_noise())
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(CheckpointError, match=re.escape(f'"{name}"')):
            load_checkpoint(path)

    def test_nan_in_last_value_names_head_b2(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params_with_noise())
        path.write_bytes(_nan_last_value(path.read_bytes()))
        with pytest.raises(CheckpointError,
                           match="head.b2 has non-finite values"):
            load_checkpoint(path)

    def test_feature_dim_names_both_numbers(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_unchecked(path, feature_dim=5)
        with pytest.raises(CheckpointError,
                           match="feature_dim 5, but atoms have 29 features"):
            load_checkpoint(path)

    def test_version_1_is_version_mismatch(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params_with_noise())
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + struct.pack("<I", 1) + raw[12:])
        with pytest.raises(VersionMismatchError, match="version 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_save_refuses_non_finite_params(self, tmp_path, bad):
        params = params_with_noise()
        params.proj_w.value[0, 0] = bad
        path = tmp_path / "model.ckpt"
        with pytest.raises(CheckpointError, match="proj.weight"):
            save_checkpoint(path, params)
        assert not path.exists()

    def test_save_refuses_non_finite_extra(self, tmp_path):
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "model.ckpt", params_with_noise(),
                            extra={"best_value": float("-inf")})
