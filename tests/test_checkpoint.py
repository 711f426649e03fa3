import json
import struct

import numpy as np
import pytest

from molbridge.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
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
}


class TestMalformed:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejected_with_checkpoint_error(self, tmp_path, case):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params_with_noise())
        path.write_bytes(MALFORMED[case](path.read_bytes()))
        with pytest.raises(CheckpointError):
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
