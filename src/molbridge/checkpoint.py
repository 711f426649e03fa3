"""Versioned binary checkpoint container.

Layout, byte-exact:

    offset 0   8 bytes   magic b"MOLBRIDG"
    offset 8   4 bytes   format version, uint32 little-endian (currently 2)
    offset 12  4 bytes   header length in bytes, uint32 little-endian
    offset 16  header    UTF-8 JSON, keys sorted, no trailing newline
    then       payload   all parameter values as float64 little-endian,
                         row-major, in header order

The header object holds:
    "model_config": the ModelConfig fields
    "extra":        free-form run metadata (JSON-serializable)
    "params":       list of {"name", "rows", "cols", "offset"} where
                    offset counts float64 elements from payload start

The header is strict JSON (no NaN or Infinity), the payload is exactly
the declared values packed back to back, and every value is finite;
anything else is rejected with CheckpointError, and save_checkpoint
refuses non-finite parameters the same way. The attention
projections are stored as "attn.q" and "attn.k", each dim x dim, with
column block h (dim/heads columns) holding head h. Version 1 files held
them per head and are rejected with VersionMismatchError.

Identical params and config produce identical bytes, so checkpoints can
be compared with a plain file hash.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError, VersionMismatchError
from .model import ModelConfig, ModelParams, init_params

MAGIC = b"MOLBRIDG"
VERSION = 2


def save_checkpoint(path, params: ModelParams, extra: dict | None = None) -> None:
    entries = []
    offset = 0
    chunks = []
    for name, p in params.named():
        if not np.all(np.isfinite(p.value)):
            # the loader refuses such a file, so none is written
            raise CheckpointError(f"{name} has non-finite values; not saved")
        rows, cols = p.shape
        entries.append({"name": name, "rows": rows, "cols": cols,
                        "offset": offset})
        chunks.append(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
        offset += rows * cols
    header = {
        "model_config": {
            "feature_dim": params.config.feature_dim,
            "dim": params.config.dim,
            "heads": params.config.heads,
            "layers": params.config.layers,
            "d_hid": params.config.d_hid,
            "classes": params.config.classes,
            "seed": params.config.seed,
        },
        "extra": extra or {},
        "params": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":"),
                              allow_nan=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for chunk in chunks:
            fh.write(chunk)


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack("<I", raw[8:12])
    if version != VERSION:
        raise VersionMismatchError(
            f"{path}: format version {version}, expected {VERSION}")
    (header_len,) = struct.unpack("<I", raw[12:16])
    if len(raw) < 16 + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[16:16 + header_len].decode("utf-8"),
                            parse_constant=_reject_constant)
    except (UnicodeDecodeError, ValueError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict) or \
            set(header) != {"model_config", "extra", "params"}:
        raise CheckpointError(
            f"{path}: header needs exactly model_config, extra and params")

    fields = header["model_config"]
    if not isinstance(fields, dict) or \
            not all(type(v) is int for v in fields.values()):
        raise CheckpointError(f"{path}: model_config values must be integers")
    try:
        params = init_params(ModelConfig(**fields))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise CheckpointError(f"{path}: bad model_config: {exc}") from exc
    by_name = dict(params.named())

    entries = header["params"]
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and set(e) == {"name", "rows", "cols", "offset"}
            and all(type(e[k]) is int for k in ("rows", "cols", "offset"))
            for e in entries):
        raise CheckpointError(
            f"{path}: params must list name, rows, cols and integer offsets")
    if sorted(str(e["name"]) for e in entries) != sorted(by_name):
        raise CheckpointError(f"{path}: parameter names do not match config")

    payload = raw[16 + header_len:]
    declared = 8 * sum(e["rows"] * e["cols"] for e in entries)
    if len(payload) != declared:
        raise CheckpointError(
            f"{path}: payload is {len(payload)} bytes, header declares "
            f"{declared}")
    offset = 0
    for entry in entries:
        p = by_name[entry["name"]]
        rows, cols = entry["rows"], entry["cols"]
        if p.shape != (rows, cols):
            raise CheckpointError(
                f"{path}: {entry['name']} has shape {rows}x{cols}, "
                f"expected {p.shape[0]}x{p.shape[1]}")
        if entry["offset"] != offset:
            raise CheckpointError(
                f"{path}: {entry['name']} at offset {entry['offset']}, "
                f"expected {offset}")
        end = offset + rows * cols
        p.value[...] = np.frombuffer(
            payload[8 * offset:8 * end], dtype="<f8").reshape(rows, cols)
        if not np.all(np.isfinite(p.value)):
            raise CheckpointError(
                f"{path}: {entry['name']} has non-finite values")
        offset = end
    return params, header["extra"]
