"""Versioned binary checkpoint container.

Layout, byte-exact:

    offset 0   8 bytes   magic b"MOLBRIDG"
    offset 8   4 bytes   format version, uint32 little-endian (currently 2)
    offset 12  4 bytes   header length in bytes, uint32 little-endian
    offset 16  header    UTF-8 JSON, keys sorted, no trailing newline
    then       payload   ModelParams.values as float64 little-endian

The header holds "model_config" (the ModelConfig fields), "extra"
(free-form JSON run metadata) and "params", layout(params): one
{"name", "rows", "cols", "offset"} per Param in all() order, offset
counting float64 elements from payload start. The loader lays out the
config's zero vector (ModelParams(config)), refuses a header whose list
differs from its layout in any entry, value or JSON type (8.0 or true
is not 8), then fills the vector. The header is strict JSON (no NaN or
Infinity), the payload exactly the config's values and every one finite:
anything else is a CheckpointError (save_checkpoint checks finiteness too).
"attn.q" and "attn.k" are dim x dim, column block h (dim/heads columns)
holding head h; version 1 files held them per head and are rejected
with VersionMismatchError. Identical params and config produce identical
bytes, so checkpoints can be compared with a plain file hash.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .errors import CheckpointError, VersionMismatchError
from .model import FEATURE_DIM, ModelConfig, ModelParams, param_shapes

MAGIC = b"MOLBRIDG"
VERSION = 2


def layout(params: ModelParams) -> list[dict]:
    """The header's params list: each Param's name, rows, cols and offset
    into params.values, in all() order, as model.param_shapes gives them."""
    entries, offset = [], 0
    for name, rows, cols in param_shapes(params.config):
        entries.append(dict(name=name, rows=rows, cols=cols, offset=offset))
        offset += rows * cols
    return entries


def _non_finite(params: ModelParams) -> str | None:
    """The name of the first Param holding a NaN or infinity, if any."""
    if np.isfinite(params.values).all():
        return None
    return next(name for name, p in params.named()
                if not np.isfinite(p.value).all())


def save_checkpoint(path, params: ModelParams, extra: dict | None = None) -> None:
    if bad := _non_finite(params):
        # the loader refuses such a file, so none is written
        raise CheckpointError(f"{bad} has non-finite values; not saved")
    header = {
        "model_config": dataclasses.asdict(params.config),
        "extra": extra or {},
        "params": layout(params),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":"),
                              allow_nan=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(header_bytes))
                 + header_bytes + params.values.astype("<f8").tobytes())


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    version, header_len = struct.unpack("<II", raw[8:16])
    if version != VERSION:
        raise VersionMismatchError(
            f"{path}: format version {version}, expected {VERSION}")
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
    try:
        if not isinstance(fields, dict) or \
                not all(type(v) is int for v in fields.values()):
            raise TypeError("values must be integers")
        config = ModelConfig(**fields)
        if config.feature_dim != FEATURE_DIM:
            raise ValueError(f"feature_dim {config.feature_dim}, but atoms "
                             f"have {FEATURE_DIM} features")
        params = ModelParams(config)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad model_config: {exc}") from exc

    # JSON text tells 8 from 8.0 and true, so one comparison is type-strict
    entries = header["params"] if isinstance(header["params"], list) else []
    got, want = ([json.dumps(e, sort_keys=True) for e in x]
                 for x in (entries, layout(params)))
    if got != want:
        i, a, b = next((i, a, b) for i, (a, b) in enumerate(
            zip_longest(got, want, fillvalue="nothing")) if a != b)
        raise CheckpointError(
            f"{path}: params entry {i} is {a}, model_config implies {b}")

    payload = raw[16 + header_len:]
    if len(payload) != 8 * params.values.size:
        raise CheckpointError(f"{path}: payload is {len(payload)} bytes, "
                              f"model_config implies {8 * params.values.size}")
    params.values[...] = np.frombuffer(payload, dtype="<f8")
    if bad := _non_finite(params):
        raise CheckpointError(f"{path}: {bad} has non-finite values")
    return params, header["extra"]
