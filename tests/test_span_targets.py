"""The benchmark's span tracer wraps molbridge functions by name.

``perfbench/spans.py`` reports a target it cannot find as absent and its
per-layer metrics as 0, so renaming a traced function would silently
zero a metric. This test fails instead. It only reads ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Targets the program no longer has; the benchmark still lists them.
KNOWN_ABSENT = {"autodiff.softmax_rows"}


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("module_name, path, metric", TARGETS,
                         ids=[metric for _, _, metric in TARGETS])
def test_target_resolves(module_name, path, metric):
    owner = importlib.import_module(f"molbridge.{module_name}")
    for part in path.split("."):
        owner = getattr(owner, part, None)
    if metric in KNOWN_ABSENT:
        assert owner is None, f"{metric} exists again: drop it from KNOWN_ABSENT"
    else:
        assert callable(owner), f"molbridge.{module_name}.{path} is gone"
