"""Span recorder that times calls into molbridge's public functions.

Tracing works from outside the program: ``Tracer.install`` replaces each
target function with a timing wrapper wherever a loaded ``molbridge``
module refers to it (so ``from .smiles import parse_smiles`` call sites
are covered too), and class methods are replaced on their class.
``uninstall`` puts the originals back. A target the program no longer
has is reported as absent instead of failing the run.

Spans are kept in memory as (name, start, end, parent, request) and
written out once at the end. A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import time

# (module, attribute path, metric prefix). The prefix is the layer name
# used in the benchmark's per-layer metrics.
TARGETS = (
    ("smiles", "parse_smiles", "smiles.parse_smiles"),
    ("smiles", "featurize", "smiles.featurize"),
    ("data", "load_dataset", "data.load_dataset"),
    ("data", "featurize_samples", "data.featurize_samples"),
    ("splits", "make_splits", "splits.make_splits"),
    ("joint", "build_joint", "joint.build_joint"),
    ("joint", "project", "joint.project"),
    ("joint", "cross_attention", "joint.cross_attention"),
    ("joint", "integrate", "joint.integrate"),
    ("joint", "refine", "joint.refine"),
    ("model", "forward_pair", "model.forward_pair"),
    ("model", "gformer_layer", "model.gformer_layer"),
    ("model", "gcn_propagate", "model.gcn_propagate"),
    ("model", "aggregate", "model.aggregate"),
    ("model", "cross_entropy_from_logits", "model.cross_entropy_from_logits"),
    ("model", "predict", "model.predict"),
    ("autodiff", "Tensor.backward", "autodiff.backward"),
    ("autodiff", "layer_norm", "autodiff.layer_norm"),
    ("autodiff", "softmax_rows", "autodiff.softmax_rows"),
    ("optim", "AdamW.step", "optim.AdamW.step"),
    ("optim", "AdamW.zero_grad", "optim.AdamW.zero_grad"),
    ("train", "train", "train.train"),
    ("train", "evaluate", "train.evaluate"),
    ("train", "predict_labels", "train.predict_labels"),
    ("metrics", "accumulate", "metrics.accumulate"),
    ("metrics", "macro_metrics", "metrics.macro_metrics"),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("cli", "main", "cli.main"),
)
SPAN_FIELDS = ("calls", "busy_s", "self_s")


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.request = "setup"
        self.absent: list[str] = []
        self.counters: dict[str, float] = {"data.rows": 0,
                                           "data.quarantined": 0,
                                           "data.smiles_fields": 0,
                                           "data.distinct_smiles": 0}
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._stack: list[int] = []
        self._gc_start = 0.0
        self._restore: list[tuple[object, str, object]] = []
        self._steps = 0

    # -- wrapping ------------------------------------------------------- #

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.request)
            tracer._after(name, result)
            return result

        return wrapper

    def _after(self, name: str, result) -> None:
        """Counters taken at the layer boundary from the returned values."""
        if name == "data.load_dataset":
            samples = getattr(result, "samples", [])
            quarantined = getattr(result, "quarantined", [])
            smiles = [s for sample in samples
                      for s in (sample.smiles_1, sample.smiles_2)]
            self.counters["data.rows"] += len(samples) + len(quarantined)
            self.counters["data.quarantined"] += len(quarantined)
            self.counters["data.smiles_fields"] += len(smiles)
            self.counters["data.distinct_smiles"] += len(set(smiles))
        elif name == "optim.AdamW.zero_grad":
            self._steps += 1
            self.request = f"{self.request.split('/')[0]}/step{self._steps}"

    def start_request(self, request: str) -> None:
        self.request = request
        self._steps = 0

    def install(self) -> None:
        self.absent = []
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "molbridge" or key.startswith("molbridge.")]
        for module_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(f"molbridge.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            if outer:
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, key, fn))
                        setattr(module, key, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- reporting ------------------------------------------------------ #

    def summary(self) -> dict[str, float]:
        """calls, busy_s and self_s for every target; 0 when not called."""
        out = {f"{name}.{field}": 0.0 for _, _, name in TARGETS
               for field in SPAN_FIELDS}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "request": request}) + "\n")
