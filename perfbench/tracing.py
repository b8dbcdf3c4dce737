"""Span tracing of the cvqkd layers, installed from outside the package.

The tracer replaces public functions at the module attributes where other
cvqkd modules look them up (for example ``cvqkd.cli.secret_key_rate`` or
``cvqkd.keyrate.worst_case_key_rate``), so calls that cross a layer
boundary are timed while calls inside one module are not. Every wrapped
call appends one span (name, start, end, parent) to flat in-memory arrays;
the spans are aggregated and written out only after the traced run ends.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
import warnings
from array import array
from collections import Counter

import cvqkd.cli
import cvqkd.keyrate
import numpy as np

#: modules whose cross-module calls are traced; the span prefix is the
#: module name, which is also the layer name
LAYERS = ("cli", "noise", "gaussian", "keyrate", "tomography")

#: keyrate.worst_case_key_rate evaluates this many uncertainty-box corners
BOX_CORNERS = 2**10


class Tracer:
    """Records spans and counters for the wrapped cvqkd functions."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """fn wrapped so each call records a span called name.

        after(args, result) runs once the span is closed, to update
        counters from the call's arguments and result.
        """
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every cross-layer lookup site in the cvqkd modules."""
        self._patch(cvqkd.cli, "main", self.span("cli.main", cvqkd.cli.main, self._after_main))
        self._patch(
            cvqkd.keyrate,
            "worst_case_key_rate",
            self.span("keyrate.worst_case", self._worst_case(cvqkd.keyrate.worst_case_breakdown)),
        )
        after = {
            "tomography.save_dataset": self._after_save,
            "tomography.load_dataset": self._after_load,
        }
        for layer in LAYERS:
            module = importlib.import_module(f"cvqkd.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                owner = value.__module__.rpartition(".")[2]
                if owner == layer or owner not in LAYERS:
                    continue
                name = f"{owner}.{attr}"
                self._patch(module, attr, self.span(name, value, after.get(name)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    # -- counters from call results ---------------------------------------

    def _after_main(self, args, code) -> None:
        if code == 2:
            self.counters["cli.exit_2"] += 1

    def _worst_case(self, breakdown_fn):
        """worst_case_key_rate rebuilt from worst_case_breakdown, same value."""

        def worst_case_key_rate(g, n):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                bd = breakdown_fn(g, n)
            self.counters["keyrate.worst_case.corners_attempted"] += BOX_CORNERS
            self.counters["keyrate.worst_case.corners_physical"] += bd.n_corners_physical
            for w in caught:
                if "undercuts the corner minimum" in str(w.message):
                    self.counters["keyrate.worst_case.candidate_undercuts"] += 1
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return bd.value

        return worst_case_key_rate

    def _after_save(self, args, result) -> None:
        ds, path = args[0], args[1]
        if not hasattr(path, "write"):
            self.counters["tomography.save_dataset.bytes_written"] += os.path.getsize(path)
            self.counters["tomography.save_dataset.records"] += ds.n_records

    def _after_load(self, args, ds) -> None:
        self.counters["tomography.load_dataset.bytes_read"] += os.path.getsize(args[0])
        self.counters["tomography.load_dataset.records_parsed"] += ds.n_records

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, busy_s (summed durations), self_s; per layer:
        calls, busy_s (time inside its outermost spans) and self_s."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n)
        dur = np.frombuffer(self.end, dtype=float, count=n) - start
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        name_of = np.frombuffer(self.name_of, dtype=np.int32, count=n)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        layer_bit = [1 << LAYERS.index(s.partition(".")[0]) for s in self.names]
        bits = [layer_bit[i] for i in self.name_of]
        # parents precede their children, so one pass fills the mask of
        # layers open on each span's path; a span is outermost in its layer
        # when no span of the same layer is open above it
        path_mask = [0] * n
        outermost = np.ones(n, dtype=bool)
        for i, p in enumerate(self.parent):
            above = path_mask[p] if p >= 0 else 0
            outermost[i] = not (above & bits[i])
            path_mask[i] = above | bits[i]
        bits = np.array(bits, dtype=np.int64)

        out = {"spans": n, "self_s_total": float(self_time.sum()), "names": {}, "layers": {}}
        for name_id, name in enumerate(self.names):
            sel = name_of == name_id
            out["names"][name] = {
                "calls": int(sel.sum()),
                "busy_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
            }
        for k, layer in enumerate(LAYERS):
            sel = (bits & (1 << k)) != 0
            out["layers"][layer] = {
                "calls": int(sel.sum()),
                "busy_s": float(dur[sel & outermost].sum()),
                "self_s": float(self_time[sel].sum()),
            }
        return out

    def write_spans(self, path) -> None:
        """Spans as a numpy .npz: names, and per span its name index,
        parent span index (-1 at a root), start and end in seconds."""
        np.savez(
            path,
            names=np.array(self.names),
            name_of=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
