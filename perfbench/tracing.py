"""Spans around the public functions of every structkit layer.

`Tracer.install()` replaces each traced function at every binding where it
can be looked up: its own module, every structkit module that imported it by
name, and the package namespace.  Calls made while the tracer records become
spans (name, start, end, parent) kept in flat arrays; a span's self time is
its duration minus that of its direct children, added up per name as the
run goes.  Spans are written out by `dump()` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# (module, function) pairs; the span name is "<module>.<function>"
TRACED = (
    ("cli", "main"),
    ("io_struct", "parse_structure"), ("io_struct", "serialize_structure"),
    ("structure", "isomorphic"), ("structure", "canonical_order"),
    ("structure", "canonical_form"), ("structure", "occurrences"),
    ("derivation", "apply_morphism"),
    ("pixels", "load_raster"), ("pixels", "segment_regions"),
    ("pixels", "extract_strokes"), ("pixels", "polygon_quotient"),
    ("pixels", "classify_segment"), ("pixels", "evaluate_signature"),
    ("corpus", "generate_corpus"),
    ("rules", "mine_rules"),
    ("solver", "solve"), ("solver", "expand"),
    ("solver", "state_recognitions"), ("solver", "goal_satisfied"),
    ("solver", "replay"), ("solver", "solve_with_cache"),
)

# extra per-span counts, taken from a call's result
_COUNTERS = {
    "structure.occurrences": lambda res: ("hits", int(bool(res))),
    "pixels.segment_regions": lambda res: ("pixels", res.parent.n),
    "pixels.extract_strokes": lambda res: ("chains", len(res)),
    "rules.mine_rules": lambda res: ("rules_emitted", len(res)),
    "solver.solve": lambda res: ("expanded", res.visited),
    "solver.solve_with_cache": lambda res: ("hits", int(res.visited == 0)),
}

ROOT = "bench.request"
SETUP = "bench.setup"


class Tracer:
    def __init__(self):
        self.names = [ROOT, SETUP] + [f"{m}.{f}" for m, f in TRACED]
        self.name_ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.recording = False
        self._stack: list[list] = []      # [span index, name id, child time]
        self.reset_totals()

    def reset_totals(self):
        """Start a new accounting period (one round of requests)."""
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts: dict[str, int] = {}

    # -- spans -------------------------------------------------------------
    def _open(self, name_id: int) -> None:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self._stack.append([idx, name_id, 0.0])

    def _close(self) -> None:
        end = perf_counter()
        idx, name_id, child = self._stack.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        self.calls[name_id] += 1
        self.self_s[name_id] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def root(self, fn, *args, name=ROOT):
        """Call fn(*args) as a recorded root span and return its result.

        Exceptions propagate after the span closes.
        """
        self._open(self.name_ids[name])
        self.recording = True
        try:
            return fn(*args)
        finally:
            self.recording = False
            self._close()

    # -- installation --------------------------------------------------------
    def _wrap(self, fn, name: str):
        name_id = self.name_ids[name]
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                key, n = counter(result)
                key = f"{name}.{key}"
                self.counts[key] = self.counts.get(key, 0) + n
            return result
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "structkit" or n.startswith("structkit.")]
        for mod_name, fn_name in TRACED:
            module = importlib.import_module(f"structkit.{mod_name}")
            original = getattr(module, fn_name)
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}")
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    # -- output --------------------------------------------------------------
    def dump(self, path: Path, meta: dict) -> None:
        """Header line of JSON, then the four span arrays back to back."""
        header = dict(meta, names=self.names, spans=len(self.span_name),
                      arrays=[["name", "H"], ["parent", "l"],
                              ["start", "d"], ["end", "d"]])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(f)
