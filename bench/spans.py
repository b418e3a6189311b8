"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each public function listed in ``LAYERS`` by a
wrapper at the place its caller looks it up (``lavse.cli.solve_lav``,
``lavse.experiments.detect_row``, ``lavse.lav.validate_model``, ...), so
nothing under ``src/`` changes.  A wrapper records a span (name, start,
end, parent) and reads its counts from the returned object.  Spans stay in
memory until ``write`` is called at the end of the run.

Wrapped calls must not run concurrently: the span stack is a plain list.
That holds today, since ``detect_all`` only hands ``_scan_row`` (which is
not wrapped) to its thread pool.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import defaultdict

import numpy as np

# layer -> (module attributes to wrap, metric that collects self time)
LAYERS = {
    "cli": (["cli.main"], "cli.self_s"),
    "experiments": (["experiments.reproduce_table1", "experiments.reproduce_mc"],
                    "experiments.self_s"),
    "lav": (["cli.solve_lav", "experiments.solve_lav"], "lav.solve_s"),
    "leverage.detect": (["cli.detect_all", "cli.detect_partitioned",
                         "experiments.detect_partitioned", "leverage.detect_all"],
                        "leverage.detect_s"),
    "leverage.row": (["experiments.detect_row", "experiments.leverage_margin"],
                     "leverage.row_s"),
    "model.validate": (["lav.validate_model", "leverage.validate_model"], "model.validate_s"),
    "model.io": (["cli.load_model", "cli.model_to_dict"], "model.io_s"),
    "power": (["cli.build_dc_model", "cli.build_pmu_model",
               "power.build_dc_model", "power.build_pmu_model"], "power.build_s"),
    "projstats": (["cli.compute_ps", "experiments.compute_ps"], "projstats.ps_s"),
}

# layer -> counter of calls that enter it from another layer
CALLS = {"lav": "lav.calls", "leverage.detect": "leverage.calls",
         "leverage.row": "leverage.calls", "model.validate": "model.validate_calls",
         "power": "power.build_calls", "projstats": "projstats.calls"}


def _layer(span_name: str) -> str:
    return span_name.split(".")[0]


def support_blocks(h: np.ndarray) -> list[tuple[int, int]]:
    """(rows, columns) of each connected block of the row/column support graph."""
    m, n = h.shape
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(m):
        cols = np.flatnonzero(h[i])
        for c in cols[1:]:
            parent[find(int(c))] = find(int(cols[0]))
    root = [find(c) for c in range(n)]
    blocks = []
    for r in sorted(set(root)):
        cols = [c for c in range(n) if root[c] == r]
        rows = int(np.count_nonzero(np.any(h[:, cols] != 0, axis=1)))
        blocks.append((rows, len(cols)))
    return blocks


def enumerable_bases(h: np.ndarray) -> int:
    """Sum over the rows of C(m-1, n-1), with m x n the shape of the row's block."""
    return sum(m * math.comb(m - 1, n - 1) for m, n in support_blocks(h) if m >= n >= 1)


class Tracer:
    """Collects spans and per-layer counters for one traced window."""

    def __init__(self, lavse_modules: dict):
        self.modules = lavse_modules
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []   # [span id, name, start, child time]
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _enter(self, name: str) -> list:
        frame = [len(self.spans), name, time.perf_counter(), 0.0]
        self.spans.append(None)        # placeholder keeps ids in call order
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, metric: str) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        parent = self._stack[-1] if self._stack else None
        self.spans[span_id] = (name, start, end, parent[0] if parent else -1)
        self.counts[metric] += (end - start) - child
        if parent is not None:
            parent[3] += end - start

    def _entered_from_outside(self, name: str) -> bool:
        return not self._stack or _layer(self._stack[-1][1]) != _layer(name)

    # -- counters read from returned objects ---------------------------
    def _count(self, name: str, func_name: str, args, result) -> None:
        c = self.counts
        if name == "lav":
            c["lav.iterations"] += result.iterations
            c["lav.degenerate"] += bool(result.degenerate)
        elif name == "leverage.detect" and func_name == "detect_all":
            c["leverage.bases_examined"] += result.combos_examined
            c["leverage.bases_skipped"] += result.combos_skipped_degenerate
            c["leverage.rows_flagged"] += len(result.flagged_rows())
            c["leverage.bases_enumerable"] += enumerable_bases(args[0].h)
        elif name == "leverage.row":
            model = args[0]
            c["leverage.bases_enumerable"] += math.comb(model.m - 1, model.n - 1)
            if func_name == "detect_row":
                c["leverage.rows_flagged"] += result is not None
        elif name == "model.io":
            if func_name == "load_model":
                c["model.io_bytes"] += os.path.getsize(args[0])
            else:
                c["model.io_bytes"] += len(json.dumps(result, separators=(",", ":")))
        elif name == "power":
            c["power.rows_built"] += result.m
        elif name == "projstats":
            c["projstats.directions_used"] += result.directions_used
            c["projstats.directions_skipped"] += result.directions_skipped

    def _wrap(self, name: str, metric: str, func):
        tracer = self
        calls = CALLS.get(name)

        def traced(*args, **kwargs):
            if calls and tracer._entered_from_outside(name):
                tracer.counts[calls] += 1
            frame = tracer._enter(name)
            try:
                result = func(*args, **kwargs)
            except Exception:
                if name == "lav":
                    tracer.counts["lav.failed"] += 1
                raise
            finally:
                tracer._exit(frame, metric)
            # Counting is the tracer's own work: charge it to no span.
            start = time.perf_counter()
            tracer._count(name, func.__name__, args, result)
            if tracer._stack:
                tracer._stack[-1][3] += time.perf_counter() - start
            return result

        traced.__wrapped__ = func
        return traced

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every listed attribute; ``uninstall`` puts the originals back."""
        for name, (targets, metric) in LAYERS.items():
            for target in targets:
                mod_name, attr = target.split(".")
                module = self.modules[mod_name]
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, metric, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent span id (-1 for none)."""
        with open(path, "w") as fh:
            for span_id, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
