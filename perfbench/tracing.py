"""Span recorder for the benchmark's traced runs.

The recorder wraps public ``linewidth`` functions at every module that binds
them (``tree_path`` is bound by name in ``congestion``, ``decompositions`` and
``bounds``; ``cutwidth`` is bound in ``bounds`` as ``cutwidth_solver``), so a
call is recorded whichever import site it goes through.  The program itself
is not changed.

Each span records its name, start, end and the span it was called from.
Spans stay in memory in flat arrays and are written out at the end of a run;
the per-layer metrics are aggregated from them.  Spans are recorded only
while ``active`` is set, which the runner does around each timed operation,
so the output checks never show up in the trace.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (module, function) pairs wrapped in a traced run.  A span is named after its
# module with the "linewidth." prefix dropped, e.g. "kernels.treewidth_table".
TRACED = (
    ("linewidth.kernels", "treewidth_table"),
    ("linewidth.kernels", "vertex_separation_table"),
    ("linewidth.kernels", "cutwidth_table"),
    ("linewidth.kernels", "path_congestion_table"),
    ("linewidth.exact", "exact_treewidth"),
    ("linewidth.exact", "exact_pathwidth"),
    ("linewidth.congestion", "cutwidth"),
    ("linewidth.congestion", "min_path_congestion"),
    ("linewidth.congestion", "min_tree_congestion"),
    ("linewidth.congestion", "vertex_congestion"),
    ("linewidth.congestion", "parse_emb"),
    ("linewidth.congestion", "format_emb"),
    ("linewidth.congestion", "parse_ord"),
    ("linewidth.graphs", "minimal_dense_vertex_set"),
    ("linewidth.graphs", "parse_gr"),
    ("linewidth.graphs", "line_graph"),
    ("linewidth.bounds", "bounds_report"),
    ("linewidth.bounds", "improved_upper_construction"),
    ("linewidth.treeops", "tree_path"),
    ("linewidth.decompositions", "validate"),
    ("linewidth.decompositions", "normalize_line_decomposition"),
    ("linewidth.decompositions", "line_to_graph_decomposition"),
    ("linewidth.decompositions", "expand_to_line"),
    ("linewidth.decompositions", "parse_td"),
    ("linewidth.decompositions", "format_td"),
    ("linewidth.families", "sharp_embedding"),
    ("linewidth.cli", "main"),
)

KERNEL_SPANS = frozenset(
    f"kernels.{k}"
    for k in ("treewidth_table", "vertex_separation_table", "cutwidth_table", "path_congestion_table")
)


def _table_bytes(table) -> int:
    nbytes = getattr(table, "nbytes", None)
    return int(nbytes) if nbytes is not None else sys.getsizeof(table)


class Recorder:
    """In-memory spans plus the kernel counters measured at the same calls."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.active = False
        self.kernel_inputs: list[str] = []  # one key per kernel call
        self.kernel_cells = 0  # sum of 2^n over kernel calls
        self.table_bytes_max = 0
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        is_kernel = span_name in KERNEL_SPANS
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            ends.append(0.0)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if is_kernel:
                masks = args[0]
                self.kernel_inputs.append(f"{span_name}:{','.join(map(str, masks))}")
                self.kernel_cells += 1 << len(masks)
                self.table_bytes_max = max(self.table_bytes_max, _table_bytes(out))
            return out

        return traced

    def install(self, callers=()) -> None:
        """Wrap every TRACED function that is imported, at every binding in
        the ``linewidth`` modules and in the ``callers`` modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "linewidth" and m]
        modules += callers
        for mod_name, attr in TRACED:
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(f"{mod_name.split('.', 1)[1]}.{attr}", original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, value))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, value in reversed(self._undo):
            setattr(m, key, value)
        self._undo.clear()

    def header(self) -> dict:
        return {
            "names": self.names,
            "spans": len(self.name),
            "kernel_inputs": self.kernel_inputs,
            "kernel_cells": self.kernel_cells,
            "table_bytes_max": self.table_bytes_max,
        }

    def write(self, path) -> None:
        """One JSON header line, then the name, parent, start and end columns
        as native int32/float64 arrays (see ``read_spans``)."""
        with open(path, "wb") as fh:
            fh.write(json.dumps(self.header(), separators=(",", ":")).encode("ascii") + b"\n")
            for col in (self.name, self.parent, self.start, self.end):
                col.tofile(fh)


def read_spans(path) -> tuple[dict, list[array]]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = []
        for code in "iidd":
            col = array(code)
            col.fromfile(fh, header["spans"])
            cols.append(col)
    return header, cols


class Totals:
    """Per-span-name totals summed over one or more span dumps."""

    def __init__(self):
        self.ms: dict[str, float] = {}
        self.self_ms: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.kernel_inputs: list[str] = []
        self.kernel_cells = 0
        self.table_bytes_max = 0

    def add(self, header: dict, name, parent, start, end) -> None:
        names = header["names"]
        dur = array("d", (e - s for s, e in zip(start, end)))
        child = array("d", bytes(8 * len(dur)))
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
        total = [0.0] * len(names)
        own = [0.0] * len(names)
        calls = [0] * len(names)
        for i, nid in enumerate(name):
            total[nid] += dur[i]
            own[nid] += dur[i] - child[i]
            calls[nid] += 1
        for nid, key in enumerate(names):
            if calls[nid]:
                self.ms[key] = self.ms.get(key, 0.0) + total[nid] * 1e3
                self.self_ms[key] = self.self_ms.get(key, 0.0) + own[nid] * 1e3
                self.calls[key] = self.calls.get(key, 0) + calls[nid]
        self.kernel_inputs.extend(header["kernel_inputs"])
        self.kernel_cells += header["kernel_cells"]
        self.table_bytes_max = max(self.table_bytes_max, header["table_bytes_max"])

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation layer figures, keyed by the per-layer metric names."""
        out: dict[str, float] = {}
        for key in sorted(self.ms):
            out[f"{key}.ms"] = self.ms[key] / ops
            out[f"{key}.self_ms"] = self.self_ms[key] / ops
            out[f"{key}.calls"] = self.calls[key] / ops
        kernel_ms = sum(self.ms.get(k, 0.0) for k in KERNEL_SPANS)
        calls = len(self.kernel_inputs)
        out["kernels.calls"] = calls / ops
        out["kernels.cells"] = self.kernel_cells / ops
        out["kernels.cells_per_us"] = self.kernel_cells / (kernel_ms * 1e3) if kernel_ms else 0.0
        out["kernels.distinct_inputs_ratio"] = len(set(self.kernel_inputs)) / calls if calls else 0.0
        out["kernels.table_bytes_max"] = float(self.table_bytes_max)
        return out
