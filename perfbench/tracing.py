"""In-memory span tracing of bitpath's layers, installed from outside the library.

A Tracer replaces selected functions with wrappers in every bitpath module
namespace that binds them, so a call is traced however the calling module
looks the function up (``bitpath.routing.shortest_path`` inside
``simulate_delivery``, ``bitpath.cli.label_tree`` inside the CLI, ...).
Each call records one span: (name, start, end, parent span index, op id).
Nothing under ``src/`` changes; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import gzip
import sys
from collections import defaultdict
from time import perf_counter

# Functions wrapped per layer. Layer names are the bitpath module names.
# Per-element helpers (star_digits, _draw_masks, ...) are left out on purpose:
# a span per edge would cost more than the work it measures.
WRAPPED = {
    "graphs": (
        "make_core_periphery",
        "make_perfect_binary_tree",
        "make_random_connected",
        "make_star",
        "load_edge_list",
        "emit_edge_list",
        "shortest_path",
        "bfs_distances",
        "is_connected",
        "ceil_log2",
    ),
    "labelling": (
        "star_labelling",
        "bit_per_vertex",
        "optimal_rank",
        "Labelling.to_text",
        "Labelling.from_text",
    ),
    "decompose": (
        "label_tree",
        "label_core_periphery",
        "combine",
        "contract",
        "tree_star_levels",
        "perfect_tree_universe_size",
        "core_periphery_universe_size",
    ),
    "bloom": (
        "bloom_labelling",
        "empirical_fpr",
        "analytic_fpr",
        "at_least_one_fp",
        "optimal_label_weight",
        "optimal_label_weight_int",
    ),
    "routing": ("verify_no_false_positives", "simulate_delivery", "next_hop", "encode_path"),
    "cli": ("main",),
}

GENERATORS = (
    "graphs.make_core_periphery",
    "graphs.make_perfect_binary_tree",
    "graphs.make_random_connected",
    "graphs.make_star",
)


class Tracer:
    """Span recorder. ``op`` is the id the benchmark sets before each call."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "bitpath"]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"bitpath.{layer}"]
            for qualname in names:
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(f"{layer}.{attr}", raw.__func__))
                    else:
                        wrapped = self._wrap(f"{layer}.{attr}", raw)
                    self._restore.append((cls, attr, raw))
                    setattr(cls, attr, wrapped)
                    continue
                original = getattr(home, qualname)
                wrapped = self._wrap(f"{layer}.{qualname}", original)
                for module in modules:
                    if module.__dict__.get(qualname) is original:
                        self._restore.append((module, qualname, original))
                        setattr(module, qualname, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """Gzipped, one tab-separated line per span: index, name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")


def child_times(spans: list) -> list[float]:
    """Time each span spent in its direct child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    return child


class SpanTotals:
    """Per-name call counts, inclusive time and self time over the spans
    whose op passes ``keep_op``, with times multiplied by ``scale``.

    Self time is a span's duration minus the time of its direct child spans.
    ``speed[op]`` first scales each span's times to the reference host speed.
    """

    def __init__(self, spans: list, child: list[float], speed: list[float], keep_op, scale: float):
        self.scale = scale
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(spans):
            if keep_op(op):
                self.calls[name] += 1
                self.total[name] += (end - start) * speed[op]
                self.self_time[name] += (end - start - child[i]) * speed[op]

    def total_s(self, name: str) -> float:
        return self.total.get(name, 0.0) * self.scale

    def self_s(self, name: str) -> float:
        return self.self_time.get(name, 0.0) * self.scale

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return self.scale * sum(t for name, t in self.self_time.items() if name.startswith(prefix))

    def table(self) -> dict:
        return {
            name: {"calls": self.calls[name], "total_s": self.total_s(name), "self_s": self.self_s(name)}
            for name in sorted(self.calls)
        }
