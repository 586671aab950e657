"""Boundary-span tracer: where host time goes, layer by layer.

A ``sys.setprofile`` hook maps every Python function to a *layer* (one of
this repo's packages, by the module that defines it) and opens a span
whenever a call crosses from one layer into another.  Nothing in the
program is patched — a patched ``Engine`` would lose its C core — so the
numbers describe the program as users run it, plus the hook's own cost
(reported as ``trace.overhead_ratio``; end-to-end metrics are always
measured with the hook off).

Time spent inside C code (the engine's C core, ``heapq``, numpy) has no
Python frame of its own and is charged to the layer of the Python
function that called it, so the C core's own time lands in ``sim``: it is
entered from ``Engine.run`` and everything it calls back into opens a
span of another layer.

A layer's *self time* is the time during which it was the innermost open
span: span duration minus the part its child spans cover.  Self times of
all layers therefore add up to the traced interval exactly.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Callable, Optional

#: layers in report order; every per-layer metric name starts with one
LAYERS = (
    "sim", "converse", "charm", "lrts", "lrts.ugni_layer", "lrts.mpi_layer",
    "lrts.rdma_layer", "ugni", "mpish", "hardware", "memory", "observe",
    "sanitize", "parallel", "apps", "other",
)

#: package -> layer, longest prefix first.  Packages that no roadmap item
#: optimises are named here on purpose and sent to ``other``; a package
#: missing from this table is an error in ``perf/tests``, so a new one
#: cannot land in ``other`` unnoticed.
PACKAGE_LAYERS = (
    ("repro.lrts.ugni_layer", "lrts.ugni_layer"),
    ("repro.lrts.mpi_layer", "lrts.mpi_layer"),
    ("repro.lrts.rdma_layer", "lrts.rdma_layer"),
    ("repro.lrts", "lrts"),
    ("repro.sim", "sim"),
    ("repro.converse", "converse"),
    ("repro.charm", "charm"),
    ("repro.ugni", "ugni"),
    ("repro.mpish", "mpish"),
    ("repro.hardware", "hardware"),
    ("repro.memory", "memory"),
    ("repro.observe", "observe"),
    ("repro.sanitize", "sanitize"),
    ("repro.parallel", "parallel"),
    ("repro.apps", "apps"),
    ("repro.faults", "other"),
    ("repro.resilience", "other"),
    ("repro.projections", "other"),
    ("repro.bench", "other"),
)
#: top-level modules of the package, all ``other``
ROOT_MODULES = frozenset({"repro", "repro._env", "repro.errors",
                          "repro.units"})

#: raw spans kept for the Chrome trace; aggregates cover every span
KEEP_SPANS = 20_000


def layer_of_module(module: str) -> Optional[str]:
    """Layer of a ``repro`` module by dotted name, or ``None`` when no
    table entry covers it."""
    if module in ROOT_MODULES:
        return "other"
    for package, layer in PACKAGE_LAYERS:
        if module == package or module.startswith(package + "."):
            return layer
    return None


def classify_frame(frame: Any) -> str:
    """Layer of the function a frame runs, by the module that defined it.

    The module name rather than the file path, so that generated code
    (a dataclass ``__init__`` compiles from ``<string>``) stays with its
    class.  Code outside ``repro`` - the benchmark itself, the standard
    library, numpy's Python side - is ``other``.
    """
    module = frame.f_globals.get("__name__", "")
    if module != "repro" and not module.startswith("repro."):
        return "other"
    return layer_of_module(module) or "other"


class Tracer:
    """Collects boundary spans while :meth:`run` executes a callable."""

    def __init__(self, classify: Callable[[Any], str] = classify_frame,
                 clock: Callable[[], float] = time.perf_counter,
                 keep: int = KEEP_SPANS):
        self._classify = classify
        self._clock = clock
        self._keep = keep
        n = len(LAYERS)
        #: seconds during which each layer was the innermost open span
        self.self_s = [0.0] * n
        #: Python calls made inside each layer
        self.calls = [0] * n
        #: entries into each layer from another layer
        self.spans = [0] * n
        #: (layer, parent layer) -> [spans, inclusive seconds]
        self.edges: dict[tuple[int, int], list] = {}
        #: (id, layer, function, start, end, parent id, root) of the
        #: first ``keep`` spans; ``root`` is the ordinal of the enclosing
        #: engine event (0 outside the engine loop)
        self.raw: list[tuple] = []
        self.total_s = 0.0

    def run(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` under the hook and return its result."""
        index = {name: i for i, name in enumerate(LAYERS)}
        classify = self._classify
        clock = self._clock
        keep = self._keep
        self_s, calls, spans = self.self_s, self.calls, self.spans
        edges, raw = self.edges, self.raw
        code_layer: dict[Any, int] = {}
        sim = index["sim"]
        outside = index["other"]
        # open spans: (depth, parent layer, start, id, function, parent
        # id, parent root); open_depth mirrors the top entry's depth so a
        # return that closes nothing costs one integer compare
        stack: list[tuple] = []
        depth = 0
        open_depth = -1
        cur = outside
        cur_id = 0
        cur_root = 0
        next_id = 1
        roots = 0
        t_begin = last = clock()

        def hook(frame: Any, event: str, arg: Any) -> None:
            nonlocal depth, open_depth, cur, cur_id, cur_root, next_id
            nonlocal roots, last
            if event == "call":
                depth += 1
                code = frame.f_code
                layer = code_layer.get(code)
                if layer is None:
                    layer = code_layer[code] = index[classify(frame)]
                calls[layer] += 1
                if layer != cur:
                    t = clock()
                    self_s[cur] += t - last
                    last = t
                    stack.append((depth, cur, t, next_id, code.co_name,
                                  cur_id, cur_root))
                    if cur == sim:
                        # control leaves the engine: one event fires
                        roots += 1
                        cur_root = roots
                    spans[layer] += 1
                    open_depth = depth
                    cur = layer
                    cur_id = next_id
                    next_id += 1
            elif event == "return":
                if depth == open_depth:
                    t = clock()
                    self_s[cur] += t - last
                    last = t
                    (_d, parent, start, sid, name, parent_id,
                     parent_root) = stack.pop()
                    edge = edges.get((cur, parent))
                    if edge is None:
                        edges[(cur, parent)] = [1, t - start]
                    else:
                        edge[0] += 1
                        edge[1] += t - start
                    if sid <= keep:
                        raw.append((sid, cur, name, start - t_begin,
                                    t - t_begin, parent_id, cur_root))
                    cur = parent
                    cur_id = parent_id
                    cur_root = parent_root
                    open_depth = stack[-1][0] if stack else -1
                depth -= 1
            # c_call / c_return / c_exception: C time belongs to the caller

        sys.setprofile(hook)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.setprofile(None)
            t = clock()
            self_s[cur] += t - last
            self.total_s += t - t_begin

    # ------------------------------------------------------------------ #
    def per_layer(self, msgs: int) -> dict[str, dict[str, float]]:
        """``{layer: {self_us_per_msg, calls_per_msg, spans_per_msg}}``."""
        return {
            name: {
                "self_us_per_msg": self.self_s[i] * 1e6 / msgs,
                "calls_per_msg": self.calls[i] / msgs,
                "spans_per_msg": self.spans[i] / msgs,
            }
            for i, name in enumerate(LAYERS)
        }

    def write_chrome_trace(self, path: str, meta: dict[str, Any]) -> None:
        """Write kept spans as Chrome trace events, aggregates beside them.

        ``chrome://tracing`` and Perfetto read ``traceEvents`` and ignore
        the other keys: ``edges`` is the per-(layer, parent layer)
        aggregate over *all* spans, ``layers`` the per-layer totals.
        """
        events = [
            {"name": name, "cat": LAYERS[layer], "ph": "X", "pid": 0,
             "tid": 0, "ts": start * 1e6, "dur": (end - start) * 1e6,
             "args": {"id": sid, "parent": parent, "root": root}}
            for sid, layer, name, start, end, parent, root
            in sorted(self.raw)
        ]
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "meta": meta,
            "layers": {
                name: {"self_s": self.self_s[i], "calls": self.calls[i],
                       "spans": self.spans[i]}
                for i, name in enumerate(LAYERS)
            },
            "edges": [
                {"layer": LAYERS[layer], "parent": LAYERS[parent],
                 "spans": n, "inclusive_s": secs}
                for (layer, parent), (n, secs) in sorted(self.edges.items())
            ],
            "total_s": self.total_s,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)
