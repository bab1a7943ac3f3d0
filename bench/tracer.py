"""Opt-in span tracing of glab's public functions, from outside the program.

``Tracer.install()`` replaces every public function of the traced
modules, in every glab module namespace that binds it (so
``cli.run_verify``, which is ``ideals.verify``, and ``ideals.wedderburn``,
which is ``algebra.wedderburn``, are both covered), plus the listed
methods on their classes, with a wrapper that records one span per call:
name, start, end, parent span and thread.  ``uninstall()`` restores the
originals.  Spans stay in memory until ``spans()`` is read.

A span opened in a worker thread with no open span of its own takes the
innermost open span of the main thread as its parent, which is how the
``verify --batch`` worker spans hang under ``cli.main``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

LAYERS = ("formats", "groupoids", "algebra", "linalg", "ideals", "reports", "cli",
          "dynamics")

# Methods are wrapped on their classes; None means every public method.
METHODS = {
    ("groupoids", "FiniteGroupoid"): ("validate", "restrict"),
    ("algebra", "BlockDecomposition"): ("restriction_decomposition", "all_ideals"),
    ("dynamics", "FiniteDynSystem"): None,
    ("dynamics", "DirectedGraph"): None,
}

# Per-element helpers called hundreds of thousands of times per round;
# a span each would make the trace a per-element profile and swamp the
# layers' own times with tracing cost.
SKIP = {"reports.fmt_element", "reports.fmt_set", "dynamics.apply",
        "dynamics.out_edges"}

# Work counts read off a call's result, keyed by span name.
RESULT_COUNTS = {
    "ideals.enumerate_triples": ("ideals.triples", len),
    "dynamics.simple_cycles": ("dynamics.cycles", len),
    "ideals.verify": ("ideals.ideals_checked", lambda report: report.counts["ideals"]),
}


class Tracer:
    def __init__(self):
        self._ids = itertools.count()
        self._records = {}
        self._local = threading.local()
        self._main_stack = []
        self._main_ident = threading.main_thread().ident
        self._saved = []          # (namespace, attribute, original)

    # -- wrapping --------------------------------------------------------------

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        counted = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if parent is None and stack is not self._main_stack:
                try:
                    parent = self._main_stack[-1]
                except IndexError:
                    parent = None
            span = next(self._ids)
            stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._records[span] = (name, start, end, parent, threading.get_ident(), 0)
            if counted is not None:
                self._records[span] = self._records[span][:5] + (counted[1](result),)
            return result

        return traced

    def install(self):
        modules = {layer: sys.modules[f"glab.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name not in SKIP:
                    wrappers[value] = self._wrap(value, name)
        namespaces = [m for n, m in sys.modules.items()
                      if n == "glab" or n.startswith("glab.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for (layer, cls_name), names in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            if names is None:
                names = [a for a, v in vars(cls).items()
                         if not a.startswith("_") and inspect.isfunction(v)]
            for attr in names:
                name = f"{layer}.{attr}"
                if name in SKIP:
                    continue
                original = vars(cls)[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, name))

    def uninstall(self):
        for namespace, attr, original in reversed(self._saved):
            setattr(namespace, attr, original)
        self._saved.clear()

    def take(self) -> list:
        """The finished spans since the last call, ordered by id:
        (id, name, start, end, parent, thread, work)."""
        records, self._records = self._records, {}
        return [(i,) + records[i] for i in sorted(records)]


# -- per-layer metrics -------------------------------------------------------------


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    out = {}
    for span in spans:
        sid, _, start, end = span[:4]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = (end - start) - covered
    return out


def layer_totals(spans) -> dict:
    """Per span name: summed self time, call count and summed work."""
    selfs = self_times(spans)
    totals = {}
    for sid, name, _, _, _, _, work in spans:
        entry = totals.setdefault(name, [0.0, 0, 0])
        entry[0] += selfs[sid]
        entry[1] += 1
        entry[2] += work
    return totals


def worker_busy(spans, name: str) -> float:
    """Summed durations of ``name`` spans opened off the main thread."""
    main = threading.main_thread().ident
    return sum(end - start for _, n, start, end, _, thread, _ in spans
               if n == name and thread != main)
