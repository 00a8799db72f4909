"""Span tracing of the scrollcoh layers from outside the package.

Each layer is one module of the package.  ``Tracer.install`` wraps the
module's public functions and the listed methods of its classes, and rebinds
every wrapped function under each name any scrollcoh module (or the package
itself) holds for it: ``homext``, ``beilinson`` and ``cli`` keep their own
bindings of ``omega_cohomology``, for instance.  Spans (id, parent, name,
start, end) stay in memory until ``write_spans``.  A layer's self time is the
duration of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from time import perf_counter

LAYERS = ("p1", "scroll", "relative", "homext", "tables", "sheaves",
          "beilinson", "ulrich", "cli")

# Methods that do a layer's work but are not module-level functions: the
# split-bundle functors, formal-sheaf normalisation and table arithmetic.
METHODS = {
    "p1": {"SplitBundle": ("sym", "wedge", "hook", "dual", "twist", "tensor")},
    "sheaves": {"FormalSheaf": ("__post_init__", "of", "twist", "scaled", "__add__")},
    "tables": {"CohomTable": ("exact", "zero", "scaled", "__add__")},
    "beilinson": {"BeilinsonTable": ("to_payload", "render_md", "render_latex")},
}


def _targets(layer):
    """(owner, attribute, callable, span name) for everything wrapped in a layer."""
    mod = sys.modules[f"scrollcoh.{layer}"]
    for name, obj in sorted(vars(mod).items()):
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == mod.__name__):
            yield mod, name, obj, f"{layer}.{name}"
    for cls_name, methods in METHODS.get(layer, {}).items():
        cls = getattr(mod, cls_name)
        for meth in methods:
            yield cls, meth, cls.__dict__[meth], f"{layer}.{cls_name}.{meth}"


def _install(layer, make_wrapper):
    for owner, attr, obj, span_name in list(_targets(layer)):
        if isinstance(owner, type):
            if isinstance(obj, classmethod):
                setattr(owner, attr, classmethod(make_wrapper(span_name, obj.__func__)))
            else:
                setattr(owner, attr, make_wrapper(span_name, obj))
            continue
        wrapped = make_wrapper(span_name, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "scrollcoh" or mod_name.startswith("scrollcoh."):
                for key, value in list(vars(mod).items()):
                    if value is obj:
                        setattr(mod, key, wrapped)


class Tracer:
    """Per-layer calls, self time and boundary counters for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = {"p1.summands": 0, "relative.koszul_atoms": 0,
                       "homext.entries": 0, "homext.exact": 0, "homext.width": 0,
                       "ulrich.types": 0}

    def install(self):
        for layer in LAYERS:
            _install(layer, lambda span_name, fn, layer=layer: self._wrap(layer, span_name, fn))

    def _wrap(self, layer, span_name, fn):
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        count = self._counter(layer, span_name)

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self_s[layer] += dur - frame[1]
                calls[layer] += 1
                if parent is None:
                    spans.append((sid, None, span_name, start, end))
                else:
                    parent[1] += dur
                    spans.append((sid, parent[0], span_name, start, end))
            if count is not None:
                count(result)
            return result

        return traced

    def _counter(self, layer, span_name):
        """The boundary counter fed by a span's result, if any."""
        counts = self.counts

        def summands(result):
            if hasattr(result, "degrees"):
                counts["p1.summands"] += len(result.degrees)

        def koszul_atoms(result):
            counts["relative.koszul_atoms"] += sum(len(t.terms) for t in result)

        def entries(result):
            counts["homext.entries"] += len(result.bounds)
            counts["homext.exact"] += sum(lo == hi for lo, hi in result.bounds)
            counts["homext.width"] += sum(hi - lo for lo, hi in result.bounds)

        def types(result):
            counts["ulrich.types"] += len(result)

        if layer == "p1":
            return summands
        return {"relative.koszul_resolution": koszul_atoms,
                "homext.hom_upper_bound": entries,
                "homext.ext_line_vs_atom": entries,
                "ulrich.enumerate_types": types}.get(span_name)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end in sorted(self.spans):
                handle.write(json.dumps([sid, parent, name, start, end]) + "\n")


class P1AllocProbe:
    """Peak tracemalloc allocation inside any outermost p1 call."""

    def __init__(self):
        self.peak = 0
        self._depth = 0

    def install(self):
        tracemalloc.start()
        _install("p1", self._wrap)

    def _wrap(self, span_name, fn):
        def probed(*args, **kwargs):
            outer = self._depth == 0
            if outer:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if outer:
                    self.peak = max(self.peak, tracemalloc.get_traced_memory()[1] - base)

        return probed
