"""Per-layer tracing of gaplab from outside the package.

``Tracer.install`` replaces functions and methods of the loaded
``gaplab.*`` modules with wrappers that record one span per call: name,
request id (the experiment), parent span, start, end, and counters
derived from the call's arguments and result.  Every module attribute
that *is* a target function is patched, because gaplab re-imports names
across modules (``cli.discrepancy``, ``certificates.power_set``, ...).
A target that does not exist is simply not in ``installed``; the caller
reports it as absent, so the benchmark keeps running when a later
version of gaplab deletes or renames it.  ``numpy.fft`` transforms are counted at the
numpy boundary and charged to the innermost open span.  Spans stay in
memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types
from collections import defaultdict

LAYERS = ("cli", "actions", "koopman", "operators", "regular_norm",
          "measures", "groups", "certificates", "nets")

# private functions the certificate and report stages run through
PRIVATE = ("certificates._act_union", "certificates._pair_correlations",
           "cli._write_outputs")

FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn",
                 "irfftn", "fft2", "ifft2", "rfft2", "irfft2", "hfft", "ihfft")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _size(x) -> int:
    return int(getattr(x, "size", None) or len(x))


# counters per span name: f(args, kwargs, result) -> {counter: value};
# names ending in "_max" are maxima, all others are sums
COUNTERS = {
    "actions.act_indices":
        lambda a, k, r: {"cells": _size(_arg(a, k, 2, "idx"))},
    "operators.apply":
        lambda a, k, r: {"cells": _size(_arg(a, k, 1, "x"))},
    "operators.operator_norm_self_adjoint":
        lambda a, k, r: {"iterations": int(r.iterations)},
    "measures.convolve":
        lambda a, k, r: {"pairs": len(_arg(a, k, 0, "a")) * len(_arg(a, k, 1, "b")),
                         "support_max": len(r)},
    "groups.product_set":
        lambda a, k, r: {"pairs": len(_arg(a, k, 1, "xs")) * len(_arg(a, k, 2, "ys")),
                         "out_max": len(r)},
    "certificates._act_union":
        lambda a, k, r: {"elements": len(_arg(a, k, 1, "elements"))},
}

# span record fields
NAME, REQUEST, PARENT, START, END, CHILD_S, COUNTS, NESTED = range(8)


class Tracer:
    """Wraps gaplab from outside; holds the spans of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request: str | None = None
        self.installed: set[str] = set()
        self.fft_totals = {"calls": 0, "cells": 0}
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, open_names = self.spans, self.stack, self._open
        count = COUNTERS.get(name)
        now = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, tracer.request, parent, 0.0, 0.0, 0.0, None,
                   open_names[name] > 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            open_names[name] += 1
            rec[START] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                rec[END] = end
                stack.pop()
                open_names[name] -= 1
                if parent >= 0:
                    spans[parent][CHILD_S] += end - rec[START]
            if count is not None:
                try:
                    counts = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    counts = {}
                rec[COUNTS] = dict(rec[COUNTS] or {}, **counts)
            return result

        return wrapper

    def _fft_wrapper(self, fn):
        spans, stack, totals = self.spans, self.stack, self.fft_totals

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if stack:  # calls made outside gaplab are not counted
                cells = int(getattr(a, "size", 0))
                totals["calls"] += 1
                totals["cells"] += cells
                rec = spans[stack[-1]]
                counts = rec[COUNTS] = rec[COUNTS] or {}
                counts["fft_calls"] = counts.get("fft_calls", 0) + 1
                counts["fft_cells"] = counts.get("fft_cells", 0) + cells
            return fn(a, *args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, function) for every traced callable."""
        out = []
        for layer in LAYERS:
            mod = sys.modules.get("gaplab." + layer)
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or name in PRIVATE)):
                    out.append((name, None, None, obj))
        actions = sys.modules.get("gaplab.actions")
        for cls in vars(actions).values() if actions else ():
            if isinstance(cls, type) and "act_indices" in cls.__dict__:
                out.append(("actions.act_indices", cls, "act_indices",
                            cls.__dict__["act_indices"]))
        operators = sys.modules.get("gaplab.operators")
        handle = getattr(operators, "LinearOperatorHandle", None)
        if handle is not None and "__call__" in handle.__dict__:
            out.append(("operators.apply", handle, "__call__",
                        handle.__dict__["__call__"]))
        return out

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "gaplab" or n.startswith("gaplab.")) and m is not None]
        wrappers = {}
        for name, owner, attr, fn in self._targets():
            wrapper = self._span_wrapper(name, fn)
            self.installed.add(name)
            if owner is not None:
                self._patch(owner, attr, wrapper)
            else:
                wrappers[id(fn)] = (fn, wrapper)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        import numpy.fft

        for fname in FFT_FUNCTIONS:
            fn = getattr(numpy.fft, fname, None)
            if fn is not None:
                self._patch(numpy.fft, fname, self._fft_wrapper(fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive s (outermost calls only), self_s,
        and summed (or, for ``*_max``, maximal) counters."""
        agg: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for rec in self.spans:
            a = agg[rec[NAME]]
            duration = rec[END] - rec[START]
            a["calls"] += 1
            if not rec[NESTED]:
                a["s"] += duration
            a["self_s"] += duration - rec[CHILD_S]
            for key, value in (rec[COUNTS] or {}).items():
                if key.endswith("_max"):
                    a[key] = max(a.get(key, 0), value)
                else:
                    a[key] = a.get(key, 0) + value
        return dict(agg)

    def root_seconds(self) -> float:
        return sum(r[END] - r[START] for r in self.spans if r[PARENT] < 0)

    def write(self, path, meta: dict) -> None:
        """Spans as gzipped JSON lines: one header line, then one per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"meta": meta, "fields": [
                "name", "request", "parent", "start", "end", "child_s",
                "counters", "nested"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
