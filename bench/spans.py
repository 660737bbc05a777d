"""Per-layer spans recorded from outside the program.

A layer is one module of the kinb package. `Tracer.install` wraps every
public function (a function listed in the module's ``__all__`` and defined
there) and rebinds the wrapper in every kinb namespace that holds the
original, because modules bind names such as ``rhs_bilinear`` and
``refine_array`` at import. `Tracer.restore` puts the originals back.

Each call records one span: name, start, end, parent span, and the
computed ``nbytes`` of a returned array. Spans stay in memory; `write`
puts them in a file at the end. The run is single-threaded, so nothing
waits on anything else and no wait time is reported.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("spectral", "collision", "evolution", "diagnostics",
          "inequalities", "verify")

# spans whose name carries the value of an argument: (position, keyword)
_LABEL_ARG = {"verify.run_suite": (0, "name")}

NAME, START, END, PARENT, NBYTES = range(5)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.hooked: list = []
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        label = _LABEL_ARG.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if label is not None:
                pos, key = label
                arg = args[pos] if len(args) > pos else kwargs.get(key)
                span_name = f"{name}.{arg}"
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            nbytes = 0
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if type(out) is np.ndarray:
                    nbytes = out.nbytes
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (span_name, t0, t1, stack[-1] if stack else -1,
                              nbytes)

        return wrapper

    def install(self, package: str = "kinb") -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        wrappers = {}   # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
                    self.hooked.append(f"{layer}.{attr}")
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        self.hooked.sort()

    def restore(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def write(self, path: str, **header) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, **header,
                       "fields": ["name", "start", "end", "parent", "nbytes"],
                       "spans": self.spans}, fh)


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list) -> list:
    """Span duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [s[END] - s[START] - _covered(children.get(i, []), s[START], s[END])
            for i, s in enumerate(spans)]


def _has_ancestor(spans: list, i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def summarize(spans: list, since: float, steps: int) -> dict:
    """Per-name calls, total, self time and bytes for spans starting at or
    after `since`, plus the derived ratios the benchmark reports. Call it
    once every traced call has returned.

    `collision.build_s` is the first stability_limit/total_weight span of
    the whole list, which is where the collision operator is built.
    """
    selfs = self_times(spans)
    per: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                     "self_s": 0.0, "bytes": 0})
    for s, st in zip(spans, selfs):
        if s[START] < since:
            continue
        agg = per[s[NAME]]
        agg["calls"] += 1
        agg["total_s"] += s[END] - s[START]
        agg["self_s"] += st
        agg["bytes"] += s[NBYTES]
    in_window = [i for i, s in enumerate(spans) if s[START] >= since]
    rhs_calls = per["collision.rhs_bilinear"]["calls"] if "collision.rhs_bilinear" in per else 0
    refine_in_rhs = sum(1 for i in in_window
                        if spans[i][NAME] == "spectral.refine_array"
                        and spans[i][PARENT] >= 0
                        and spans[spans[i][PARENT]][NAME] == "collision.rhs_bilinear")
    rhs_in_run = sum(1 for i in in_window
                     if spans[i][NAME] == "collision.rhs_bilinear"
                     and _has_ancestor(spans, i, "evolution.run"))
    build = next((s[END] - s[START] for s in spans
                  if s[NAME] in ("collision.stability_limit", "collision.total_weight")),
                 0.0)
    return {
        "per_name": {k: dict(v) for k, v in per.items()},
        "refine_per_rhs": refine_in_rhs / rhs_calls if rhs_calls else 0.0,
        "rhs_per_step": rhs_in_run / steps if steps else 0.0,
        "build_s": build,
        "spans": len(in_window),
    }
