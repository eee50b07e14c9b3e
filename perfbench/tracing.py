"""In-memory spans around calls into ratiodyn's modules, recorded from outside.

The tracer replaces a function in the namespace of the module that *calls*
it (for example ``sys.modules["ratiodyn.classify"].find_two_cycles``), so the
package's own code is left untouched and only calls that cross a module
boundary become spans.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from time import perf_counter

# (calling module, bound name, span name); the span name is "<layer>.<function>"
# except for criteria, whose closed-form helpers are reported as one layer.
BOUNDARIES = (
    ("ratiodyn.cli", "classify", "classify.classify"),
    ("ratiodyn.classify", "equilibria", "ratio_map.equilibria"),
    ("ratiodyn.classify", "find_two_cycles", "cycles.find_two_cycles"),
    ("ratiodyn.classify", "detect_ratio_limit", "simulate.detect_ratio_limit"),
    ("ratiodyn.classify", "empirical_class", "simulate.empirical_class"),
    ("ratiodyn.classify", "subsequence_monotonicity", "simulate.subsequence_monotonicity"),
    ("ratiodyn.classify", "R_second_at_1", "criteria"),
    ("ratiodyn.classify", "kappa", "criteria"),
    ("ratiodyn.classify", "l_quantity", "criteria"),
    ("ratiodyn.classify", "S_second_at_q", "criteria"),
    # only the top-level root searches; the derivative recursion inside
    # ratiodyn.polynomial stays part of the span
    ("ratiodyn.cycles", "real_roots_flagged", "polynomial.real_roots"),
    ("ratiodyn.ratio_map", "real_roots_flagged", "polynomial.real_roots"),
)

# spans whose result says whether the call did useful work
_TAGGERS = {"simulate.detect_ratio_limit": lambda report: report.kind}


class Tracer:
    """Collects spans ``(id, parent, request, name, start, end, error, tag)``."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, fn, name, tag, args, kwargs, root=False):
        stack = self._stack()
        # a span opened on an empty stack in a worker thread was caused by
        # the request's root span on the thread that submitted the work
        parent = None if root else stack[-1] if stack else self._root
        sid = next(self._ids)
        if root:
            self._root = sid
        stack.append(sid)
        error = None
        result = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = perf_counter()
            stack.pop()
            label = tag(result) if tag is not None and error is None else None
            self.spans.append((sid, parent, self.request, name, start, end, error, label))

    def root(self, request, name, fn, *args, **kwargs):
        """Call ``fn`` as the root span of request number ``request``."""
        self.request = request
        try:
            return self._record(fn, name, None, args, kwargs, root=True)
        finally:
            self._root = None

    def install(self, boundaries=BOUNDARIES):
        """Wrap every boundary; ``uninstall`` puts the original names back."""
        for module_name, attr, name in boundaries:
            module = sys.modules[module_name]
            fn = getattr(module, attr)
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, name))

    def uninstall(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def _wrapper(self, fn, name):
        tag = _TAGGERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(fn, name, tag, args, kwargs)

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, request, name, start, end, error, tag in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "request": request, "name": name,
                    "start": start, "end": end, "error": error, "tag": tag,
                }) + "\n")


def _covered(intervals):
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans):
    """Per span name: calls, self seconds, errors, and calls tagged other than "none".

    Self time is a span's duration minus the part of it that its child
    spans cover; children running in parallel threads are counted once.
    """
    children = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append(s)
    out = {}
    for sid, _parent, _request, name, start, end, error, tag in spans:
        kids = [
            (max(k[4], start), min(k[5], end))
            for k in children.get(sid, ())
        ]
        self_s = (end - start) - _covered([k for k in kids if k[1] > k[0]])
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "failed": 0, "found": 0})
        agg["calls"] += 1
        agg["self_s"] += self_s
        agg["failed"] += error is not None
        agg["found"] += tag is not None and tag != "none"
    return out
