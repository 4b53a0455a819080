"""Span tracing from outside the program: wrap module-level names, record
one span per call, restore the originals afterwards.

The stefansim modules bind their collaborators at import time
(``from .transform import coefficients``), so a layer is traced by
replacing *every* module-level binding of the function object in the
package, not only the one in the defining module.  Spans are kept in
memory as ``(name, start, end, parent, run_id)`` tuples; ``parent`` is the
index of the enclosing span or -1.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

PACKAGE = "stefansim"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Installs span and counting wrappers; ``uninstall`` restores every binding.

    ``trace_function`` and ``trace_method`` take an optional hook
    ``after(counts, args, kwargs, result)`` that adds the work counts a
    call's arguments or return value carry.
    """

    def __init__(self, run_id=0):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, name, fn, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        run_id = self.run_id

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, run_id)
                counts[name + ".calls"] += 1
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation -----------------------------------------------------
    def _rebind(self, original, wrapper):
        hits = 0
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    hits += 1
        if hits == 0:
            raise LookupError(f"no module-level binding of {original!r} in {PACKAGE}")

    def trace_function(self, name, module, attr, after=None):
        """Span-wrap every package binding of ``module.attr``."""
        original = getattr(module, attr)
        self._rebind(original, self._span_wrapper(name, original, after))

    def count_function(self, name, module, attr):
        """Count calls to every package binding of ``module.attr`` (no span)."""
        original = getattr(module, attr)
        self._rebind(original, self._count_wrapper(name, original))

    def trace_method(self, name, cls, attr, after=None):
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self._span_wrapper(name, original, after))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- spans recorded by the benchmark itself ---------------------------
    def span(self, name):
        return _ManualSpan(self, name)

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,run_id\n")
            for name, start, end, parent, run_id in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{run_id}\n")


class _ManualSpan:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.idx = len(tr.spans)
        tr.spans.append(None)
        self.parent = tr._stack[-1] if tr._stack else -1
        tr._stack.append(self.idx)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.idx] = (self.name, self.start, end, self.parent, tr.run_id)
        tr.counts[self.name + ".calls"] += 1
        return False


def self_times(spans):
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval
    covered by the union of its child spans (clipped to the parent).
    """
    children = defaultdict(list)
    for name, start, end, parent, run_id in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals = defaultdict(float)
    for idx, (name, start, end, parent, run_id) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        totals[name] += (end - start) - covered
    return dict(totals)
