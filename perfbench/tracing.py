"""Spans recorded from outside ``cohrand``, around calls into its public
functions.

:class:`Tracer` replaces each traced function with a wrapper in every
``cohrand`` module namespace that binds it (``verify`` calls its own
binding of ``random_incoherent_kraus``, ``rng`` its own ``toeplitz_gf2``
and ``distill_simulate``), so the package runs unmodified and every call
path is seen. Spans (name, parent, start, end, extra) stay in memory; self
time and counts are derived from them after the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict


def _roof_descent_extra(result):
    value, _, converged = result
    return (float(value), bool(converged))


def _toeplitz_extract_extra(result):
    return result[1].output_length


# What a span keeps of its function's result, beyond its timing.
EXTRA = {
    "_kernels.roof_descent": _roof_descent_extra,
    "rng.toeplitz_extract": _toeplitz_extract_extra,
}


class Tracer:
    """Installs span-recording wrappers around the functions named
    "<module>.<name>" under the cohrand package; :meth:`remove` restores
    the original bindings."""

    def __init__(self, names):
        self.spans = []  # [name, parent index or -1, start, end, extra]
        self._stack = []
        self._restore = []
        targets = []
        for name in names:
            mod_name, attr = name.rsplit(".", 1)
            targets.append((name, getattr(importlib.import_module(f"cohrand.{mod_name}"), attr)))
        modules = [m for k, m in sys.modules.items() if k == "cohrand" or k.startswith("cohrand.")]
        for name, original in targets:
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        extra = EXTRA.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if extra is not None:
                span[4] = extra(result)
            return result

        return traced

    def remove(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines [name, parent, start, end, extra]."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans) -> dict:
    """Per-name call count, total time and self time (duration minus the
    time covered by direct child spans)."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, _, start, end, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return dict(out)


def restarts_at_best(spans, tol_bits: float = 1e-6):
    """(restarts ending within tol_bits of their roof call's best, restarts),
    summed over every optimize_roof span with at least one descent."""
    values = defaultdict(list)
    for name, parent, _, _, extra in spans:
        if name == "_kernels.roof_descent":
            values[parent].append(extra[0])
    at_best = sum(sum(1 for v in vs if v - min(vs) <= tol_bits) for vs in values.values())
    return at_best, sum(len(vs) for vs in values.values())
