"""In-memory span recording and the arithmetic the benchmark reports.

A span is one call across a layer boundary: name, start, end, the span that
was open when it started (its parent) and the op it belongs to. Spans are
appended to flat arrays while the workload runs and are only aggregated or
written out after the timed loop ends.
"""

from __future__ import annotations

import functools
import math
import time
from array import array

import numpy as np


class Tracer:
    """Records nested spans for one process. Not thread-safe: the benchmark
    drives the library from a single caller."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self.op_id = -1  # -1 marks set-up work outside any op
        self.paused = False  # set while the benchmark checks a result
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(math.nan)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named ``name``."""
        i = self.open(self.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    def wrap(self, name: str, fn, on_error=None):
        """Return fn wrapped in a span; ``on_error(exc)`` sees every exception."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                self.close(i)

        return traced

    def wrap_by_rows(self, name: str, fn):
        """Wrap a callable on a stack of rows, with separate spans named
        ``name.scalar`` for one-row calls and ``name.batch`` for the others,
        and row totals counted under the same names."""
        ids = {True: self.name_id(name + ".scalar"), False: self.name_id(name + ".batch")}

        def traced(X):
            if self.paused:
                return fn(X)
            scalar = len(X) == 1
            self.count(name + (".scalar" if scalar else ".batch"), len(X))
            i = self.open(ids[scalar])
            try:
                return fn(X)
            finally:
                self.close(i)

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it covered by its children.

    Child intervals are clipped to the parent's interval and merged before
    they are subtracted, so overlapping children are not counted twice.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    kids = np.flatnonzero(parent >= 0)
    if len(kids) == 0:
        return out
    order = kids[np.lexsort((start[kids], parent[kids]))]
    cur, lo, hi = -1, 0.0, 0.0
    for k in order.tolist():
        p = int(parent[k])
        a = max(start[k], start[p])
        b = min(end[k], end[p])
        if p != cur:
            if cur >= 0:
                out[cur] -= hi - lo
            cur, lo, hi = p, a, max(a, b)
        elif a > hi:
            out[cur] -= hi - lo
            lo, hi = a, max(a, b)
        else:
            hi = max(hi, b)
    out[cur] -= hi - lo
    return out


def span_totals(names, name, start, end, parent, mask=None) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, inclusive seconds and self seconds,
    over the spans selected by ``mask`` (all spans when it is None)."""
    name = np.asarray(name)
    dur = np.asarray(end, float) - np.asarray(start, float)
    own = self_times(start, end, parent)
    if mask is not None:
        name, dur, own = name[mask], dur[mask], own[mask]
    k = len(names)
    calls = np.bincount(name, minlength=k)
    incl = np.bincount(name, weights=dur, minlength=k)
    selfs = np.bincount(name, weights=own, minlength=k)
    return {nm: {"calls": float(calls[i]), "s": float(incl[i]), "self_s": float(selfs[i])}
            for i, nm in enumerate(names)}


def nearest_rank(samples, q: float) -> float:
    """The q-th percentile (0 < q < 100) by the nearest-rank rule."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    k = max(1, math.ceil(q / 100.0 * len(xs)))
    return xs[k - 1]


def tail_count(samples, q: float) -> int:
    """How many samples lie strictly above the nearest-rank q-th percentile."""
    p = nearest_rank(samples, q)
    return sum(1 for x in samples if x > p)


def min_samples(q: float, beyond: int = 10) -> int:
    """Fewest samples for which the q-th percentile leaves ``beyond`` above it."""
    return math.ceil(beyond * 100.0 / (100.0 - q) - 1e-9)
