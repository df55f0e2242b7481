"""How fast the host runs right now, from a fixed kernel of the benchmark's own.

The measuring machine is a shared host that switches between a fast and a
slow state, for seconds to minutes at a time, and the two differ up to
two-fold. The worker runs `probe()` between ops every PROBE_EVERY_S; each op
is then divided by the host factor around it, the mean of the probes just
before and just after it, so its time reads as if the host had run at the
reference speed throughout.

The kernel has three parts, one for each kind of work the library does:
interpreter loops (the simplex, the oracle's refinement), numpy calls on tiny
arrays (one-row estimator calls, simplex pivots) and a BLAS product (large
batches). The slow state slows the three by different amounts, so a
workload's factor is the geometric mean, over the parts that match its work
(WORKLOAD_PARTS), of each part's time over its reference time. The README's
"Times at the reference host speed" gives the measurements behind the
choice. Nothing here calls the library, so a change to the library cannot
move the factor. Changing the kernel, its parts or REFERENCE_MS changes every
timing the benchmark reports: compare two commits only with the same copy of
this file.
"""

from __future__ import annotations

import math
import time

import numpy as np

PROBE_EVERY_S = 0.25

# Each part's time in ms on the host's fast state, on the 2-vCPU machine the
# benchmark was written on; they only set the scale of the reported times.
REFERENCE_MS = {"interp": 2.2, "small": 2.1, "blas": 2.2}

_SMALL = (np.arange(4.0), np.ones(4))
_BLAS = np.random.default_rng(0).random((300, 300))


def _interp() -> float:
    s = 0.0
    for i in range(20_000):
        s += (i * 0.5) % 3.0
    return s


def _small() -> float:
    x, y = _SMALL
    for _ in range(500):
        x, y = np.maximum(x + y, y - x), np.minimum(y - x, x + y)
        float(x.sum())
    return float(y[0])


def _blas() -> float:
    return float((_BLAS @ _BLAS)[0, 0] + (_BLAS @ _BLAS)[1, 1])


_PARTS = {"interp": _interp, "small": _small, "blas": _blas}

# The kernel parts that match the work each workload does.
WORKLOAD_PARTS = {
    "oracle-verify": ("interp", "small", "blas"),
    "lp-integrality": ("interp", "small"),
    "bulk-envelope": ("blas",),
}


def probe(workload: str) -> float:
    """The host factor now for a workload: 1.0 at the reference speed, 2.0
    at half of it."""
    parts = WORKLOAD_PARTS[workload]
    logs = 0.0
    for name in parts:
        t0 = time.perf_counter()
        _PARTS[name]()
        logs += math.log((time.perf_counter() - t0) * 1e3 / REFERENCE_MS[name])
    return math.exp(logs / len(parts))


def normalize(durations, before, factors) -> list[float]:
    """Each duration divided by the mean of the probes around it.

    ``before[i]`` is the index in ``factors`` of the last probe taken before
    op i; the next probe was taken after it, and one always is.
    """
    return [d * 2.0 / (factors[p] + factors[p + 1]) for d, p in zip(durations, before)]
