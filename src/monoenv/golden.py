"""Golden-section maximization of unimodal functions, many brackets at once.

Each bracket is kept as Python floats and follows the scalar recurrence step
for step, so a bracket searched together with others ends exactly where it
would end alone; only the function calls are shared.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(func: Callable[[list, list], Sequence[float]],
               lo: Sequence[float], hi: Sequence[float],
               iters: int, width: float) -> list[float]:
    """Golden-section maximizers of K unimodal functions, one per bracket
    [lo[k], hi[k]].

    ``func(ts, rows)`` returns the values at the parameters ``ts[i]`` of the
    functions ``rows[i]`` (row indices into the brackets). Every step makes one
    call for all brackets still open; a bracket closes after ``iters`` steps
    or once it is no wider than ``width``. Returns the bracket midpoints.
    """
    a = [float(v) for v in lo]
    b = [float(v) for v in hi]
    c = [bk - INVPHI * (bk - ak) for ak, bk in zip(a, b)]
    e = [ak + INVPHI * (bk - ak) for ak, bk in zip(a, b)]
    live = list(range(len(a)))
    fc = list(func(c, live))
    fe = list(func(e, live))
    for step in range(iters):
        still, ts, at_c = [], [], []
        for k in live:
            if fc[k] >= fe[k]:
                b[k], e[k], fe[k] = e[k], c[k], fc[k]
                t = c[k] = b[k] - INVPHI * (b[k] - a[k])
                new_c = True
            else:
                a[k], c[k], fc[k] = c[k], e[k], fe[k]
                t = e[k] = a[k] + INVPHI * (b[k] - a[k])
                new_c = False
            if b[k] - a[k] > width:
                still.append(k)
                ts.append(t)
                at_c.append(new_c)
        live = still
        if not live or step == iters - 1:
            break  # the new points' values would never be compared
        for k, new_c, v in zip(live, at_c, func(ts, live)):
            if new_c:
                fc[k] = v
            else:
                fe[k] = v
    return [0.5 * (ak + bk) for ak, bk in zip(a, b)]
