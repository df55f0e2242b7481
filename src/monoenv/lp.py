"""Dense two-phase primal simplex for tiny linear programs.

Bland's rule throughout, so the method terminates deterministically; no
external solver is involved. Instances here are small (a handful of variables,
at most a few dozen rows), so a dense tableau is the simplest correct choice.

`solve_box_lp` shifts the box to the origin and starts phase 2 directly from
the slack basis when that basis is feasible: at `lower` (`y = z - lower`) when
every shifted right-hand side, facet rows and box rows together, is >= 0, or
else at `upper` (`y = upper - z`) under the same test. The parity polytope is
feasible at its all-ones vertex and the epigraph LPs of `polyrelax` at 0, so
their solves skip phase 1. Any other box LP falls back to `solve_equality_lp`,
whose phase 1 starts from one artificial per row. Both raise `ValueError` for
a non-finite entry of their data. `solve_equality_lp` reads a coefficient with
|a| <= 1e-10 as zero, as the ratio test does.
"""

from __future__ import annotations

import numpy as np

_TOL = 1e-10
MAX_PIVOTS = 50_000  # per phase; beyond it a solve raises "simplex iteration limit reached"


class LPInfeasible(RuntimeError):
    pass


class LPUnbounded(RuntimeError):
    pass


def _finite(**arrays: np.ndarray) -> None:
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"LP data {name} has a non-finite entry")


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    T -= np.outer(f, T[row])
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: list[int], ncols: int) -> None:
    """Minimize the objective encoded in the last tableau row over columns < ncols.

    The last row holds reduced costs (negated objective in the rhs cell);
    entering/leaving choices follow Bland's rule. The scans read Python list
    copies of the cost row, the pivot column and the rhs.
    """
    m = T.shape[0] - 1
    for _ in range(MAX_PIVOTS):
        col = -1
        for j, v in enumerate(T[m, :ncols].tolist()):  # Bland: smallest improving index
            if v < -_TOL:
                col = j
                break
        if col < 0:
            return
        ratio = np.inf
        row = -1
        rhs = T[:m, -1].tolist()
        for i, a in enumerate(T[:m, col].tolist()):
            if a > _TOL:
                r = rhs[i] / a
                # -_TOL <= r - ratio <= _TOL is abs(r - ratio) <= _TOL without the call
                if r < ratio - _TOL or (-_TOL <= r - ratio <= _TOL
                                        and (row < 0 or basis[i] < basis[row])):
                    ratio = r
                    row = i
        if row < 0:
            raise LPUnbounded("objective unbounded below")
        _pivot(T, basis, row, col)
    raise RuntimeError("simplex iteration limit reached")


def solve_equality_lp(c, A, b) -> tuple[np.ndarray, float]:
    """min c@x subject to A@x = b, x >= 0. Returns (x, optimal value)."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    _finite(c=c, A=A, b=b)
    # the ratio test reads |a| <= _TOL as zero; so must the phase-1 costs, or a
    # column of such entries would look improving with no row to leave
    A[np.abs(A) <= _TOL] = 0.0
    m, n = A.shape
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # Phase 1: artificial basis, minimize the sum of artificials.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(n, n + m))
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    _run_simplex(T, basis, ncols=n)
    if T[m, -1] < -1e-7:
        raise LPInfeasible(f"phase-1 residual {-T[m, -1]:.3e}")

    # Drive any artificial still in the basis out of it (degenerate rows).
    keep = []
    for i in range(m):
        if basis[i] >= n:
            piv = -1
            for j in range(n):
                if abs(T[i, j]) > 1e-9:
                    piv = j
                    break
            if piv >= 0:
                _pivot(T, basis, i, piv)
                keep.append(i)
            # else: redundant row, drop it below
        else:
            keep.append(i)
    if len(keep) < m:
        T = np.vstack([T[keep], T[-1:]])
        basis = [basis[i] for i in keep]
        m = len(keep)

    # Phase 2: rebuild reduced costs for the real objective.
    T2 = np.zeros((m + 1, n + 1))
    T2[:m, :n] = T[:m, :n]
    T2[:m, -1] = T[:m, -1]
    T2[m, :n] = c
    for i, bi in enumerate(basis):
        T2[m] -= c[bi] * T2[i]
    _run_simplex(T2, basis, ncols=n)

    x = np.zeros(n)
    for i, bi in enumerate(basis):
        x[bi] = T2[i, -1]
    return x, float(c @ x)


def solve_box_lp(c, A_ub, b_ub, lower, upper, maximize: bool = False) -> tuple[np.ndarray, float]:
    """Optimize c@z subject to A_ub@z <= b_ub and lower <= z <= upper.

    Shifts to y = z - lower >= 0 (or y = upper - z), appends slack columns and
    starts from the slack basis when it is feasible; otherwise delegates to the
    equality-form solver's phase 1. Returns (z, optimal value).
    """
    A_ub = np.asarray(A_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    c = np.asarray(c, dtype=float)
    _finite(c=c, A_ub=A_ub, b_ub=b_ub, lower=lower, upper=upper)
    n = len(c)
    obj = -c if maximize else c
    box = upper - lower
    for sign, anchor in ((1.0, lower), (-1.0, upper)):
        # z = anchor + sign * y; the slack basis sits at y = 0, z = anchor
        rhs = np.concatenate([b_ub - A_ub @ anchor, box])
        if (rhs >= 0.0).all():
            m = len(rhs)
            T = np.zeros((m + 1, n + m + 1))
            T[:m - n, :n] = sign * A_ub
            T[m - n:m, :n] = np.eye(n)
            T[:m, n:n + m] = np.eye(m)
            T[:m, -1] = rhs
            T[m, :n] = sign * obj
            basis = list(range(n, n + m))
            _run_simplex(T, basis, ncols=n + m)
            y = np.zeros(n + m)
            for i, bi in enumerate(basis):
                y[bi] = T[i, -1]
            z = anchor + sign * y[:n]
            return z, float(c @ z)

    rows = np.vstack([A_ub, np.eye(n)])
    rhs = np.concatenate([b_ub - A_ub @ lower, box])
    m = rows.shape[0]
    A_eq = np.hstack([rows, np.eye(m)])
    sol, _ = solve_equality_lp(np.concatenate([obj, np.zeros(m)]), A_eq, rhs)
    z = sol[:n] + lower
    return z, float(c @ z)
