"""Dense two-phase primal simplex for tiny linear programs.

Bland's rule throughout, so the method terminates deterministically; no
external solver is involved. Instances here are small (a handful of variables,
at most a few dozen rows), so a dense tableau is the simplest correct choice.

Both entries call one routine, `_solve`, which starts each row on its slack
where it has one and its right-hand side is >= 0, else on an artificial. Phase
1 runs only if some row starts on an artificial, and reads |a| <= 1e-10 as
zero, as the ratio test does. `solve_equality_lp` has no slacks. `solve_box_lp`
shifts the box to `lower` (`y = z - lower`) when every shifted right-hand side,
facet and box rows together, is >= 0, else to `upper` (`y = upper - z`) if that
holds there, else to `lower`. The parity polytope is feasible at its all-ones
vertex and the epigraph LPs of `polyrelax` at 0, so their solves skip phase 1.
Mismatched shapes raise `DimensionMismatch`, non-finite data `ValueError`.
"""

from __future__ import annotations

import numpy as np

from .core import DimensionMismatch

_TOL = 1e-10
MAX_PIVOTS = 50_000  # per phase; beyond it a solve raises "simplex iteration limit reached"


class LPInfeasible(RuntimeError):
    pass


class LPUnbounded(RuntimeError):
    pass


def _checked(c, A, b, *box) -> list[np.ndarray]:
    """The data as float arrays, with A of shape (len(b), len(c)), each box
    bound of len(c) entries and every entry finite."""
    arrays = [np.asarray(v, dtype=float) for v in (c, A, b, *box)]
    c, A, b = arrays[:3]
    if (c.ndim != 1 or b.ndim != 1 or A.shape != (b.size, c.size)
            or any(v.shape != c.shape for v in arrays[3:])):
        raise DimensionMismatch(f"LP data of shapes {[v.shape for v in arrays]} do not match")
    if not np.isfinite(np.concatenate([v.ravel() for v in arrays])).all():
        name = next(name for name, v in zip(("c", "A", "b", "lower", "upper"), arrays)
                    if not np.isfinite(v).all())
        raise ValueError(f"LP data {name} has a non-finite entry")
    return arrays


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


def _solve(A: np.ndarray, b: np.ndarray, cost: np.ndarray, slacks: bool) -> np.ndarray:
    """x >= 0 minimizing cost@x subject to A@x = b, or A@x + s = b with
    slacks s >= 0 (columns n..n+m-1, cost 0); artificials follow in row order."""
    m, n = A.shape
    real = n + m if slacks else n
    art = (b < 0.0).nonzero()[0] if slacks else np.arange(m)
    T = np.zeros((m + 1, real + len(art) + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    basis = list(range(n, n + m))
    if slacks:
        np.fill_diagonal(T[:m, n:], 1.0)
    if len(art):
        # Phase 1 minimizes the sum of the artificials. Its costs read |a| <=
        # _TOL as zero, as the ratio test does, or such a column could enter.
        rows = T[:m, :real]
        rows[np.abs(rows) <= _TOL] = 0.0
        for k, i in enumerate(art.tolist()):
            if b[i] < 0.0:
                T[i] *= -1.0
            T[i, real + k] = 1.0
            basis[i] = real + k
        T[m, :real] = -T[art, :real].sum(axis=0)
        T[m, -1] = -T[art, -1].sum()
        _run_simplex(T, basis, ncols=real)
        if T[m, -1] < -1e-7:
            raise LPInfeasible(f"phase-1 residual {-T[m, -1]:.3e}")
        # Drive every artificial still in the basis out of it; a row with no
        # real entry left to pivot on is redundant and is dropped.
        keep = []
        for i in range(m):
            if basis[i] >= real:
                nonzero = np.flatnonzero(np.abs(T[i, :real]) > 1e-9)
                if not nonzero.size:
                    continue
                _pivot(T, basis, i, int(nonzero[0]))
            keep.append(i)
        if len(keep) < m:
            T = T[keep + [m]]
            basis = [basis[i] for i in keep]
            m = len(keep)
        # Phase 2 prices out that basis; the artificial columns never enter.
        T[m, :n] = cost
        T[m, n:] = 0.0
        for i, j in enumerate(basis):
            if j < n and cost[j]:
                T[m] -= cost[j] * T[i]
    else:
        T[m, :n] = cost  # a slack basis prices at 0
    _run_simplex(T, basis, ncols=real)
    x = np.zeros(real)
    x[basis] = T[:m, -1]
    return x[:n]


def solve_equality_lp(c, A, b) -> tuple[np.ndarray, float]:
    """min c@x subject to A@x = b, x >= 0. Returns (x, optimal value)."""
    c, A, b = _checked(c, A, b)
    x = _solve(A, b, c, slacks=False)
    return x, float(c @ x)


def solve_box_lp(c, A_ub, b_ub, lower, upper, maximize: bool = False) -> tuple[np.ndarray, float]:
    """Optimize c@z subject to A_ub@z <= b_ub and lower <= z <= upper, as
    y = z - lower >= 0 (or y = upper - z) with the rows y <= upper - lower
    appended. Returns (z, optimal value)."""
    c, A_ub, b_ub, lower, upper = _checked(c, A_ub, b_ub, lower, upper)
    box = upper - lower
    for sign, anchor in ((1.0, lower), (-1.0, upper), (1.0, lower)):  # last: phase 1
        rhs = np.concatenate([b_ub - A_ub @ anchor, box])
        if (rhs >= 0.0).all():
            break
    rows = np.concatenate([sign * A_ub, np.eye(len(c))])
    y = _solve(rows, rhs, sign * (-c if maximize else c), slacks=True)
    z = anchor + sign * y
    return z, float(c @ z)
