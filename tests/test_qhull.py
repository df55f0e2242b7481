"""Qhull (``scipy.spatial.ConvexHull``) as a reference that does not encode the
paper's theory: the convex hull of the lifted vertices (v, v_1...v_n) over
{-1,1}^n, compared with ``FacetSystem``'s parity facets."""

import itertools

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from monoenv.hulls import FacetSystem


def _qhull_planes(n):
    """The facet planes of the lifted vertices' hull, (unit normal, offset)
    rows that are <= 0 inside, rounded to 9 digits so that the coplanar
    simplices Qhull triangulates a facet into give one plane; every row here
    lies more than 1e-14 from a rounding boundary, and Qhull's from ours by
    about 1e-16."""
    V = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    hull = ConvexHull(np.column_stack([V, np.prod(V, axis=1)]))
    return _as_set(hull.equations)


def _as_set(rows):
    return {tuple(r) for r in np.round(rows, 9) + 0.0}  # + 0.0 makes -0.0 equal 0.0


def _parity_and_box_planes(signs, n):
    """Each parity row s of the hull, s.z >= -(n-1), as the plane
    (-s, -(n-1))/sqrt(n+1); from n = 3 on, with the 2(n+1) facets of the
    box [-1,1]^(n+1), which the parity rows imply only at n = 2."""
    planes = np.column_stack([-signs, np.full(len(signs), -(n - 1.0))]) / np.sqrt(n + 1)
    if n >= 3:
        e = np.eye(n + 1)
        planes = np.vstack([planes, np.column_stack([np.vstack([e, -e]), -np.ones(2 * n + 2)])])
    return _as_set(planes)


@pytest.mark.parametrize("n, count", [(2, 4), (3, 16), (4, 26), (5, 44)])
def test_the_parity_facets_are_qhulls(n, count):
    planes, signs = _qhull_planes(n), FacetSystem(n).sign_matrix
    assert len(planes) == count
    assert planes == _parity_and_box_planes(signs, n)
    for k in range(len(signs)):  # a planted slip: one parity row left out
        assert planes != _parity_and_box_planes(np.delete(signs, k, axis=0), n)
