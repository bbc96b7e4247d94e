"""Quadrature rules on triangles (barycentric) and edges (unit interval),
and the row blocks that a quadrature over a whole mesh runs in."""
from __future__ import annotations

import numpy as np

__all__ = ["tri_rule", "rule_degree", "edge_rule", "tri_points",
           "row_blocks", "row_dot", "DEFAULT_DEGREE", "BLOCK_ROWS"]

DEFAULT_DEGREE = 4
# the most triangles a quadrature over a mesh evaluates at once, so that
# its point values take memory bounded by the block, not by the mesh; the
# table of 1k, 4k and 16k rows it was picked from is in CHANGES.md
BLOCK_ROWS = 4096

_S15 = np.sqrt(15.0)


def _orbit3(a):
    b = 1.0 - 2.0 * a
    return [(b, a, a), (a, b, a), (a, a, b)]


# barycentric points and weights; weights sum to 1, scale by the area
_RULES = {
    1: (np.array([(1 / 3, 1 / 3, 1 / 3)]), np.array([1.0])),
    2: (np.array(_orbit3(0.5)), np.full(3, 1 / 3)),
    4: (np.array(_orbit3(0.445948490915965) + _orbit3(0.091576213509771)),
        np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)),
    5: (np.array([(1 / 3, 1 / 3, 1 / 3)]
                 + _orbit3((6.0 - _S15) / 21.0)
                 + _orbit3((6.0 + _S15) / 21.0)),
        np.array([9.0 / 40.0]
                 + [(155.0 - _S15) / 1200.0] * 3
                 + [(155.0 + _S15) / 1200.0] * 3)),
}


def rule_degree(degree=DEFAULT_DEGREE):
    """Degree of the smallest available rule exact to at least ``degree``."""
    for d in sorted(_RULES):
        if d >= degree:
            return d
    raise ValueError("no triangle rule of degree %d available" % degree)


def tri_rule(degree=DEFAULT_DEGREE):
    """Smallest available rule exact to at least the requested degree."""
    return _RULES[rule_degree(degree)]


def edge_rule():
    """Two-point Gauss rule on [0, 1]; exact to degree 3."""
    g = 0.5 / np.sqrt(3.0)
    return np.array([0.5 - g, 0.5 + g]), np.array([0.5, 0.5])


def tri_points(coords, bary):
    """Physical quadrature points, shape (nt, nq, 2), from vertex coordinates
    (nt, 3, 2) and barycentric points (nq, 3)."""
    return bary @ coords


def row_blocks(n):
    """Slices of at most ``BLOCK_ROWS`` consecutive rows covering range(n)."""
    return [slice(i, min(i + BLOCK_ROWS, n)) for i in range(0, n, BLOCK_ROWS)]


def row_dot(vals, w):
    """``vals @ w`` for a (n, nq) block of point values and weights (nq,).
    numpy hands a one-row product to a dot kernel that rounds unlike the
    matrix-vector kernel of every larger batch; two equal rows keep each
    row's value independent of the block it came in."""
    if len(vals) == 1:
        return (np.repeat(vals, 2, axis=0) @ w)[:1]
    return vals @ w
