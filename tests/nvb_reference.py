"""Reference newest-vertex bisection for the differential tests.

This is the recursive, one-triangle-at-a-time bisection that amfem used
before its refinement moved onto a vectorized edge-marking closure.  It is
kept here, outside the package, only as the oracle the tests compare the
kernel against: the live triangles (as vertex-coordinate triples), their
refinement edges and the number of bisections must agree.  Triangle and
vertex ids may differ.
"""
from __future__ import annotations

import numpy as np

from amfem.mesh import Mesh


class _Builder:
    """Mutable scratch copy of a mesh used inside refinement operations."""

    __slots__ = ("points", "tv", "refedge", "gen", "parent", "children",
                 "alive", "e2t", "bisected", "nlive")

    def __init__(self, mesh):
        self.points = mesh.points.tolist()
        self.tv = mesh.tri_verts.tolist()
        self.refedge = mesh.tri_refedge.tolist()
        self.gen = mesh.tri_gen.tolist()
        self.parent = mesh.tri_parent.tolist()
        # the children of rows bisected here; the input's live rows have none
        self.children = [[-1, -1] for _ in self.tv]
        self.alive = mesh.alive.tolist()
        self.bisected = []
        self.nlive = int(mesh.live.size)
        e2t = {}
        for t in mesh.live:
            t = int(t)
            for pair in self._tri_pairs(t):
                e2t.setdefault(pair, []).append(t)
        self.e2t = e2t

    def _tri_pairs(self, t):
        v = self.tv[t]
        for i, j in ((0, 1), (1, 2), (2, 0)):
            a, b = v[i], v[j]
            yield (a, b) if a < b else (b, a)

    def refedge_pair(self, t):
        v = self.tv[t]
        r = self.refedge[t]
        a, b = v[(r + 1) % 3], v[(r + 2) % 3]
        return (a, b) if a < b else (b, a)

    def _neighbor(self, t, pair):
        for other in self.e2t.get(pair, ()):
            if other != t:
                return other
        return None

    def _split(self, t, m):
        """Bisect t across its refinement edge at existing vertex m."""
        for pair in self._tri_pairs(t):
            lst = self.e2t[pair]
            lst.remove(t)
            if not lst:
                del self.e2t[pair]
        v = self.tv[t]
        r = self.refedge[t]
        va, vb, vc = v[r], v[(r + 1) % 3], v[(r + 2) % 3]
        self.alive[t] = False
        gen = self.gen[t] + 1
        kids = []
        for verts, redge in (((va, vb, m), 2), ((va, m, vc), 1)):
            c = len(self.tv)
            self.tv.append(list(verts))
            self.refedge.append(redge)
            self.gen.append(gen)
            self.parent.append(t)
            self.children.append([-1, -1])
            self.alive.append(True)
            for i, j in ((0, 1), (1, 2), (2, 0)):
                a, b = verts[i], verts[j]
                pair = (a, b) if a < b else (b, a)
                self.e2t.setdefault(pair, []).append(c)
            kids.append(c)
        self.children[t] = kids
        self.bisected.append(t)
        self.nlive += 1
        return kids

    def bisect(self, t0):
        """Conforming bisection: the neighbor across the refinement edge is
        made compatible first (bisecting it recursively if needed), then the
        pair splits simultaneously through the shared midpoint."""
        stack = [t0]
        while stack:
            t = stack[-1]
            if not self.alive[t]:
                stack.pop()
                continue
            pair = self.refedge_pair(t)
            nb = self._neighbor(t, pair)
            if nb is not None and self.refedge_pair(nb) != pair:
                if len(stack) > self.nlive + 1:
                    raise AssertionError("incompatible refinement-edge labels")
                stack.append(nb)
                continue
            a, b = pair
            m = len(self.points)
            pa, pb = self.points[a], self.points[b]
            self.points.append([0.5 * (pa[0] + pb[0]), 0.5 * (pa[1] + pb[1])])
            self._split(t, m)
            if nb is not None:
                self._split(nb, m)
            stack.pop()

    def finish(self, base):
        return Mesh(self.points, self.tv, self.refedge, self.gen, self.parent,
                    self.alive, domain_area=base.domain_area)


def bisect_triangle(mesh, t):
    b = _Builder(mesh)
    b.bisect(int(t))
    return b.finish(mesh), np.array(sorted(b.bisected), dtype=np.int64)


def refine_edges(mesh, marked):
    edge_ids = [int(e) for e in marked]
    if not edge_ids:
        return mesh, np.empty(0, dtype=np.int64)
    b = _Builder(mesh)
    for e in edge_ids:
        pair = tuple(int(x) for x in mesh.edge_verts[e])
        while pair in b.e2t:
            tris = b.e2t[pair]
            t = min((x for x in tris if b.refedge_pair(x) == pair),
                    default=min(tris))
            b.bisect(t)
    return b.finish(mesh), np.array(sorted(b.bisected), dtype=np.int64)


def uniform_refine(mesh):
    """One round: every live triangle quartered by two bisection sweeps."""
    b = _Builder(mesh)
    first = [int(t) for t in mesh.live]
    for t in first:
        if b.alive[t]:
            b.bisect(t)
    for t in first:
        for c in b.children[t]:
            if c >= 0 and b.alive[c]:
                b.bisect(c)
    return b.finish(mesh), np.array(sorted(b.bisected), dtype=np.int64)
