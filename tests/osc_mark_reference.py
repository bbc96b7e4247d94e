"""Reference oscillation marking for the differential tests.

This is the greedy marking amfem used before ``osc_mark`` moved onto
arrays: a per-edge gain function over Python sets of covered triangle ids.
It is kept here, outside the package, only as the oracle the tests compare
the array version against.  The marked edges must be equal, in the same
order.
"""
from __future__ import annotations

import heapq

import numpy as np

from amfem.adapt import MarkSet


def _patch_tris(mesh, eid):
    return [int(mesh.live[t]) for t in mesh.edge_tri[eid] if t >= 0]


def osc_mark(report, theta_tilde, existing=None, mesh=None):
    if not 0.0 <= theta_tilde <= 1.0:
        raise ValueError("theta_tilde must lie in [0, 1]")
    if existing is None:
        existing = MarkSet(np.empty(0, dtype=np.int64), 0.0)
    if mesh is None:
        mesh = report.mesh
    osc2 = report.osc2_tris
    total = osc2.sum()
    chosen = [int(e) for e in existing.edges]
    if theta_tilde == 0.0 or total <= 0.0:
        return MarkSet(np.array(chosen, dtype=np.int64), existing.achieved)
    covered_tris = set()
    for e in chosen:
        covered_tris.update(_patch_tris(mesh, e))
    covered = sum(osc2[mesh.live_pos[t]] for t in covered_tris)
    target = theta_tilde ** 2 * total
    if covered >= target:
        return MarkSet(np.array(chosen, dtype=np.int64), existing.achieved)

    def gain(eid):
        return sum(osc2[mesh.live_pos[t]] for t in _patch_tris(mesh, eid)
                   if t not in covered_tris)

    in_set = set(chosen)
    heap = []
    for eid in range(mesh.ne):
        if eid not in in_set:
            g = gain(eid)
            if g > 0:
                heap.append((-g, eid))
    heapq.heapify(heap)
    while covered < target and heap:
        negg, eid = heapq.heappop(heap)
        g = gain(eid)
        if g <= 0:
            continue
        if -negg > g and heap and -heap[0][0] > g:
            heapq.heappush(heap, (-g, eid))   # stale entry, re-rank
            continue
        chosen.append(eid)
        in_set.add(eid)
        for t in _patch_tris(mesh, eid):
            covered_tris.add(t)
        covered += g
    if covered < target:
        raise AssertionError("could not cover the oscillation target")
    return MarkSet(np.array(chosen, dtype=np.int64), existing.achieved)
