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


def _patch_tris(mesh, eid):
    return [int(mesh.live[t]) for t in mesh.edge_tri[eid] if t >= 0]


def osc_mark(mesh, osc2, theta_tilde, marked=None):
    if not 0.0 <= theta_tilde <= 1.0:
        raise ValueError("theta_tilde must lie in [0, 1]")
    total = osc2.sum()
    chosen = [] if marked is None else [int(e) for e in marked]
    if theta_tilde == 0.0 or total <= 0.0:
        return np.array(chosen, dtype=np.int64)
    covered_tris = set()
    for e in chosen:
        covered_tris.update(_patch_tris(mesh, e))
    covered = sum(osc2[mesh.live_pos[t]] for t in covered_tris)
    target = theta_tilde ** 2 * total
    if covered >= target:
        return np.array(chosen, dtype=np.int64)

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
    # with nothing left to pick, a sum of the picks a few ulps short of
    # the target (theta_tilde = 1) is no failure if every triangle with
    # positive oscillation is covered
    if covered < target and any(
            osc2[p] > 0 and mesh.live[p] not in covered_tris
            for p in range(mesh.nt)):
        raise AssertionError("could not cover the oscillation target")
    return np.array(chosen, dtype=np.int64)
