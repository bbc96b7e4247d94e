"""Conforming triangulations with newest-vertex bisection refinement.

A mesh keeps its full refinement genealogy: bisected triangles are retired,
never deleted, so a refined mesh can match any of its triangles back to the
coarse ancestor it came from (this drives prolongation between nested FE
spaces).  Refinement never mutates a mesh in place; every operation builds
and returns a new mesh value, so callers can hold on to the whole mesh
hierarchy of an adaptive run.

Refinement is newest-vertex bisection driven by edges: ``refine_edges``
and ``uniform_refine`` both flag edges of the input mesh, close the flag set (a triangle with a flagged edge flags its refinement
edge, until nothing changes) and then bisect each triangle with a flagged
edge once, twice or three times in one vectorized pass.

Numbering.  The genealogy is append-only: the input mesh's vertices and
triangle rows keep their ids and are a prefix of the refined mesh's.  New
vertices are the midpoints of the split edges, numbered from ``nv`` in
ascending input edge id.  New rows come two per bisection, level by level:
first the children of the bisected input triangles in ascending id order,
then the children of those children that split again, in id order.  Edge
ids follow the lexicographic (min vid, max vid) order on every mesh, so an
edge that survives a refinement may change id.  A refined mesh merges its
edge tables from the input mesh's: the unsplit input edges and the new
edges of the appended rows, merged by key, and only the appended rows and
new edges are computed.  Ids beyond those of the input mesh are not stable
across versions of amfem; compare meshes from different versions by vertex
coordinates.

Text format for interchange::

    amfemmesh 1
    <nv> <nt>
    x y            (nv lines, one vertex per line)
    v0 v1 v2 r     (nt lines; r = refinement-edge local index, or '-')

'#' starts a comment.  The writer emits the live triangles only, so the
genealogy is not preserved across a save/load round trip.
"""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np

__all__ = [
    "Mesh",
    "MeshFormatError", "NotNestedError",
    "load_mesh", "save_mesh", "refine_edges", "uniform_refine",
    "triangle_angles", "ancestor_map",
]


class MeshFormatError(ValueError):
    """Unparseable, non-conforming or otherwise invalid mesh input."""


class NotNestedError(ValueError):
    """Two meshes do not belong to the same refinement hierarchy."""


class Mesh:
    """Immutable conforming triangulation plus its refinement genealogy.

    Array attributes (all read-only by convention):

    points      (nv, 2) vertex coordinates
    tri_verts   (nt_all, 3) vertex ids, counterclockwise
    tri_refedge (nt_all,) local index of the refinement edge
    tri_gen, tri_parent   genealogy; row t's children: tri_parent == t
    alive       (nt_all,) live flags;  live = ids of live triangles
    live_pos    (nt_all,) position of a live triangle in ``live``, else -1

    The tables below cover the live triangles and name each one by its
    live position, never by its row.  Edge ids follow the lexicographic
    (min vid, max vid) order.  A mesh that refinement builds carries over
    the values of its input mesh's surviving rows and unsplit edges and
    computes only those of its appended rows and new edges; a mesh built
    from arrays alone computes them all.  Both ways give the same values:

    edge_verts  (ne, 2) with a < b
    edge_tri    (ne, 2) [left, right] live positions, -1 when absent
    edge_len    (ne,)
    edge_boundary  (ne,) bool
    tri_edge    (nl, 3) edge id opposite each local vertex
    tri_sign    (nl, 3) +1 where the triangle is left of the edge tangent
    tri_area, tri_h   (nl,) areas and diameters

    Every mesh is checked for finite coordinates, positive areas,
    conformity, the Euler relation and its area.  The scan for vertices no
    live triangle uses and the check that the live triangles are joined
    by their edges run on meshes built from arrays (and so on every loaded
    mesh); a refined mesh cannot gain an unused vertex or a second part.
    """

    def __init__(self, points, tri_verts, tri_refedge, tri_gen, tri_parent,
                 alive, domain_area=None, _parent=None, _split=None):
        self.points = np.asarray(points, dtype=float)
        self.tri_verts = np.asarray(tri_verts, dtype=np.int64).reshape(-1, 3)
        self.tri_refedge = np.asarray(tri_refedge, dtype=np.int64)
        self.tri_gen = np.asarray(tri_gen, dtype=np.int64)
        self.tri_parent = np.asarray(tri_parent, dtype=np.int64)
        self.alive = np.asarray(alive, dtype=bool)
        finite = np.isfinite(self.points).all(axis=1)
        if not finite.all():
            raise MeshFormatError("vertex %d has a non-finite coordinate"
                                  % int(np.argmin(finite)))
        if _parent is None:
            _parent, _split = _NO_PARENT, np.zeros(0, dtype=bool)
        # finite coordinates far apart overflow the geometry; that is
        # reported below, naming the triangle, and not as a RuntimeWarning
        with np.errstate(over="ignore", invalid="ignore"):
            self._build_tables(_parent, _split)
        finite = np.isfinite(self.tri_area) & np.isfinite(self.tri_h)
        if not finite.all():
            raise MeshFormatError(
                "triangle %d has a non-finite area or edge length"
                % self.live[np.argmin(finite)])
        area = float(self.tri_area.sum())
        if domain_area is None:
            domain_area = area
        elif abs(area - domain_area) > 1e-12 * max(1.0, abs(domain_area)):
            raise MeshFormatError(
                "live triangles do not partition the domain: area %r vs %r"
                % (area, domain_area))
        self.domain_area = domain_area

    # -- derived tables -------------------------------------------------

    def _build_tables(self, parent, split):
        """Tables of the live triangles.  Rows of ``parent`` that are still
        live keep their values, and so do its edges not flagged in
        ``split``; only the rows appended since and their new edges are
        computed.  Rows are gathered with np.take and np.compress, several
        times faster than fancy and boolean indexing of 2-d arrays.  Each
        stage (areas, edges, edge neighbours) runs in a helper of its own,
        so that its temporaries die before the next stage starts."""
        live = np.flatnonzero(self.alive)
        if live.size == 0:
            raise MeshFormatError("mesh has no live triangles")
        self.live = live
        self.live_pos = np.full(len(self.tri_verts), -1, dtype=np.int64)
        self.live_pos[live] = np.arange(live.size)
        # the parent's surviving rows come first in live order, then the
        # appended rows, whose ids are all higher
        keep = self.alive[parent.live]
        tv = np.take(self.tri_verts, live[np.count_nonzero(keep):], axis=0)

        def carried(table):
            """The rows of a parent table whose triangles stay live."""
            return np.compress(keep, table, axis=0)

        self.tri_area = np.concatenate([carried(parent.tri_area),
                                        _areas(self.points, tv)])
        if np.any(self.tri_area <= 0):
            bad = live[int(np.argmin(self.tri_area))]
            raise MeshFormatError("triangle %d has non-positive area" % bad)
        self._merge_edges(parent, split, tv, carried)
        del tv
        self.edge_tri = self._edge_tri()
        self.edge_boundary = ((self.edge_tri[:, 0] < 0)
                              | (self.edge_tri[:, 1] < 0))

        nv, ne = len(self.points), len(self.edge_verts)
        # bisection keeps every vertex of a bisected triangle and adds only
        # midpoints its children use, so a refined mesh has no unused
        # vertex when its input mesh has none: only meshes built from
        # arrays are scanned
        if parent is _NO_PARENT and np.bincount(
                np.take(self.tri_verts, live, axis=0).ravel(),
                minlength=nv).min() == 0:
            raise MeshFormatError("mesh has vertices not used by any live triangle")
        if ne != nv + live.size - 1:
            raise MeshFormatError(
                "non-conforming or multiply connected mesh: "
                "ne=%d, nv=%d, nt=%d violate ne = nv + nt - 1"
                % (ne, nv, live.size))
        # a disk beside an annulus meets the Euler relation too
        if parent is _NO_PARENT:
            label = _components(self.edge_tri[~self.edge_boundary],
                                live.size)
            if label.any():
                raise MeshFormatError(
                    "disconnected mesh: no chain of edges joins triangle %d "
                    "to triangle %d" % (live[0], live[np.argmax(label)]))

    def _merge_edges(self, parent, split, tv, carried):
        """The edge tables, ``tri_edge``, ``tri_sign``, the edge lengths and
        the diameters: the new rows ``tv``'s edge keys merged into the
        parent's unsplit ones."""
        old = np.flatnonzero(~split)
        old_keys = _edge_key(parent.edge_verts[old, 0],
                             parent.edge_verts[old, 1])
        # edge i sits opposite local vertex i and is traversed
        # (v[i+1], v[i+2]) by the counterclockwise boundary walk
        ea = tv[:, [1, 2, 0]].ravel()
        eb = tv[:, [2, 0, 1]].ravel()
        sign = np.where(ea < eb, np.int8(1), np.int8(-1)).reshape(-1, 3)
        key = _edge_key(np.minimum(ea, eb), np.maximum(ea, eb))
        del ea, eb
        ukey, inverse = np.unique(key, return_inverse=True)
        del key
        # merge the new rows' keys into the surviving parent keys; an edge
        # id is the rank of its key in the union
        at = np.searchsorted(old_keys, ukey)
        found = np.zeros(ukey.size, dtype=bool)
        inside = at < old_keys.size
        found[inside] = old_keys[at[inside]] == ukey[inside]
        fresh, at_fresh = ukey[~found], at[~found]
        fresh_id = np.arange(fresh.size) + at_fresh
        old_id = np.arange(old.size) + np.cumsum(
            np.bincount(at_fresh, minlength=old.size + 1))[:old.size]
        ne = old.size + fresh.size
        keys = np.empty(ne, dtype=np.int64)
        keys[old_id] = old_keys
        keys[fresh_id] = fresh
        self.edge_verts = np.column_stack([keys >> 32, keys & 0xFFFFFFFF])
        del keys, old_keys
        uid = np.empty(ukey.size, dtype=np.int64)
        uid[found] = old_id[at[found]]
        uid[~found] = fresh_id
        remap = np.empty(len(parent.edge_verts), dtype=np.int64)
        remap[old] = old_id
        new_edge = uid[inverse].reshape(-1, 3)
        del inverse
        self.tri_edge = np.concatenate([remap[carried(parent.tri_edge)],
                                        new_edge])
        self.tri_sign = np.concatenate([carried(parent.tri_sign), sign])

        # one length per fresh edge, from its key's endpoints (a difference
        # of coordinates only changes sign with the direction, and hypot
        # ignores the sign); a new row's diameter is its longest edge
        vec = (np.take(self.points, fresh & 0xFFFFFFFF, axis=0)
               - np.take(self.points, fresh >> 32, axis=0))
        edge_len = np.empty(ne)
        edge_len[old_id] = parent.edge_len[old]
        edge_len[fresh_id] = np.hypot(vec[:, 0], vec[:, 1])
        self.edge_len = edge_len
        row_len = np.take(edge_len, new_edge.T)     # (3, n_new)
        self.tri_h = np.concatenate([carried(parent.tri_h),
                                     row_len.max(axis=0)])

    def _edge_tri(self):
        """(ne, 2) [left, right] live positions of each edge's triangles;
        raises MeshFormatError where two triangles traverse an edge in the
        same direction."""
        ne = len(self.edge_verts)
        edge_tri = np.full((ne, 2), -1, dtype=np.int64)
        owner = np.repeat(np.arange(self.live.size), 3)
        all_edge = self.tri_edge.ravel()
        all_sign = self.tri_sign.ravel()
        for side, mask in ((0, all_sign > 0), (1, all_sign < 0)):
            eids = all_edge[mask]
            count = np.bincount(eids, minlength=ne)
            if count.max() > 1:
                e = int(np.argmax(count))
                a, b = self.edge_verts[e, [side, 1 - side]]
                t1, t2 = self.live[owner[mask][eids == e][:2]]
                raise MeshFormatError(
                    "non-conforming mesh: edge %d -> %d is traversed in the "
                    "same direction by triangles %d and %d (duplicate or "
                    "misoriented triangle)" % (a, b, t1, t2))
            edge_tri[eids, side] = owner[mask]
        return edge_tri

    # -- counts ---------------------------------------------------------

    @property
    def nv(self):
        return len(self.points)

    @property
    def nt(self):
        return int(self.live.size)

    @property
    def ne(self):
        return len(self.edge_verts)


def _areas(points, tv):
    """Signed areas of the triangles with vertex ids ``tv``, (n, 3)."""
    p = np.take(points, tv, axis=0)     # (n, 3, 2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _edge_key(lo, hi):
    """Sort key of the edge (lo, hi), lo < hi: lexicographic, and the same
    for every mesh whatever its vertex count."""
    return lo << 32 | hi


def _components(pairs, n):
    """The smallest node of each node's component in the graph on n nodes
    whose edges are the rows of ``pairs``.  Each round hooks every root
    under the smallest root it is joined to, then shortcuts every node to
    its root (Shiloach & Vishkin, J. Algorithms 3, 1982); hooks only lower
    a label, so the rounds end."""
    label = np.arange(n)
    a, b = pairs.T
    while True:
        la, lb = label[a], label[b]
        differ = la != lb
        if not differ.any():
            return label
        np.minimum.at(label, np.maximum(la, lb)[differ],
                      np.minimum(la, lb)[differ])
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]


# the parent of a mesh built from its arrays alone: no rows, no edges
_NO_PARENT = SimpleNamespace(
    live=np.empty(0, dtype=np.int64),
    edge_verts=np.empty((0, 2), dtype=np.int64),
    edge_len=np.empty(0),
    tri_edge=np.empty((0, 3), dtype=np.int64),
    tri_sign=np.empty((0, 3), dtype=np.int8),
    tri_area=np.empty(0),
    tri_h=np.empty(0))


# -- construction and I/O -------------------------------------------------

def _label_longest_edge(points, tv):
    """Refinement-edge local index per triangle: the longest edge, ties
    broken by the smallest opposite vertex id.  Squared lengths keep the
    tie comparison exact for symmetric coordinates."""
    p = points[tv]
    opp = p[:, [1, 2, 0]] - p[:, [2, 0, 1]]
    l2 = (opp ** 2).sum(axis=2)
    best = l2.max(axis=1, keepdims=True)
    cand = l2 == best
    key = np.where(cand, tv, np.iinfo(np.int64).max)
    return np.argmin(key, axis=1).astype(np.int64)


@np.errstate(over="ignore", invalid="ignore")     # Mesh names the triangle
def load_mesh(text):
    """Parse the mesh text format; raises MeshFormatError with line numbers."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line))
    if not rows:
        raise MeshFormatError("line 1: empty mesh file")

    def fail(lineno, msg):
        raise MeshFormatError("line %d: %s" % (lineno, msg))

    lineno, header = rows[0]
    if header.split() != ["amfemmesh", "1"]:
        fail(lineno, "expected header 'amfemmesh 1', got %r" % header)
    if len(rows) < 2:
        fail(lineno, "missing size line")
    lineno, size = rows[1]
    parts = size.split()
    if len(parts) != 2:
        fail(lineno, "expected 'nv nt', got %r" % size)
    try:
        nv, nt = int(parts[0]), int(parts[1])
    except ValueError:
        fail(lineno, "expected integer sizes, got %r" % size)
    if nv < 3 or nt < 1:
        fail(lineno, "need at least 3 vertices and 1 triangle")
    if len(rows) != 2 + nv + nt:
        fail(rows[-1][0], "expected %d vertex and %d triangle lines, found %d"
             % (nv, nt, len(rows) - 2))

    points = np.empty((nv, 2), dtype=float)
    for i in range(nv):
        lineno, line = rows[2 + i]
        parts = line.split()
        if len(parts) != 2:
            fail(lineno, "expected 'x y', got %r" % line)
        try:
            points[i] = (float(parts[0]), float(parts[1]))
        except ValueError:
            fail(lineno, "bad coordinate in %r" % line)
        if not np.isfinite(points[i]).all():
            fail(lineno, "non-finite coordinate in %r" % line)

    tv = np.empty((nt, 3), dtype=np.int64)
    refedge = np.full(nt, -1, dtype=np.int64)
    for i in range(nt):
        lineno, line = rows[2 + nv + i]
        parts = line.split()
        if len(parts) != 4:
            fail(lineno, "expected 'v0 v1 v2 r', got %r" % line)
        try:
            vs = [int(p) for p in parts[:3]]
        except ValueError:
            fail(lineno, "bad vertex id in %r" % line)
        if any(v < 0 or v >= nv for v in vs):
            fail(lineno, "vertex id out of range in %r" % line)
        if len(set(vs)) != 3:
            fail(lineno, "repeated vertex in triangle %r" % line)
        if parts[3] != "-":
            try:
                r = int(parts[3])
            except ValueError:
                fail(lineno, "bad refinement edge %r" % parts[3])
            if r not in (0, 1, 2):
                fail(lineno, "refinement edge must be 0, 1 or 2, got %d" % r)
            refedge[i] = r
        tv[i] = vs

    # normalize to counterclockwise order, remapping the given label: a
    # swap of locals 1 and 2 swaps the edges opposite them
    p = points[tv]
    cross = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    if np.any(cross == 0):
        raise MeshFormatError("zero-area triangle %d"
                              % int(np.flatnonzero(cross == 0)[0]))
    flip = cross < 0
    tv[flip] = tv[flip][:, [0, 2, 1]]
    swap = (refedge > 0) & flip
    refedge[swap] = 3 - refedge[swap]

    missing = refedge < 0
    if np.any(missing):
        labels = _label_longest_edge(points, tv)
        refedge[missing] = labels[missing]
    return Mesh(points, tv, refedge, np.zeros(nt, dtype=np.int64),
                np.full(nt, -1, dtype=np.int64), np.ones(nt, dtype=bool))


def save_mesh(mesh):
    """Serialize the live triangles in the mesh text format."""
    out = ["amfemmesh 1", "%d %d" % (mesh.nv, mesh.nt)]
    for x, y in mesh.points:
        out.append("%s %s" % (repr(float(x)), repr(float(y))))
    for t in mesh.live:
        v = mesh.tri_verts[t]
        out.append("%d %d %d %d" % (v[0], v[1], v[2], mesh.tri_refedge[t]))
    return "\n".join(out) + "\n"


def _refine(mesh, marked):
    """Newest-vertex bisection splitting every live edge flagged in the
    boolean array ``marked`` (indexed by edge id; extended in place by the
    closure).  Returns ``(mesh, bisected)`` with the bisected row ids in
    ascending order.  Each genealogy array is one concatenation of the
    input mesh's array and the levels' parts, and the parts are dropped
    before the refined mesh builds its tables."""
    live, r = mesh.live, np.take(mesh.tri_refedge, mesh.live)
    ref = mesh.tri_edge[np.arange(live.size), r]
    # closure: a triangle with a split edge must split its refinement edge
    front = np.flatnonzero(marked)
    while front.size:
        tris = mesh.edge_tri[front].ravel()
        cand = ref[tris[tris >= 0]]
        front = cand[~marked[cand]]
        marked[front] = True

    split = np.flatnonzero(marked)
    mid = np.full(mesh.ne, -1, dtype=np.int64)
    mid[split] = mesh.nv + np.arange(split.size)
    ev = mesh.edge_verts[split]
    points = np.concatenate(
        [mesh.points, 0.5 * (mesh.points[ev[:, 0]] + mesh.points[ev[:, 1]])])
    del ref, split, ev

    rows, verts, r, gen, parent = zip(*_bisection_levels(mesh, marked, mid, r))
    bisected = np.concatenate(rows)
    n0 = len(mesh.tri_verts)
    alive = np.ones(n0 + sum(map(len, r)), dtype=bool)
    alive[:n0] = mesh.alive
    alive[bisected] = False
    genealogy = [np.concatenate((base,) + parts) for base, parts in (
        (mesh.tri_verts, verts), (mesh.tri_refedge, r),
        (mesh.tri_gen, gen), (mesh.tri_parent, parent))]
    del rows, verts, r, gen, parent
    fine = Mesh(points, *genealogy, alive, domain_area=mesh.domain_area,
                _parent=mesh, _split=marked)
    return fine, bisected


def _bisection_levels(mesh, marked, mid, r):
    """The bisections of the live triangles, one level per item: the
    bisected rows, and their children's vertices, refinement edges,
    generations and parents.

    One level per pass: the triangles whose refinement edge ``r`` is split
    are bisected at the midpoint ``mid`` of that edge and their children
    appended in parent order.  A child's refinement edge is the one full
    edge it inherits from its parent (the edge opposite the new midpoint);
    its other two edges are new and never split, so a mesh triangle is
    bisected at most three times and the loop ends after three passes."""
    n = len(mesh.tri_verts)
    rows, verts = mesh.live, np.take(mesh.tri_verts, mesh.live, axis=0)
    edges, gen = mesh.tri_edge, np.take(mesh.tri_gen, mesh.live)
    levels = []
    while True:
        k = np.arange(rows.size)
        e = edges[k, r]
        go = (e >= 0) & marked[e]           # marked[-1] is masked out
        if not go.any():
            return levels
        rows, verts, r, edges, gen, e = (
            np.compress(go, t, axis=0)
            for t in (rows, verts, r, edges, gen, e))
        k = np.arange(rows.size)
        va, vb, vc = verts[k, r], verts[k, (r + 1) % 3], verts[k, (r + 2) % 3]
        eb, ec = edges[k, (r + 1) % 3], edges[k, (r + 2) % 3]
        m = mid[e]
        none = np.full(rows.size, -1, dtype=np.int64)
        # children (va, vb, m) and (va, m, vc), one row each; they keep the
        # parent edges (va, vb) = ec and (vc, va) = eb opposite m
        verts = np.stack([va, vb, m, va, m, vc], axis=1).reshape(-1, 3)
        edges = np.stack([none, none, ec, none, eb, none],
                         axis=1).reshape(-1, 3)
        r = np.tile(np.array([2, 1], dtype=np.int64), rows.size)
        gen = np.repeat(gen + 1, 2)
        levels.append((rows, verts, r, gen, np.repeat(rows, 2)))
        rows = n + np.arange(verts.shape[0])
        n += verts.shape[0]


def refine_edges(mesh, marked):
    """Bisect the mesh until every marked edge has been split.

    ``marked`` is an array-like of integer edge ids (not a mask), such as
    the int64 arrays the markers return.  Both triangles of a marked edge's
    patch get bisected along the way, plus any completion bisections needed
    for conformity.  Returns ``(mesh, bisected)`` where ``bisected`` lists
    the ids of all triangles actually bisected.
    """
    edge_ids = np.asarray(marked)
    if not edge_ids.size:       # [] reads as float64
        return mesh, np.empty(0, dtype=np.int64)
    if edge_ids.dtype.kind not in "iu":
        raise ValueError("edge ids must be integers, got %s" % edge_ids.dtype)
    bad = edge_ids[(edge_ids < 0) | (edge_ids >= mesh.ne)]
    if bad.size:
        raise ValueError("no edge with id %d" % bad[0])
    flags = np.zeros(mesh.ne, dtype=bool)
    flags[edge_ids] = True
    return _refine(mesh, flags)


def uniform_refine(mesh, rounds=1):
    """Quarter every live triangle ``rounds`` times (every edge splits, so
    each round multiplies the triangle count by exactly 4)."""
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    m = mesh
    for _ in range(rounds):
        nt = m.nt
        m, _ = _refine(m, np.ones(m.ne, dtype=bool))
        if m.nt != 4 * nt:
            raise AssertionError("uniform refinement did not quarter the mesh")
    return m


def _same_hierarchy(tri_verts, points, mesh):
    """Whether the rows ``tri_verts`` and vertices ``points`` agree with
    ``mesh``'s on their common prefix, as a mesh and its refinements do."""
    n = min(len(tri_verts), len(mesh.tri_verts))
    nv = min(len(points), mesh.nv)
    return (np.array_equal(tri_verts[:n], mesh.tri_verts[:n])
            and np.array_equal(points[:nv], mesh.points[:nv]))


def ancestor_map(fine, coarse):
    """For each live triangle of ``fine`` (in live order), the live position
    in ``coarse`` of the triangle containing it.  Raises NotNestedError
    unless the rows and vertices of ``coarse`` are a prefix of ``fine``'s."""
    if len(fine.tri_verts) < len(coarse.tri_verts):
        raise NotNestedError("reference mesh is finer than the target")
    if not _same_hierarchy(coarse.tri_verts, coarse.points, fine):
        raise NotNestedError("meshes disagree on the coarse rows or vertices")
    # pointer jumping: coarse live triangles point at themselves, every
    # other row at its parent (-1 past a root); doubling the jumps until
    # nothing changes leaves each row at its coarse ancestor or at -1
    up = fine.tri_parent.copy()
    stop = np.flatnonzero(coarse.alive)
    up[stop] = stop
    while True:
        nxt = np.where(up >= 0, up[up], -1)
        if np.array_equal(nxt, up):
            break
        up = nxt
    out = up[fine.live]
    if np.any(out < 0):
        raise NotNestedError("triangle %d has no ancestor in the coarse mesh"
                             % fine.live[np.argmax(out < 0)])
    return coarse.live_pos[out]


def triangle_angles(p):
    """Interior angles in degrees, ascending per triangle, of the triangles
    with vertex coordinates ``p`` of shape (n, 3, 2)."""
    u = p[:, [1, 2, 0]] - p
    w = p[:, [2, 0, 1]] - p
    cosang = (u * w).sum(2) / (np.hypot(u[..., 0], u[..., 1])
                               * np.hypot(w[..., 0], w[..., 1]))
    return np.sort(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))), axis=1)
