"""Per-layer spans for amfem, recorded from outside the package.

``Tracer.install`` swaps the public functions the drivers call for timing
wrappers.  A name bound by ``from .mesh import refine_edges`` lives in the
importing module, so each wrapper goes into the namespace of the module
that makes the call; ``uninstall`` puts the originals back.  Spans stay in
memory until the run writes them out.  Every per-layer metric is derived
from the spans: self times from their intervals, counts from how many
spans a layer has and from the sizes (rows, nonzeros, points) each span
records about its call.

A span's self time is its duration minus the durations of its child spans.
Every wrapped call nests inside the driver call, so the self times of all
spans partition the traced driver call exactly.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import scipy.sparse.linalg as spla

from amfem import adapt, assembly, estimator, fespace, mesh, sources, verify

# span name -> per-layer metric that receives the span's self time
SELF_TIME_METRIC = {
    "mesh.refine_edges": "mesh.refine_s",
    "mesh.uniform_refine": "mesh.refine_s",
    "mesh.Mesh": "mesh.rebuild_s",
    "mesh.ancestor_map": "mesh.ancestor_map_s",
    "scipy.splu": "assembly.factor_s",
    "assembly.assemble": "assembly.assemble_s",
    "assembly.solve": "assembly.solve_checks_s",
    "assembly.error_sigma": "assembly.error_sigma_s",
    "estimator.estimate": "estimator.estimate_s",
    "estimator.oscillation": "estimator.oscillation_s",
    "sources.f": "sources.f_s",
    "adapt.dorfler_mark": "adapt.dorfler_mark_s",
    "adapt.osc_mark": "adapt.osc_mark_s",
    "adapt.amfem": "adapt.driver_self_s",
    "adapt.approx": "adapt.driver_self_s",
    "fespace.prolongate": "fespace.prolongate_s",
    "verify.uniform_study": "verify.driver_self_s",
}

# span name -> per-layer metric that counts the spans of that name
CALL_COUNT_METRIC = {
    "mesh.refine_edges": "mesh.refine_calls",
    "mesh.uniform_refine": "mesh.refine_calls",
    "assembly.solve": "assembly.solves",
    "sources.f": "sources.f_calls",
}

# counts a span carries -> per-layer metric summing them over all spans
SUM_METRIC = {
    "bisections": "mesh.bisections",
    "rows_in": "mesh.genealogy_rows_in",
    "marked_edges": "adapt.marked_edges",
    "factor_nnz": "assembly.factor_nnz",
    "system_rows": "assembly.system_rows",
    "points": "sources.f_points",
}

COUNT_METRICS = tuple(sorted(set(CALL_COUNT_METRIC.values())
                             | set(SUM_METRIC.values())))

# Reading a call's counts (the sizes of L and U, say) runs in a span of
# its own, so that its cost lands in trace.unattributed_s and not in the
# caller's self time.
BOOKKEEPING = "trace.count"


@dataclass
class Span:
    id: int
    parent: int          # -1 for the driver call
    name: str
    start: float
    end: float
    run: str
    counts: dict = field(default_factory=dict)   # sizes read after the call


class _ModuleView:
    """Stands in for a module inside one importer, overriding some names."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """The spans of one traced driver call, and the wrappers that record
    them; ``install`` before the call and ``uninstall`` after it."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._saved = []

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1].id if self._stack else -1
        span = Span(len(self.spans), parent, name, time.perf_counter(), 0.0,
                    self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, count=None):
        """``fn`` timed as span ``name``; ``count(args, out)`` runs
        afterwards in a bookkeeping span and returns the counts the span
        carries."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                book = self._open(BOOKKEEPING)
                try:
                    span.counts = count(args, out)
                finally:
                    self._close(book)
            return out
        return traced

    # -- installation ---------------------------------------------------------

    def _swap(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch(self, module, attr, name, count=None):
        self._swap(module, attr, self.wrap(getattr(module, attr), name, count))

    def install(self):
        for module in (adapt, verify):
            self._patch(module, "estimate", "estimator.estimate")
            self._patch(module, "error_sigma", "assembly.error_sigma")
        self._patch(adapt, "amfem", "adapt.amfem")
        self._patch(adapt, "approx", "adapt.approx")
        self._patch(adapt, "dorfler_mark", "adapt.dorfler_mark")
        self._patch(adapt, "osc_mark", "adapt.osc_mark")
        self._patch(adapt, "oscillation", "estimator.oscillation")
        self._patch(adapt, "prolongate", "fespace.prolongate")
        self._patch(adapt, "ancestor_map", "mesh.ancestor_map")
        self._patch(adapt, "refine_edges", "mesh.refine_edges",
                    _count_refine_edges)
        self._patch(verify, "uniform_study", "verify.uniform_study")
        self._patch(verify, "uniform_refine", "mesh.uniform_refine",
                    _count_refine)
        self._patch(estimator, "oscillation", "estimator.oscillation")
        self._patch(fespace, "ancestor_map", "mesh.ancestor_map")
        self._patch(sources, "ancestor_map", "mesh.ancestor_map")
        self._patch(assembly, "assemble", "assembly.assemble")
        self._patch(assembly, "solve", "assembly.solve", _count_solve)
        self._swap(assembly, "spla", _ModuleView(
            spla, splu=self.wrap(spla.splu, "scipy.splu", _count_factor)))
        self._patch(mesh.Mesh, "__init__", "mesh.Mesh")

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def wrap_load(self, f):
        """The load callable f(x, y), timed and counted per evaluation."""
        return self.wrap(f, "sources.f", _count_load)

    # -- metrics --------------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - child[s.id] for s in self.spans]

    def layer_metrics(self, traced_wall):
        """Per-layer metrics of one traced driver call of ``traced_wall``
        seconds; times are self times in seconds."""
        out = {name: 0.0 for name in SELF_TIME_METRIC.values()}
        for span, own in zip(self.spans, self.self_times()):
            metric = SELF_TIME_METRIC.get(span.name)
            if metric is not None:
                out[metric] += own
        attributed = sum(out.values())
        out.update({name: 0 for name in COUNT_METRICS})
        edge_bisections = system_nnz = 0
        for span in self.spans:
            if span.name in CALL_COUNT_METRIC:
                out[CALL_COUNT_METRIC[span.name]] += 1
            for key, n in span.counts.items():
                if key in SUM_METRIC:
                    out[SUM_METRIC[key]] += n
            if span.name == "mesh.refine_edges":
                edge_bisections += span.counts["bisections"]
            system_nnz += span.counts.get("system_nnz", 0)
        marked = out["adapt.marked_edges"]
        out["mesh.bisections_per_marked_edge"] = (
            edge_bisections / marked if marked else 0.0)
        out["assembly.fill_ratio"] = (
            out["assembly.factor_nnz"] / system_nnz if system_nnz else 0.0)
        out["trace.wall_s"] = traced_wall
        out["trace.unattributed_s"] = traced_wall - attributed
        return out

    def to_csv(self):
        """One line per span; times in seconds from the first span's start,
        counts as ``key=value`` pairs joined by ``;``."""
        lines = ["run,id,parent,name,start,end,counts"]
        t0 = self.spans[0].start if self.spans else 0.0
        lines.extend("%s,%d,%d,%s,%.9f,%.9f,%s" % (
            s.run, s.id, s.parent, s.name, s.start - t0, s.end - t0,
            ";".join("%s=%d" % kv for kv in sorted(s.counts.items())))
            for s in self.spans)
        return "\n".join(lines) + "\n"


def _count_refine(args, out):
    rows_in = len(args[0].tri_verts)
    fine = out[0] if isinstance(out, tuple) else out
    return {"rows_in": rows_in,
            "bisections": (len(fine.tri_verts) - rows_in) // 2}


def _count_refine_edges(args, out):
    return dict(_count_refine(args, out), marked_edges=len(args[1]))


def _count_solve(args, out):
    return {"system_rows": len(out.sigma.values) + len(out.u.values)}


def _count_factor(args, lu):
    return {"factor_nnz": lu.L.nnz + lu.U.nnz, "system_nnz": args[0].nnz}


def _count_load(args, out):
    return {"points": args[0].size}
