"""In-memory spans around the library calls a study makes, and the per-layer
metrics computed from them.

A span records its name, start, end, parent span and the process's
``ru_maxrss`` high-water mark at both ends; all spans of one study run share
a trace id.  The library is instrumented from outside: :func:`instrument`
rebinds the public names that ``quadelast.cli`` and ``quadelast.assembly``
look up at call time, so nothing under ``src/`` changes.  This module
imports only the standard library, so it can be loaded before the timed
import of ``quadelast``.
"""

import functools
import resource
import time
from contextlib import contextmanager

#: Names rebound in ``quadelast.cli`` and the span each call opens.
CLI_SPANS = {
    "build_mesh": "mesh.build",
    "build_elasticity_spaces": "fe_space.build",
    "assemble": "assembly.assemble",
    "solve": "solver.solve",
    "compute_errors": "analysis.errors",
    "interpolate_stress": "analysis.interpolate",
    "check_commuting_projection": "analysis.commuting",
    "normal_jump_norm": "analysis.jump",
    "ynorm_gram": "analysis.gram",
    "infsup_estimate": "analysis.infsup",
}

#: Per-layer metric -> span whose summed self time it reports.
SELF_TIME_METRICS = {
    "mesh.build_s": "mesh.build",
    "fe_space.build_s": "fe_space.build",
    "assembly.assemble_s": "assembly.assemble",
    "assembly.boundary_term_s": "assembly.boundary_term",
    "solver.solve_s": "solver.solve",
    "solver.full_matrix_s": "solver.full_matrix",
    "analysis.errors_s": "analysis.errors",
    "analysis.interpolate_s": "analysis.interpolate",
    "analysis.commuting_s": "analysis.commuting",
    "analysis.jump_s": "analysis.jump",
    "analysis.gram_s": "analysis.gram",
    "analysis.infsup_s": "analysis.infsup",
    "cli.self_s": "cli.run",
}


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans of one study run, kept in memory until the run ends."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        rec = {"trace": self.trace_id, "id": len(self.spans),
               "parent": self._open[-1] if self._open else None,
               "name": name, "rss_start_kb": max_rss_kb(),
               "start": time.perf_counter()}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["rss_end_kb"] = max_rss_kb()
            self._open.pop()

    def wrap(self, name, fn, describe=None, only_under=None):
        """``fn`` with a span around each call.

        ``describe(args, result)`` returns counts stored on the span.  With
        ``only_under`` the span is opened only when the innermost open span
        has that name; other calls run untraced and stay in their caller's
        self time.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if only_under is not None and not (
                    self._open and self.spans[self._open[-1]]["name"]
                    == only_under):
                return fn(*args, **kwargs)
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if describe is not None:
                    rec.update(describe(args, result))
            return result
        return traced


def _describe_assemble(args, system):
    return {"nnz": int(system.M.nnz + 2 * (system.Bd.nnz + system.Ba.nnz))}


def _describe_solve(args, report):
    return {"unknowns": int(args[0].n), "residual": float(report.residual),
            "factorization": report.factorization}


def instrument(tracer: Tracer, cli, assembly) -> None:
    """Rebind the layer entry points of ``quadelast`` to traced wrappers."""
    describe = {"assembly.assemble": _describe_assemble,
                "solver.solve": _describe_solve}
    for attr, name in CLI_SPANS.items():
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr),
                                       describe.get(name)))
    assembly.boundary_term = tracer.wrap("assembly.boundary_term",
                                         assembly.boundary_term)
    # full_matrix also builds K for the dense inf-sup estimate; only the
    # call made by solve() is charged to the solver layer
    assembly.BlockSystem.full_matrix = tracer.wrap(
        "solver.full_matrix", assembly.BlockSystem.full_matrix,
        only_under="solver.solve")


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced study run (``trace.overhead_s`` and
    ``reference_elements.build_s`` are added by the caller)."""
    own = self_times(spans)
    out = {metric: sum(t for s, t in zip(spans, own) if s["name"] == name)
           for metric, name in SELF_TIME_METRICS.items()}

    def named(name):
        return [s for s in spans if s["name"] == name]

    def rss_growth_mb(name):
        return sum(s["rss_end_kb"] - s["rss_start_kb"]
                   for s in named(name)) / 1024.0

    solves = named("solver.solve")
    out.update({
        "mesh.calls": len(named("mesh.build")),
        "fe_space.calls": len(named("fe_space.build")),
        "assembly.calls": len(named("assembly.assemble")),
        "assembly.nnz": sum(s.get("nnz", 0)
                            for s in named("assembly.assemble")),
        "assembly.rss_growth_mb": rss_growth_mb("assembly.assemble"),
        "solver.calls_dense": sum(s.get("factorization") == "dense"
                                  for s in solves),
        "solver.calls_sparse": sum(s.get("factorization") == "sparse"
                                   for s in solves),
        "solver.unknowns": sum(s.get("unknowns", 0) for s in solves),
        "solver.residual_max": max((s.get("residual", 0.0) for s in solves),
                                   default=0.0),
        "solver.rss_growth_mb": rss_growth_mb("solver.solve"),
    })
    return out
