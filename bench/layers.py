"""Which igarad functions the traced run wraps, and the per-layer metrics
computed from the recorded spans and counts.

Layers are the package modules: bspline, geometry, assembly, solver, mms
and pipeline (``cli`` is a thin entry point and is not measured).  Each
wrapper patches the name where its caller looks it up, so the package
itself is unchanged.  Span names are ``<layer>.<function>``.
"""

from __future__ import annotations

import os
import statistics

import numpy as np
import scipy.sparse.linalg

import igarad.assembly
import igarad.bspline
import igarad.geometry
import igarad.mms
import igarad.pipeline
import igarad.solver

from spans import Recorder, self_times

LAYERS = ("bspline", "geometry", "assembly", "solver", "mms", "pipeline")

# Direct children of these spans are the stages that must account for a
# repetition's wall time.
TOP_SPANS = ("pipeline.run", "pipeline.convergence_study")


def _points(counts, args, kwargs, result):
    counts["bspline.basis_matrix.points"] += np.size(args[1] if len(args) > 1 else kwargs["ts"])


def _grid_points(counts, args, kwargs, result):
    counts["geometry.jacobian_grid.points"] += np.size(args[1]) * np.size(args[2])


def _assembled(counts, args, kwargs, result):
    space, _, quad = args
    e1, e2 = quad.xi.nodes.shape[0], quad.eta.nodes.shape[0]
    k1, k2 = space.kv_xi.order, space.kv_eta.order
    # volume element blocks plus the three Robin edges (left/right along eta, top along xi)
    counts["assembly.coo_triplets"] += e1 * e2 * (k1 * k2) ** 2 + 2 * e2 * k2**2 + e1 * k1**2
    counts["assembly.nnz"] += result.stiffness.nnz


def _factored(counts, args, kwargs, result):
    # .L and .U build scipy copies of the factors; take one at a time so the
    # traced run holds at most one extra copy.  The copies raise the traced
    # run's peak RSS, which is therefore not reported.
    nnz = result.L.nnz
    nnz += result.U.nnz
    counts["solver.lu_nnz"] += nnz
    # values plus int32 row indices
    counts["solver.lu_bytes"] += nnz * (result.L.dtype.itemsize + 4)


def _residual(counts, value):
    counts["solver.true_residual"] = max(counts["solver.true_residual"], value)


def _gmres(counts, args, kwargs, result):
    report = result[1]
    counts["solver.gmres.outer_iterations"] += report.outer_iterations
    counts["solver.gmres.inner_iterations"] += report.inner_iterations
    _residual(counts, report.true_residual)


def _direct(counts, args, kwargs, result):
    A, b = args
    _residual(counts, float(np.linalg.norm(A @ result - b) / np.linalg.norm(b)))


def _written(counts, args, kwargs, result):
    counts["pipeline.bytes_written"] += sum(os.path.getsize(p) for p in result.values())


def install(recorder: Recorder) -> None:
    """Wrap the public functions of every layer where their callers look them up."""
    bs, geo, asm, sol, mms, pipe = (
        igarad.bspline, igarad.geometry, igarad.assembly,
        igarad.solver, igarad.mms, igarad.pipeline,
    )
    p = recorder.patch
    for owner in (bs, asm, mms):  # bspline.basis_matrix calls it once per point
        p(owner, "eval_basis", "bspline.eval_basis")
    for owner in (bs, geo, pipe, mms):
        p(owner, "basis_matrix", "bspline.basis_matrix", _points)
    p(geo.CoonsSurface, "jacobian_grid", "geometry.jacobian_grid", _grid_points)
    p(geo.CoonsSurface, "evaluate_grid", "geometry.evaluate_grid")
    p(pipe, "make_semicircle_patch", "geometry.make_semicircle_patch")
    p(pipe, "classify_dofs", "assembly.classify_dofs")
    p(pipe, "assemble", "assembly.assemble", _assembled)
    for owner in (pipe, mms):
        p(owner, "build_system", "assembly.build_system")
    p(mms, "edge_load", "assembly.edge_load")
    p(scipy.sparse.linalg, "splu", "solver.factor", _factored)  # igarad.solver.spla.splu
    p(pipe, "build_cslp", "solver.build_cslp")
    p(pipe, "gmres", "solver.gmres", _gmres)
    p(sol.CslpPreconditioner, "solve", "solver.precond_apply")
    for owner in (pipe, sol):  # mms imports direct_solve from igarad.solver at call time
        p(owner, "direct_solve", "solver.direct_solve", _direct)
    p(mms, "solve_manufactured", "mms.solve_manufactured")
    p(mms, "manufactured_data", "mms.manufactured_data")
    p(mms, "dirichlet_trace", "mms.dirichlet_trace")
    p(mms, "l2_error", "mms.l2_error")
    p(mms, "h1_semi_error", "mms.h1_semi_error")
    p(pipe, "run", "pipeline.run")
    p(pipe, "convergence_study", "pipeline.convergence_study")
    p(pipe, "discretize", "pipeline.discretize")
    p(pipe.SolutionField, "evaluate_grid", "pipeline.field_eval")
    p(pipe.SolutionField, "evaluate_points", "pipeline.field_eval")
    p(pipe, "dirichlet_deviation", "pipeline.dirichlet_deviation")
    p(pipe, "_write_outputs", "pipeline.write", _written)


# metric -> (kind, span names); kinds: calls, s (wall), cpu_s, self_s
_SPAN_METRICS = {
    "bspline.eval_basis.calls": ("calls", ["bspline.eval_basis"]),
    "bspline.basis_matrix.calls": ("calls", ["bspline.basis_matrix"]),
    "geometry.jacobian_grid.calls": ("calls", ["geometry.jacobian_grid"]),
    "assembly.assemble.s": ("s", ["assembly.assemble"]),
    "assembly.assemble.self_s": ("self_s", ["assembly.assemble"]),
    "assembly.assemble.cpu_s": ("cpu_s", ["assembly.assemble"]),
    "assembly.build_system.s": ("s", ["assembly.build_system"]),
    "assembly.edge_load.calls": ("calls", ["assembly.edge_load"]),
    "assembly.edge_load.s": ("s", ["assembly.edge_load"]),
    "solver.factor_s": ("s", ["solver.factor"]),
    "solver.factor.cpu_s": ("cpu_s", ["solver.factor"]),
    "solver.factor.calls": ("calls", ["solver.factor"]),
    "solver.gmres.self_s": ("self_s", ["solver.gmres"]),
    "solver.precond_apply.calls": ("calls", ["solver.precond_apply"]),
    "solver.precond_apply.s": ("s", ["solver.precond_apply"]),
    "solver.direct_solve.s": ("s", ["solver.direct_solve"]),
    "mms.manufactured_data.s": ("s", ["mms.manufactured_data"]),
    "mms.dirichlet_trace.s": ("s", ["mms.dirichlet_trace"]),
    "mms.error_norms.s": ("s", ["mms.l2_error", "mms.h1_semi_error"]),
    "pipeline.discretize.s": ("s", ["pipeline.discretize"]),
    "pipeline.field_eval.s": ("s", ["pipeline.field_eval"]),
    "pipeline.write.s": ("s", ["pipeline.write"]),
}

COUNT_METRICS = (
    "bspline.basis_matrix.points",
    "geometry.jacobian_grid.points",
    "assembly.nnz",
    "assembly.coo_triplets",
    "solver.lu_nnz",
    "solver.lu_bytes",
    "solver.gmres.outer_iterations",
    "solver.gmres.inner_iterations",
    "solver.true_residual",
    "pipeline.bytes_written",
)

# Values that must repeat exactly between repetitions of one seed.  Not the
# residual (roundoff) nor the bytes written (report.json holds timings).
EXACT_METRICS = tuple(
    name for name, (kind, _) in _SPAN_METRICS.items() if kind == "calls"
) + tuple(
    name for name in COUNT_METRICS
    if name not in ("solver.true_residual", "pipeline.bytes_written")
)


def rep_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``spans`` are the repetition's spans, the first being the benchmark's
    own span around the workload call.
    """
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    out: dict[str, float] = {}
    for metric, (kind, names) in _SPAN_METRICS.items():
        group = [s for n in names for s in by_name.get(n, [])]
        if kind == "calls":
            out[metric] = len(group)
        elif kind == "s":
            out[metric] = sum(s.duration for s in group)
        elif kind == "cpu_s":
            out[metric] = sum(s.cpu for s in group)
        else:
            out[metric] = sum(selfs[s.id] for s in group)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            selfs[s.id] for s in spans if s.name.startswith(layer + ".")
        )
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0)

    root = spans[0]
    tops = {s.id for s in spans if s.name in TOP_SPANS}
    stages = sum(s.duration for s in spans if s.parent in tops)
    out["trace.wall_s"] = root.duration
    out["trace.unaccounted_frac"] = (root.duration - stages) / root.duration
    # every observer runs inside the root span
    out["trace.observe_s"] = root.excluded
    return out


def summarize(per_rep: list[dict], untraced_walls: list[float]) -> tuple[dict, list[str]]:
    """Median over traced repetitions, plus the tracing overhead: traced
    wall time, observers included, minus the untraced median.

    Returns the metrics and a list of exact counts that differed between
    repetitions.
    """
    out = {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
    mismatches = [
        f"{k} differs between repetitions: {sorted({r[k] for r in per_rep})}"
        for k in EXACT_METRICS
        if len({r[k] for r in per_rep}) > 1
    ]
    out["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    out["trace.overhead_s"] = (
        statistics.median(r["trace.wall_s"] + r["trace.observe_s"] for r in per_rep)
        - out["trace.untraced_wall_s"]
    )
    return out, mismatches


UNITS = {
    "calls": "count", "points": "count", "nnz": "count", "coo_triplets": "count",
    "lu_nnz": "count", "outer_iterations": "count", "inner_iterations": "count",
    "lu_bytes": "B", "bytes_written": "B", "true_residual": "1", "unaccounted_frac": "1",
}


def unit(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[-1], "s")
