"""Command-line interface.

Subcommands:

* ``run``          full radiation pipeline from a JSON config plus overrides
* ``quality-map``  parametrization quality CSV for a given subdivision angle
* ``mms-converge`` manufactured-solution refinement study
* ``pollution``    fixed dofs-per-wavelength wavenumber sweep
* ``solve-mm``     standalone preconditioned solve of Matrix Market files

Exit codes: 0 success, 2 configuration/usage error, 3 pipeline failure,
4 solver non-convergence, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import asdict

import numpy as np

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PIPELINE = 3
EXIT_SOLVER = 4
EXIT_IO = 5


def _add_run_parser(sub):
    p = sub.add_parser("run", help="run the radiation pipeline")
    p.add_argument("--config", help="JSON config file (fields of RunConfig)")
    p.add_argument("--frequency", type=float)
    p.add_argument("--sound-speed", dest="sound_speed", type=float)
    p.add_argument("--half-aperture", dest="half_aperture", type=float)
    p.add_argument("--radius-factor", dest="radius_factor", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--order-xi", dest="order_xi", type=int)
    p.add_argument("--order-eta", dest="order_eta", type=int)
    p.add_argument("-n", "--n", type=int)
    p.add_argument("-m", "--m", type=int)
    p.add_argument("--beta-factor", dest="beta_factor", type=float)
    p.add_argument("--restart", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-outer", dest="max_outer", type=int)
    p.add_argument("--solver", choices=["gmres", "direct"])
    p.add_argument("--grid-res", dest="grid_res", type=int)
    p.add_argument("--profile-samples", dest="profile_samples", type=int)
    p.add_argument("--quad-points", dest="quad_points", type=int)
    p.add_argument("--outdir")
    align = p.add_mutually_exclusive_group()
    align.add_argument("--align-aperture-knots", dest="align_aperture_knots",
                       action="store_true", default=None)
    align.add_argument("--no-align-aperture-knots", dest="align_aperture_knots",
                       action="store_false", default=None)
    p.add_argument("--full-scale", dest="full_scale", action="store_true", default=None)
    p.add_argument("--dump-matrices", dest="dump_matrices", action="store_true", default=None)
    p.add_argument("--vtk", action="store_true", default=None)
    return p


def _cmd_run(args) -> int:
    from .pipeline import PipelineError, RunConfig, run

    override_keys = [
        "frequency", "sound_speed", "half_aperture", "radius_factor", "theta",
        "order_xi", "order_eta", "n", "m", "beta_factor", "restart", "tol",
        "max_outer", "solver", "grid_res", "profile_samples", "quad_points",
        "outdir", "align_aperture_knots", "full_scale", "dump_matrices", "vtk",
    ]
    overrides = {k: getattr(args, k) for k in override_keys if getattr(args, k) is not None}
    try:
        if args.config:
            config = RunConfig.from_json(args.config, **overrides)
        else:
            config = RunConfig(**overrides)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except (TypeError, ValueError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # the pipeline logs one line per stage at INFO
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stdout)
    try:
        result = run(config)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    rep = result.solve_report
    print(
        f"dofs={result.discretization.space.size} outer={rep.outer_iterations} "
        f"inner={rep.inner_iterations} precond_residual={rep.preconditioned_residual:.3e} "
        f"true_residual={rep.true_residual:.3e} dirichlet_dev={result.dirichlet_deviation:.3e}"
    )
    for name, path in result.outputs.items():
        print(f"  {name}: {path}")
    if not rep.converged:
        print("warning: solver did not reach the requested tolerance", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_quality_map(args) -> int:
    from .geometry import DomainConfig, make_semicircle_patch, write_quality_csv

    try:
        cfg = DomainConfig(a=args.aperture_fraction * args.radius, r=args.radius, theta=args.theta)
        surface = make_semicircle_patch(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        write_quality_csv(args.out, surface, args.grid_res)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"quality map ({args.grid_res}x{args.grid_res}) written to {args.out}")
    return EXIT_OK


def _cmd_mms(args) -> int:
    from .pipeline import convergence_study, observed_order

    rows = convergence_study(
        wavenumber=args.wavenumber,
        order=args.order,
        levels=args.levels,
        base_n=args.base_n,
    )
    print(f"{'h':>12} {'n':>6} {'dofs':>8} {'L2 error':>12} {'rate':>6} {'H1 error':>12} {'rate':>6}")
    for r in rows:
        r2 = f"{r.l2_rate:.2f}" if r.l2_rate is not None else "-"
        rh = f"{r.h1_rate:.2f}" if r.h1_rate is not None else "-"
        print(
            f"{r.mesh_size:12.5g} {r.n:6d} {r.dofs:8d} {r.l2_error:12.4e} {r2:>6} "
            f"{r.h1_error:12.4e} {rh:>6}"
        )
    print(f"observed L2 order (last 3 levels): {observed_order(rows):.2f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump([r.__dict__ for r in rows], fh, indent=2)
        print(f"table written to {args.out}")
    return EXIT_OK


def _cmd_pollution(args) -> int:
    from .pipeline import pollution_growth, pollution_study

    ks = [float(v) for v in args.wavenumbers.split(",")]
    orders = [int(v) for v in args.orders.split(",")]
    rows = pollution_study(
        wavenumbers=ks, orders=orders, points_per_wavelength=args.ppw, radius=args.radius
    )
    print(f"{'order':>6} {'k':>8} {'n':>6} {'dofs':>8} {'rel L2 error':>14}")
    for r in rows:
        print(f"{r.order:6d} {r.wavenumber:8.1f} {r.n:6d} {r.dofs:8d} {r.rel_l2_error:14.5e}")
    for order in orders:
        print(f"order {order}: error growth factor = {pollution_growth(rows, order):.3f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump([r.__dict__ for r in rows], fh, indent=2)
        print(f"table written to {args.out}")
    return EXIT_OK


def _cmd_solve_mm(args) -> int:
    from .solver import (
        GmresConfig,
        build_cslp,
        direct_solve,
        gmres,
        load_matrix_market,
        load_vector,
        save_vector,
    )

    try:
        config = GmresConfig(args.restart, args.tol, args.max_outer)
        if not args.beta >= 0:
            raise ValueError("--beta must be nonnegative")
    except ValueError as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        A = load_matrix_market(args.matrix)
        b = load_vector(args.rhs)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read inputs: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.direct:
        x = direct_solve(A, b)
        res = float(np.linalg.norm(A @ x - b) / np.linalg.norm(b))
        print(f"direct solve: true residual {res:.3e}")
        code = EXIT_OK
        report_data = {"method": "direct", "true_residual": res, "n": int(b.size)}
    else:
        precond = None
        if args.mass:
            try:
                M = load_matrix_market(args.mass)
            except (OSError, ValueError) as exc:
                print(f"error: cannot read mass matrix: {exc}", file=sys.stderr)
                return EXIT_IO
            precond = build_cslp(A, M, args.beta)
        x, rep = gmres(A, b, precond, config)
        print(
            f"gmres: outer={rep.outer_iterations} inner={rep.inner_iterations} "
            f"precond_residual={rep.preconditioned_residual:.3e} true={rep.true_residual:.3e}"
        )
        code = EXIT_OK if rep.converged else EXIT_SOLVER
        report_data = asdict(rep)
    if args.out:
        save_vector(args.out, x)
        print(f"solution written to {args.out}")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report_data, fh, indent=2)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="igarad",
        description="Isogeometric solver for 2D acoustic radiation on a semicircle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_parser(sub)

    q = sub.add_parser("quality-map", help="export the parametrization quality map")
    q.add_argument("--theta", type=float, default=math.pi / 4)
    q.add_argument("--radius", type=float, default=1.0)
    q.add_argument("--aperture-fraction", dest="aperture_fraction", type=float, default=0.1)
    q.add_argument("--grid-res", dest="grid_res", type=int, default=200)
    q.add_argument("--out", default="quality.csv")

    c = sub.add_parser("mms-converge", help="manufactured-solution convergence study")
    c.add_argument("--wavenumber", type=float, default=10.0)
    c.add_argument("--order", type=int, default=4)
    c.add_argument("--levels", type=int, default=4)
    c.add_argument("--base-n", dest="base_n", type=int, default=40)
    c.add_argument("--out")

    pl = sub.add_parser("pollution", help="pollution sweep at fixed dofs per wavelength")
    pl.add_argument("--wavenumbers", default="20,40,80,160")
    pl.add_argument("--orders", default="3,4")
    pl.add_argument("--ppw", type=float, default=8.0)
    pl.add_argument("--radius", type=float, default=0.35)
    pl.add_argument("--out")

    s = sub.add_parser("solve-mm", help="solve a Matrix Market system")
    s.add_argument("matrix", help="system matrix (.mtx)")
    s.add_argument("rhs", help="right-hand side vector (.mtx)")
    s.add_argument("--mass", help="mass matrix for the shifted-Laplacian preconditioner")
    s.add_argument("--beta", type=float, default=0.0, help="preconditioner shift")
    s.add_argument("--restart", type=int, default=50)
    s.add_argument("--tol", type=float, default=1e-8)
    s.add_argument("--max-outer", dest="max_outer", type=int, default=20)
    s.add_argument("--direct", action="store_true", help="use the sparse direct solver")
    s.add_argument("--out", help="write the solution vector (.mtx)")
    s.add_argument("--report", help="write a JSON solve report")

    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "quality-map": _cmd_quality_map,
        "mms-converge": _cmd_mms,
        "pollution": _cmd_pollution,
        "solve-mm": _cmd_solve_mm,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
