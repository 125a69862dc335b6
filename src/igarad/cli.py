"""Command-line interface.

Subcommands:

* ``run``          full radiation pipeline from a JSON config plus overrides
* ``quality-map``  parametrization quality CSV for a given subdivision angle,
                   on the unit half-disc
* ``mms-converge`` manufactured-solution refinement study
* ``pollution``    fixed dofs-per-wavelength wavenumber sweep
* ``solve-mm``     GMRES on Matrix Market files, preconditioned by a factor of
                   ``A - i beta M`` formed here (A itself without ``--beta``);
                   ``--mass`` and ``--beta > 0`` come together (exit 2), and
                   ``--mass`` is the mass block on A's unknowns: a run's
                   all-dof ``mass.mtx`` has the wrong shape (exit 2)

Exit codes: 0 success, 2 configuration/usage error, 3 pipeline failure,
4 solver non-convergence or a singular factorization, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import sys
from dataclasses import asdict, fields

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PIPELINE = 3
EXIT_SOLVER = 4
EXIT_IO = 5


def _bad_config(exc) -> int:
    print(f"error: bad configuration: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def _io_error(exc) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_IO


def _table_file(path):
    """``path`` opened for a study's JSON table before the study runs, so
    that an unwritable path fails before any assembly (a null context
    without a path)."""
    return open(path, "w") if path else contextlib.nullcontext()


def _add_run_parser(sub):
    """``--config`` and one flag per :class:`RunConfig` field, typed by its
    default; ``amplitude`` (complex) is set in the config file as ``[re, im]``."""
    from .pipeline import RunConfig

    p = sub.add_parser("run", help="run the radiation pipeline")
    p.add_argument("--config", help="JSON config file (fields of RunConfig)")
    for field in fields(RunConfig):
        if field.name == "amplitude":
            continue
        flags = [f"--{field.name.replace('_', '-')}"]
        if len(field.name) == 1:
            flags.insert(0, f"-{field.name}")
        if isinstance(field.default, bool):
            p.add_argument(*flags, action="store_true", default=None)
        else:
            p.add_argument(*flags, type=type(field.default))
    return p


def _cmd_run(args) -> int:
    from .pipeline import PipelineError, RunConfig, run

    # every option of the run parser but --config is a RunConfig field
    overrides = {
        k: v for k, v in vars(args).items() if k not in ("command", "config") and v is not None
    }
    try:
        if args.config:
            config = RunConfig.from_json(args.config, **overrides)
        else:
            config = RunConfig(**overrides)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except (TypeError, ValueError) as exc:
        return _bad_config(exc)

    # the pipeline logs one line per stage at INFO
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stdout)
    try:
        result = run(config)
    except OSError as exc:  # the output directory, before any stage, or report.json
        return _io_error(exc)
    except PipelineError as exc:
        if exc.stage == "write" and isinstance(exc.cause, OSError):
            return _io_error(exc)
        if exc.stage == "discretize" and isinstance(exc.cause, ValueError):
            return _bad_config(exc.cause)  # a mesh the run does not take, found before any assembly
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
        print(f"warning: GMRES did not reach its tolerance {rep.tol:g}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_quality_map(args) -> int:
    from .geometry import DomainConfig, make_semicircle_patch
    from .pipeline import write_quality_csv

    try:
        if args.grid_res < 2:
            raise ValueError("--grid-res must be at least 2")
        # the mean ratio does not depend on a, and r only scales x and y
        surface = make_semicircle_patch(DomainConfig(a=0.1, r=1.0, theta=args.theta))
    except ValueError as exc:
        return _bad_config(exc)
    try:
        write_quality_csv(args.out, surface, args.grid_res)
    except OSError as exc:
        return _io_error(exc)
    print(f"quality map ({args.grid_res}x{args.grid_res}) written to {args.out}")
    return EXIT_OK


def _cmd_mms(args) -> int:
    from .pipeline import convergence_study, observed_order

    if not 2 <= args.order <= args.base_n or args.levels < 2 or not 0 < args.wavenumber < math.inf:
        # the observed order is a slope, which needs two levels
        return _bad_config("need 2 <= --order <= --base-n, --levels >= 2 and a finite --wavenumber > 0")
    try:
        table = _table_file(args.out)
    except OSError as exc:
        return _io_error(exc)
    with table:
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
        last = min(3, len(rows))
        print(f"observed L2 order (last {last} levels): {observed_order(rows, last):.2f}")
        if args.out:
            json.dump([r.__dict__ for r in rows], table, indent=2)
            print(f"table written to {args.out}")
    return EXIT_OK


def _cmd_pollution(args) -> int:
    from .pipeline import pollution_growth, pollution_study

    try:
        ks = [float(v) for v in args.wavenumbers.split(",")]
        orders = [int(v) for v in args.orders.split(",")]
        if not all(0 < v < math.inf for v in [*ks, args.ppw]) or min(orders) < 2:
            raise ValueError("need finite --wavenumbers and --ppw > 0, and --orders >= 2")
    except ValueError as exc:
        return _bad_config(exc)
    try:
        table = _table_file(args.out)
    except OSError as exc:
        return _io_error(exc)
    with table:
        rows = pollution_study(wavenumbers=ks, orders=orders, points_per_wavelength=args.ppw)
        print(f"{'order':>6} {'k':>8} {'n':>6} {'dofs':>8} {'rel L2 error':>14}")
        for r in rows:
            print(f"{r.order:6d} {r.wavenumber:8.1f} {r.n:6d} {r.dofs:8d} {r.rel_l2_error:14.5e}")
        for order in orders:
            print(f"order {order}: error growth factor = {pollution_growth(rows, order):.3f}")
        if args.out:
            json.dump([r.__dict__ for r in rows], table, indent=2)
            print(f"table written to {args.out}")
    return EXIT_OK


def _cmd_solve_mm(args) -> int:
    from .solver import build_cslp, gmres, load_matrix_market, load_vector, save_vector

    try:
        if not 0 <= args.beta < math.inf:
            raise ValueError("--beta must be nonnegative and finite")
        if bool(args.beta) != bool(args.mass):  # not a shift without M, nor an M left unused
            raise ValueError("--beta > 0 needs --mass, and --mass needs --beta > 0")
    except ValueError as exc:
        return _bad_config(exc)
    try:
        A = load_matrix_market(args.matrix)
        b = load_vector(args.rhs)
        M = load_matrix_market(args.mass) if args.mass else None
    except (OSError, ValueError) as exc:
        print(f"error: cannot read inputs: {exc}", file=sys.stderr)
        return EXIT_IO
    if A.shape != (b.size, b.size):
        return _bad_config(f"a {A.shape[0]} x {A.shape[1]} matrix with a right-hand side of length "
                           f"{b.size}; the matrix must be square, of the right-hand side's length")
    if M is not None and M.shape != A.shape:
        return _bad_config(f"a {M.shape[0]} x {M.shape[1]} mass matrix for a {A.shape[0]} x {A.shape[1]} "
                           "matrix; --mass takes the mass block on the matrix's unknowns")
    try:
        precond = build_cslp(A if M is None else A - 1j * args.beta * M, args.beta)
    except RuntimeError as exc:  # "singular shifted-Laplacian factorization: ..."
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    x, rep = gmres(A, b, precond)
    print(
        f"gmres: outer={rep.outer_iterations} inner={rep.inner_iterations} "
        f"precond_residual={rep.preconditioned_residual:.3e} true={rep.true_residual:.3e}"
    )
    try:
        if args.out:
            save_vector(args.out, x)
            print(f"solution written to {args.out}")
        if args.report:
            with open(args.report, "w") as fh:
                json.dump(asdict(rep), fh, indent=2)
    except OSError as exc:
        return _io_error(exc)
    return EXIT_OK if rep.converged else EXIT_SOLVER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="igarad",
        description="Isogeometric solver for 2D acoustic radiation on a semicircle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_parser(sub)

    q = sub.add_parser("quality-map", help="export the parametrization quality map")
    q.add_argument("--theta", type=float, default=math.pi / 4)
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
    pl.add_argument("--out")

    s = sub.add_parser("solve-mm", help="solve a Matrix Market system")
    s.add_argument("matrix", help="system matrix (.mtx)")
    s.add_argument("rhs", help="right-hand side vector (.mtx)")
    s.add_argument("--mass", help="mass block on the matrix's unknowns (a run's free dofs), for --beta > 0")
    s.add_argument("--beta", type=float, default=0.0, help="shift of the factored P = A - i beta M")
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
