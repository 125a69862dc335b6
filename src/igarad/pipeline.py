"""End-to-end radiation pipeline: geometry, spaces, assembly, solve, output.

A run is configured by :class:`RunConfig` (JSON-serializable), executes the
stages geometry -> spaces -> dof split -> assembly -> system -> solve ->
postprocess sequentially, and writes a parametric field grid, boundary
profiles and a JSON report.  Stages are deterministic; repeated serial
runs produce bit-identical numeric outputs.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import mms
from .assembly import (
    DofPartition,
    QuadratureRule,
    assemble,
    build_system,
    classify_dofs,
    expand_solution,
)
from .bspline import TensorProductSpace, basis_matrix, make_uniform_open_knots
from .geometry import (
    CoonsSurface,
    DomainConfig,
    make_semicircle_patch,
    near_field_length,
)
from .solver import (
    GmresConfig,
    SolveReport,
    build_cslp,
    direct_solve,
    gmres,
    save_matrix_market,
)

FULL_SCALE_DOFS = 150_000

log = logging.getLogger(__name__)


class PipelineError(RuntimeError):
    """Failure of a named pipeline stage."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunConfig:
    """Configuration of one radiation run (all physical units SI).

    The semicircle radius is always derived as ``radius_factor`` times
    the near-field length, never set directly.  ``beta_factor`` scales
    the preconditioner shift as ``beta = beta_factor / k``.
    """

    frequency: float = 1.0e5
    sound_speed: float = 1500.0
    half_aperture: float = 0.01
    radius_factor: float = 2.0
    theta: float = math.pi / 4
    amplitude: complex = 1.0 + 0.0j
    order_xi: int = 4
    order_eta: int = 4
    n: int = 120
    m: int = 100
    beta_factor: float = 1.0 / 3.0
    restart: int = 50
    tol: float = 1.0e-8
    max_outer: int = 20
    solver: str = "gmres"
    grid_res: int = 200
    profile_samples: int = 400
    align_aperture_knots: bool = True
    quad_points: int | None = None
    full_scale: bool = False
    dump_matrices: bool = False
    vtk: bool = False
    outdir: str = "out"

    def __post_init__(self):
        reals = ("frequency", "sound_speed", "half_aperture", "radius_factor", "theta", "beta_factor", "tol")
        bad = [name for name in reals if not math.isfinite(getattr(self, name))]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be finite")
        if self.frequency <= 0 or self.sound_speed <= 0 or self.half_aperture <= 0:
            raise ValueError("physical parameters must be positive")
        if self.radius_factor <= 0:
            raise ValueError("radius_factor must be positive")
        if self.beta_factor < 0:
            raise ValueError("beta_factor must be nonnegative")
        if self.solver not in ("gmres", "direct"):
            raise ValueError("solver must be 'gmres' or 'direct'")
        if isinstance(self.amplitude, (list, tuple)):
            self.amplitude = complex(self.amplitude[0], self.amplitude[1])
        else:
            self.amplitude = complex(self.amplitude)
        # fail before any work: the domain and the GMRES settings check themselves
        self.domain()
        GmresConfig(self.restart, self.tol, self.max_outer)
        if not (2 <= self.order_xi <= self.n and 2 <= self.order_eta <= self.m):
            raise ValueError("need 2 <= order_xi <= n and 2 <= order_eta <= m")
        if self.quad_points is not None and self.quad_points < 1:
            raise ValueError("quad_points must be at least 1")
        if self.grid_res < 2:
            raise ValueError("grid_res must be at least 2")

    def domain(self) -> DomainConfig:
        return DomainConfig.from_frequency(
            frequency=self.frequency,
            half_aperture=self.half_aperture,
            sound_speed=self.sound_speed,
            radius_factor=self.radius_factor,
            theta=self.theta,
            amplitude=self.amplitude,
        )

    @classmethod
    def from_json(cls, path, **overrides) -> "RunConfig":
        with open(path) as fh:
            data = json.load(fh)
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**data)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["amplitude"] = [self.amplitude.real, self.amplitude.imag]
        return d


@dataclass
class Discretization:
    """Geometry, spaces and dof split shared by solves on one config."""

    domain: DomainConfig
    geometry: CoonsSurface
    space: TensorProductSpace
    partition: DofPartition
    quadrature: QuadratureRule


def build_discretization(
    domain: DomainConfig,
    geometry: CoonsSurface,
    order_xi: int,
    order_eta: int,
    n: int,
    m: int,
    quad_points: int | None = None,
    align_aperture_knots: bool = True,
) -> Discretization:
    """Uniform ``n x m`` B-spline spaces on ``geometry``, their dof split and quadrature.

    Runs (:func:`discretize`) and both studies build every mesh here;
    ``align_aperture_knots`` inserts the aperture preimages as xi knots.
    """
    kv_xi = make_uniform_open_knots(order_xi, n)
    if align_aperture_knots:
        kv_xi = kv_xi.with_breakpoints(domain.aperture_preimage)
    space = TensorProductSpace(kv_xi, make_uniform_open_knots(order_eta, m))
    partition = classify_dofs(space, domain)
    quadrature = QuadratureRule(space, quad_points, quad_points)
    return Discretization(domain, geometry, space, partition, quadrature)


def discretize(config: RunConfig) -> Discretization:
    domain = config.domain()
    return build_discretization(
        domain,
        make_semicircle_patch(domain),
        config.order_xi,
        config.order_eta,
        config.n,
        config.m,
        config.quad_points,
        config.align_aperture_knots,
    )


class SolutionField:
    """Discrete field: coefficients over the tensor basis plus geometry.

    The magnitude reported everywhere is ``sqrt(Re^2 + Im^2)``.
    """

    def __init__(
        self,
        space: TensorProductSpace,
        geometry: CoonsSurface,
        coefficients: np.ndarray,
        wavenumber: float,
    ):
        coefficients = np.asarray(coefficients, dtype=complex)
        if coefficients.size != space.size:
            raise ValueError("coefficient vector must have one entry per basis function")
        self.space = space
        self.geometry = geometry
        self.coefficients = coefficients
        self.wavenumber = wavenumber

    def evaluate_grid(self, xis, etas) -> np.ndarray:
        """Complex field values on the tensor grid ``xis x etas``."""
        return self.space.evaluate(self.coefficients, xis, etas)

    def evaluate_points(self, points) -> np.ndarray:
        """Complex field values at a list of ``(xi, eta)`` points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        grid = self.coefficients.reshape(self.space.m, self.space.n).T
        bx = basis_matrix(self.space.kv_xi, points[:, 0])
        be = basis_matrix(self.space.kv_eta, points[:, 1])
        return np.einsum("pi,ij,pj->p", bx, grid, be)


def eval_field(sol: SolutionField, points) -> np.ndarray:
    """Field values at parametric points (see :meth:`SolutionField.evaluate_points`)."""
    return sol.evaluate_points(points)


def axis_profile(sol: SolutionField, samples: int = 400):
    """Field along the symmetry axis x = 0.

    Checks that the parametric line xi = 1/2 maps onto the axis; if the
    geometry is not symmetric it falls back to root-finding the preimage
    of x = 0 for each eta.  Returns ``(y, values)`` sorted by height.
    """
    etas = np.linspace(0.0, 1.0, samples)
    pts = sol.geometry.evaluate_grid([0.5], etas)[0]
    if np.max(np.abs(pts[:, 0])) <= 1e-10:
        ys = pts[:, 1]
        vals = sol.evaluate_grid([0.5], etas)[0]
        return ys, vals
    from scipy.optimize import brentq

    xis = np.empty(samples)
    ys = np.empty(samples)
    for i, eta in enumerate(etas):
        f = lambda xi: sol.geometry.evaluate(xi, eta)[0]
        xis[i] = brentq(f, 0.0, 1.0, xtol=1e-14)
        ys[i] = sol.geometry.evaluate(xis[i], eta)[1]
    vals = sol.evaluate_points(np.column_stack([xis, etas]))
    return ys, vals


def bottom_profile(sol: SolutionField, samples: int = 400):
    """Field along the bottom edge y = 0; returns ``(x, values)``."""
    xis = np.linspace(0.0, 1.0, samples)
    xs = sol.geometry.evaluate_grid(xis, [0.0])[:, 0, 0]
    vals = sol.evaluate_grid(xis, [0.0])[:, 0]
    return xs, vals


def dirichlet_deviation(sol: SolutionField, domain: DomainConfig, samples: int = 200) -> float:
    """max |u - C| over the transducer segment."""
    xis = np.linspace(*domain.aperture_preimage, samples)
    vals = sol.evaluate_grid(xis, [0.0])[:, 0]
    return float(np.max(np.abs(vals - domain.amplitude)))


def _estimate_lu_gib(dofs: int, n: int, m: int, order: int) -> float:
    # rough banded-fill model: two triangular factors of bandwidth ~ order*min(n, m)
    bandwidth = order * min(n, m)
    return 2.0 * 16.0 * dofs * bandwidth / 2**30


@dataclass
class RunResult:
    config: RunConfig
    discretization: Discretization
    field: SolutionField
    solve_report: SolveReport
    timings: dict
    outputs: dict
    dirichlet_deviation: float


def _solve_direct(A, b):
    """Direct sparse solve of the restricted system, with its report."""
    t0 = time.perf_counter()
    x = direct_solve(A, b)
    b_norm = float(np.linalg.norm(b))
    res = float(np.linalg.norm(A @ x - b)) / b_norm if b_norm > 0 else 0.0
    rep = SolveReport(
        method="direct",
        n=b.size,
        outer_iterations=1,
        inner_iterations=1,
        preconditioned_residual=res,
        true_residual=res,
        wall_time_s=time.perf_counter() - t0,
        converged=True,
    )
    return x, rep


def run(config: RunConfig, write_outputs: bool = True) -> RunResult:
    """Execute the full pipeline for ``config``; stage times are logged at INFO."""
    timings: dict[str, float] = {}

    def stage(name, fn):
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            raise PipelineError(name, exc) from exc
        timings[name] = time.perf_counter() - t0
        log.info("[%s] %.3fs", name, timings[name])
        return out

    disc = stage("discretize", lambda: discretize(config))
    N = disc.space.size
    if N > FULL_SCALE_DOFS and not config.full_scale:
        raise PipelineError(
            "discretize",
            ValueError(
                f"{N} dofs exceeds the desk-scale limit {FULL_SCALE_DOFS}; "
                "pass full_scale=true (--full-scale) to proceed"
            ),
        )
    if config.full_scale:
        est = _estimate_lu_gib(N, disc.space.n, disc.space.m, max(config.order_xi, config.order_eta))
        log.info("full-scale run: %d dofs, rough LU memory estimate %.1f GiB", N, est)

    matrices = stage("assemble", lambda: assemble(disc.space, disc.geometry, disc.quadrature))

    k = disc.domain.wavenumber
    A, b = stage(
        "system",
        lambda: build_system(matrices, disc.partition, k, disc.domain.amplitude),
    )

    if config.solver == "direct":
        x, solve_report = stage("solve", lambda: _solve_direct(A, b))
    else:
        free = disc.partition.free
        beta = config.beta_factor / k
        precond = stage("factor", lambda: build_cslp(A, matrices.mass[free][:, free], beta))
        gmres_config = GmresConfig(restart=config.restart, tol=config.tol, max_outer=config.max_outer)
        x, solve_report = stage("solve", lambda: gmres(A, b, precond, gmres_config))

    def _post():
        alpha = expand_solution(disc.partition, x, disc.domain.amplitude)
        return SolutionField(disc.space, disc.geometry, alpha, k)

    sol = stage("postprocess", _post)
    dev = dirichlet_deviation(sol, disc.domain)

    outputs: dict[str, str] = {}
    if write_outputs:
        outputs = stage(
            "write",
            lambda: _write_outputs(config, disc, sol, solve_report, dev, timings, matrices, A),
        )
    return RunResult(config, disc, sol, solve_report, timings, outputs, dev)


def _field_table(sol: SolutionField, grid_res: int) -> np.ndarray:
    xis = np.linspace(0.0, 1.0, grid_res)
    etas = np.linspace(0.0, 1.0, grid_res)
    pts = sol.geometry.evaluate_grid(xis, etas)
    vals = sol.evaluate_grid(xis, etas)
    xi_g, eta_g = np.meshgrid(xis, etas, indexing="ij")
    return np.column_stack(
        [
            xi_g.ravel(),
            eta_g.ravel(),
            pts[..., 0].ravel(),
            pts[..., 1].ravel(),
            vals.real.ravel(),
            vals.imag.ravel(),
            np.abs(vals).ravel(),
        ]
    )


def write_field_csv(path, sol: SolutionField, grid_res: int) -> None:
    """Parametric field grid: xi, eta, x, y, re, im, abs (17 significant digits)."""
    table = _field_table(sol, grid_res)
    np.savetxt(
        path, table, delimiter=",", comments="", fmt="%.17g",
        header="xi,eta,x,y,re,im,abs",
    )


def write_profile_csv(path, coord_name: str, coords, values) -> None:
    table = np.column_stack([coords, values.real, values.imag, np.abs(values)])
    np.savetxt(
        path, table, delimiter=",", comments="", fmt="%.17g",
        header=f"{coord_name},re,im,abs",
    )


def write_vtk(path, sol: SolutionField, grid_res: int) -> None:
    """Legacy-format VTK structured grid of the parametric sample grid."""
    xis = np.linspace(0.0, 1.0, grid_res)
    etas = np.linspace(0.0, 1.0, grid_res)
    pts = sol.geometry.evaluate_grid(xis, etas)
    vals = sol.evaluate_grid(xis, etas)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nacoustic field\nASCII\n")
        fh.write("DATASET STRUCTURED_GRID\n")
        fh.write(f"DIMENSIONS {grid_res} {grid_res} 1\n")
        fh.write(f"POINTS {grid_res * grid_res} double\n")
        for j in range(grid_res):
            for i in range(grid_res):
                fh.write(f"{pts[i, j, 0]:.17g} {pts[i, j, 1]:.17g} 0\n")
        fh.write(f"POINT_DATA {grid_res * grid_res}\n")
        for name, data in (
            ("re", vals.real),
            ("im", vals.imag),
            ("abs", np.abs(vals)),
        ):
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for j in range(grid_res):
                for i in range(grid_res):
                    fh.write(f"{data[i, j]:.17g}\n")


def _write_outputs(config, disc, sol, solve_report, dev, timings, matrices, system) -> dict:
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = {}

    field_path = outdir / "field.csv"
    write_field_csv(field_path, sol, config.grid_res)
    outputs["field"] = str(field_path)

    ys, axis_vals = axis_profile(sol, config.profile_samples)
    axis_path = outdir / "axis_profile.csv"
    write_profile_csv(axis_path, "y", ys, axis_vals)
    outputs["axis_profile"] = str(axis_path)

    xs, bot_vals = bottom_profile(sol, config.profile_samples)
    bottom_path = outdir / "bottom_profile.csv"
    write_profile_csv(bottom_path, "x", xs, bot_vals)
    outputs["bottom_profile"] = str(bottom_path)

    if config.vtk:
        vtk_path = outdir / "field.vtk"
        write_vtk(vtk_path, sol, config.grid_res)
        outputs["vtk"] = str(vtk_path)

    if config.dump_matrices:
        for name, mat in (
            ("stiffness", matrices.stiffness),
            ("mass", matrices.mass),
            ("robin_mass", matrices.robin_mass),
            ("system", system),
        ):
            p = outdir / f"{name}.mtx"
            save_matrix_market(p, mat)
            outputs[name] = str(p)

    domain = disc.domain
    report = {
        "config": config.to_dict(),
        "derived": {
            "wavenumber": domain.wavenumber,
            "wavelength": domain.wavelength,
            "near_field_length": near_field_length(domain),
            "radius": domain.r,
            "dofs": disc.space.size,
            "n_actual": disc.space.n,
            "m_actual": disc.space.m,
            "n_free": disc.partition.n_free,
            "n_dirichlet": disc.partition.n_dirichlet,
            "dirichlet_deviation": dev,
        },
        "solve": asdict(solve_report),
        "timings": timings,
        "outputs": outputs,
    }
    report_path = outdir / "report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    outputs["report"] = str(report_path)
    return outputs


def _manufactured_level(domain: DomainConfig, geometry: CoonsSurface, order: int, n: int, wave):
    """One study mesh (``n x n/2``, aperture-aligned) and its discrete solution for ``wave``."""
    disc = build_discretization(domain, geometry, order, order, n, max(order, n // 2))
    matrices = assemble(disc.space, geometry, disc.quadrature)
    space, quad = disc.space, disc.quadrature
    return disc, mms.solve_manufactured(space, geometry, quad, disc.partition, matrices, wave)


@dataclass
class ConvergenceRow:
    mesh_size: float
    n: int
    dofs: int
    l2_error: float
    h1_error: float
    l2_rate: float | None
    h1_rate: float | None


def convergence_study(
    wavenumber: float = 10.0,
    order: int = 4,
    levels: int = 4,
    base_n: int = 40,
    radius: float = 1.0,
    aperture_fraction: float = 0.3,
    theta: float = math.pi / 4,
    direction=(0.0, 1.0),
) -> list[ConvergenceRow]:
    """Manufactured-solution refinement study; rates should approach the order.

    Errors against a zero manufactured solution are identically zero;
    non-monotone error sequences are flagged with a warning.
    """
    cfg = DomainConfig(a=aperture_fraction * radius, r=radius, theta=theta)
    geometry = make_semicircle_patch(cfg)
    wave = mms.PlaneWave(wavenumber, tuple(direction))
    rows: list[ConvergenceRow] = []
    n = base_n
    for level in range(levels):
        disc, alpha = _manufactured_level(cfg, geometry, order, n, wave)
        space, quad = disc.space, disc.quadrature
        e2 = mms.l2_error(space, geometry, alpha, wave, quad)
        eh = mms.h1_semi_error(space, geometry, alpha, wave, quad)
        h = float(np.max(np.diff(space.kv_xi.breakpoints)))
        if rows:
            ratio = math.log(rows[-1].mesh_size / h)
            r2 = math.log(rows[-1].l2_error / e2) / ratio if e2 > 0 else None
            rh = math.log(rows[-1].h1_error / eh) / ratio if eh > 0 else None
        else:
            r2 = rh = None
        rows.append(ConvergenceRow(h, n, space.size, e2, eh, r2, rh))
        n *= 2
    errs = [r.l2_error for r in rows]
    if any(errs[i + 1] > errs[i] for i in range(len(errs) - 1)) and errs[0] > 0:
        import warnings

        warnings.warn("non-monotone manufactured-solution errors", stacklevel=2)
    return rows


def observed_order(rows: list[ConvergenceRow], last: int = 3, which: str = "l2") -> float:
    """Least-squares slope of log(error) vs log(h) over the last levels."""
    sel = rows[-last:]
    hs = np.log([r.mesh_size for r in sel])
    es = np.log([r.l2_error if which == "l2" else r.h1_error for r in sel])
    return float(np.polyfit(hs, es, 1)[0])


@dataclass
class PollutionRow:
    order: int
    wavenumber: float
    n: int
    dofs: int
    rel_l2_error: float


def pollution_study(
    wavenumbers=(20.0, 40.0, 80.0, 160.0),
    orders=(3, 4),
    points_per_wavelength: float = 8.0,
    radius: float = 0.35,
    aperture_fraction: float = 0.3,
    theta: float = math.pi / 4,
) -> list[PollutionRow]:
    """Fixed dofs-per-wavelength sweep over the wavenumber.

    With the resolution tied to the wavelength, any error growth in k is
    pollution; smoother bases grow slower.
    """
    cfg = DomainConfig(a=aperture_fraction * radius, r=radius, theta=theta)
    geometry = make_semicircle_patch(cfg)
    rows: list[PollutionRow] = []
    for order in orders:
        for k in wavenumbers:
            n = max(order + 2, int(math.ceil(points_per_wavelength * k * radius / math.pi)))
            wave = mms.PlaneWave(k, (0.0, 1.0))
            disc, alpha = _manufactured_level(cfg, geometry, order, n, wave)
            space, quad = disc.space, disc.quadrature
            rel = mms.l2_error(space, geometry, alpha, wave, quad) / mms.l2_norm(
                space, geometry, wave, quad
            )
            rows.append(PollutionRow(order, k, n, space.size, rel))
    return rows


def pollution_growth(rows: list[PollutionRow], order: int) -> float:
    """End-to-start relative-error growth factor for one basis order."""
    sel = sorted((r for r in rows if r.order == order), key=lambda r: r.wavenumber)
    return sel[-1].rel_l2_error / sel[0].rel_l2_error
