"""End-to-end radiation pipeline: geometry, spaces, assembly, solve, output.

A run is configured by :class:`RunConfig` (JSON-serializable), executes the
stages geometry -> spaces -> dof split -> assembly -> system -> factor ->
solve -> postprocess sequentially, and writes a parametric field grid, boundary
profiles and a JSON report.  Stages are deterministic; repeated serial
runs produce bit-identical numeric outputs.
"""

from __future__ import annotations

import cmath
import json
import logging
import math
import resource
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import mms
from .assembly import (
    DofPartition,
    MirrorFold,
    QuadratureRule,
    assemble,
    build_system,
    classify_dofs,
    expand_solution,
    fold_system,
    mirror_fold,
)
from .bspline import TensorProductSpace, design, make_uniform_open_knots
from .bspline import basis_matrix  # noqa: F401  bench/layers.py traces this name
from .geometry import CoonsSurface, DomainConfig, make_semicircle_patch
from .solver import SolveReport, build_cslp, gmres, save_matrix_market, save_vector
from .solver import direct_solve  # noqa: F401  bench/layers.py traces this name

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
    the preconditioner shift as ``beta = beta_factor / k``; ``beta_factor
    = 0`` factors A itself, so GMRES ends after one iteration or a few.
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
    grid_res: int = 200
    profile_samples: int = 400
    full_scale: bool = False
    dump_matrices: bool = False
    vtk: bool = False
    outdir: str = "out"

    def __post_init__(self):
        # a JSON true is a Python int: reject bools before reading a number
        reals = ("frequency", "sound_speed", "half_aperture", "radius_factor", "theta", "beta_factor")
        bad = [name for name in reals if isinstance(getattr(self, name), bool)
               or not math.isfinite(getattr(self, name))]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be finite numbers")
        ints = ("order_xi", "order_eta", "n", "m", "grid_res", "profile_samples")
        bad = [name for name in ints if isinstance(getattr(self, name), bool)
               or not isinstance(getattr(self, name), (int, np.integer))]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be integers")
        bools = ("full_scale", "dump_matrices", "vtk")
        bad = [name for name in bools if not isinstance(getattr(self, name), bool)]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be true or false")
        if not isinstance(self.outdir, str):
            raise ValueError("outdir must be a string")
        if self.frequency <= 0 or self.sound_speed <= 0 or self.half_aperture <= 0:
            raise ValueError("physical parameters must be positive")
        if self.radius_factor <= 0:
            raise ValueError("radius_factor must be positive")
        if self.beta_factor < 0:
            raise ValueError("beta_factor must be nonnegative")
        as_list = isinstance(self.amplitude, (list, tuple))
        parts = self.amplitude if as_list else [self.amplitude]
        if as_list and len(parts) != 2:
            raise ValueError("amplitude as a list must be [real, imag]")
        if any(isinstance(v, bool) for v in parts):
            raise ValueError("amplitude must be a number, not true or false")
        self.amplitude = complex(*parts)
        if not cmath.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        # fail before any work: the domain checks itself
        self.domain()
        if not (2 <= self.order_xi <= self.n and 2 <= self.order_eta <= self.m):
            raise ValueError("need 2 <= order_xi <= n and 2 <= order_eta <= m")
        if self.grid_res < 2:
            raise ValueError("grid_res must be at least 2")
        if self.profile_samples < 1:
            raise ValueError("profile_samples must be at least 1")

    @property
    def wavelength(self) -> float:
        return self.sound_speed / self.frequency

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi * self.frequency / self.sound_speed

    @property
    def near_field_length(self) -> float:
        """Near-field (natural focus) distance ``a^2 / lambda``."""
        return self.half_aperture**2 / self.wavelength

    def domain(self) -> DomainConfig:
        r = self.radius_factor * self.half_aperture**2 / self.wavelength
        return DomainConfig(self.half_aperture, r, self.theta)

    @classmethod
    def from_json(cls, path, **overrides) -> "RunConfig":
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: the top level must be a JSON object, not {type(data).__name__}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**data)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["amplitude"] = [self.amplitude.real, self.amplitude.imag]
        return d


@dataclass
class Discretization:
    """A mesh: geometry, spaces, dof split, quadrature and mirror maps.  The
    free dofs are in grid order (:func:`igarad.assembly.classify_dofs`);
    ``folds`` are the even and the odd :class:`igarad.assembly.MirrorFold`
    of them.  A run's preconditioner is factored on the even map; a
    study's direct solve factors A's block on each.  The aperture is
    ``domain.aperture_preimage``."""

    domain: DomainConfig
    geometry: CoonsSurface
    space: TensorProductSpace
    partition: DofPartition
    quadrature: QuadratureRule
    folds: tuple[MirrorFold, MirrorFold]


def _mesh_space(domain: DomainConfig, geometry: CoonsSurface, order_xi: int, order_eta: int,
                n: int, m: int) -> TensorProductSpace:
    """The spline space of :func:`build_discretization`."""
    breaks = [*domain.aperture_preimage, *geometry.kv_xi.breakpoints[1:-1]]
    kv_xi = make_uniform_open_knots(order_xi, n).with_breakpoints(breaks)
    return TensorProductSpace(kv_xi, make_uniform_open_knots(order_eta, m))


def build_discretization(
    domain: DomainConfig,
    geometry: CoonsSurface,
    order_xi: int,
    order_eta: int,
    n: int,
    m: int,
) -> Discretization:
    """Uniform ``n x m`` B-spline spaces on ``geometry``, their dof split,
    quadrature and mirror maps (:func:`igarad.assembly.mirror_fold`).

    Runs (:func:`discretize`) and both studies build every mesh here, and
    ``ValueError`` rejects a problem that is not mirror-symmetric before
    any assembly.  The aperture preimages are inserted as xi knots, so xi
    has ``n + 2`` functions, and so are the geometry's interior xi
    breakpoints, so that no element straddles a kink of the map: a patch
    with ``theta < pi/4`` is only C^0 across xi = 1/2, and a Gauss node on
    the kink would see one side's Jacobian (xi gets one more function
    where the uniform knots miss 1/2).
    """
    space = _mesh_space(domain, geometry, order_xi, order_eta, n, m)
    partition = classify_dofs(space, domain)
    return Discretization(domain, geometry, space, partition, QuadratureRule(space),
                          mirror_fold(space, partition, geometry))


def discretize(config: RunConfig) -> Discretization:
    """A run's :func:`build_discretization`.  A mesh of more than
    ``FULL_SCALE_DOFS`` dofs without ``config.full_scale`` is refused with
    ``ValueError`` from its knot vectors, before any per-dof work."""
    domain = config.domain()
    geometry = make_semicircle_patch(domain)
    mesh = (domain, geometry, config.order_xi, config.order_eta, config.n, config.m)
    N = _mesh_space(*mesh).size
    if N > FULL_SCALE_DOFS and not config.full_scale:
        raise ValueError(
            f"{N} dofs exceeds the desk-scale limit {FULL_SCALE_DOFS}; "
            "pass full_scale=true (--full-scale) to proceed"
        )
    return build_discretization(*mesh)


class SolutionField:
    """Discrete field: coefficients over the tensor basis plus geometry.

    The magnitude reported everywhere is ``sqrt(Re^2 + Im^2)``.
    """

    def __init__(self, space: TensorProductSpace, geometry: CoonsSurface, coefficients: np.ndarray):
        coefficients = np.asarray(coefficients, dtype=complex)
        if coefficients.size != space.size:
            raise ValueError("coefficient vector must have one entry per basis function")
        self.space = space
        self.geometry = geometry
        self.coefficients = coefficients

    def evaluate_grid(self, xis, etas) -> np.ndarray:
        """Complex field values on the tensor grid ``xis x etas``."""
        return self.space.evaluate(self.coefficients, xis, etas)

    def evaluate_points(self, points) -> np.ndarray:
        """Complex field values at a list of ``(xi, eta)`` points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        grid = self.coefficients.reshape(self.space.m, self.space.n).T
        bx = design(self.space.kv_xi, points[:, 0])[0]
        be = design(self.space.kv_eta, points[:, 1])[0]
        return np.einsum("pi,ij,pj->p", bx, grid, be)


def axis_profile(sol: SolutionField, samples: int = 400):
    """Field along the symmetry axis x = 0, the image of the parametric line
    xi = 1/2 on the mirror-symmetric patches the package builds.

    Raises ``ValueError`` if that line does not map onto the axis.
    Returns ``(y, values)`` sorted by height.
    """
    etas = np.linspace(0.0, 1.0, samples)
    pts = sol.geometry.evaluate_grid([0.5], etas)[0]
    offset = float(np.max(np.abs(pts[:, 0])))
    if offset > 1e-10:
        raise ValueError(f"xi = 1/2 does not map onto the axis x = 0: max |x| = {offset:.3g}")
    return pts[:, 1], sol.evaluate_grid([0.5], etas)[0]


def bottom_profile(sol: SolutionField, samples: int = 400):
    """Field along the bottom edge y = 0; returns ``(x, values)``."""
    xis = np.linspace(0.0, 1.0, samples)
    xs = sol.geometry.evaluate_grid(xis, [0.0])[:, 0, 0]
    vals = sol.evaluate_grid(xis, [0.0])[:, 0]
    return xs, vals


def dirichlet_deviation(
    sol: SolutionField, domain: DomainConfig, amplitude: complex, samples: int = 200
) -> float:
    """max |u - C| over the transducer segment, for the amplitude C."""
    xis = np.linspace(*domain.aperture_preimage, samples)
    vals = sol.evaluate_grid(xis, [0.0])[:, 0]
    return float(np.max(np.abs(vals - amplitude)))


@dataclass
class RunResult:
    """What a run computed and what it cost: the factor's stored entries and
    bytes, and the peak resident sets of the factor's and the assembly's
    child processes (``None`` where one process did the work)."""

    config: RunConfig
    discretization: Discretization
    field: SolutionField
    solve_report: SolveReport
    timings: dict
    peak_rss_mib: dict
    outputs: dict
    dirichlet_deviation: float
    system_nnz: int
    lu_nnz: int
    factor_bytes: int
    child_peak_rss_mib: float | None
    assemble_child_peak_rss_mib: float | None

    def report(self) -> dict:
        """The run as ``report.json`` holds it, whose ``outputs`` are the
        files written before it."""
        config, disc = self.config, self.discretization
        return {
            "config": config.to_dict(),
            "derived": {
                "wavenumber": config.wavenumber,
                "wavelength": config.wavelength,
                "near_field_length": config.near_field_length,
                "radius": disc.domain.r,
                "dofs": disc.space.size,
                "n_actual": disc.space.n,
                "m_actual": disc.space.m,
                "n_free": disc.partition.n_free,
                "factor_unknowns": disc.folds[0].n_unknowns,
                "n_dirichlet": disc.partition.n_dirichlet,
                "dirichlet_deviation": self.dirichlet_deviation,
                "system_nnz": self.system_nnz,
                "lu_nnz": self.lu_nnz,
                "factor_bytes": self.factor_bytes,
                "child_peak_rss_mib": self.child_peak_rss_mib,
                "assemble_child_peak_rss_mib": self.assemble_child_peak_rss_mib,
            },
            "solve": asdict(self.solve_report),
            "timings": self.timings,
            "peak_rss_mib": self.peak_rss_mib,
            "outputs": {name: path for name, path in self.outputs.items() if name != "report"},
        }


def run(config: RunConfig, write_outputs: bool = True) -> RunResult:
    """Execute the full pipeline for ``config``.

    Each stage's wall time and the process's peak resident memory at its
    end are logged at INFO and kept in ``timings`` and ``peak_rss_mib``.
    With ``write_outputs``, ``config.outdir`` is created before the first
    stage; an ``OSError`` there or from ``report.json`` propagates as is.
    """
    timings: dict[str, float] = {}
    peak_rss_mib: dict[str, float] = {}

    def stage(name, fn):
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            raise PipelineError(name, exc) from exc
        timings[name] = time.perf_counter() - t0
        # ru_maxrss is in KiB on Linux
        peak_rss_mib[name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        log.info("[%s] %.3fs, peak RSS %.0f MiB", name, timings[name], peak_rss_mib[name])
        return out

    if write_outputs:
        Path(config.outdir).mkdir(parents=True, exist_ok=True)
    disc = stage("discretize", lambda: discretize(config))
    matrices = stage("assemble", lambda: assemble(disc.space, disc.geometry, disc.quadrature))

    k = config.wavenumber
    beta = config.beta_factor / k
    fold = disc.folds[0]

    def _system():
        # the folded T^T P T the preconditioner factors, then the full free
        # system GMRES solves
        folded = fold_system(matrices, disc.partition, fold, k, beta)
        A, b = build_system(matrices, disc.partition, k, config.amplitude)
        return A, b, folded

    A, b, folded = stage("system", _system)
    assemble_child_peak = matrices.child_peak_rss_mib
    if not config.dump_matrices:
        matrices = None  # S, M and E are not needed past here

    precond = stage("factor", lambda: build_cslp(folded, beta, tree=fold.tree, fold=fold.matrix))
    folded = None
    x, solve_report = stage("solve", lambda: gmres(A, b, precond))

    def _post():
        alpha = expand_solution(disc.partition, x, config.amplitude)
        return SolutionField(disc.space, disc.geometry, alpha)

    sol = stage("postprocess", _post)
    dev = dirichlet_deviation(sol, disc.domain, config.amplitude)

    outputs = stage("write", lambda: _write_outputs(config, sol, matrices, A, b)) if write_outputs else {}
    result = RunResult(config, disc, sol, solve_report, timings, peak_rss_mib, outputs, dev, A.nnz,
                       precond.lu_nnz, precond.factor_bytes, precond.child_peak_rss_mib, assemble_child_peak)
    if write_outputs:
        # after the write stage, so that its time and memory are in the report
        outputs["report"] = _write_report(result)
    return result


def _field_table(sol: SolutionField, grid_res: int) -> np.ndarray:
    """x, y, re, im and abs on the ``grid_res^2`` parametric sample grid,
    one row per point, xi outer."""
    grid = np.linspace(0.0, 1.0, grid_res)
    pts = sol.geometry.evaluate_grid(grid, grid)
    vals = sol.evaluate_grid(grid, grid)
    return np.column_stack(
        [a.ravel() for a in (pts[..., 0], pts[..., 1], vals.real, vals.imag, np.abs(vals))]
    )


_ROWS_PER_FORMAT = 8192  # rows formatted by one ``%``: bounds the strings held at once


def _write_table(fh, table: np.ndarray, row_format: str) -> None:
    """Write ``table`` (one value per row if 1-D) with ``row_format`` per row:
    the bytes of ``np.savetxt(fh, table, fmt=...)``, formatted by one ``%``
    per block of rows instead of one per row."""
    table = table.reshape(table.shape[0], -1)
    for start in range(0, table.shape[0], _ROWS_PER_FORMAT):
        block = table[start : start + _ROWS_PER_FORMAT]
        fh.write((row_format * block.shape[0]) % tuple(block.ravel().tolist()))


def _write_csv(path, header: str, table: np.ndarray) -> None:
    """``header`` and the rows of ``table`` at 17 significant digits, comma separated."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        _write_table(fh, table, ",".join(["%.17g"] * table.shape[1]) + "\n")


def write_field_csv(path, sol: SolutionField, grid_res: int) -> None:
    """Parametric field grid: xi, eta, x, y, re, im, abs (17 significant
    digits), xi outer.  Each distinct xi and eta is formatted once and
    written into the row format of its rows; one ``%`` per xi formats the
    rest."""
    table = _field_table(sol, grid_res)
    grid = ["%.17g" % t for t in np.linspace(0.0, 1.0, grid_res).tolist()]
    rows = [f",{eta},%.17g,%.17g,%.17g,%.17g,%.17g\n" for eta in grid]
    with open(path, "w") as fh:
        fh.write("xi,eta,x,y,re,im,abs\n")
        for i, xi in enumerate(grid):
            block = table[i * grid_res : (i + 1) * grid_res]
            fh.write((xi + xi.join(rows)) % tuple(block.ravel().tolist()))


def write_profile_csv(path, coord_name: str, coords, values) -> None:
    table = np.column_stack([coords, values.real, values.imag, np.abs(values)])
    _write_csv(path, f"{coord_name},re,im,abs", table)


def write_quality_csv(path, surface: CoonsSurface, grid_res: int) -> None:
    """Quality-map CSV with columns xi, eta, x, y, mean_ratio, xi outer."""
    xis, etas, F, mr = surface.quality_grid(grid_res)
    xi_g, eta_g = np.meshgrid(xis, etas, indexing="ij")
    table = np.column_stack([xi_g.ravel(), eta_g.ravel(), F[..., 0].ravel(), F[..., 1].ravel(), mr.ravel()])
    _write_csv(path, "xi,eta,x,y,mean_ratio", table)


def write_vtk(path, sol: SolutionField, grid_res: int) -> None:
    """Legacy-format VTK structured grid of the parametric sample grid:
    the columns of :func:`write_field_csv`, reordered with xi running fastest."""
    table = _field_table(sol, grid_res).reshape(grid_res, grid_res, 5).swapaxes(0, 1).reshape(-1, 5)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nacoustic field\nASCII\n")
        fh.write("DATASET STRUCTURED_GRID\n")
        fh.write(f"DIMENSIONS {grid_res} {grid_res} 1\n")
        fh.write(f"POINTS {grid_res * grid_res} double\n")
        _write_table(fh, table[:, :2], "%.17g %.17g 0\n")
        fh.write(f"POINT_DATA {grid_res * grid_res}\n")
        for name, col in (("re", 2), ("im", 3), ("abs", 4)):
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            _write_table(fh, table[:, col], "%.17g\n")


def _write_outputs(config, sol, matrices, system, rhs) -> dict:
    """Field, profiles, optional VTK and Matrix Market files (S, M, E, the
    system ``A`` and its right-hand side ``b``); returns their paths."""
    outputs = {}

    def path(name, filename):
        outputs[name] = str(Path(config.outdir) / filename)
        return outputs[name]

    write_field_csv(path("field", "field.csv"), sol, config.grid_res)
    write_profile_csv(path("axis_profile", "axis_profile.csv"), "y", *axis_profile(sol, config.profile_samples))
    write_profile_csv(path("bottom_profile", "bottom_profile.csv"), "x", *bottom_profile(sol, config.profile_samples))
    if config.vtk:
        write_vtk(path("vtk", "field.vtk"), sol, config.grid_res)
    if config.dump_matrices:
        for name, mat in (
            ("stiffness", matrices.stiffness),
            ("mass", matrices.mass),
            ("robin_mass", matrices.robin_mass),
            ("system", system),
        ):
            save_matrix_market(path(name, f"{name}.mtx"), mat)
        save_vector(path("rhs", "rhs.mtx"), rhs)
    return outputs


def _write_report(result: RunResult) -> str:
    """Dump ``result.report()`` to ``report.json`` next to the outputs; returns its path."""
    report_path = Path(result.config.outdir) / "report.json"
    with open(report_path, "w") as fh:
        json.dump(result.report(), fh, indent=2)
        fh.write("\n")
    return str(report_path)


def _manufactured_level(domain: DomainConfig, geometry: CoonsSurface, order: int, n: int, wave):
    """One study mesh (``n x n/2``, aperture-aligned) and its discrete solution for ``wave``."""
    disc = build_discretization(domain, geometry, order, order, n, max(order, n // 2))
    return disc, mms.solve_manufactured(disc, assemble(disc.space, geometry, disc.quadrature), wave)


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
    direction=(0.0, 1.0),
) -> list[ConvergenceRow]:
    """Manufactured-solution refinement study; rates should approach the order.

    Errors against a zero manufactured solution are identically zero;
    non-monotone error sequences are flagged with a warning.
    """
    cfg = DomainConfig(a=0.3, r=1.0, theta=math.pi / 4)
    geometry = make_semicircle_patch(cfg)
    wave = mms.PlaneWave(wavenumber, tuple(direction))
    rows: list[ConvergenceRow] = []
    n = base_n
    for level in range(levels):
        disc, alpha = _manufactured_level(cfg, geometry, order, n, wave)
        space = disc.space
        e2 = mms.l2_error(disc, alpha, wave)
        eh = mms.h1_semi_error(disc, alpha, wave)
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


def observed_order(rows: list[ConvergenceRow], last: int = 3) -> float:
    """Least-squares slope of log(L2 error) vs log(h) over the last levels."""
    sel = rows[-last:]
    hs = np.log([r.mesh_size for r in sel])
    es = np.log([r.l2_error for r in sel])
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
) -> list[PollutionRow]:
    """Fixed dofs-per-wavelength sweep over the wavenumber.

    With the resolution tied to the wavelength, any error growth in k is
    pollution; smoother bases grow slower.  The domain's radius is fixed at
    0.35: scaling lengths by s maps the problem at (k, r) onto (k / s, s r),
    so in 2D the errors depend on k r alone and the wavenumbers sweep it.
    """
    radius = 0.35
    cfg = DomainConfig(a=0.3 * radius, r=radius, theta=math.pi / 4)
    geometry = make_semicircle_patch(cfg)
    rows: list[PollutionRow] = []
    for order in orders:
        for k in wavenumbers:
            n = max(order + 2, int(math.ceil(points_per_wavelength * k * radius / math.pi)))
            wave = mms.PlaneWave(k, (0.0, 1.0))
            disc, alpha = _manufactured_level(cfg, geometry, order, n, wave)
            rel = mms.l2_error(disc, alpha, wave) / mms.l2_norm(disc, wave)
            rows.append(PollutionRow(order, k, n, disc.space.size, rel))
    return rows


def pollution_growth(rows: list[PollutionRow], order: int) -> float:
    """End-to-start relative-error growth factor for one basis order."""
    sel = sorted((r for r in rows if r.order == order), key=lambda r: r.wavenumber)
    return sel[-1].rel_l2_error / sel[0].rel_l2_error
