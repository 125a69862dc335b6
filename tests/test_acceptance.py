"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest
from scipy.signal import find_peaks

from igarad.assembly import QuadratureRule, assemble, build_system, classify_dofs
from igarad.bspline import TensorProductSpace, make_uniform_open_knots
from igarad.geometry import (
    DomainConfig,
    coons_patch,
    make_line,
    make_semicircle_boundary,
    make_semicircle_patch,
)
from igarad.pipeline import (
    RunConfig,
    axis_profile,
    bottom_profile,
    convergence_study,
    discretize,
    observed_order,
    pollution_growth,
    pollution_study,
    run,
)
from igarad.solver import build_cslp, direct_solve, gmres


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


DESK_SOUND_SPEED = 1500.0
DESK_WAVENUMBER = 300.0
DESK_FREQUENCY = DESK_WAVENUMBER * DESK_SOUND_SPEED / (2 * math.pi)


def desk_config(**kw):
    """Reduced radiation problem: k ~ 300, ~11k dofs, aperture widened so
    that the semicircle radius 2*N_f still exceeds it at this wavelength."""
    base = dict(
        frequency=DESK_FREQUENCY,
        sound_speed=DESK_SOUND_SPEED,
        half_aperture=0.05,
        n=120,
        m=90,
        order_xi=4,
        order_eta=4,
        profile_samples=800,
    )
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def desk_run():
    return run(desk_config(), write_outputs=False)


class TestCriterion1GeometryExactness:
    def test_arc_samples_on_circle(self):
        """Every boundary arc sample lies on the circle to 1e-12."""
        t0 = time.perf_counter()
        worst = 0.0
        for theta in (math.pi / 20, math.pi / 4):
            cfg = DomainConfig(a=0.01, r=0.133, theta=theta)
            _, ct, cl, cr = make_semicircle_boundary(cfg)
            ts = np.linspace(0.0, 1.0, 1000)
            for curve in (ct, cl, cr):
                pts = curve.evaluate(ts)
                worst = max(worst, float(np.max(np.abs(np.hypot(pts[:, 0], pts[:, 1]) - cfg.r))))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-12 and elapsed < 1.0
        verdict("criterion 1 (geometry exactness)", ok,
                f"max |r_sample - r| = {worst:.2e}, runtime {elapsed:.2f}s")
        assert worst <= 1e-12
        assert elapsed < 1.0


class TestCriterion2ParametrizationQuality:
    def test_quality_statistics(self):
        """Mean-ratio stats on a 200x200 parametric grid.

        Three clauses on the theta = pi/4 patch: the minimum lies in
        [0.35, 0.55], at least 75 % of the samples are >= 0.8, and the mean
        beats the theta = pi/20 patch.  The minimum sits at the parametric
        corners (0,1) and (1,1), where the top arc meets the side arcs on
        the smooth circle.  The patch arcs have zero speed there, so the map
        behaves like z^2 at those corners and the mean ratio tends to a
        positive limit: the sampled minimum does not depend on the grid.
        """
        t0 = time.perf_counter()
        surf4 = make_semicircle_patch(DomainConfig(a=0.01, r=0.166, theta=math.pi / 4))
        surf20 = make_semicircle_patch(DomainConfig(a=0.01, r=0.166, theta=math.pi / 20))
        _, _, _, mr4 = surf4.quality_grid(200)
        _, _, _, mr20 = surf20.quality_grid(200)
        elapsed = time.perf_counter() - t0

        min4 = float(mr4.min())
        frac4 = float((mr4 >= 0.8).mean())
        ok_min = 0.35 <= min4 <= 0.55
        ok_frac = frac4 >= 0.75
        ok_mean = mr4.mean() > mr20.mean()
        min_note = "ok" if ok_min else "FAIL"
        verdict(
            "criterion 2 (parametrization quality)",
            ok_min and ok_frac and ok_mean and elapsed < 5.0,
            f"min={min4:.4f} (window [0.35,0.55]: {min_note}), "
            f"frac>=0.8: {frac4:.3f} ({'ok' if ok_frac else 'FAIL'}), "
            f"mean pi/4 {mr4.mean():.3f} > mean pi/20 {mr20.mean():.3f}: "
            f"{'ok' if ok_mean else 'FAIL'}, runtime {elapsed:.2f}s",
        )
        assert elapsed < 5.0
        assert ok_frac
        assert ok_mean
        assert ok_min, (
            f"sampled minimum {min4:.4f} outside [0.35, 0.55]: the mean ratio at the "
            "two arc-junction corners, where the patch should behave like z^2"
        )


class TestCriterion3AssemblyOracle:
    def test_oracle_equivalence_and_totals(self):
        """S and M vs brute-force quadrature; mass/boundary-mass totals."""
        from test_assembly import brute_force_matrices, unit_square_patch

        t0 = time.perf_counter()
        space = TensorProductSpace(make_uniform_open_knots(2, 3), make_uniform_open_knots(2, 3))
        geometry = unit_square_patch()
        mats = assemble(space, geometry, QuadratureRule(space))
        S_o, M_o = brute_force_matrices(space, geometry)
        err_s = np.max(np.abs(mats.stiffness.toarray() - S_o)) / np.max(np.abs(S_o))
        err_m = np.max(np.abs(mats.mass.toarray() - M_o)) / np.max(np.abs(M_o))

        cfg = DomainConfig(a=0.01, r=0.133, theta=math.pi / 4)
        semi = make_semicircle_patch(cfg)
        space2 = TensorProductSpace(make_uniform_open_knots(4, 16), make_uniform_open_knots(4, 12))
        mats2 = assemble(space2, semi, QuadratureRule(space2))
        mass_err = abs(mats2.mass.sum() - math.pi * cfg.r**2 / 2)
        robin_err = abs(mats2.robin_mass.sum() - math.pi * cfg.r)
        elapsed = time.perf_counter() - t0

        ok = err_s <= 1e-9 and err_m <= 1e-9 and mass_err <= 1e-10 and robin_err <= 1e-8
        verdict(
            "criterion 3 (assembly oracle equivalence)",
            ok and elapsed < 10.0,
            f"S rel err {err_s:.2e}, M rel err {err_m:.2e}, total-mass err {mass_err:.2e}, "
            f"boundary-mass err {robin_err:.2e}, runtime {elapsed:.2f}s",
        )
        assert err_s <= 1e-9
        assert err_m <= 1e-9
        assert mass_err <= 1e-10
        assert robin_err <= 1e-8
        assert elapsed < 10.0


class TestCriterion4Dirichlet:
    def test_boundary_value_after_solve(self, desk_run):
        """max over 200 aperture samples of |u - C| after a desk solve."""
        xi_l = desk_run.discretization.domain.aperture_preimage[0]
        xi_r = desk_run.discretization.domain.aperture_preimage[1]
        xis = np.linspace(xi_l, xi_r, 200)
        vals = desk_run.field.evaluate_grid(xis, [0.0])[:, 0]
        dev = float(np.max(np.abs(vals - desk_run.config.amplitude)))
        verdict("criterion 4 (Dirichlet correctness)", dev <= 1e-10, f"max |u - C| = {dev:.2e}")
        assert dev <= 1e-10


class TestCriterion5MmsConvergence:
    def test_observed_orders(self):
        """L2 orders for quadratic and cubic splines, k = 10, 4 levels."""
        t0 = time.perf_counter()
        rows3 = convergence_study(wavenumber=10.0, order=3, levels=4, base_n=40)
        order3 = observed_order(rows3)
        rows4 = convergence_study(wavenumber=10.0, order=4, levels=4, base_n=40)
        order4 = observed_order(rows4)
        elapsed = time.perf_counter() - t0
        ok = 2.7 <= order3 <= 3.3 and 3.7 <= order4 <= 4.3
        verdict(
            "criterion 5 (MMS convergence)",
            ok and elapsed < 120.0,
            f"quadratic order {order3:.2f} (window [2.7, 3.3]), cubic order {order4:.2f} "
            f"(window [3.7, 4.3]), runtime {elapsed:.1f}s",
        )
        assert 2.7 <= order3 <= 3.3
        assert 3.7 <= order4 <= 4.3
        assert elapsed < 120.0


class TestCriterion6PollutionTrend:
    def test_cubic_grows_slower_than_quadratic(self):
        """Error growth over k in [20, 160] at fixed dofs per wavelength."""
        t0 = time.perf_counter()
        rows = pollution_study()
        g3 = pollution_growth(rows, 3)
        g4 = pollution_growth(rows, 4)
        elapsed = time.perf_counter() - t0
        ratio = g4 / g3
        verdict(
            "criterion 6 (pollution trend)",
            ratio < 1.0 and elapsed < 300.0,
            f"quadratic growth {g3:.2f}, cubic growth {g4:.2f}, ratio {ratio:.3f} < 1, "
            f"runtime {elapsed:.1f}s",
        )
        assert ratio < 1.0
        assert elapsed < 300.0


class TestCriterion7PreconditionedSolver:
    def test_gmres_with_cslp(self, desk_run):
        """GMRES(50), beta = 1/(3k): <= 3 outer iterations to 1e-8, and
        agreement with the sparse direct solve to 1e-7."""
        t0 = time.perf_counter()
        rep = desk_run.solve_report
        disc = desk_run.discretization
        k = desk_run.config.wavenumber
        assert abs(k - DESK_WAVENUMBER) < 1.0
        assert 9000 <= disc.partition.n_free <= 12000

        matrices = assemble(disc.space, disc.geometry, disc.quadrature)
        A, b = build_system(matrices, disc.partition, k, desk_run.config.amplitude)
        x_direct = direct_solve(A, b)
        x_gmres = desk_run.field.coefficients[disc.partition.free]
        rel = float(np.linalg.norm(x_gmres - x_direct) / np.linalg.norm(x_direct))
        elapsed = time.perf_counter() - t0

        ok = (
            rep.converged
            and rep.outer_iterations <= 3
            and rep.preconditioned_residual <= 1e-8
            and rel <= 1e-7
        )
        verdict(
            "criterion 7 (preconditioned solver)",
            ok,
            f"outer={rep.outer_iterations}, inner={rep.inner_iterations}, "
            f"precond residual {rep.preconditioned_residual:.2e}, true residual "
            f"{rep.true_residual:.2e}, |x_gmres - x_direct| rel {rel:.2e}, "
            f"n_free={disc.partition.n_free}, runtime {elapsed:.1f}s",
        )
        assert rep.converged
        assert rep.outer_iterations <= 3
        assert rep.preconditioned_residual <= 1e-8
        assert rel <= 1e-7
        # guard: the true residual must not be misleadingly worse
        assert rep.true_residual <= 100 * 1e-8


class TestCriterion8PhysicalSanity:
    def test_axis_and_bottom_profiles(self, desk_run):
        """Near-field oscillation, single far-field peak beyond the natural
        focus, Dirichlet plateau on the aperture.

        Local extrema are counted with a prominence filter of 2% of the
        peak magnitude: the first-order impedance boundary reflects a
        standing ripple of about 1% at this domain size (k r ~ 72) which
        is an artifact of the truncation, not beam structure.
        """
        dom = desk_run.discretization.domain
        nf = desk_run.config.near_field_length
        ys, vals = axis_profile(desk_run.field, 800)
        mag = np.abs(vals)
        prom = 0.02 * mag.max()
        maxima, _ = find_peaks(mag, prominence=prom)
        minima, _ = find_peaks(-mag, prominence=prom)
        n_max_before = int((ys[maxima] < nf).sum())
        n_min_before = int((ys[minima] < nf).sum())
        n_max_after = int((ys[maxima] >= nf).sum())
        y_peak = float(ys[np.argmax(mag)])
        # The far-field maximum is flat to within the 2% ripple, so argmax
        # jumps between near-equal ripple crests as the mesh changes; the
        # middle of the range where |p| is within 2% of its maximum does not.
        top = ys[mag >= mag.max() - prom]
        y_top = 0.5 * float(top[0] + top[-1])

        xs, bvals = bottom_profile(desk_run.field, 400)
        on_ap = np.abs(xs) <= dom.a * (1 - 1e-12)
        plateau = float(np.max(np.abs(bvals[on_ap] - desk_run.config.amplitude)))
        # smoothness on the baffle: the mixed-BC transition at x = +/- a
        # carries a gradient singularity, so the check applies one
        # wavelength away from the aperture edges
        out_mag = np.abs(bvals)
        incr = np.abs(np.diff(out_mag)) / out_mag.max()
        xmid = 0.5 * (xs[1:] + xs[:-1])
        baffle = np.abs(xmid) >= dom.a + desk_run.config.wavelength
        jumps = float(incr[baffle].max())

        oscillates = n_max_before >= 1 and n_min_before >= 1
        ok = (
            oscillates
            and n_max_after <= 1
            and y_peak > nf
            and plateau <= 1e-10
            and jumps < 0.05
        )
        verdict(
            "criterion 8 (physical sanity)",
            ok,
            f"near-field maxima/minima {n_max_before}/{n_min_before}, far-field maxima "
            f"{n_max_after} (<=1), peak (middle of |p| >= 98% max) at y = {y_top:.4f} = "
            f"{y_top / nf:.2f} N_f (argmax > N_f: {y_peak > nf}), "
            f"aperture plateau dev {plateau:.2e}, max baffle increment {jumps:.3f}",
        )
        assert oscillates, "no oscillation before the natural focus"
        assert n_max_after <= 1
        assert y_peak > nf
        assert plateau <= 1e-10
        assert jumps < 0.05


class TestCriterion9StructuralInvariants:
    def test_symmetry_sparsity_definiteness(self, desk_run):
        """A symmetric non-Hermitian, sparsity bound, M positive definite."""
        disc = desk_run.discretization
        k = desk_run.config.wavenumber
        matrices = assemble(disc.space, disc.geometry, disc.quadrature)
        A, _ = build_system(matrices, disc.partition, k, desk_run.config.amplitude)

        d = (A - A.T).tocoo()
        asym = float(np.max(np.abs(d.data))) if d.nnz else 0.0
        h = (A - A.conj().T).tocoo()
        herm = float(np.max(np.abs(h.data))) if h.nnz else 0.0
        p = max(disc.space.kv_xi.degree, disc.space.kv_eta.degree)
        n0 = A.shape[0]
        frac = A.nnz / n0**2
        bound = (2 * p + 1) ** 2 / n0

        cfg_small = DomainConfig(a=0.3, r=1.0, theta=math.pi / 4)
        space_small = TensorProductSpace(
            make_uniform_open_knots(4, 20), make_uniform_open_knots(4, 20)
        )
        assert space_small.size == 400
        small = assemble(space_small, make_semicircle_patch(cfg_small), QuadratureRule(space_small))
        min_eig = float(np.linalg.eigvalsh(small.mass.toarray()).min())

        ok = asym <= 1e-13 and herm > 0.0 and frac <= bound and min_eig > 0.0
        verdict(
            "criterion 9 (structural invariants)",
            ok,
            f"max |A - A^T| = {asym:.2e} (<= 1e-13), max |A - A^H| = {herm:.2e} (> 0), "
            f"nnz fraction {frac:.4f} <= bound {bound:.4f}, min eig(M) = {min_eig:.2e} > 0",
        )
        assert asym <= 1e-13
        assert herm > 0.0
        assert frac <= bound
        assert min_eig > 0.0
