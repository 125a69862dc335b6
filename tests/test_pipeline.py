"""Pipeline: configuration, end-to-end runs, field ops, outputs, CLI."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from igarad.bspline import TensorProductSpace, make_uniform_open_knots
from igarad.geometry import near_field_length
from igarad.pipeline import (
    PipelineError,
    RunConfig,
    SolutionField,
    axis_profile,
    bottom_profile,
    discretize,
    eval_field,
    run,
)


def smoke_config(**kw):
    base = dict(
        frequency=1.0e5,
        n=40,
        m=30,
        solver="direct",
        grid_res=30,
        profile_samples=80,
        outdir="unused",
    )
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def smoke_result():
    return run(smoke_config(), write_outputs=False)


class TestRunConfig:
    def test_radius_is_derived_from_near_field(self):
        cfg = RunConfig(frequency=1.0e6, radius_factor=2.0)
        dom = cfg.domain()
        assert dom.r == pytest.approx(2 * near_field_length(dom))
        assert dom.r == pytest.approx(0.13333333, rel=1e-6)

    def test_wavenumber_consistency(self):
        cfg = RunConfig(frequency=2.5e5, sound_speed=1480.0)
        dom = cfg.domain()
        assert dom.wavenumber == 2 * math.pi * 2.5e5 / 1480.0

    def test_json_roundtrip_with_overrides(self, tmp_path):
        cfg = smoke_config(n=24, amplitude=2.0 + 1.0j)
        path = tmp_path / "cfg.json"
        with open(path, "w") as fh:
            json.dump(cfg.to_dict(), fh)
        loaded = RunConfig.from_json(path, m=32)
        assert loaded.n == 24
        assert loaded.m == 32
        assert loaded.amplitude == 2.0 + 1.0j

    def test_invalid_solver(self):
        with pytest.raises(ValueError):
            RunConfig(solver="magic")

    def test_invalid_physical_parameters(self):
        with pytest.raises(ValueError):
            RunConfig(frequency=-1.0)

    @pytest.mark.parametrize(
        "field",
        [
            {"n": 2},
            {"theta": 2.0},
            {"frequency": math.nan},
            {"frequency": math.inf},
            {"beta_factor": math.nan},
            {"beta_factor": -1.0},
            {"quad_points": 0},
            {"restart": 0},
            {"tol": -1.0},
            {"max_outer": 0},
            {"grid_res": 1},
        ],
        ids=lambda f: "{}={}".format(*next(iter(f.items()))),
    )
    def test_bad_field_rejected_at_construction(self, field):
        with pytest.raises(ValueError):
            RunConfig(**field)


class TestDiscretize:
    def test_aligned_knots_contain_aperture_preimages(self):
        cfg = smoke_config(align_aperture_knots=True)
        disc = discretize(cfg)
        assert disc.partition.xi_left in disc.space.kv_xi.knots
        assert disc.partition.xi_right in disc.space.kv_xi.knots
        assert disc.space.n == cfg.n + 2

    def test_unaligned_keeps_requested_count(self):
        cfg = smoke_config(align_aperture_knots=False)
        disc = discretize(cfg)
        assert disc.space.n == cfg.n


class TestRun:
    def test_smoke_completes_with_dirichlet_check(self, smoke_result):
        assert smoke_result.solve_report.converged
        assert smoke_result.dirichlet_deviation <= 1e-10

    def test_zero_amplitude_gives_zero_field(self):
        res = run(smoke_config(amplitude=0.0), write_outputs=False)
        assert np.max(np.abs(res.field.coefficients)) == 0.0

    def test_full_scale_guard(self):
        cfg = smoke_config(n=500, m=400)
        with pytest.raises(PipelineError, match="full_scale"):
            run(cfg, write_outputs=False)

    def test_gmres_and_direct_agree(self):
        cfg_d = smoke_config(solver="direct")
        cfg_g = smoke_config(solver="gmres")
        res_d = run(cfg_d, write_outputs=False)
        res_g = run(cfg_g, write_outputs=False)
        num = np.linalg.norm(res_g.field.coefficients - res_d.field.coefficients)
        den = np.linalg.norm(res_d.field.coefficients)
        assert num / den <= 1e-7
        # the preconditioner factorization is timed apart from the Krylov solve
        assert "factor" in res_g.timings and "solve" in res_g.timings
        assert "factor" not in res_d.timings
        rep_g = res_g.solve_report
        assert len(rep_g.history) == rep_g.inner_iterations >= 1
        assert res_d.solve_report.history == []

    def test_serial_determinism_bit_identical(self):
        a = run(smoke_config(), write_outputs=False)
        b = run(smoke_config(), write_outputs=False)
        assert np.array_equal(a.field.coefficients, b.field.coefficients)

    def test_stage_timings_reported(self, smoke_result):
        for stage in ("discretize", "assemble", "system", "solve", "postprocess"):
            assert stage in smoke_result.timings

    def test_reference_desk_configuration(self):
        # 0.1 MHz, bicubic, 120 x 100 requested basis functions
        cfg = RunConfig(frequency=1.0e5, n=120, m=100, order_xi=4, order_eta=4)
        res = run(cfg, write_outputs=False)
        assert res.solve_report.converged
        assert res.dirichlet_deviation <= 1e-10

    @pytest.mark.parametrize("theta", [math.pi / 20, 3 * math.pi / 8])
    def test_other_subdivision_angles(self, theta):
        # multi-segment side/top arcs (doubled geometry knots) through the
        # full pipeline
        res = run(smoke_config(theta=theta), write_outputs=False)
        assert res.solve_report.converged
        assert res.dirichlet_deviation <= 1e-10

    def test_mixed_orders(self):
        res = run(smoke_config(order_xi=3, order_eta=4), write_outputs=False)
        assert res.solve_report.converged
        assert res.dirichlet_deviation <= 1e-10


class TestStudies:
    def test_pollution_single_k_matches_direct_solve(self):
        import math as _math

        from igarad.assembly import QuadratureRule, assemble, classify_dofs
        from igarad.bspline import TensorProductSpace, make_uniform_open_knots
        from igarad.geometry import DomainConfig, make_semicircle_patch
        from igarad.mms import PlaneWave, l2_error, l2_norm, solve_manufactured
        from igarad.pipeline import pollution_study

        rows = pollution_study(wavenumbers=(20.0,), orders=(4,), points_per_wavelength=8.0)
        row = rows[0]
        cfg = DomainConfig(a=0.3 * 0.35, r=0.35, theta=_math.pi / 4)
        geometry = make_semicircle_patch(cfg)
        xi_l = (cfg.r - cfg.a) / (2 * cfg.r)
        xi_r = (cfg.r + cfg.a) / (2 * cfg.r)
        kvx = make_uniform_open_knots(4, row.n).with_breakpoints([xi_l, xi_r])
        kve = make_uniform_open_knots(4, max(4, row.n // 2))
        space = TensorProductSpace(kvx, kve)
        part = classify_dofs(space, cfg)
        quad = QuadratureRule(space)
        mats = assemble(space, geometry, quad)
        wave = PlaneWave(20.0, (0.0, 1.0))
        alpha = solve_manufactured(space, geometry, quad, part, mats, wave)
        rel = l2_error(space, geometry, alpha, wave, quad) / l2_norm(space, geometry, wave, quad)
        assert rel == row.rel_l2_error  # same deterministic computation

    def test_doubling_dofs_reduces_error(self):
        from igarad.pipeline import pollution_study

        coarse = pollution_study(wavenumbers=(40.0,), orders=(3,), points_per_wavelength=6.0)
        fine = pollution_study(wavenumbers=(40.0,), orders=(3,), points_per_wavelength=12.0)
        assert fine[0].rel_l2_error < coarse[0].rel_l2_error


class TestSolutionField:
    def test_unit_coefficients_partition_of_unity(self, smoke_result):
        space = smoke_result.field.space
        sol = SolutionField(space, smoke_result.field.geometry, np.ones(space.size), 1.0)
        vals = sol.evaluate_grid(np.linspace(0, 1, 9), np.linspace(0, 1, 9))
        assert np.max(np.abs(vals - 1.0)) <= 1e-13

    def test_single_coefficient_reproduces_basis_surface(self, smoke_result):
        space = smoke_result.field.space
        from igarad.bspline import basis_matrix

        q = space.flat_index(3, 2)
        coeffs = np.zeros(space.size, dtype=complex)
        coeffs[q] = 1.0
        sol = SolutionField(space, smoke_result.field.geometry, coeffs, 1.0)
        xis = np.linspace(0, 1, 13)
        etas = np.linspace(0, 1, 11)
        got = sol.evaluate_grid(xis, etas)
        expected = np.outer(basis_matrix(space.kv_xi, xis)[:, 3], basis_matrix(space.kv_eta, etas)[:, 2])
        assert np.max(np.abs(got - expected)) <= 1e-14

    def test_eval_field_matches_grid(self, smoke_result):
        sol = smoke_result.field
        pts = [(0.25, 0.5), (0.5, 0.25), (0.9, 0.1)]
        vals = eval_field(sol, pts)
        for (xi, eta), v in zip(pts, vals):
            # identical values up to summation-order roundoff
            ref = sol.evaluate_grid([xi], [eta])[0, 0]
            assert abs(v - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_out_of_domain_rejected(self, smoke_result):
        with pytest.raises(ValueError):
            eval_field(smoke_result.field, [(1.2, 0.5)])


class TestProfiles:
    def test_axis_profile_matches_eval_field(self, smoke_result):
        ys, vals = axis_profile(smoke_result.field, 60)
        etas = np.linspace(0, 1, 60)
        direct = eval_field(smoke_result.field, [(0.5, e) for e in etas])
        np.testing.assert_allclose(direct, vals, rtol=1e-13, atol=1e-16)

    def test_axis_profile_starts_at_amplitude(self, smoke_result):
        ys, vals = axis_profile(smoke_result.field, 60)
        assert ys[0] == pytest.approx(0.0, abs=1e-14)
        assert abs(vals[0] - 1.0) <= 1e-10

    def test_bottom_profile_aperture_and_endpoints(self, smoke_result):
        dom = smoke_result.discretization.domain
        xs, vals = bottom_profile(smoke_result.field, 121)
        assert xs[0] == pytest.approx(-dom.r, abs=1e-14)
        assert xs[-1] == pytest.approx(dom.r, abs=1e-14)
        on_ap = np.abs(xs) <= dom.a * (1 - 1e-12)
        assert np.max(np.abs(vals[on_ap] - dom.amplitude)) <= 1e-10

    def test_bottom_profile_symmetric_magnitude(self, smoke_result):
        xs, vals = bottom_profile(smoke_result.field, 121)
        mag = np.abs(vals)
        assert np.max(np.abs(mag - mag[::-1])) <= 1e-8 * mag.max()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("run_out")
    cfg = smoke_config(outdir=str(outdir), vtk=True, dump_matrices=True)
    result = run(cfg)
    return cfg, result, outdir


class TestAxisProfileFallback:
    def test_root_finding_path_on_asymmetric_geometry(self):
        # quarter annulus shifted so the x = 0 line cuts the interior but
        # xi = 1/2 does not map onto it: the profile must fall back to
        # root finding and still return points on the axis
        import math as _math

        from igarad.geometry import coons_patch, make_arc, make_line

        c = (-0.2, 0.0)
        geometry = coons_patch(
            make_arc(c, 1.0, 0.0, _math.pi / 2),
            make_arc(c, 0.5, 0.0, _math.pi / 2),
            make_line((0.8, 0.0), (0.3, 0.0)),
            make_line((-0.2, 1.0), (-0.2, 0.5)),
        )
        space = TensorProductSpace(make_uniform_open_knots(3, 5), make_uniform_open_knots(3, 4))
        sol = SolutionField(space, geometry, np.ones(space.size), 1.0)
        assert np.max(np.abs(geometry.evaluate_grid([0.5], np.linspace(0, 1, 9))[0][:, 0])) > 1e-6
        ys, vals = axis_profile(sol, 25)
        assert np.max(np.abs(vals - 1.0)) <= 1e-12  # partition of unity field
        # edge heights are the exact circle/line intersections with x = 0
        assert ys[0] == pytest.approx(math.sqrt(1.0 - 0.2**2), abs=1e-9)
        assert ys[-1] == pytest.approx(math.sqrt(0.5**2 - 0.2**2), abs=1e-9)
        assert np.all(np.diff(ys) < 0)


class TestEnergyBalance:
    def test_injected_power_matches_absorbed_power(self):
        """Radiated-power balance as an independent global check.

        Time-averaged power entering through the transducer
        (Im of the aperture flux integral) must equal the power absorbed
        by the impedance boundary (k alpha^H E alpha).  The flux side is
        computed by differentiating the solved field directly, so the two
        routes share no assembly code; agreement is limited by the
        aperture-edge gradient singularity (measured ~7% at this
        resolution, improving under refinement).
        """
        from igarad.assembly import assemble
        from igarad.bspline import basis_matrix

        f = 150.0 * 1500.0 / (2 * math.pi)
        res = run(
            RunConfig(frequency=f, half_aperture=0.05, n=60, m=40, solver="direct"),
            write_outputs=False,
        )
        disc = res.discretization
        k = disc.domain.wavenumber
        alpha = res.field.coefficients
        mats = assemble(disc.space, disc.geometry, disc.quadrature)
        absorbed = k * float(np.real(np.conj(alpha) @ (mats.robin_mass @ alpha)))

        space = disc.space
        kv = space.kv_xi
        ref_x, ref_w = np.polynomial.legendre.leggauss(12)
        grid = alpha.reshape(space.m, space.n).T
        be0 = basis_matrix(space.kv_eta, [0.0])
        dbe0 = basis_matrix(space.kv_eta, [0.0], deriv=1)
        flux = 0.0 + 0.0j
        for s in kv.spans():
            t0 = max(kv.knots[s], disc.partition.xi_left)
            t1 = min(kv.knots[s + 1], disc.partition.xi_right)
            if t1 - t0 <= 1e-14:
                continue
            ts = 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * ref_x
            ws = 0.5 * (t1 - t0) * ref_w
            bx = basis_matrix(kv, ts)
            dbx = basis_matrix(kv, ts, deriv=1)
            u = (bx @ grid @ be0.T)[:, 0]
            du_dxi = (dbx @ grid @ be0.T)[:, 0]
            du_deta = (bx @ grid @ dbe0.T)[:, 0]
            _, F_xi, F_eta, det, _ = disc.geometry.jacobian_grid(ts, [0.0])
            F_xi, F_eta, det = F_xi[:, 0], F_eta[:, 0], det[:, 0]
            du_dy = (-F_eta[:, 0] * du_dxi + F_xi[:, 0] * du_deta) / det
            # outward normal on the aperture is (0, -1)
            flux += np.sum(ws * np.abs(F_xi[:, 0]) * (-du_dy) * np.conj(u))
        injected = float(np.imag(flux))
        assert absorbed > 0.0
        assert abs(absorbed - injected) / absorbed < 0.12


class TestSelfConvergence:
    def test_desk_profile_stable_under_refinement(self):
        # the reduced radiation solution is resolved: refining the space
        # moves the axis magnitude profile by well under a percent
        f = 300.0 * 1500.0 / (2 * math.pi)
        coarse = run(
            RunConfig(frequency=f, half_aperture=0.05, n=120, m=90, solver="direct"),
            write_outputs=False,
        )
        fine = run(
            RunConfig(frequency=f, half_aperture=0.05, n=150, m=112, solver="direct"),
            write_outputs=False,
        )
        _, v1 = axis_profile(coarse.field, 300)
        _, v2 = axis_profile(fine.field, 300)
        diff = np.max(np.abs(np.abs(v1) - np.abs(v2))) / np.max(np.abs(v2))
        assert diff < 0.02


class TestOutputs:

    def test_all_artifacts_written(self, outputs):
        _, result, outdir = outputs
        for key in ("field", "axis_profile", "bottom_profile", "report", "vtk", "system"):
            assert key in result.outputs
            assert (outdir / str(result.outputs[key]).split("/")[-1]).exists()

    def test_field_csv_roundtrip_lossless(self, outputs):
        _, result, outdir = outputs
        data = np.loadtxt(outdir / "field.csv", delimiter=",", skiprows=1)
        cfg = result.config
        xis = np.linspace(0, 1, cfg.grid_res)
        etas = np.linspace(0, 1, cfg.grid_res)
        vals = result.field.evaluate_grid(xis, etas)
        # 17 significant digits reproduce float64 exactly
        assert np.array_equal(data[:, 4].reshape(cfg.grid_res, cfg.grid_res), vals.real)
        assert np.array_equal(data[:, 5].reshape(cfg.grid_res, cfg.grid_res), vals.imag)
        assert np.array_equal(
            data[:, 6].reshape(cfg.grid_res, cfg.grid_res), np.abs(vals)
        )

    def test_report_content(self, outputs):
        cfg, result, outdir = outputs
        with open(outdir / "report.json") as fh:
            report = json.load(fh)
        dom = result.discretization.domain
        assert report["derived"]["wavenumber"] == dom.wavenumber
        assert report["derived"]["dofs"] == result.discretization.space.size
        assert report["solve"]["method"] == "direct"
        assert report["config"]["n"] == cfg.n

    def test_vtk_header(self, outputs):
        _, result, outdir = outputs
        lines = (outdir / "field.vtk").read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert "STRUCTURED_GRID" in lines[3]

    def test_matrix_market_dump_solvable(self, outputs):
        from igarad.solver import direct_solve, load_matrix_market

        _, result, outdir = outputs
        A = load_matrix_market(outdir / "system.mtx")
        assert A.shape[0] == result.discretization.partition.n_free


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "igarad.cli", *args], capture_output=True, text=True
        )

    def test_run_subcommand(self, tmp_path):
        proc = self._run(
            "run", "--frequency", "1e5", "--n", "30", "--m", "24", "--solver", "direct",
            "--grid-res", "20", "--profile-samples", "40", "--outdir", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "report.json").exists()
        assert "[assemble]" in proc.stdout  # stage lines are logged at INFO

    def test_run_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"solver": "nope"}')
        proc = self._run("run", "--config", str(bad))
        assert proc.returncode == 2

    def test_run_invalid_value_exit_code(self, tmp_path):
        proc = self._run("run", "--frequency", "nan", "--outdir", str(tmp_path))
        assert proc.returncode == 2, proc.stderr
        assert "bad configuration" in proc.stderr
        assert not (tmp_path / "report.json").exists()

    def test_quality_map_subcommand(self, tmp_path):
        out = tmp_path / "q.csv"
        proc = self._run("quality-map", "--grid-res", "40", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_solve_mm_roundtrip(self, tmp_path):
        import scipy.sparse as sp

        from igarad.solver import load_vector, save_matrix_market, save_vector

        rng = np.random.default_rng(1)
        n = 25
        A = sp.csr_matrix(
            (5 * np.eye(n) + 0.3 * rng.standard_normal((n, n))).astype(complex)
        )
        b = (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        save_matrix_market(tmp_path / "A.mtx", A)
        save_vector(tmp_path / "b.mtx", b)
        out = tmp_path / "x.mtx"
        rep = tmp_path / "rep.json"
        proc = self._run(
            "solve-mm", str(tmp_path / "A.mtx"), str(tmp_path / "b.mtx"),
            "--out", str(out), "--report", str(rep), "--tol", "1e-10",
        )
        assert proc.returncode == 0, proc.stderr
        x = load_vector(out)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-8
        report = json.loads(rep.read_text())
        assert report["converged"] is True
        assert len(report["history"]) == report["inner_iterations"]

    @pytest.mark.parametrize(
        "flag", [("--restart", "0"), ("--tol", "-1"), ("--max-outer", "0"), ("--beta", "-1")]
    )
    def test_solve_mm_bad_setting_exit_code(self, tmp_path, flag):
        # the inputs do not exist: settings are checked before any file is read
        missing = str(tmp_path / "missing.mtx")
        proc = self._run("solve-mm", missing, missing, *flag)
        assert proc.returncode == 2, proc.stderr
        assert "bad configuration" in proc.stderr

    def test_solve_mm_direct(self, tmp_path):
        import scipy.sparse as sp

        from igarad.solver import save_matrix_market, save_vector

        A = sp.identity(4, format="csr", dtype=complex) * 2.0
        save_matrix_market(tmp_path / "A.mtx", A)
        save_vector(tmp_path / "b.mtx", np.ones(4, dtype=complex))
        proc = self._run("solve-mm", str(tmp_path / "A.mtx"), str(tmp_path / "b.mtx"), "--direct")
        assert proc.returncode == 0, proc.stderr

    def test_missing_input_exit_code(self, tmp_path):
        proc = self._run("solve-mm", str(tmp_path / "nope.mtx"), str(tmp_path / "nope2.mtx"))
        assert proc.returncode == 5

    def test_mms_converge_subcommand(self, tmp_path):
        out = tmp_path / "conv.json"
        proc = self._run(
            "mms-converge", "--order", "3", "--levels", "2", "--base-n", "10",
            "--wavenumber", "5", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        assert rows[1]["l2_error"] < rows[0]["l2_error"]

    def test_pollution_subcommand(self, tmp_path):
        out = tmp_path / "poll.json"
        proc = self._run(
            "pollution", "--wavenumbers", "20,40", "--orders", "3", "--ppw", "4",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert "growth factor" in proc.stdout
        assert len(json.loads(out.read_text())) == 2
