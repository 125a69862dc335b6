"""Pipeline: configuration, end-to-end runs, field ops, outputs, CLI."""

import argparse
import json
import math
import subprocess
import sys
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dissection import full_tree, renumbered
from forking import can_split
from igarad.bspline import TensorProductSpace, make_uniform_open_knots
from igarad.pipeline import (
    FULL_SCALE_DOFS,
    PipelineError,
    RunConfig,
    SolutionField,
    axis_profile,
    bottom_profile,
    discretize,
    run,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


def smoke_config(**kw):
    base = dict(
        frequency=1.0e5,
        n=40,
        m=30,
        beta_factor=0.0,
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
    def test_paper_values_at_1mhz(self):
        cfg = RunConfig(frequency=1.0e6)
        assert cfg.wavelength == pytest.approx(0.0015)
        assert cfg.near_field_length == pytest.approx(0.066666666, rel=1e-6)
        assert cfg.domain().r == pytest.approx(2 * 0.0666666666, rel=1e-6)
        assert cfg.wavenumber == pytest.approx(4188.790204786391)

    def test_radius_is_derived_from_near_field(self):
        cfg = RunConfig(frequency=1.0e6, radius_factor=2.0)
        dom = cfg.domain()
        assert dom.r == pytest.approx(2 * cfg.near_field_length)
        assert dom.r == pytest.approx(0.13333333, rel=1e-6)

    def test_wavenumber_consistency(self):
        cfg = RunConfig(frequency=2.5e5, sound_speed=1480.0)
        assert cfg.wavenumber == 2 * math.pi * 2.5e5 / 1480.0

    def test_json_roundtrip_with_overrides(self, tmp_path):
        cfg = smoke_config(n=24, amplitude=2.0 + 1.0j)
        path = tmp_path / "cfg.json"
        with open(path, "w") as fh:
            json.dump(cfg.to_dict(), fh)
        loaded = RunConfig.from_json(path, m=32)
        assert loaded.n == 24
        assert loaded.m == 32
        assert loaded.amplitude == 2.0 + 1.0j

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_shipped_config_loads(self, path):
        # no stale or misspelt key, and the large configs opt in to full scale
        cfg = RunConfig.from_json(path)
        assert cfg.full_scale or cfg.n * cfg.m <= FULL_SCALE_DOFS

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
            {"grid_res": 1},
            {"profile_samples": 0},
            {"amplitude": [math.nan, 0.0]},
            {"amplitude": [1e400, 0.0]},
            {"grid_res": 7.5},
            {"n": 40.7},
            {"order_xi": 4.0},
            {"order_eta": "4"},
            {"profile_samples": 1.5},
            {"amplitude": [1]},
            {"amplitude": [1, 0, 5]},
            {"full_scale": "false"},
            {"full_scale": 1},
            {"dump_matrices": "true"},
            {"vtk": None},
            {"outdir": 5},
            {"outdir": None},
            {"frequency": True},
            {"half_aperture": True},
            {"amplitude": True},
            {"amplitude": [True, 0.0]},
        ],
        ids=lambda f: "{}={}".format(*next(iter(f.items()))),
    )
    def test_bad_field_rejected_at_construction(self, field):
        with pytest.raises(ValueError):
            RunConfig(**field)


class TestDiscretize:
    def test_aligned_knots_contain_aperture_preimages(self):
        cfg = smoke_config()
        disc = discretize(cfg)
        xi_left, xi_right = disc.domain.aperture_preimage
        assert xi_left in disc.space.kv_xi.knots
        assert xi_right in disc.space.kv_xi.knots
        assert disc.space.n == cfg.n + 2

    def test_asymmetric_study_mesh_rejected_before_assembly(self):
        """A study mesh on a patch with one control point moved is refused
        by the builder, which builds the mirror maps, not by the solve."""
        from igarad.geometry import CoonsSurface, DomainConfig, make_semicircle_patch
        from igarad.pipeline import build_discretization

        cfg = DomainConfig(a=0.3, r=1.0, theta=math.pi / 4)
        geometry = make_semicircle_patch(cfg)
        ctrl = geometry.ctrl.copy()
        ctrl[1, 2, 0] += 1e-6
        moved = CoonsSurface(ctrl, geometry.weights, geometry.kv_xi, geometry.kv_eta)
        with pytest.raises(ValueError, match="the patch is not mirror-symmetric in x"):
            build_discretization(cfg, moved, 4, 4, 20, 10)


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

    def test_full_scale_guard_before_per_dof_work(self, monkeypatch):
        """The dof count comes from the knot vectors: a mesh over the limit
        is refused before its dofs are classified or its half grid dissected."""
        from igarad import assembly, pipeline

        def per_dof_work(*args):
            raise AssertionError("per-dof work ran before the full-scale guard")

        monkeypatch.setattr(pipeline, "classify_dofs", per_dof_work)
        monkeypatch.setattr(assembly, "nested_dissection", per_dof_work)
        with pytest.raises(PipelineError, match="exceeds the desk-scale limit") as info:
            run(smoke_config(n=500, m=400), write_outputs=False)
        assert info.value.stage == "discretize" and isinstance(info.value.cause, ValueError)

    def test_shifted_and_zero_shift_agree(self):
        res_s = run(smoke_config(beta_factor=1.0 / 3.0), write_outputs=False)
        res_0 = run(smoke_config(beta_factor=0.0), write_outputs=False)
        num = np.linalg.norm(res_s.field.coefficients - res_0.field.coefficients)
        den = np.linalg.norm(res_0.field.coefficients)
        assert num / den <= 1e-7
        for res in (res_s, res_0):
            # the factor is timed apart from the Krylov solve, on either shift
            assert "factor" in res.timings and "solve" in res.timings
            rep = res.solve_report
            assert rep.method == "gmres"
            assert len(rep.history) == rep.inner_iterations >= 1
        assert res_0.solve_report.shift == 0.0

    def test_zero_shift_on_an_ill_conditioned_pivot_block(self):
        # 60 x 45 desk physics at k = 277.5: a pivot block of the tree factor
        # of A is ill-conditioned, so the factor alone leaves a residual far
        # above roundoff; GMRES on it must still reach the tolerance
        res = run(
            RunConfig(frequency=277.5 * 1500.0 / (2 * math.pi), half_aperture=0.05, n=60, m=45, beta_factor=0.0),
            write_outputs=False,
        )
        rep = res.solve_report
        assert rep.converged
        assert rep.true_residual <= 1e-8

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

    def test_no_per_point_basis_evaluation(self, tmp_path, monkeypatch):
        # runs, writers and studies evaluate splines through the batched
        # tabulation only; the per-point evaluator is the tests' reference
        import igarad.assembly
        import igarad.bspline
        import igarad.mms
        from igarad.pipeline import convergence_study

        calls = []
        reference = igarad.bspline.eval_basis

        def counted(*args, **kwargs):
            calls.append(args)
            return reference(*args, **kwargs)

        for owner in (igarad.bspline, igarad.assembly, igarad.mms):
            monkeypatch.setattr(owner, "eval_basis", counted)
        run(smoke_config(outdir=str(tmp_path), vtk=True))
        convergence_study(wavenumber=5.0, order=3, levels=2, base_n=10)
        assert calls == []


_RESIDENCY_PROBE = """
import json, os, sys, tempfile
import igarad
from igarad.pipeline import RunConfig, convergence_study, run
with tempfile.TemporaryDirectory() as outdir:
    run(RunConfig(frequency=1.0e5, n=20, m=15, grid_res=10, profile_samples=20, outdir=outdir))
convergence_study(wavenumber=5.0, order=3, levels=2, base_n=6)
maps = None
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as fh:
        maps = sorted({line.split()[-1] for line in fh if "openblas" in line})
print(json.dumps({"modules": sorted(sys.modules), "openblas": maps}))
"""


def test_runs_load_one_blas():
    """A run that writes its outputs and a study load neither SuperLU nor
    Matrix Market I/O, and so none of scipy's BLAS and LAPACK: the process
    maps numpy's OpenBLAS alone.  A fresh interpreter, since any earlier
    test may have imported them."""
    proc = subprocess.run([sys.executable, "-c", _RESIDENCY_PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert {"scipy.linalg", "scipy.sparse.linalg", "scipy.io"}.isdisjoint(loaded["modules"])
    if loaded["openblas"] is None:
        pytest.skip("no /proc/self/maps to list the mapped libraries")
    assert len(loaded["openblas"]) == 1, loaded["openblas"]


@pytest.fixture(scope="module", params=[(40, 30), (41, 30)], ids=["even_n", "odd_n"])
def desk_fold(request):
    """A desk-physics run on a small mesh whose space has an even (42) or an
    odd (43, a middle column) number of xi functions, with the full free
    system it solved."""
    from igarad.assembly import assemble, build_system

    n, m = request.param
    cfg = RunConfig.from_json(CONFIG_DIR / "desk_radiation_k300.json", n=n, m=m)
    result = run(cfg, write_outputs=False)
    disc = result.discretization
    matrices = assemble(disc.space, disc.geometry, disc.quadrature)
    A, b = build_system(matrices, disc.partition, cfg.wavenumber, cfg.amplitude)
    return cfg, result, matrices, A, b


class TestMirrorFold:
    def test_space_parity_and_factor_size(self, desk_fold):
        cfg, result, *_ = desk_fold
        disc = result.discretization
        assert disc.space.n == cfg.n + 2  # so odd for the 41 x 30 mesh: a middle column
        derived = result.report()["derived"]
        middle = disc.space.m - 1 if disc.space.n % 2 else 0  # the middle column's free dofs
        assert derived["factor_unknowns"] == disc.folds[0].n_unknowns == (derived["n_free"] + middle) // 2

    def test_folded_solve_is_the_full_solve_on_even_vectors(self, desk_fold):
        """On a random even vector the folded preconditioner's solve is the
        full P's: within 1e-12 of the full tree's factor of P refined once.
        (That factor alone is off by up to 2.5e-9 on the odd mesh: its
        static pivoting, not the fold; the fold is within 1e-13.)"""
        from igarad.assembly import fold_system
        from igarad.solver import FrontalLdlt, build_cslp

        cfg, result, matrices, A, _ = desk_fold
        disc, fold = result.discretization, result.discretization.folds[0]
        beta = cfg.beta_factor / cfg.wavenumber
        precond = build_cslp(fold_system(matrices, disc.partition, fold, cfg.wavenumber, beta), beta,
                             tree=fold.tree, fold=fold.matrix)
        # the full P in the grid's nested-dissection order: a run's free dof order[i] is its i-th dof
        tree, order = full_tree(disc.space, disc.partition)
        P_nd = renumbered(A - 1j * beta * matrices.mass[disc.partition.free][:, disc.partition.free], order)
        full = FrontalLdlt(P_nd, tree, "full P")
        rng = np.random.default_rng(7)
        v = fold.matrix @ (rng.standard_normal(fold.n_unknowns) + 1j * rng.standard_normal(fold.n_unknowns))
        ref_nd = full.solve(v[order])
        ref_nd += full.solve(v[order] - P_nd @ ref_nd)
        ref = np.empty_like(v)
        ref[order] = ref_nd
        assert np.linalg.norm(precond.solve(v) - ref) <= 1e-12 * np.linalg.norm(ref)
        assert precond.lu_nnz < 0.5 * full.nnz

    def test_run_field_is_even(self, desk_fold):
        """The folded preconditioner returns even vectors, so GMRES builds
        only even ones: the coefficients are even to roundoff (exactly, here)."""
        _, result, *_ = desk_fold
        space = result.discretization.space
        grid = result.field.coefficients.reshape(space.m, space.n)
        assert np.linalg.norm(grid - grid[:, ::-1]) <= 1e-14 * np.linalg.norm(grid)

    def test_narrow_patch_kink_is_a_knot(self):
        """With theta < pi/4 the patch is only C^0 across xi = 1/2, which is
        then a knot: no Gauss node sits on the kink, A is mirror-symmetric
        and the folded preconditioner leaves a true residual of roundoff
        (1e-2 on this mesh, whose uniform knots miss 1/2, when the element
        straddled the kink)."""
        cfg = RunConfig.from_json(CONFIG_DIR / "desk_radiation_k300.json", n=40, m=30, theta=math.pi / 20)
        result = run(cfg, write_outputs=False)
        assert 0.5 in result.discretization.space.kv_xi.knots
        assert result.discretization.space.n == cfg.n + 3
        assert result.solve_report.true_residual <= 1e-10

    def test_run_matches_direct_solve_of_the_full_system(self, desk_fold):
        """GMRES on the full free system, preconditioned by the fold, lands on
        the full system's direct solution: 2.2e-14 and 2.8e-14 measured."""
        from igarad.solver import FrontalLdlt, direct_solve

        _, result, _, A, b = desk_fold
        disc = result.discretization
        tree, perm = full_tree(disc.space, disc.partition)
        A = renumbered(A, perm)
        x = direct_solve(A, b[perm], factor=FrontalLdlt(A, tree, "A"))
        assert result.solve_report.outer_iterations == 1
        rel = np.linalg.norm(result.field.coefficients[disc.partition.free[perm]] - x) / np.linalg.norm(x)
        assert rel <= 1e-12


class TestRunSystem:
    """A run numbers its free dofs in grid order: A is taken from the pattern
    by slices past its first rows, and no tree of the full grid is built."""

    def test_free_dofs_in_grid_order_without_a_full_grid_tree(self, monkeypatch):
        from igarad import assembly

        grids = []
        nested_dissection = assembly.nested_dissection
        monkeypatch.setattr(assembly, "nested_dissection",
                            lambda n, m, *orders: grids.append((n, m)) or nested_dissection(n, m, *orders))
        disc = discretize(RunConfig.from_json(CONFIG_DIR / "desk_radiation_k300.json", n=41, m=30))
        part = disc.partition
        assert np.all(np.diff(part.free) > 0)
        assert np.array_equal(np.union1d(part.free, part.dirichlet), np.arange(disc.space.size))
        assert grids == [((disc.space.n + 1) // 2, disc.space.m)]  # the fold's half grid alone

    def test_system_is_the_scipy_expression(self, desk_fold):
        """``(A, b)`` bit for bit: A's ``indptr``, ``indices`` and ``data``
        and the Dirichlet coupling of b."""
        cfg, result, matrices, A, b = desk_fold
        part, k = result.discretization.partition, cfg.wavenumber
        full = (matrices.stiffness - k**2 * matrices.mass + 1j * k * matrices.robin_mass).tocsr()
        ref = full[part.free][:, part.free].tocsr()
        ref.sort_indices()
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        assert np.array_equal(A.data, ref.data)
        assert np.array_equal(b, -full[part.free][:, part.dirichlet] @ np.full(part.n_dirichlet, cfg.amplitude))

    def test_folded_system_is_the_product(self, desk_fold):
        """The folded P, summed from the unknowns' own rows of S, M and from
        ``T^T E T``, is ``T^T (A - i beta M) T`` of the run's full free
        system, with sorted indices."""
        from igarad.assembly import fold_system

        cfg, result, matrices, A, _ = desk_fold
        part = result.discretization.partition
        beta = cfg.beta_factor / cfg.wavenumber
        folded = fold_system(matrices, part, result.discretization.folds[0], cfg.wavenumber, beta)
        mass = matrices.mass[part.free][:, part.free]
        mass.sort_indices()
        T = result.discretization.folds[0].matrix
        ref = (T.T @ (A - 1j * beta * mass) @ T).tocsr()
        ref.sort_indices()
        assert folded.has_sorted_indices
        assert np.array_equal(folded.indptr, ref.indptr) and np.array_equal(folded.indices, ref.indices)
        assert np.max(np.abs(folded.data - ref.data)) <= 1e-14 * np.max(np.abs(ref.data))

    def test_study_builds_only_half_grid_trees(self, monkeypatch):
        """A study keeps grid order and factors the even and odd blocks of
        each mesh on the one tree of its left half: no tree of a full grid
        is built."""
        from igarad import assembly
        from igarad.pipeline import convergence_study

        grids = []
        nested_dissection = assembly.nested_dissection
        monkeypatch.setattr(assembly, "nested_dissection",
                            lambda n, m, *orders: grids.append((n, m)) or nested_dissection(n, m, *orders))
        rows = convergence_study(order=3, levels=2, base_n=11, direction=(0.6, 0.8))
        meshes = [(r.dofs // max(3, r.n // 2), max(3, r.n // 2)) for r in rows]  # (space.n, space.m)
        assert meshes[0][0] % 2 != meshes[1][0] % 2  # one even and one odd number of xi functions
        assert grids == [((n + 1) // 2, m) for n, m in meshes]


class TestStudies:
    def test_pollution_single_k_matches_direct_solve(self):
        import math as _math

        from igarad.assembly import assemble
        from igarad.geometry import DomainConfig, make_semicircle_patch
        from igarad.mms import PlaneWave, l2_error, l2_norm, solve_manufactured
        from igarad.pipeline import build_discretization, pollution_study

        rows = pollution_study(wavenumbers=(20.0,), orders=(4,), points_per_wavelength=8.0)
        row = rows[0]
        cfg = DomainConfig(a=0.3 * 0.35, r=0.35, theta=_math.pi / 4)
        geometry = make_semicircle_patch(cfg)
        disc = build_discretization(cfg, geometry, 4, 4, row.n, max(4, row.n // 2))
        mats = assemble(disc.space, geometry, disc.quadrature)
        wave = PlaneWave(20.0, (0.0, 1.0))
        alpha = solve_manufactured(disc, mats, wave)
        rel = l2_error(disc, alpha, wave) / l2_norm(disc, wave)
        assert rel == row.rel_l2_error  # same deterministic computation

    def test_error_depends_on_k_times_r(self):
        # why the pollution study fixes its radius: scaling the domain by s
        # and the wavenumber by 1/s maps one discrete problem onto the other
        from igarad import mms
        from igarad.geometry import DomainConfig, make_semicircle_patch
        from igarad.pipeline import _manufactured_level

        def rel_error(k, r):
            cfg = DomainConfig(a=0.3 * r, r=r, theta=math.pi / 4)
            geometry = make_semicircle_patch(cfg)
            wave = mms.PlaneWave(k, (0.6, 0.8))
            disc, alpha = _manufactured_level(cfg, geometry, 3, 12, wave)
            return mms.l2_error(disc, alpha, wave) / mms.l2_norm(disc, wave)

        e = rel_error(30.0, 0.35)
        assert e > 1e-6  # a resolved but inexact solve, so the comparison means something
        assert rel_error(15.0, 0.70) == pytest.approx(e, rel=1e-10)

    def test_doubling_dofs_reduces_error(self):
        from igarad.pipeline import pollution_study

        coarse = pollution_study(wavenumbers=(40.0,), orders=(3,), points_per_wavelength=6.0)
        fine = pollution_study(wavenumbers=(40.0,), orders=(3,), points_per_wavelength=12.0)
        assert fine[0].rel_l2_error < coarse[0].rel_l2_error


class TestSolutionField:
    def test_unit_coefficients_partition_of_unity(self, smoke_result):
        space = smoke_result.field.space
        sol = SolutionField(space, smoke_result.field.geometry, np.ones(space.size))
        vals = sol.evaluate_grid(np.linspace(0, 1, 9), np.linspace(0, 1, 9))
        assert np.max(np.abs(vals - 1.0)) <= 1e-13

    def test_single_coefficient_reproduces_basis_surface(self, smoke_result):
        space = smoke_result.field.space
        from igarad.bspline import basis_matrix

        q = space.flat_index(3, 2)
        coeffs = np.zeros(space.size, dtype=complex)
        coeffs[q] = 1.0
        sol = SolutionField(space, smoke_result.field.geometry, coeffs)
        xis = np.linspace(0, 1, 13)
        etas = np.linspace(0, 1, 11)
        got = sol.evaluate_grid(xis, etas)
        expected = np.outer(basis_matrix(space.kv_xi, xis)[:, 3], basis_matrix(space.kv_eta, etas)[:, 2])
        assert np.max(np.abs(got - expected)) <= 1e-14

    def test_eval_field_matches_grid(self, smoke_result):
        sol = smoke_result.field
        pts = [(0.25, 0.5), (0.5, 0.25), (0.9, 0.1)]
        vals = sol.evaluate_points(pts)
        for (xi, eta), v in zip(pts, vals):
            # identical values up to summation-order roundoff
            ref = sol.evaluate_grid([xi], [eta])[0, 0]
            assert abs(v - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_out_of_domain_rejected(self, smoke_result):
        with pytest.raises(ValueError):
            smoke_result.field.evaluate_points([(1.2, 0.5)])


class TestProfiles:
    def test_axis_profile_matches_eval_field(self, smoke_result):
        ys, vals = axis_profile(smoke_result.field, 60)
        etas = np.linspace(0, 1, 60)
        direct = smoke_result.field.evaluate_points([(0.5, e) for e in etas])
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
        assert np.max(np.abs(vals[on_ap] - smoke_result.config.amplitude)) <= 1e-10

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


class TestAxisProfileSymmetry:
    def test_asymmetric_geometry_is_rejected(self):
        # quarter annulus shifted so the x = 0 line cuts the interior but
        # xi = 1/2 does not map onto it: no axis profile is taken there
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
        sol = SolutionField(space, geometry, np.ones(space.size))
        assert np.max(np.abs(geometry.evaluate_grid([0.5], np.linspace(0, 1, 9))[0][:, 0])) > 1e-6
        with pytest.raises(ValueError, match="does not map onto the axis"):
            axis_profile(sol, 25)


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
            RunConfig(frequency=f, half_aperture=0.05, n=60, m=40, beta_factor=0.0),
            write_outputs=False,
        )
        disc = res.discretization
        k = res.config.wavenumber
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
            t0 = max(kv.knots[s], disc.domain.aperture_preimage[0])
            t1 = min(kv.knots[s + 1], disc.domain.aperture_preimage[1])
            if t1 - t0 <= 1e-14:
                continue
            ts = 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * ref_x
            ws = 0.5 * (t1 - t0) * ref_w
            bx = basis_matrix(kv, ts)
            dbx = basis_matrix(kv, ts, deriv=1)
            u = (bx @ grid @ be0.T)[:, 0]
            du_dxi = (dbx @ grid @ be0.T)[:, 0]
            du_deta = (bx @ grid @ dbe0.T)[:, 0]
            _, F_xi, F_eta, det = disc.geometry.jacobian_grid(ts, [0.0])
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
            RunConfig(frequency=f, half_aperture=0.05, n=120, m=90, beta_factor=0.0),
            write_outputs=False,
        )
        fine = run(
            RunConfig(frequency=f, half_aperture=0.05, n=150, m=112, beta_factor=0.0),
            write_outputs=False,
        )
        _, v1 = axis_profile(coarse.field, 300)
        _, v2 = axis_profile(fine.field, 300)
        diff = np.max(np.abs(np.abs(v1) - np.abs(v2))) / np.max(np.abs(v2))
        assert diff < 0.02


class TestOutputs:

    def test_all_artifacts_written(self, outputs):
        _, result, outdir = outputs
        for key in ("field", "axis_profile", "bottom_profile", "report", "vtk", "system", "rhs"):
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
        assert report["derived"]["wavenumber"] == cfg.wavenumber
        assert report["derived"]["dofs"] == result.discretization.space.size
        assert report["solve"]["method"] == "gmres"
        # the zero-shift factor of A on the tree: complex128 blocks plus their index arrays
        lu_nnz = report["derived"]["lu_nnz"]
        assert lu_nnz > 0
        assert 16 * lu_nnz < report["derived"]["factor_bytes"] < 17 * lu_nnz
        # null where the factor ran in one process
        peak = report["derived"]["child_peak_rss_mib"]
        assert peak is None or peak > 0
        # the assembly's child, which runs wherever one can: the 40 x 30 mesh has two halves
        assemble_peak = report["derived"]["assemble_child_peak_rss_mib"]
        assert (assemble_peak is not None) == can_split()
        assert assemble_peak is None or assemble_peak > 0
        assert report["config"]["n"] == cfg.n

    def test_report_is_the_run_result(self, outputs):
        _, result, outdir = outputs
        written = json.loads((outdir / "report.json").read_text())
        assert written == json.loads(json.dumps(result.report()))
        # report.json lists the files written before it
        assert list(written["outputs"]) == [k for k in result.outputs if k != "report"]

    def test_report_without_writers_has_the_same_blocks(self, outputs, smoke_result):
        _, _, outdir = outputs
        written = json.loads((outdir / "report.json").read_text())
        report = smoke_result.report()
        assert list(report) == list(written)
        for block in ("derived", "solve"):
            assert list(report[block]) == list(written[block]), block
        # every stage but the write stage, which did not run
        for block in ("timings", "peak_rss_mib"):
            assert list(report[block]) == [k for k in written[block] if k != "write"], block
        assert report["derived"]["lu_nnz"] == written["derived"]["lu_nnz"] > 0
        assert report["derived"]["system_nnz"] == written["derived"]["system_nnz"] > 0
        assert report["outputs"] == {}

    def test_report_lu_fill(self, tmp_path):
        from igarad.assembly import assemble, fold_system
        from igarad.solver import frontal_storage

        cfg = smoke_config(beta_factor=1.0 / 3.0, outdir=str(tmp_path))
        result = run(cfg)
        report = json.loads((tmp_path / "report.json").read_text())
        lu_nnz = report["derived"]["lu_nnz"]
        assert lu_nnz > 0
        # complex128 blocks plus their small index arrays
        assert 16 * lu_nnz < report["derived"]["factor_bytes"] < 17 * lu_nnz
        # the preconditioner's factor is the size the half grid's tree's symbolic
        # pass counts from the folded pattern, over the mirror-even unknowns
        disc = result.discretization
        matrices = assemble(disc.space, disc.geometry, disc.quadrature)
        fold = disc.folds[0]
        folded = fold_system(matrices, disc.partition, fold, cfg.wavenumber, cfg.beta_factor / cfg.wavenumber)
        assert frontal_storage(folded, fold.tree) == (lu_nnz, report["derived"]["factor_bytes"])
        assert folded.shape[0] == report["derived"]["factor_unknowns"] == fold.n_unknowns
        solve = report["solve"]
        assert sum(solve["cycle_lengths"]) == solve["inner_iterations"]
        assert solve["cycle_residuals"][-1] == solve["preconditioned_residual"]

    @pytest.mark.parametrize("beta_factor", [1.0 / 3.0, 0.0], ids=["shifted", "zero_shift"])
    def test_factor_size_logged_before_it_allocates(self, tmp_path, caplog, beta_factor):
        import logging
        import re

        with caplog.at_level(logging.INFO):
            run(smoke_config(beta_factor=beta_factor, outdir=str(tmp_path)))
        messages = [r.getMessage() for r in caplog.records]
        lines = [i for i, r in enumerate(caplog.records) if r.name == "igarad.solver"]
        size, *child = lines
        logged = int(re.search(r"stored entries, (\d+) bytes", messages[size]).group(1))
        report = json.loads((tmp_path / "report.json").read_text())
        assert logged == report["derived"]["factor_bytes"]
        # a factor that forked says so next, with the child's peak the report keeps
        peak = report["derived"]["child_peak_rss_mib"]
        assert len(child) == (peak is not None)
        if child:
            assert messages[child[0]].endswith(f"its peak RSS {peak:.0f} MiB")
        # logged before the line that closes the factor stage
        assert lines[-1] < next(i for i, m in enumerate(messages) if m.startswith("[factor]"))

    def test_report_peak_memory(self, outputs):
        from igarad.solver import load_matrix_market

        _, result, outdir = outputs
        report = json.loads((outdir / "report.json").read_text())
        # the report is written after the write stage, so it has all stages
        assert list(report["peak_rss_mib"]) == list(report["timings"]) == list(result.timings)
        assert "write" in report["timings"]
        assert list(result.peak_rss_mib) == list(result.timings)
        peaks = list(result.peak_rss_mib.values())
        assert peaks[0] > 0
        assert all(b >= a for a, b in zip(peaks, peaks[1:]))
        assert report["peak_rss_mib"] == result.peak_rss_mib
        A = load_matrix_market(outdir / "system.mtx")
        assert report["derived"]["system_nnz"] == A.nnz > 0

    def test_vtk_header(self, outputs):
        _, result, outdir = outputs
        lines = (outdir / "field.vtk").read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert "STRUCTURED_GRID" in lines[3]

    def test_vtk_matches_field_csv(self, outputs):
        cfg, _, outdir = outputs
        g = cfg.grid_res
        # field.csv runs xi outer, the VTK grid runs xi fastest
        table = np.loadtxt(outdir / "field.csv", delimiter=",", skiprows=1)
        table = table.reshape(g, g, 7).swapaxes(0, 1).reshape(-1, 7)
        lines = (outdir / "field.vtk").read_text().splitlines()
        start = lines.index(f"POINTS {g * g} double") + 1
        points = np.array([line.split() for line in lines[start : start + g * g]], dtype=float)
        assert np.array_equal(points, np.column_stack([table[:, 2:4], np.zeros(g * g)]))
        for name, col in (("re", 4), ("im", 5), ("abs", 6)):
            start = lines.index(f"SCALARS {name} double 1") + 2
            assert np.array_equal(np.array(lines[start : start + g * g], dtype=float), table[:, col])
        assert len(lines) == start + g * g

    def test_writers_match_savetxt_bytes(self, outputs):
        """The field, profile and VTK files are byte for byte what
        ``np.savetxt`` writes at 17 significant digits."""
        import io

        cfg, result, outdir = outputs
        sol, g = result.field, cfg.grid_res

        def savetxt(table, **kw):
            out = io.StringIO()
            np.savetxt(out, table, **kw)
            return out.getvalue()

        def csv(header, columns):
            return savetxt(np.column_stack(columns), delimiter=",", comments="", fmt="%.17g", header=header)

        grid = np.linspace(0.0, 1.0, g)
        pts, vals = sol.geometry.evaluate_grid(grid, grid), sol.evaluate_grid(grid, grid)
        xi, eta = np.meshgrid(grid, grid, indexing="ij")
        table = np.column_stack(
            [a.ravel() for a in (xi, eta, pts[..., 0], pts[..., 1], vals.real, vals.imag, np.abs(vals))]
        )
        assert (outdir / "field.csv").read_text() == csv("xi,eta,x,y,re,im,abs", table.T)
        for name, coord, profile in (("axis_profile", "y", axis_profile), ("bottom_profile", "x", bottom_profile)):
            at, values = profile(sol, cfg.profile_samples)
            expected = csv(f"{coord},re,im,abs", [at, values.real, values.imag, np.abs(values)])
            assert (outdir / f"{name}.csv").read_text() == expected
        vtk = table.reshape(g, g, 7).swapaxes(0, 1).reshape(-1, 7)
        expected = (
            f"# vtk DataFile Version 3.0\nacoustic field\nASCII\nDATASET STRUCTURED_GRID\n"
            f"DIMENSIONS {g} {g} 1\nPOINTS {g * g} double\n" + savetxt(vtk[:, 2:4], fmt="%.17g %.17g 0")
            + f"POINT_DATA {g * g}\n"
        )
        for name, col in (("re", 4), ("im", 5), ("abs", 6)):
            expected += f"SCALARS {name} double 1\nLOOKUP_TABLE default\n" + savetxt(vtk[:, col], fmt="%.17g")
        assert (outdir / "field.vtk").read_text() == expected

    def test_table_blocks_match_savetxt_bytes(self):
        """Across the row blocks of one ``%`` each, and for the values whose
        shortest form differs most: zeros of both signs, subnormals, huge."""
        import io

        from igarad.pipeline import _ROWS_PER_FORMAT, _write_table

        rng = np.random.default_rng(5)
        table = rng.standard_normal((2 * _ROWS_PER_FORMAT + 3, 3)) * 10.0 ** rng.integers(-300, 300, (2 * _ROWS_PER_FORMAT + 3, 3))
        table[:4, 0] = [0.0, -0.0, 5e-324, 1.7976931348623157e308]
        ours, theirs = io.StringIO(), io.StringIO()
        _write_table(ours, table, "%.17g,%.17g,%.17g\n")
        np.savetxt(theirs, table, delimiter=",", fmt="%.17g")
        assert ours.getvalue() == theirs.getvalue()

    def test_matrix_market_dump_solvable(self, outputs, tmp_path):
        """``solve-mm`` solves the dumped system and right-hand side for the
        run's free coefficients."""
        from igarad.solver import load_matrix_market, load_vector

        _, result, outdir = outputs
        free = result.discretization.partition.free
        assert load_matrix_market(outdir / "system.mtx").shape == (free.size, free.size)
        out = tmp_path / "x.mtx"
        proc = subprocess.run(
            [sys.executable, "-m", "igarad.cli", "solve-mm", str(outdir / "system.mtx"), str(outdir / "rhs.mtx"),
             "--out", str(out)], capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        ref = result.field.coefficients[free]
        assert np.linalg.norm(load_vector(out) - ref) <= 1e-10 * np.linalg.norm(ref)


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "igarad.cli", *args], capture_output=True, text=True
        )

    def test_run_subcommand(self, tmp_path):
        proc = self._run(
            "run", "--frequency", "1e5", "--n", "30", "--m", "24", "--beta-factor", "0",
            "--grid-res", "20", "--profile-samples", "40", "--outdir", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "report.json").exists()
        assert "[assemble]" in proc.stdout  # stage lines are logged at INFO

    def test_run_overrides_reach_the_report(self, tmp_path):
        config = Path(__file__).resolve().parents[1] / "configs" / "desk_smoke.json"
        proc = self._run(
            "run", "--config", str(config), "--grid-res", "7", "--profile-samples", "9",
            "--vtk", "--outdir", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        written = json.loads((tmp_path / "report.json").read_text())["config"]
        assert written["grid_res"] == 7
        assert written["profile_samples"] == 9
        assert written["vtk"] is True
        assert written["outdir"] == str(tmp_path)
        assert written["n"] == 40  # from the config file

    def test_run_parser_has_one_flag_per_field(self):
        # the run flags are generated from RunConfig: each field but amplitude
        # has exactly one, typed by the field's default, and there is no other
        from igarad.cli import _add_run_parser

        parser = _add_run_parser(argparse.ArgumentParser().add_subparsers())
        hints = typing.get_type_hints(RunConfig)
        samples = {int: "3", float: "0.5", str: "somewhere"}
        names = [f.name for f in fields(RunConfig) if f.name != "amplitude"]
        dests = [a.dest for a in parser._actions if a.option_strings and a.dest != "help"]
        assert sorted(dests) == sorted([*names, "config"])
        for field in fields(RunConfig):
            if field.name == "amplitude":
                continue
            assert field.default is not None, f"{field.name} has no default to type its flag"
            (action,) = [a for a in parser._actions if a.dest == field.name]
            flag = action.option_strings[-1]
            argv = [flag] if hints[field.name] is bool else [flag, samples[hints[field.name]]]
            value = getattr(parser.parse_args(argv), field.name)
            assert type(value) is hints[field.name], (flag, value)

    def test_run_bad_config_exit_code(self, tmp_path):
        # keys that are not RunConfig fields, among them a GMRES setting a
        # stale config file may still hold: rejected, not silently ignored
        bad = tmp_path / "bad.json"
        for text in ('{"solver": "nope"}', '{"tol": 1e-8}'):
            bad.write_text(text)
            proc = self._run("run", "--config", str(bad))
            assert proc.returncode == 2, (text, proc.stderr)
            assert "bad configuration" in proc.stderr

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"'], ids=["list", "string"])
    def test_run_config_not_an_object_exit_code(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        proc = self._run("run", "--config", str(bad))
        assert proc.returncode == 2, proc.stderr
        assert "bad configuration" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_run_mesh_over_desk_scale_exit_code(self, tmp_path):
        """A mesh the discretize stage rejects is a bad configuration, found
        before any assembly."""
        proc = self._run("run", "--n", "500", "--m", "400", "--outdir", str(tmp_path))
        assert proc.returncode == 2, proc.stderr
        assert "bad configuration" in proc.stderr and "full_scale" in proc.stderr
        assert "[assemble]" not in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_run_invalid_value_exit_code(self, tmp_path):
        proc = self._run("run", "--frequency", "nan", "--outdir", str(tmp_path))
        assert proc.returncode == 2, proc.stderr
        assert "bad configuration" in proc.stderr
        assert not (tmp_path / "report.json").exists()

    def test_quality_map_subcommand(self, tmp_path):
        out = tmp_path / "q.csv"
        proc = self._run("quality-map", "--grid-res", "40", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "xi,eta,x,y,mean_ratio"
        # the map is drawn on the unit half-disc
        x, y = np.loadtxt(lines[1:], delimiter=",", usecols=(2, 3)).T
        assert len(x) == 40 * 40
        assert np.all(y >= -1e-14) and np.all(x * x + y * y <= 1.0 + 1e-12)

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
            "--out", str(out), "--report", str(rep),
        )
        assert proc.returncode == 0, proc.stderr
        x = load_vector(out)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-8
        report = json.loads(rep.read_text())
        assert report["converged"] is True
        assert len(report["history"]) == report["inner_iterations"]

    def test_solve_mm_solves_a_dumped_run_system(self, tmp_path):
        """With no flags solve-mm factors the dumped A itself, and GMRES
        confirms the factor's solution in one cycle."""
        from igarad.solver import load_vector

        config = RunConfig.from_json(
            Path(__file__).resolve().parents[1] / "configs" / "desk_smoke.json",
            dump_matrices=True, outdir=str(tmp_path),
        )
        result = run(config)
        out, rep = tmp_path / "x.mtx", tmp_path / "rep.json"
        proc = self._run(
            "solve-mm", str(tmp_path / "system.mtx"), str(tmp_path / "rhs.mtx"),
            "--out", str(out), "--report", str(rep),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(rep.read_text())["outer_iterations"] == 1
        expected = result.field.coefficients[result.discretization.partition.free]
        assert np.linalg.norm(load_vector(out) - expected) / np.linalg.norm(expected) <= 1e-8

    @pytest.mark.parametrize(
        "flag",
        [
            ("--beta", "nan"),
            ("--beta=-inf",),
            ("--beta", "1e400"),
            ("--beta", "-1"),
            ("--beta=-1e-300",),
            ("--beta", "inf"),
            ("--beta", "1"),
            ("--mass", "missing.mtx"),
        ],
    )
    def test_solve_mm_bad_setting_exit_code(self, tmp_path, flag):
        # the inputs do not exist: settings are checked before any file is read;
        # a shift that is NaN, negative (however small) or infinite (also by
        # overflow) is rejected, and a shift without --mass, or --mass without
        # a shift, is a bad setting, not one silently ignored
        missing = str(tmp_path / "missing.mtx")
        proc = self._run("solve-mm", missing, missing, *flag)
        assert proc.returncode == 2, proc.stderr
        assert "bad configuration" in proc.stderr

    def test_solve_mm_direct(self, tmp_path):
        import scipy.sparse as sp

        from igarad.solver import save_matrix_market, save_vector

        # without --mass the preconditioner is a factor of A itself
        A = sp.identity(4, format="csr", dtype=complex) * 2.0
        save_matrix_market(tmp_path / "A.mtx", A)
        save_vector(tmp_path / "b.mtx", np.ones(4, dtype=complex))
        rep = tmp_path / "rep.json"
        proc = self._run("solve-mm", str(tmp_path / "A.mtx"), str(tmp_path / "b.mtx"), "--report", str(rep))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(rep.read_text())
        assert report["inner_iterations"] == 1
        assert report["shift"] == 0.0

    def test_solve_mm_coordinate_rhs(self, tmp_path):
        import scipy.io
        import scipy.sparse as sp

        from igarad.solver import load_vector, save_matrix_market

        save_matrix_market(tmp_path / "A.mtx", sp.identity(4, format="csr", dtype=complex) * 2.0)
        b = sp.coo_matrix(np.array([[1.0], [0.0], [2.0], [0.0]], dtype=complex))
        scipy.io.mmwrite(str(tmp_path / "b.mtx"), b)
        out = tmp_path / "x.mtx"
        proc = self._run("solve-mm", str(tmp_path / "A.mtx"), str(tmp_path / "b.mtx"), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        # GMRES's combination of its basis leaves roundoff, so the vector is
        # checked, not an exactly zero residual
        np.testing.assert_allclose(load_vector(out), [0.5, 0.0, 1.0, 0.0], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "shape, rhs, flags",
        [((4, 5), 4, ()), ((4, 4), 5, ())],
        ids=["not_square", "rhs_mismatch_gmres"],
    )
    def test_solve_mm_shape_exit_code(self, tmp_path, shape, rhs, flags):
        """Shapes are checked before anything is factored or solved."""
        import scipy.sparse as sp

        from igarad.solver import save_matrix_market, save_vector

        save_matrix_market(tmp_path / "A.mtx", sp.eye(*shape, format="csr", dtype=complex))
        save_vector(tmp_path / "b.mtx", np.ones(rhs, dtype=complex))
        proc = self._run("solve-mm", str(tmp_path / "A.mtx"), str(tmp_path / "b.mtx"), *flags)
        assert proc.returncode == 2, proc.stderr
        assert "error: bad configuration: " in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_solve_mm_direct_zero_rhs(self, tmp_path):
        import scipy.sparse as sp

        from igarad.solver import save_matrix_market, save_vector

        save_matrix_market(tmp_path / "A.mtx", sp.identity(4, format="csr", dtype=complex) * 2.0)
        save_vector(tmp_path / "b.mtx", np.zeros(4, dtype=complex))
        rep = tmp_path / "rep.json"
        proc = self._run(
            "solve-mm", str(tmp_path / "A.mtx"), str(tmp_path / "b.mtx"), "--report", str(rep),
        )
        assert proc.returncode == 0, proc.stderr
        assert "true=0.000e+00" in proc.stdout
        assert "Warning" not in proc.stderr
        assert json.loads(rep.read_text())["true_residual"] == 0.0

    def test_solve_mm_mass_shape_mismatch_exit_code(self, tmp_path):
        import scipy.sparse as sp

        from igarad.solver import save_matrix_market, save_vector

        save_matrix_market(tmp_path / "A.mtx", sp.identity(5, format="csr", dtype=complex))
        save_matrix_market(tmp_path / "M.mtx", sp.identity(6, format="csr", dtype=complex))
        save_vector(tmp_path / "b.mtx", np.ones(5, dtype=complex))
        proc = self._run(
            "solve-mm", str(tmp_path / "A.mtx"), str(tmp_path / "b.mtx"),
            "--mass", str(tmp_path / "M.mtx"), "--beta", "1",
        )
        assert proc.returncode == 2, proc.stderr
        assert "bad configuration" in proc.stderr and "6 x 6 mass matrix" in proc.stderr

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--mass", "M.mtx", "--beta", "1"), "singular shifted-Laplacian factorization"),
            ((), "singular shifted-Laplacian factorization"),
        ],
    )
    def test_solve_mm_singular_exit_code(self, tmp_path, flags, message):
        import scipy.sparse as sp

        from igarad.solver import save_matrix_market, save_vector

        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))
        save_matrix_market(tmp_path / "A.mtx", A)
        save_matrix_market(tmp_path / "M.mtx", sp.csr_matrix((2, 2), dtype=complex))
        save_vector(tmp_path / "b.mtx", np.ones(2, dtype=complex))
        flags = [str(tmp_path / f) if f.endswith(".mtx") else f for f in flags]
        proc = self._run("solve-mm", str(tmp_path / "A.mtx"), str(tmp_path / "b.mtx"), *flags)
        assert proc.returncode == 4, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_solve_mm_matrix_rhs_exit_code(self, tmp_path):
        # a 3 x 2 right-hand side is not read as a vector of length 6
        import scipy.io
        import scipy.sparse as sp

        from igarad.solver import save_matrix_market

        save_matrix_market(tmp_path / "A.mtx", sp.identity(6, format="csr", dtype=complex))
        scipy.io.mmwrite(str(tmp_path / "b.mtx"), np.ones((3, 2)))
        proc = self._run("solve-mm", str(tmp_path / "A.mtx"), str(tmp_path / "b.mtx"))
        assert proc.returncode == 5, proc.stderr
        assert "cannot read inputs" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_input_exit_code(self, tmp_path):
        proc = self._run("solve-mm", str(tmp_path / "nope.mtx"), str(tmp_path / "nope2.mtx"))
        assert proc.returncode == 5

    @pytest.mark.parametrize(
        "command, flag",
        [("mms-converge", "--out"), ("pollution", "--out"), ("solve-mm", "--out"), ("solve-mm", "--report"),
         ("run", "--outdir")],
        ids=lambda a: a,
    )
    def test_unwritable_output_exit_code(self, tmp_path, command, flag):
        """An output into a missing directory exits 5 with a message; so does
        a run whose output directory would lie under a regular file.  The
        studies and the run (at their default, desk-scale sizes) open or
        create theirs before any assembly, so they print nothing first."""
        import scipy.sparse as sp

        from igarad.solver import save_matrix_market, save_vector

        args = [command]
        if command == "solve-mm":
            save_matrix_market(tmp_path / "A.mtx", sp.identity(4, format="csr", dtype=complex) * 2.0)
            save_vector(tmp_path / "b.mtx", np.ones(4, dtype=complex))
            args += [str(tmp_path / "A.mtx"), str(tmp_path / "b.mtx")]
        out = tmp_path / "missing" / "out"
        if command == "run":  # a run creates a missing directory
            out.parent.write_text("a regular file")
        proc = self._run(*args, flag, str(out))
        assert proc.returncode == 5, proc.stderr
        assert proc.stderr.startswith("error: "), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()
        assert out.parent.exists() == (command == "run")
        if command != "solve-mm":
            assert proc.stdout == ""  # no stage line either

    def test_run_write_failure_exit_code(self, tmp_path):
        """A writer that cannot open its file is an I/O failure too."""
        (tmp_path / "field.csv").mkdir()
        proc = self._run(
            "run", "--n", "30", "--m", "24", "--beta-factor", "0", "--grid-res", "20",
            "--profile-samples", "40", "--outdir", str(tmp_path),
        )
        assert proc.returncode == 5, proc.stderr
        assert proc.stderr.startswith("error: stage 'write' failed: "), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "report.json").exists()

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
        # the order is fitted to the two levels there are, and says so
        assert "observed L2 order (last 2 levels): " in proc.stdout

    def test_pollution_subcommand(self, tmp_path):
        out = tmp_path / "poll.json"
        proc = self._run(
            "pollution", "--wavenumbers", "20,40", "--orders", "3", "--ppw", "4",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert "growth factor" in proc.stdout
        assert len(json.loads(out.read_text())) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("quality-map", "--grid-res", "1"),
            ("mms-converge", "--levels", "0"),
            ("mms-converge", "--levels", "1"),
            ("mms-converge", "--order", "1"),
            ("mms-converge", "--base-n", "3"),
            ("mms-converge", "--wavenumber", "nan"),
            ("mms-converge", "--wavenumber", "0"),
            ("mms-converge", "--wavenumber", "-5"),
            ("pollution", "--orders", "1"),
            ("pollution", "--wavenumbers", "20,abc"),
            ("pollution", "--wavenumbers", ""),
            ("pollution", "--wavenumbers", "20,nan"),
            ("pollution", "--ppw", "0"),
            ("pollution", "--ppw", "inf"),
        ],
        ids=lambda a: "{}{}={}".format(*a),
    )
    def test_study_bad_argument_exit_code(self, tmp_path, args):
        # checked before any assembly: nothing is written
        out = tmp_path / "out"
        proc = self._run(*args, "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert "error: bad configuration: " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()
