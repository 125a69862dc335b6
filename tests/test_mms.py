"""Manufactured-solution machinery: boundary data, traces, error norms."""

import math

import numpy as np
import pytest

from igarad.assembly import assemble
from igarad.geometry import DomainConfig, make_semicircle_patch
from igarad.mms import (
    PlaneWave,
    dirichlet_trace,
    h1_semi_error,
    l2_error,
    l2_norm,
    solve_manufactured,
)
from igarad.pipeline import build_discretization


@pytest.fixture(scope="module")
def problem():
    cfg = DomainConfig(a=0.3, r=1.0, theta=math.pi / 4)
    geometry = make_semicircle_patch(cfg)
    disc = build_discretization(cfg, geometry, 4, 4, 30, 15)
    return disc, assemble(disc.space, geometry, disc.quadrature)


class TestPlaneWave:
    def test_unit_direction_required(self):
        with pytest.raises(ValueError):
            PlaneWave(10.0, (1.0, 1.0))

    def test_value_and_gradient(self):
        wave = PlaneWave(3.0, (0.6, 0.8))
        pts = np.array([[0.1, -0.2], [1.0, 2.0]])
        u = wave.value(pts)
        assert np.allclose(np.abs(u), 1.0)
        g = wave.gradient(pts)
        assert np.allclose(g, 1j * 3.0 * u[:, None] * np.array([0.6, 0.8]))

    def test_gradient_matches_finite_differences(self):
        wave = PlaneWave(7.0, (0.0, 1.0))
        h = 1e-7
        p = np.array([[0.3, 0.4]])
        gx = (wave.value(p + [h, 0]) - wave.value(p - [h, 0])) / (2 * h)
        gy = (wave.value(p + [0, h]) - wave.value(p - [0, h])) / (2 * h)
        g = wave.gradient(p)[0]
        assert abs(gx[0] - g[0]) < 1e-6
        assert abs(gy[0] - g[1]) < 1e-6


class TestDirichletTrace:
    def test_trace_reproduces_exact_values_on_aperture(self, problem):
        disc, _ = problem
        space, partition = disc.space, disc.partition
        wave = PlaneWave(10.0, (0.0, 1.0))
        values = dirichlet_trace(disc, wave)
        # on y=0 the plane wave in +y has trace exactly 1
        xis = np.linspace(*disc.domain.aperture_preimage, 40)
        from igarad.bspline import basis_matrix

        bm = basis_matrix(space.kv_xi, xis)[:, partition.dirichlet]
        approx = bm @ values
        assert np.max(np.abs(approx - 1.0)) < 1e-12

    def test_oblique_trace_accuracy(self, problem):
        disc, _ = problem
        space, partition = disc.space, disc.partition
        d = (math.sin(0.4), math.cos(0.4))
        wave = PlaneWave(10.0, d)
        values = dirichlet_trace(disc, wave)
        from igarad.bspline import basis_matrix

        xis = np.linspace(*disc.domain.aperture_preimage, 60)
        pts = disc.geometry.evaluate_grid(xis, [0.0])[:, 0, :]
        bm = basis_matrix(space.kv_xi, xis)[:, partition.dirichlet]
        err = np.max(np.abs(bm @ values - wave.value(pts)))
        assert err < 3e-5  # projection-level accuracy at this resolution


class TestSolveManufactured:
    def test_vertical_wave_small_error(self, problem):
        disc, matrices = problem
        wave = PlaneWave(10.0, (0.0, 1.0))
        alpha = solve_manufactured(disc, matrices, wave)
        rel = l2_error(disc, alpha, wave) / l2_norm(disc, wave)
        assert rel < 1.5e-3

    def test_energy_error_consistent(self, problem):
        disc, matrices = problem
        wave = PlaneWave(10.0, (0.0, 1.0))
        alpha = solve_manufactured(disc, matrices, wave)
        eh = h1_semi_error(disc, alpha, wave)
        assert 0.0 < eh < 5e-2

    def test_zero_wavenumber_reduces_to_laplace(self, problem):
        # k=0 turns the manufactured problem into Laplace with unit
        # Dirichlet data and homogeneous Neumann/Robin data: u == 1
        disc, matrices = problem
        wave = PlaneWave(0.0, (0.0, 1.0))
        alpha = solve_manufactured(disc, matrices, wave)
        assert np.max(np.abs(alpha - 1.0)) < 1e-9

    def test_oblique_wave_converges(self, problem):
        disc, matrices = problem
        d = (math.sin(0.3), math.cos(0.3))
        wave = PlaneWave(10.0, d)
        alpha = solve_manufactured(disc, matrices, wave)
        rel = l2_error(disc, alpha, wave) / l2_norm(disc, wave)
        assert rel < 1.5e-3

    def test_zero_manufactured_solution_gives_zero_everything(self, problem):
        disc, matrices = problem
        wave = PlaneWave(10.0, (0.0, 1.0), amplitude=0.0)
        alpha = solve_manufactured(disc, matrices, wave)
        assert np.max(np.abs(alpha)) == 0.0
        assert l2_error(disc, alpha, wave) == 0.0
        assert h1_semi_error(disc, alpha, wave) == 0.0


class TestFoldedSolve:
    @pytest.mark.parametrize("n", [30, 31], ids=["even", "odd"])
    def test_even_and_odd_halves_solve_the_full_system(self, n):
        """The study's solve, from the factors of A's even and odd blocks and
        refined once with A, is SuperLU's refined solve of the whole free
        system to roundoff, on an even and an odd number of xi functions:
        measured 8.5e-16 and 7.2e-16 apart, residuals 5.0e-16, against the
        bounds' 1e-14."""
        from igarad.assembly import build_system
        from igarad.mms import manufactured_data
        from igarad.solver import direct_solve

        cfg = DomainConfig(a=0.3, r=1.0, theta=math.pi / 4)
        geometry = make_semicircle_patch(cfg)
        disc = build_discretization(cfg, geometry, 4, 4, n, n // 2)
        space, partition = disc.space, disc.partition
        assert space.n % 2 == n % 2
        matrices = assemble(space, geometry, disc.quadrature)
        wave = PlaneWave(10.0, (0.6, 0.8))
        x = solve_manufactured(disc, matrices, wave)[partition.free]
        load, values = manufactured_data(disc, wave)
        A, b = build_system(matrices, partition, wave.wavenumber, values, load=load)
        oracle = direct_solve(A, b)
        assert np.linalg.norm(x - oracle) <= 1e-14 * np.linalg.norm(oracle)
        assert np.linalg.norm(A @ x - b) <= 1e-14 * np.linalg.norm(b)


class TestErrorNorms:
    def test_zero_error_for_exact_coefficients(self, problem):
        # a field equal to a constant is in the spline space; measuring
        # it against a zero-wavenumber wave (u* = 1) gives zero error
        disc, _ = problem
        wave = PlaneWave(0.0, (0.0, 1.0))
        alpha = np.ones(disc.space.size, dtype=complex)
        assert l2_error(disc, alpha, wave) < 1e-14
        assert h1_semi_error(disc, alpha, wave) < 1e-12

    def test_l2_norm_matches_domain_area(self, problem):
        # |u*| = 1, so the L2 norm squared is the domain area
        disc, _ = problem
        wave = PlaneWave(5.0, (0.0, 1.0))
        area = math.pi * disc.domain.r**2 / 2
        assert l2_norm(disc, wave) == pytest.approx(math.sqrt(area), rel=1e-12)
