"""Geometry: exact arcs, boundary curves, Coons patch, quality metric."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import igarad.geometry
from igarad.geometry import (
    CoonsSurface,
    DomainConfig,
    RationalCurve,
    coons_patch,
    make_arc,
    make_line,
    make_patch_boundary,
    make_semicircle_boundary,
    make_semicircle_patch,
)
from igarad.pipeline import write_quality_csv


def unit_square_patch():
    return coons_patch(
        make_line((0, 0), (1, 0)),
        make_line((0, 1), (1, 1)),
        make_line((0, 0), (0, 1)),
        make_line((1, 0), (1, 1)),
    )


class TestDomainConfig:
    def test_invalid_aperture(self):
        with pytest.raises(ValueError):
            DomainConfig(a=0.2, r=0.1, theta=math.pi / 4)

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            DomainConfig(a=0.01, r=0.1, theta=math.pi / 2)
        with pytest.raises(ValueError):
            DomainConfig(a=0.01, r=0.1, theta=0.0)


class TestMakeArc:
    def test_quarter_circle_structure(self):
        arc = make_arc((0, 0), 1.0, math.pi / 4, 3 * math.pi / 4)
        assert np.array_equal(arc.kv.knots, [0, 0, 0, 1, 1, 1])
        assert arc.num_ctrl == 3
        assert arc.weights[1] == pytest.approx(math.cos(math.pi / 4))

    def test_wide_arc_split_with_doubled_knots(self):
        # sweep 9 pi / 10 splits into two segments
        arc = make_arc((0, 0), 1.0, math.pi / 20, math.pi - math.pi / 20)
        assert np.array_equal(arc.kv.knots, [0, 0, 0, 0.5, 0.5, 1, 1, 1])
        assert arc.num_ctrl == 5

    @pytest.mark.parametrize("a0,a1", [(0, math.pi / 2), (0.3, 2.9), (1.0, 1.2), (0, 1.9 * math.pi)])
    def test_radius_exact(self, a0, a1):
        arc = make_arc((0.4, -0.2), 2.5, a0, a1)
        ts = np.linspace(0, 1, 200)
        pts = arc.evaluate(ts)
        rad = np.hypot(pts[:, 0] - 0.4, pts[:, 1] + 0.2)
        assert np.max(np.abs(rad - 2.5)) <= 1e-12

    def test_invalid_sweep(self):
        with pytest.raises(ValueError):
            make_arc((0, 0), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            make_arc((0, 0), 1.0, 1.0, 0.5)

    def test_elevated_arc_keeps_radius(self):
        arc = make_arc((0, 0), 1.0, 0.0, math.pi * 0.9).elevated()
        pts = arc.evaluate(np.linspace(0, 1, 100))
        assert np.max(np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 1.0)) <= 1e-12


@pytest.fixture(scope="module")
def curves():
    cfg = DomainConfig(a=0.01, r=0.133, theta=math.pi / 4)
    return cfg, make_semicircle_boundary(cfg)


@pytest.fixture(scope="module")
def quarter_patch():
    cfg = DomainConfig(a=0.01, r=0.133, theta=math.pi / 4)
    return cfg, make_semicircle_patch(cfg)


class TestSemicircleBoundary:

    def test_quarter_theta_all_quadratic_single_span(self, curves):
        _, (cb, ct, cl, cr) = curves
        for c in (cb, ct, cl, cr):
            assert np.array_equal(c.kv.knots, [0, 0, 0, 1, 1, 1])
            assert c.num_ctrl == 3

    def test_corner_compatibility(self, curves):
        cfg, (cb, ct, cl, cr) = curves
        r = cfg.r
        assert np.allclose(cb.evaluate([0.0])[0], (-r, 0), atol=1e-14)
        assert np.allclose(cl.evaluate([0.0])[0], (-r, 0), atol=1e-14)
        assert np.allclose(cb.evaluate([1.0])[0], (r, 0), atol=1e-14)
        assert np.allclose(cr.evaluate([0.0])[0], (r, 0), atol=1e-14)
        assert np.allclose(cl.evaluate([1.0])[0], ct.evaluate([0.0])[0], atol=1e-14)
        assert np.allclose(cr.evaluate([1.0])[0], ct.evaluate([1.0])[0], atol=1e-14)

    def test_side_arc_lengths_equal_r_theta(self, curves):
        cfg, (_, _, cl, cr) = curves

        def arc_length(c):
            return quad(lambda t: np.hypot(*c.derivative([t])[0]), 0.0, 1.0, limit=200)[0]

        expected = cfg.r * cfg.theta
        assert arc_length(cl) == pytest.approx(expected, rel=1e-10)
        assert arc_length(cr) == pytest.approx(expected, rel=1e-10)

    def test_bottom_parametrized_affinely(self, curves):
        cfg, (cb, _, _, _) = curves
        ts = np.linspace(0, 1, 17)
        pts = cb.evaluate(ts)
        assert np.max(np.abs(pts[:, 0] - (-cfg.r + 2 * cfg.r * ts))) <= 1e-12
        assert np.max(np.abs(pts[:, 1])) <= 1e-14

    def test_narrow_theta_knot_refinement(self):
        cfg = DomainConfig(a=0.01, r=0.166, theta=math.pi / 20)
        cb, ct, cl, cr = make_semicircle_boundary(cfg)
        assert np.array_equal(ct.kv.knots, [0, 0, 0, 0.5, 0.5, 1, 1, 1])
        assert ct.num_ctrl == 5
        assert cb.kv == ct.kv
        assert cl.kv == cr.kv


class TestCoonsPatch:
    def test_unit_square_is_identity(self):
        S = unit_square_patch()
        xs = np.linspace(0, 1, 11)
        F, F_xi, F_eta, det = S.jacobian_grid(xs, xs)
        mr = S._mean_ratio(F_xi, F_eta, det)
        grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
        assert np.max(np.abs(F - grid)) <= 1e-14
        assert np.max(np.abs(det - 1.0)) <= 1e-13
        assert np.max(np.abs(mr - 1.0)) <= 1e-13

    def test_corner_mismatch_rejected(self):
        with pytest.raises(ValueError, match="corner"):
            coons_patch(
                make_line((0, 0), (1, 0)),
                make_line((0, 1), (1, 1)),
                make_line((0.01, 0), (0, 1)),
                make_line((1, 0), (1, 1)),
            )

    def test_boundary_reproduction(self, quarter_patch):
        # the patch interpolates the reparametrized curves it is built from
        cfg, S = quarter_patch
        cb, ct, cl, cr = make_patch_boundary(cfg)
        ts = np.linspace(0, 1, 100)
        pairs = [
            (S.evaluate_grid(ts, [0.0])[:, 0, :], cb),
            (S.evaluate_grid(ts, [1.0])[:, 0, :], ct),
            (S.evaluate_grid([0.0], ts)[0], cl),
            (S.evaluate_grid([1.0], ts)[0], cr),
        ]
        for got, curve in pairs:
            assert np.max(np.abs(got - curve.evaluate(ts))) <= 1e-12

    def test_bottom_edge_on_axis_and_aperture_preimage(self, quarter_patch):
        cfg, S = quarter_patch
        xis = np.linspace(0, 1, 20)
        pts = S.evaluate_grid(xis, [0.0])[:, 0, :]
        assert np.max(np.abs(pts[:, 1])) <= 1e-13
        xi_minus = (cfg.r - cfg.a) / (2 * cfg.r)
        assert np.allclose(S.evaluate(xi_minus, 0.0), (-cfg.a, 0.0), atol=1e-12)

    def test_corners_and_apex(self, quarter_patch):
        cfg, S = quarter_patch
        assert np.allclose(S.evaluate(0.0, 0.0), (-cfg.r, 0.0), atol=1e-13)
        assert np.allclose(S.evaluate(1.0, 0.0), (cfg.r, 0.0), atol=1e-13)
        apex = S.evaluate(0.5, 1.0)
        assert np.hypot(*apex) == pytest.approx(cfg.r, abs=1e-12)
        assert abs(apex[0]) <= 1e-12

    def test_jacobian_against_finite_differences(self, quarter_patch):
        _, S = quarter_patch
        rng = np.random.default_rng(5)
        h = 1e-6
        for xi, eta in rng.uniform(0.05, 0.95, (20, 2)):
            _, F_xi, F_eta, _ = S.jacobian_grid([xi], [eta])
            J = np.column_stack([F_xi[0, 0], F_eta[0, 0]])
            fx = (S.evaluate(xi + h, eta) - S.evaluate(xi - h, eta)) / (2 * h)
            fe = (S.evaluate(xi, eta + h) - S.evaluate(xi, eta - h)) / (2 * h)
            scale = np.max(np.abs(J))
            assert np.max(np.abs(J[:, 0] - fx)) / scale < 1e-6
            assert np.max(np.abs(J[:, 1] - fe)) / scale < 1e-6

    def test_det_positive_on_dense_interior_grid(self):
        # 0.02 and 1.55: a very short side arc and a very short top arc
        for theta in (0.02, math.pi / 20, math.pi / 8, math.pi / 4, 3 * math.pi / 8, 1.55):
            cfg = DomainConfig(a=0.01, r=0.133, theta=theta)
            S = make_semicircle_patch(cfg)
            g = (np.arange(400) + 0.5) / 400
            _, F_xi, F_eta, det = S.jacobian_grid(g, g)
            mr = S._mean_ratio(F_xi, F_eta, det)
            assert det.min() > 0.0
            assert mr.min() > 0.0
            assert mr.max() <= 1.0 + 1e-13


class TestJunctionReparametrization:
    """The patch boundary: exact arcs with zero speed at the arc junctions."""

    @pytest.mark.parametrize("theta", [math.pi / 20, math.pi / 4])
    def test_edges_on_circle(self, theta):
        cfg = DomainConfig(a=0.01, r=0.133, theta=theta)
        S = make_semicircle_patch(cfg)
        ts = np.linspace(0, 1, 301)
        for pts in (S.evaluate_grid(ts, [1.0])[:, 0], S.evaluate_grid([0.0, 1.0], ts).reshape(-1, 2)):
            assert np.max(np.abs(np.hypot(pts[:, 0], pts[:, 1]) - cfg.r)) <= 1e-12

    @pytest.mark.parametrize("theta", [math.pi / 20, math.pi / 4])
    def test_zero_speed_at_junctions(self, theta):
        cfg = DomainConfig(a=0.01, r=0.133, theta=theta)
        S = make_semicircle_patch(cfg)
        _, F_xi, F_eta, _ = S.jacobian_grid([0.0, 1.0], [0.0, 1.0])
        # arc speeds at the two junction corners (xi, eta) = (0, 1), (1, 1)
        for p in (0, 1):
            assert np.hypot(*F_xi[p, 1]) <= 1e-12 * cfg.r
            assert np.hypot(*F_eta[p, 1]) <= 1e-12 * cfg.r
        # the bottom corners stay regular
        assert np.hypot(*F_xi[0, 0]) == pytest.approx(2 * cfg.r, rel=1e-12)
        assert np.hypot(*F_eta[0, 0]) > 0.1 * cfg.r

    def test_shift_power_minimizes_winslow_energy(self, monkeypatch):
        # the side-arc shift is blended with (1 - xi)**k; k = 4 has the
        # smallest Winslow energy int (|F_xi|^2 + |F_eta|^2) / det J of its
        # neighbours at theta = pi/4
        assert igarad.geometry._SHIFT_POWER == 4
        cfg = DomainConfig(a=0.01, r=0.166, theta=math.pi / 4)
        x, w = np.polynomial.legendre.leggauss(24)
        t, w = 0.5 * (x + 1.0), 0.5 * w
        energy = {}
        for k in (3, 4, 5):
            monkeypatch.setattr(igarad.geometry, "_SHIFT_POWER", k)
            _, F_xi, F_eta, det = make_semicircle_patch(cfg).jacobian_grid(t, t)
            density = ((F_xi**2).sum(-1) + (F_eta**2).sum(-1)) / det
            energy[k] = w @ density @ w
        assert energy[4] < min(energy[3], energy[5])

    @pytest.mark.parametrize("grid_res", [100, 200, 400])
    def test_minimum_mean_ratio_settles_in_window(self, grid_res):
        # the junction corners have a positive limiting mean ratio, so the
        # sampled minimum does not depend on how finely the grid resolves them
        S = make_semicircle_patch(DomainConfig(a=0.01, r=0.166, theta=math.pi / 4))
        _, _, _, mr = S.quality_grid(grid_res)
        assert 0.35 <= mr.min() <= 0.55


class TestQualityMap:
    def test_identity_patch_all_ones(self):
        S = unit_square_patch()
        _, _, _, mr = S.quality_grid(16)
        assert np.max(np.abs(mr - 1.0)) <= 1e-13

    def test_quarter_better_than_narrow(self):
        S4 = make_semicircle_patch(DomainConfig(a=0.01, r=0.166, theta=math.pi / 4))
        S20 = make_semicircle_patch(DomainConfig(a=0.01, r=0.166, theta=math.pi / 20))
        _, _, _, m4 = S4.quality_grid(100)
        _, _, _, m20 = S20.quality_grid(100)
        assert m4.mean() > m20.mean()

    def test_values_in_unit_interval_when_det_positive(self):
        S = make_semicircle_patch(DomainConfig(a=0.01, r=0.1, theta=0.9))
        _, _, _, mr = S.quality_grid(60)
        assert mr.min() > 0.0
        assert mr.max() <= 1.0 + 1e-14

    def test_map_scales_with_radius_and_ignores_aperture(self):
        # what lets the quality-map command draw every map on the unit half-disc
        def grid(a, r):
            return make_semicircle_patch(DomainConfig(a=a, r=r, theta=math.pi / 4)).quality_grid(50)

        _, _, F1, mr1 = grid(0.1, 1.0)
        _, _, F3, mr3 = grid(0.3, 3.0)
        assert np.max(np.abs(mr3 - mr1)) <= 1e-12
        assert np.max(np.abs(F3 - 3.0 * F1)) <= 1e-13
        _, _, F7, mr7 = grid(0.7, 1.0)
        assert np.array_equal(F7, F1) and np.array_equal(mr7, mr1)

    def test_csv_export(self, tmp_path):
        S = unit_square_patch()
        path = tmp_path / "q.csv"
        write_quality_csv(path, S, 8)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (64, 5)
        assert np.allclose(data[:, 4], 1.0, atol=1e-13)
        header = path.read_text().splitlines()[0]
        assert header == "xi,eta,x,y,mean_ratio"


class TestExactConicProperty:
    def test_all_boundary_arcs_on_circle(self):
        # geometry exactness across subdivision angles: every arc sample
        # lies on the circle to roundoff, unlike a polygonal mesh boundary
        for theta in (math.pi / 20, math.pi / 4):
            cfg = DomainConfig(a=0.01, r=0.133, theta=theta)
            _, ct, cl, cr = make_semicircle_boundary(cfg)
            ts = np.linspace(0, 1, 300)
            for c in (ct, cl, cr):
                pts = c.evaluate(ts)
                assert np.max(np.abs(np.hypot(pts[:, 0], pts[:, 1]) - cfg.r)) <= 1e-12


class TestRationalCurve:
    def test_weight_validation(self):
        kv = make_arc((0, 0), 1, 0, 1).kv
        with pytest.raises(ValueError):
            RationalCurve(np.zeros((3, 2)), np.array([1.0, -1.0, 1.0]), kv)

    def test_reparametrized_is_the_composition(self):
        # two Bezier segments; u given by Bernstein coefficients on [0, 1]
        arc = make_arc((0.1, -0.3), 1.7, 0.2, 2.8)
        u = np.array([0.0, 0.0, 0.3, 0.9, 1.0])
        new = arc.reparametrized(u)
        ts = np.linspace(0, 1, 101)
        u_of_t = sum(math.comb(4, k) * ts**k * (1 - ts) ** (4 - k) * u[k] for k in range(5))
        assert new.kv.order == 2 * 4 + 1
        assert np.max(np.abs(new.evaluate(ts) - arc.evaluate(u_of_t))) <= 1e-13
        # a repeated first coefficient stops the curve at s = 0
        assert np.array_equal(new.ctrl[0], new.ctrl[1])
        assert np.hypot(*new.derivative([0.0])[0]) <= 1e-14

    def test_reparametrized_rejects_non_monotone_map(self):
        arc = make_arc((0, 0), 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            arc.reparametrized([0.0, 0.7, 0.5, 1.0])

    def test_reversed_traces_same_points(self):
        arc = make_arc((0, 0), 1.0, 0.2, 2.8)
        rev = arc.reversed()
        ts = np.linspace(0, 1, 50)
        assert np.max(np.abs(rev.evaluate(ts) - arc.evaluate(1 - ts))) <= 1e-13
