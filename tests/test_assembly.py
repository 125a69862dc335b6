"""Assembly: quadrature, dof classification, matrices, system formation."""

import dataclasses
import logging
import math
import os
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dissection import full_tree, renumbered
from forking import blas_at_two_threads, blas_threads, can_split, count_forks  # noqa: F401  a fixture
from igarad import assembly
from igarad.assembly import (
    NonPositiveJacobianError,
    QuadratureRule,
    _halves,
    _tabulate,
    assemble,
    build_system,
    classify_dofs,
    edge_load,
    expand_solution,
    fold_system,
    mirror_fold,
)
from igarad.bspline import KnotVector, TensorProductSpace, basis_matrix, make_uniform_open_knots
from igarad.geometry import CoonsSurface, DomainConfig, coons_patch, make_line, make_semicircle_patch
from igarad.solver import direct_solve


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SEMICIRCLE = make_semicircle_patch(DomainConfig(a=0.01, r=0.133, theta=math.pi / 4))


def unit_square_patch():
    return coons_patch(
        make_line((0, 0), (1, 0)),
        make_line((0, 1), (1, 1)),
        make_line((0, 0), (0, 1)),
        make_line((1, 0), (1, 1)),
    )


def quarter_annulus(turn=0.0):
    """Quarter annulus, radii 1 and 0.5, with the inner arc turned by ``turn``
    radians: rational and curved but nowhere degenerate, so quadratures of
    its integrals converge.  Untwisted it is a polar map, ``F_xi . F_eta = 0``
    everywhere; ``turn=0.3`` puts 16-33 degrees between ``F_xi`` and the
    normal to ``F_eta``, so the cross metric term is far from zero."""
    from igarad.geometry import make_arc

    inner = 0.5 * np.array([[math.cos(turn), math.sin(turn)], [-math.sin(turn), math.cos(turn)]])
    return coons_patch(
        make_arc((0, 0), 1.0, 0.0, math.pi / 2),
        make_arc((0, 0), 0.5, turn, math.pi / 2 + turn),
        make_line((1, 0), inner[0]),
        make_line((0, 1), inner[1]),
    )


def make_space(order, n, m):
    return TensorProductSpace(make_uniform_open_knots(order, n), make_uniform_open_knots(order, m))


def repeated_knots(order, breakpoints, mult):
    """Clamped knot vector with each interior breakpoint repeated ``mult`` times."""
    interior = np.repeat(np.asarray(breakpoints, dtype=float), mult)
    return KnotVector(order, np.concatenate([np.zeros(order), interior, np.ones(order)]))


def element_pattern(space):
    """CSR pattern of all pairs of functions active on a common element."""
    kvx, kve = space.kv_xi, space.kv_eta
    ax = kvx.spans()[:, None] - kvx.degree + np.arange(kvx.order)  # (E1, k1)
    ae = kve.spans()[:, None] - kve.degree + np.arange(kve.order)  # (E2, k2)
    dofs = ae[None, :, :, None] * space.n + ax[:, None, None, :]  # (E1, E2, k2, k1)
    dofs = dofs.reshape(-1, kvx.order * kve.order)
    rows = np.repeat(dofs, dofs.shape[1], axis=1).ravel()
    cols = np.tile(dofs, dofs.shape[1]).ravel()
    ref = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(space.size, space.size)).tocsr()
    ref.sum_duplicates()
    ref.sort_indices()
    return ref


def brute_force_matrices(space, geometry, points=12):
    """Independent dense quadrature of the stiffness and mass entries."""
    ref_x, ref_w = np.polynomial.legendre.leggauss(points)
    kvx, kve = space.kv_xi, space.kv_eta
    xs, ws_x = [], []
    for s in kvx.spans():
        t0, t1 = kvx.knots[s], kvx.knots[s + 1]
        xs.extend(0.5 * (t0 + t1) + 0.5 * (t1 - t0) * ref_x)
        ws_x.extend(0.5 * (t1 - t0) * ref_w)
    es, ws_e = [], []
    for s in kve.spans():
        t0, t1 = kve.knots[s], kve.knots[s + 1]
        es.extend(0.5 * (t0 + t1) + 0.5 * (t1 - t0) * ref_x)
        ws_e.extend(0.5 * (t1 - t0) * ref_w)
    xs, ws_x, es, ws_e = map(np.asarray, (xs, ws_x, es, ws_e))
    bx = basis_matrix(kvx, xs)
    dbx = basis_matrix(kvx, xs, deriv=1)
    be = basis_matrix(kve, es)
    dbe = basis_matrix(kve, es, deriv=1)
    _, F_xi, F_eta, det = geometry.jacobian_grid(xs, es)
    g11 = (F_xi**2).sum(-1)
    g12 = (F_xi * F_eta).sum(-1)
    g22 = (F_eta**2).sum(-1)
    w2d = np.outer(ws_x, ws_e)
    N = space.size
    S = np.zeros((N, N))
    M = np.zeros((N, N))
    for q in range(N):
        iq, jq = space.unflatten(q)
        vq = np.outer(bx[:, iq], be[:, jq])
        gq_x = np.outer(dbx[:, iq], be[:, jq])
        gq_e = np.outer(bx[:, iq], dbe[:, jq])
        for p in range(q, N):
            ip, jp = space.unflatten(p)
            vp = np.outer(bx[:, ip], be[:, jp])
            gp_x = np.outer(dbx[:, ip], be[:, jp])
            gp_e = np.outer(bx[:, ip], dbe[:, jp])
            integ = (
                gq_x * gp_x * g22 - (gq_x * gp_e + gq_e * gp_x) * g12 + gq_e * gp_e * g11
            ) / det
            S[p, q] = S[q, p] = np.sum(integ * w2d)
            M[p, q] = M[q, p] = np.sum(vq * vp * det * w2d)
    return S, M


class TestQuadratureRule:
    def test_exactness_on_monomials(self):
        space = make_space(3, 6, 5)
        quad = QuadratureRule(space)
        # Gauss with q points integrates degree 2q-1 exactly on each span
        for rule, kv in ((quad.xi, space.kv_xi), (quad.eta, space.kv_eta)):
            npts = rule.nodes.shape[1]
            for deg in range(2 * npts):
                approx = np.sum(rule.weights * rule.nodes**deg)
                assert approx == pytest.approx(1.0 / (deg + 1), rel=1e-13)

    def test_under_integration_warning(self):
        space = make_space(4, 6, 6)
        with pytest.warns(UserWarning, match="under-integrates"):
            QuadratureRule(space, points_xi=3, points_eta=5)

    def test_default_points(self):
        space = make_space(4, 6, 6)
        quad = QuadratureRule(space)
        assert quad.points_xi == 5 and quad.points_eta == 5


class TestClassifyDofs:
    def test_aperture_preimages(self):
        cfg = DomainConfig(a=0.01, r=0.133, theta=math.pi / 4)
        space = make_space(4, 40, 30)
        part = classify_dofs(space, cfg)
        assert part.xi_left == pytest.approx(0.462406015, rel=1e-8)
        assert part.xi_right == pytest.approx(0.537593985, rel=1e-8)
        assert part.n_free + part.n_dirichlet == space.size

    def test_paper_index_range_generic_placement(self):
        # when the aperture endpoints fall strictly inside spans the
        # Dirichlet set is exactly the active range of those two spans
        cfg = DomainConfig(a=0.01, r=0.133, theta=math.pi / 4)
        space = make_space(4, 40, 30)
        part = classify_dofs(space, cfg)
        kv = space.kv_xi
        s1, s2 = kv.find_span(part.xi_left), kv.find_span(part.xi_right)
        assert kv.knots[s1] < part.xi_left and kv.knots[s2] < part.xi_right
        expected = np.arange(s1 - kv.degree, s2 + 1)
        assert np.array_equal(part.dirichlet, expected)

    def test_free_bottom_functions_vanish_on_aperture(self):
        cfg = DomainConfig(a=0.3, r=1.0, theta=math.pi / 4)
        space = make_space(3, 18, 9)
        part = classify_dofs(space, cfg)
        xis = np.linspace(part.xi_left, part.xi_right, 50)
        bm = basis_matrix(space.kv_xi, xis)
        bottom_free = [q for q in part.free if q < space.n]
        for q in bottom_free:
            assert np.max(np.abs(bm[:, q])) <= 1e-14

    def test_dirichlet_functions_sum_to_one_on_aperture(self):
        cfg = DomainConfig(a=0.3, r=1.0, theta=math.pi / 4)
        for aligned_bp in (False, True):
            kvx = make_uniform_open_knots(3, 18)
            if aligned_bp:
                kvx = kvx.with_breakpoints([0.35, 0.65])
            space = TensorProductSpace(kvx, make_uniform_open_knots(3, 9))
            part = classify_dofs(space, cfg)
            xis = np.linspace(part.xi_left, part.xi_right, 50)
            bm = basis_matrix(space.kv_xi, xis)
            total = bm[:, part.dirichlet].sum(axis=1)
            assert np.max(np.abs(total - 1.0)) <= 1e-13


class TestAssembleIdentityGeometry:
    def test_single_element_bilinear_matrices(self):
        space = make_space(2, 2, 2)
        mats = assemble(space, unit_square_patch(), QuadratureRule(space))
        m1 = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
        k1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
        S_exact = np.kron(m1, k1) + np.kron(k1, m1)
        M_exact = np.kron(m1, m1)
        assert np.max(np.abs(mats.stiffness.toarray() - S_exact)) <= 1e-14
        assert np.max(np.abs(mats.mass.toarray() - M_exact)) <= 1e-14
        assert mats.mass.diagonal() == pytest.approx(np.full(4, 1 / 9))
        assert mats.stiffness.diagonal() == pytest.approx(np.full(4, 2 / 3))

    def test_two_by_two_elements_against_oracle(self):
        space = make_space(2, 3, 3)
        geometry = unit_square_patch()
        mats = assemble(space, geometry, QuadratureRule(space))
        S_o, M_o = brute_force_matrices(space, geometry)
        scale_s = np.max(np.abs(S_o))
        scale_m = np.max(np.abs(M_o))
        assert np.max(np.abs(mats.stiffness.toarray() - S_o)) / scale_s <= 1e-9
        assert np.max(np.abs(mats.mass.toarray() - M_o)) / scale_m <= 1e-9

    def test_refinement_invariance_polynomial_integrand(self):
        space = make_space(3, 6, 5)
        geometry = unit_square_patch()
        a = assemble(space, geometry, QuadratureRule(space))
        b = assemble(space, geometry, QuadratureRule(space, points_xi=8, points_eta=8))
        for x, y in ((a.stiffness, b.stiffness), (a.mass, b.mass), (a.robin_mass, b.robin_mass)):
            d = (x - y).tocoo()
            rel = np.max(np.abs(d.data)) / np.max(np.abs(y.data)) if d.nnz else 0.0
            assert rel <= 1e-12


class TestAssemblePattern:
    """S and M are filled into the tensor product of the two 1D coupling
    bands, built from the knots; with repeated interior knots that band is
    narrower than ``|i - i'| < order``."""

    SPACES = {
        # cubic: C^0 in xi (multiplicity order - 1), C^1 in eta (multiplicity 2)
        "cubic_c0_c1": (repeated_knots(4, [0.5], 3), repeated_knots(4, [1 / 3, 2 / 3], 2)),
        # quadratic: C^0 in xi (multiplicity 2 = order - 1), simple knots in eta
        "quadratic_c0": (repeated_knots(3, [0.25, 0.6], 2), repeated_knots(3, [0.3, 0.7], 1)),
    }

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_repeated_knots_against_oracle(self, name):
        space = TensorProductSpace(*self.SPACES[name])
        geometry = unit_square_patch()
        mats = assemble(space, geometry, QuadratureRule(space))
        S_o, M_o = brute_force_matrices(space, geometry)
        assert np.max(np.abs(mats.stiffness.toarray() - S_o)) / np.max(np.abs(S_o)) <= 1e-9
        assert np.max(np.abs(mats.mass.toarray() - M_o)) / np.max(np.abs(M_o)) <= 1e-9
        # the |i - i'| < order rule would store couplings these spaces do not have
        band = [np.abs(np.subtract.outer(*2 * [np.arange(kv.num_basis)])) < kv.order
                for kv in (space.kv_eta, space.kv_xi)]
        assert mats.stiffness.nnz < np.count_nonzero(np.kron(*band))

    def test_curved_patch_unequal_orders_against_oracle(self):
        # The cross metric term w12 vanishes on the unit square and on the
        # plain quarter annulus; on the turned one it does not.  Unequal
        # orders, a doubled xi knot and unequal point counts make any swap of
        # the xi/eta factors, of row and column functions or of the two node
        # axes show.  Both rules are converged on these spans.
        space = TensorProductSpace(repeated_knots(3, [0.5], 2), repeated_knots(4, [0.3, 0.6], 1))
        geometry = quarter_annulus(turn=0.3)
        mats = assemble(space, geometry, QuadratureRule(space, points_xi=14, points_eta=17))
        S_o, M_o = brute_force_matrices(space, geometry, points=20)
        assert np.max(np.abs(mats.stiffness.toarray() - S_o)) / np.max(np.abs(S_o)) <= 1e-9
        assert np.max(np.abs(mats.mass.toarray() - M_o)) / np.max(np.abs(M_o)) <= 1e-9
        self.check_pattern(space, mats)

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_pattern_is_element_couplings(self, name):
        space = TensorProductSpace(*self.SPACES[name])
        self.check_pattern(space, assemble(space, unit_square_patch(), QuadratureRule(space)))

    def test_pattern_on_aperture_aligned_desk_mesh(self):
        from igarad.pipeline import RunConfig, discretize

        disc = discretize(RunConfig.from_json(CONFIGS / "desk_radiation_k300.json"))
        assert disc.space.kv_xi.knots.size > 120 + 4  # aligned: breakpoints were inserted
        self.check_pattern(disc.space, assemble(disc.space, disc.geometry, disc.quadrature))

    @staticmethod
    def check_pattern(space, mats):
        ref = element_pattern(space)
        for mat in (mats.stiffness, mats.mass):
            assert mat.has_canonical_format
            assert np.array_equal(mat.indptr, ref.indptr)
            assert np.array_equal(mat.indices, ref.indices)


def assembly_peak_and_output():
    """tracemalloc peak of assembling the 120 x 90 cubic semicircle, with
    the shared mapping that holds S's and M's values (which tracemalloc does
    not see) added, and the bytes of the S, M and E it returns."""
    space = make_space(4, 120, 90)
    quad = QuadratureRule(space)
    tracemalloc.start()
    try:
        mats = assemble(space, SEMICIRCLE, quad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak += mats.stiffness.data.nbytes + mats.mass.data.nbytes
    out = sum(
        m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        for m in (mats.stiffness, mats.mass, mats.robin_mass)
    )
    return peak, out


class TestAssembleMemory:
    def test_peak_is_a_small_multiple_of_the_output(self):
        # No array of all E1 * E2 * order^4 element-local pairs may exist:
        # row, column, stiffness and mass values of all 117 * 87 * 256 of
        # them would take 32 B each, about 7x the output on their own.
        peak, out = assembly_peak_and_output()
        assert peak <= 6 * out

    def test_volume_geometry_is_held_one_slab_at_a_time(self):
        # The Jacobian and metric weights on all 117 * 4 x 87 * 4 volume
        # nodes at once, about 14 arrays of that size, came to 3.3x the
        # output; per slab of xi nodes they are a few hundred kB.
        peak, out = assembly_peak_and_output()
        assert peak <= 2 * out


class Folded:
    """``SEMICIRCLE`` with its Jacobian determinant negated at the xi nodes
    inside the open intervals ``folds``."""

    def __init__(self, *folds):
        self.folds = folds

    def __getattr__(self, name):
        return getattr(SEMICIRCLE, name)

    def jacobian_grid(self, xis, etas, designs=None):
        F, F_xi, F_eta, det = SEMICIRCLE.jacobian_grid(xis, etas, designs)
        folded = np.any([(lo < np.asarray(xis)) & (np.asarray(xis) < hi) for lo, hi in self.folds], axis=0)
        return F, F_xi, F_eta, np.where(folded[:, None], -det, det)


def one_process_assembly(monkeypatch, space, geometry):
    """``assemble`` with one usable core: no child, every slab in order."""
    with monkeypatch.context() as one_core:
        one_core.setattr(os, "sched_getaffinity", lambda pid: {0})
        return assemble(space, geometry, QuadratureRule(space))


class TestAssembleTwoProcesses:
    """The xi slabs in two halves at once, the first in a forked child.  On
    the 60 x 45 cubic mesh the 57 slabs split at 27 and 30: the child sums
    slabs 0-26 (xi < 0.474), this process 30-56 (xi > 0.526), then 27-29."""

    SPACE = make_space(4, 60, 45)

    @pytest.fixture(autouse=True)
    def every_slab(self, monkeypatch):
        """Every slab is summed, as on a problem that is not mirror-symmetric
        (the mirrored split is :class:`TestMirroredAssembly`'s)."""
        monkeypatch.setattr(assembly, "_mirror_asymmetry", lambda *args: "every slab, for the test")

    def test_agrees_with_one_process(self, monkeypatch, caplog):
        """Same pattern; the values differ only on the entries the seam
        slabs share with the halves, whose rows and columns belong to
        2 (order - 1) consecutive xi functions around the middle one, and
        there by roundoff.  The child's peak is logged."""
        space, k = self.SPACE, self.SPACE.kv_xi.order
        one = one_process_assembly(monkeypatch, space, SEMICIRCLE)
        assert one.child_peak_rss_mib is None
        forks = count_forks(monkeypatch)
        with caplog.at_level(logging.INFO, logger="igarad.assembly"):
            two = assemble(space, SEMICIRCLE, QuadratureRule(space))
        assert len(forks) == can_split()
        assert (two.child_peak_rss_mib is not None) == can_split()
        logged = [r.getMessage() for r in caplog.records if r.name == "igarad.assembly"]
        assert logged == [f"assembly: xi slabs 0 to 26 of 57 assembled in a child process, "
                          f"its peak RSS {two.child_peak_rss_mib:.0f} MiB"] * can_split()
        for a, b in ((one.stiffness, two.stiffness), (one.mass, two.mass)):
            assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
            rows = np.repeat(np.arange(space.size), np.diff(a.indptr))
            moved = np.flatnonzero(a.data != b.data)
            xi_functions = np.concatenate([rows[moved], a.indices[moved], [space.n // 2]]) % space.n
            assert np.ptp(xi_functions) < 2 * (k - 1)
            assert np.abs(a.data - b.data).max() <= 1e-15 * np.abs(a.data).max()
        assert (one.robin_mass != two.robin_mass).nnz == 0

    def test_two_forked_assemblies_are_bit_identical(self, monkeypatch):
        forks = count_forks(monkeypatch)
        first, second = (assemble(self.SPACE, SEMICIRCLE, QuadratureRule(self.SPACE)) for _ in range(2))
        assert len(forks) == 2 * can_split()
        for a, b in ((first.stiffness, second.stiffness), (first.mass, second.mass)):
            assert np.array_equal(a.data, b.data)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_halves_share_no_xi_function(self, data):
        """The two halves write disjoint rows, and the seam between them is
        as short as that allows: on up to 40 breakpoints of a 1/60 grid,
        each repeated up to the degree."""
        order = data.draw(st.integers(2, 5))
        breaks = sorted(data.draw(st.lists(st.integers(1, 59), min_size=1, max_size=40, unique=True)))
        mult = [data.draw(st.integers(1, order - 1)) for _ in breaks]
        kv = repeated_knots(order, np.asarray(breaks) / 60, mult)
        first = _tabulate(kv, QuadratureRule(TensorProductSpace(kv, kv)).xi)[2]
        h, g = _halves(first, kv.order)
        if g == first.size:
            return
        assert 0 < h <= g < first.size
        assert first[h - 1] + kv.order <= first[g]  # child's last function < parent's first
        assert first[h - 1] + kv.order > first[g - 1]  # slab g - 1 still shares one with slab h - 1
        assert 0 <= (first.size - g) - h <= kv.order - 1  # this process's half is never the smaller

    @pytest.mark.skipif(not can_split(), reason="no settable BLAS thread count or one core: no child process")
    @pytest.mark.parametrize(
        "folds",
        [[(0.2, 0.3)], [(0.7, 0.8)], [(0.2, 0.3), (0.6, 0.9)], [(0.5, 0.8)]],
        ids=["child", "parent", "both", "seam_and_parent"],
    )
    def test_fold_raises_what_one_process_raises(self, monkeypatch, blas_at_two_threads, folds):
        """The error of the first failing slab, wherever the fold lies; no
        child is left, and the BLAS thread count is what it was."""
        geometry = Folded(*folds)
        threads = blas_threads()
        with pytest.raises(NonPositiveJacobianError) as in_process:
            one_process_assembly(monkeypatch, self.SPACE, geometry)
        forks = count_forks(monkeypatch)
        with pytest.raises(NonPositiveJacobianError) as forked:
            assemble(self.SPACE, geometry, QuadratureRule(self.SPACE))
        assert len(forks) == 1
        expected, got = in_process.value, forked.value
        assert (got.xi, got.eta, got.det, str(got)) == (expected.xi, expected.eta, expected.det, str(expected))
        assert folds[0][0] < got.xi < folds[0][1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert blas_threads() == threads


def every_slab_assembly(monkeypatch, space, geometry):
    """``assemble`` as on a problem that is not mirror-symmetric: every slab summed."""
    with monkeypatch.context() as asymmetric:
        asymmetric.setattr(assembly, "_mirror_asymmetry", lambda *args: "every slab, for the test")
        return assemble(space, geometry, QuadratureRule(space))


def mirror_of(space):
    """Each flat dof's mirror under xi -> 1 - xi."""
    q = np.arange(space.size)
    return q + space.n - 1 - 2 * (q % space.n)


class TestMirroredAssembly:
    """On a mirror-symmetric problem only the slabs of the left xi functions
    are summed and the right rows are copied from their mirrors."""

    @pytest.fixture(scope="class", params=[(40, 4, 42), (41, 4, 43), (40, 20, 43)],
                    ids=["even_n", "odd_n", "theta_pi20"])
    def desk_mesh(self, request):
        """Desk physics on an ``n x 30`` mesh: 42 or 43 xi functions at theta =
        pi/4, and 43 at theta = pi/20, whose patch has a knot at xi = 1/2."""
        from igarad.pipeline import RunConfig, discretize

        n, theta_div, functions = request.param
        disc = discretize(RunConfig.from_json(CONFIGS / "desk_radiation_k300.json", n=n, m=30,
                                              theta=math.pi / theta_div))
        assert disc.space.n == functions
        assert theta_div == 4 or 0.5 in disc.space.kv_xi.knots
        return disc

    def test_within_roundoff_of_every_slab(self, monkeypatch, desk_mesh):
        """The same pattern; S and M within 1e-12 of the largest entry of the
        all-slab assembly (2e-14 and 5e-15 measured)."""
        disc = desk_mesh
        assert assembly._mirror_asymmetry(disc.space, disc.geometry, disc.quadrature) is None
        mirrored = assemble(disc.space, disc.geometry, disc.quadrature)
        every = every_slab_assembly(monkeypatch, disc.space, disc.geometry)
        for a, b in ((mirrored.stiffness, every.stiffness), (mirrored.mass, every.mass)):
            assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
            assert np.max(np.abs(a.data - b.data)) <= 1e-12 * np.max(np.abs(b.data))
        assert (mirrored.robin_mass != every.robin_mass).nnz == 0

    def test_exactly_mirror_symmetric(self, desk_mesh):
        """``X[p, q] == X[Rp, Rq]`` bit for bit for S and M, the middle
        column of an odd ``n`` included."""
        disc = desk_mesh
        mats = assemble(disc.space, disc.geometry, disc.quadrature)
        R = mirror_of(disc.space)
        for X in (mats.stiffness, mats.mass):
            mirrored = X[R][:, R].tocsr()
            mirrored.sort_indices()
            assert np.array_equal(mirrored.indptr, X.indptr) and np.array_equal(mirrored.indices, X.indices)
            assert np.array_equal(mirrored.data, X.data)

    def test_two_processes_agree_with_one(self, monkeypatch, desk_mesh):
        """The left slabs split in two halves agree with one process to
        roundoff, on the rows the seam slabs share with the halves."""
        disc = desk_mesh
        one = one_process_assembly(monkeypatch, disc.space, disc.geometry)
        two = assemble(disc.space, disc.geometry, disc.quadrature)
        for a, b in ((one.stiffness, two.stiffness), (one.mass, two.mass)):
            assert np.abs(a.data - b.data).max() <= 1e-15 * np.abs(a.data).max()

    def test_moved_control_point_sums_every_slab(self, monkeypatch):
        """One control point moved by 1e-6: the patch is not symmetric, every
        slab is summed and the result is the all-slab assembly, bit for bit."""
        space = make_space(4, 20, 12)
        ctrl = SEMICIRCLE.ctrl.copy()
        ctrl[1, 2, 0] += 1e-6
        moved = CoonsSurface(ctrl, SEMICIRCLE.weights, SEMICIRCLE.kv_xi, SEMICIRCLE.kv_eta)
        quad = QuadratureRule(space)
        assert assembly._mirror_asymmetry(space, SEMICIRCLE, quad) is None
        assert assembly._mirror_asymmetry(space, moved, quad) == "the patch is not mirror-symmetric in x"
        calls = []
        jacobian_grid = CoonsSurface.jacobian_grid
        monkeypatch.setattr(CoonsSurface, "jacobian_grid", lambda *a, **k: calls.append(0) or jacobian_grid(*a, **k))
        mats = one_process_assembly(monkeypatch, space, moved)
        assert len(calls) == quad.xi.nodes.shape[0] + 3  # every slab and the three Robin edges
        with monkeypatch.context() as asymmetric:
            asymmetric.setattr(assembly, "_mirror_asymmetry", lambda *args: "every slab, for the test")
            every = one_process_assembly(monkeypatch, space, moved)
        for a, b in ((mats.stiffness, every.stiffness), (mats.mass, every.mass)):
            assert np.array_equal(a.data, b.data)
        R = mirror_of(space)
        assert (mats.stiffness[R][:, R] != mats.stiffness).nnz > 0

    def test_nonpositive_jacobian_raises_what_every_slab_raises(self, monkeypatch):
        """A mirror-symmetric bowtie, det = 2 - 4 eta: the mirrored assembly
        raises the all-slab assembly's error, the same slab and point."""
        bowtie = coons_patch(
            make_line((-1, 0), (1, 0)),
            make_line((1, 1), (-1, 1)),
            make_line((-1, 0), (1, 1)),
            make_line((1, 0), (-1, 1)),
        )
        space = make_space(3, 30, 12)
        assert assembly._mirror_asymmetry(space, bowtie, QuadratureRule(space)) is None
        with pytest.raises(NonPositiveJacobianError) as mirrored:
            assemble(space, bowtie, QuadratureRule(space))
        with pytest.raises(NonPositiveJacobianError) as every:
            every_slab_assembly(monkeypatch, space, bowtie)
        got, expected = mirrored.value, every.value
        assert (got.xi, got.eta, got.det, str(got)) == (expected.xi, expected.eta, expected.det, str(expected))
        assert got.det <= 0.0 and got.eta > 0.5


@st.composite
def knot_vectors(draw):
    """Order 2-5, up to four interior breakpoints on a 1/20 grid, each
    repeated up to the degree."""
    order = draw(st.integers(2, 5))
    breaks = sorted(draw(st.lists(st.integers(1, 19), max_size=4, unique=True)))
    mult = [draw(st.integers(1, order - 1)) for _ in breaks]
    return repeated_knots(order, np.asarray(breaks) / 20, mult)


class TestAssembleProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(kv_xi=knot_vectors(), kv_eta=knot_vectors())
    def test_unit_square_totals(self, kv_xi, kv_eta):
        # total mass is the area and total Robin mass the length of the
        # three impedance edges, by partition of unity
        space = TensorProductSpace(kv_xi, kv_eta)
        mats = assemble(space, unit_square_patch(), QuadratureRule(space))
        assert abs(mats.mass.sum() - 1.0) <= 1e-13
        assert abs(mats.robin_mass.sum() - 3.0) <= 1e-13

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(kv_xi=knot_vectors(), kv_eta=knot_vectors())
    def test_stiffness_annihilates_constants(self, kv_xi, kv_eta):
        self.check_constants_in_kernel(TensorProductSpace(kv_xi, kv_eta), SEMICIRCLE)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(kv_xi=knot_vectors(), kv_eta=knot_vectors())
    def test_stiffness_annihilates_constants_on_quarter_annulus(self, kv_xi, kv_eta):
        self.check_constants_in_kernel(TensorProductSpace(kv_xi, kv_eta), quarter_annulus(turn=0.3))

    @staticmethod
    def check_constants_in_kernel(space, geometry):
        mats = assemble(space, geometry, QuadratureRule(space))
        S = mats.stiffness
        assert np.max(np.abs(S @ np.ones(space.size))) <= 1e-12 * np.max(np.abs(S.data))


@pytest.fixture(scope="module")
def semi_setup():
    cfg = DomainConfig(a=0.01, r=0.133, theta=math.pi / 4)
    geometry = make_semicircle_patch(cfg)
    space = make_space(4, 16, 12)
    quad = QuadratureRule(space)
    return cfg, geometry, space, quad, assemble(space, geometry, quad)


@pytest.fixture(scope="module")
def sys_setup():
    cfg = DomainConfig(a=0.3, r=1.0, theta=math.pi / 4)
    geometry = make_semicircle_patch(cfg)
    space = make_space(3, 14, 10)
    quad = QuadratureRule(space)
    return cfg, geometry, space, quad, assemble(space, geometry, quad)


class TestAssembleSemicircle:

    def test_total_mass_is_domain_area(self, semi_setup):
        cfg, _, _, _, mats = semi_setup
        area = math.pi * cfg.r**2 / 2
        assert abs(mats.mass.sum() - area) <= 1e-10

    def test_total_robin_mass_is_arc_length(self, semi_setup):
        cfg, _, _, _, mats = semi_setup
        assert abs(mats.robin_mass.sum() - math.pi * cfg.r) <= 1e-8

    def test_matrices_symmetric(self, semi_setup):
        _, _, _, _, mats = semi_setup
        for mat in (mats.stiffness, mats.mass, mats.robin_mass):
            d = (mat - mat.T).tocoo()
            asym = np.max(np.abs(d.data)) if d.nnz else 0.0
            assert asym <= 1e-13 * max(1.0, np.max(np.abs(mat.data)))

    def test_mass_positive_definite_dense_oracle(self, semi_setup):
        _, _, space, _, mats = semi_setup
        assert space.size <= 400
        eigs = np.linalg.eigvalsh(mats.mass.toarray())
        assert eigs.min() > 0.0

    def test_robin_rows_vanish_for_interior_dofs(self, semi_setup):
        _, _, space, _, mats = semi_setup
        E = mats.robin_mass.tocsr()
        boundary = set()
        for j in range(space.m):
            boundary.add(space.flat_index(0, j))
            boundary.add(space.flat_index(space.n - 1, j))
        for i in range(space.n):
            boundary.add(space.flat_index(i, space.m - 1))
        nz_rows = np.nonzero(np.diff(E.indptr))[0]
        assert set(nz_rows.tolist()) <= boundary

    def test_sparsity_bound(self, semi_setup):
        _, _, space, _, mats = semi_setup
        p = max(space.kv_xi.degree, space.kv_eta.degree)
        frac = mats.stiffness.nnz / space.size**2
        assert frac <= (2 * p + 1) ** 2 / space.size

    def test_galerkin_consistency_energy_oracle(self):
        # w^T S w must equal the physical Dirichlet energy of the spline
        # field, computed here by direct high-order quadrature.  Uses a
        # quarter annulus: rational and curved but nowhere degenerate, so
        # both quadratures converge (the semicircle patch has singular
        # metric corners where no fixed rule reaches 1e-9).
        geometry = quarter_annulus()
        space = TensorProductSpace(
            make_uniform_open_knots(3, 4), make_uniform_open_knots(3, 3)
        )  # 2 x 1 elements
        # both sides use converged rules: on spans this coarse the default
        # rule's rational-integrand error (~1e-5) would mask formula bugs
        mats = assemble(space, geometry, QuadratureRule(space, points_xi=24, points_eta=24))
        rng = np.random.default_rng(2)
        w = rng.standard_normal(space.size)
        quad_form = float(w @ (mats.stiffness @ w))
        ref_x, ref_w = np.polynomial.legendre.leggauss(24)
        energy = 0.0
        kvx, kve = space.kv_xi, space.kv_eta
        for sx in kvx.spans():
            t0, t1 = kvx.knots[sx], kvx.knots[sx + 1]
            xs = 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * ref_x
            wx = 0.5 * (t1 - t0) * ref_w
            for se in kve.spans():
                u0, u1 = kve.knots[se], kve.knots[se + 1]
                es = 0.5 * (u0 + u1) + 0.5 * (u1 - u0) * ref_x
                we = 0.5 * (u1 - u0) * ref_w
                grid = w.reshape(space.m, space.n).T
                bx = basis_matrix(kvx, xs)
                dbx = basis_matrix(kvx, xs, deriv=1)
                be = basis_matrix(kve, es)
                dbe = basis_matrix(kve, es, deriv=1)
                du_dxi = dbx @ grid @ be.T
                du_deta = bx @ grid @ dbe.T
                _, F_xi, F_eta, det = geometry.jacobian_grid(xs, es)
                gx = (F_eta[..., 1] * du_dxi - F_xi[..., 1] * du_deta) / det
                gy = (-F_eta[..., 0] * du_dxi + F_xi[..., 0] * du_deta) / det
                energy += np.sum((gx**2 + gy**2) * det * np.outer(wx, we))
        assert quad_form == pytest.approx(energy, rel=1e-9)

    def test_refinement_invariance_smooth_parts(self):
        # det J vanishes at the two top corners (the map is like z^2 there),
        # and the pulled-back metric has a direction-dependent limit, so the
        # stiffness entries of corner-supported dofs converge slowly in
        # quadrature; away from them (and for mass and boundary mass
        # globally) doubling the rule leaves entries unchanged to tight
        # tolerance.
        cfg = DomainConfig(a=0.01, r=0.133, theta=math.pi / 4)
        geometry = make_semicircle_patch(cfg)
        space = make_space(4, 48, 36)
        a = assemble(space, geometry, QuadratureRule(space))
        b = assemble(space, geometry, QuadratureRule(space, points_xi=10, points_eta=10))
        for x, y, tol in ((a.mass, b.mass, 1e-10), (a.robin_mass, b.robin_mass, 1e-12)):
            d = (x - y).tocoo()
            rel = np.max(np.abs(d.data)) / np.max(np.abs(y.data)) if d.nnz else 0.0
            assert rel <= tol
        corner = set()
        k = space.kv_xi.order
        for i in list(range(k + 1)) + list(range(space.n - k - 1, space.n)):
            for j in range(space.m - k - 1, space.m):
                corner.add(space.flat_index(i, j))
        d = (a.stiffness - b.stiffness).tocoo()
        ref = np.max(np.abs(b.stiffness.data))
        worst = max(
            (abs(v) for i, j, v in zip(d.row, d.col, d.data) if i not in corner and j not in corner),
            default=0.0,
        )
        assert worst / ref <= 1e-8

    def test_nonpositive_jacobian_detected(self):
        # fold the square by swapping two corners: det changes sign
        bowtie = coons_patch(
            make_line((0, 0), (1, 0)),
            make_line((1, 1), (0, 1)),
            make_line((0, 0), (1, 1)),
            make_line((1, 0), (0, 1)),
        )
        space = make_space(2, 3, 3)
        with pytest.raises(NonPositiveJacobianError) as err:
            assemble(space, bowtie, QuadratureRule(space))
        assert 0.0 <= err.value.xi <= 1.0
        assert err.value.det <= 0.0


class TestBuildSystem:

    def test_zero_wavenumber_zero_amplitude(self, sys_setup):
        _, _, space, _, mats = sys_setup
        part = classify_dofs(space, DomainConfig(a=0.3, r=1.0, theta=math.pi / 4))
        A, b = build_system(mats, part, 0.0, 0.0)
        assert np.all(b == 0.0)
        x = direct_solve(A, b)
        assert np.max(np.abs(x)) == 0.0

    def test_system_symmetric_not_hermitian(self, sys_setup):
        cfg, _, space, _, mats = sys_setup
        part = classify_dofs(space, cfg)
        A, _ = build_system(mats, part, 40.0, 1.0)
        d = (A - A.T).tocoo()
        assert (np.max(np.abs(d.data)) if d.nnz else 0.0) <= 1e-13
        h = (A - A.conj().T).tocoo()
        assert np.max(np.abs(h.data)) > 0.0

    def test_post_solve_dirichlet_value(self, sys_setup):
        cfg, geometry, space, _, mats = sys_setup
        part = classify_dofs(space, cfg)
        k, amplitude = 40.0, 1.0 + 0.0j
        A, b = build_system(mats, part, k, amplitude)
        alpha = expand_solution(part, direct_solve(A, b), amplitude)
        xis = np.linspace(part.xi_left, part.xi_right, 100)
        vals = space.evaluate(alpha, xis, [0.0])[:, 0]
        assert np.max(np.abs(vals - amplitude)) <= 1e-10

    def test_empty_dirichlet_rejected(self, sys_setup):
        from igarad.assembly import DofPartition

        _, _, space, _, mats = sys_setup
        empty = DofPartition(
            dirichlet=np.array([], dtype=np.int64),
            xi_left=0.4,
            xi_right=0.6,
            free=np.arange(space.size),
        )
        with pytest.raises(ValueError, match="Dirichlet"):
            build_system(mats, empty, 10.0, 1.0)


class TestBuildSystemGather:
    """``build_system`` gathers A and b from the shared pattern of S and M;
    the scipy expression it replaces is the oracle, bit for bit."""

    @pytest.mark.parametrize("mult", [3, 1], ids=["cubic_c0", "cubic_c2"])
    def test_matches_scipy_restriction(self, mult):
        cfg = DomainConfig(a=0.3, r=1.0, theta=math.pi / 4)
        kvx = repeated_knots(4, np.arange(1, 10) / 10, mult).with_breakpoints(cfg.aperture_preimage)
        space = TensorProductSpace(kvx, repeated_knots(4, np.arange(1, 6) / 6, mult))
        quad = QuadratureRule(space)
        mats = assemble(space, make_semicircle_patch(cfg), quad)
        part = classify_dofs(space, cfg)
        rng = np.random.default_rng(3)
        values = rng.standard_normal(part.n_dirichlet) + 1j * rng.standard_normal(part.n_dirichlet)
        load = rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)
        k = 25.0
        A, b = build_system(mats, part, k, values, load=load)

        S, M, E = mats.stiffness, mats.mass, mats.robin_mass
        full = (S - k**2 * M + 1j * k * E).tocsr()
        free, diri = part.free, part.dirichlet
        ref = full[free][:, free].tocsr()
        ref.sort_indices()
        ref_b = -full[free][:, diri] @ values + load[free]
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        assert np.array_equal(A.data, ref.data)
        assert np.array_equal(b, ref_b)


class TestNestedDissection:
    @pytest.mark.parametrize("order, n, m", [(2, 9, 7), (4, 40, 23), (6, 31, 40)])
    def test_ordering_is_a_permutation_of_the_free_dofs(self, order, n, m):
        """The grid ordering covers every dof once; the free dofs follow it
        with the Dirichlet dofs left out."""
        from igarad.assembly import nested_dissection

        cfg = DomainConfig(a=0.3, r=1.0, theta=math.pi / 4)
        space = make_space(order, n, m)
        part = classify_dofs(space, cfg)
        tree, perm = full_tree(space, part)
        grid_order = nested_dissection(space.n, space.m, order, order).order
        assert np.array_equal(np.sort(grid_order), np.arange(space.size))
        assert np.array_equal(tree.order, grid_order[~np.isin(grid_order, part.dirichlet)])
        assert np.array_equal(part.free[perm], tree.order)

    @pytest.mark.parametrize("order, n, m", [(2, 9, 7), (4, 40, 23), (6, 31, 40)])
    def test_tree_postorder_is_the_free_numbering(self, order, n, m):
        """The free dofs' tree: its postorder numbers every free dof once,
        every node hangs below a later one, and every subtree owns one
        contiguous range that ends with its root's own dofs."""
        cfg = DomainConfig(a=0.3, r=1.0, theta=math.pi / 4)
        space = make_space(order, n, m)
        part = classify_dofs(space, cfg)
        tree, _ = full_tree(space, part)
        assert np.array_equal(np.sort(tree.order), part.free)
        nodes = tree.parent.size
        assert tree.offsets[0] == 0 and tree.offsets[-1] == part.n_free
        assert np.all(np.diff(tree.offsets) >= 0)
        assert tree.parent[-1] == -1 and np.all(tree.parent[:-1] > np.arange(nodes - 1))
        # the subtree of p is the nodes lo[p]..p: each of them has p as an ancestor
        lo = np.arange(nodes)
        for q in range(nodes - 1):
            lo[tree.parent[q]] = min(lo[tree.parent[q]], lo[q])
        for p in range(nodes):
            for q in range(lo[p], p):
                while q < p:
                    q = tree.parent[q]
                assert q == p
        # every separator has the two halves it splits as children
        children = np.bincount(tree.parent[:-1], minlength=tree.parent.size)
        assert set(np.unique(children)) <= {0, 2}

    def test_separators_split_the_coupling_graph(self):
        """Numbered last, a separator's lines disconnect the two halves: no
        entry of A couples a dof of the first half with one of the second."""
        cfg = DomainConfig(a=0.3, r=1.0, theta=math.pi / 4)
        space = make_space(4, 40, 20)
        part = classify_dofs(space, cfg)
        tree, perm = full_tree(space, part)
        mats = assemble(space, make_semicircle_patch(cfg), QuadratureRule(space))
        A = renumbered(build_system(mats, part, 10.0, 1.0)[0], perm)
        # the first cut is across xi (the longer side): 3 lines in the middle
        i = tree.order % space.n  # xi index of each row of A
        a = (space.n - 3) // 2
        left, right = np.flatnonzero(i < a), np.flatnonzero(i >= a + 3)
        assert abs(A[left][:, right]).sum() == 0.0
        separator = np.flatnonzero((i >= a) & (i < a + 3))
        assert separator.min() == part.n_free - separator.size
        assert left.max() < right.min()


def mirror_setup(order, n, m):
    """An aperture-aligned ``n x m`` space (``n + 2`` xi functions) on the
    semicircle, its partition and its even and odd mirror folds."""
    cfg = DomainConfig(a=0.3, r=1.0, theta=math.pi / 4)
    geometry = make_semicircle_patch(cfg)
    kv_xi = make_uniform_open_knots(order, n).with_breakpoints(cfg.aperture_preimage)
    space = TensorProductSpace(kv_xi, make_uniform_open_knots(order, m))
    part = classify_dofs(space, cfg)
    return cfg, geometry, space, part, mirror_fold(space, part, geometry)


class TestMirrorFold:
    @pytest.mark.parametrize("order, n, m", [(3, 20, 12), (4, 21, 12)], ids=["even", "odd"])
    def test_map_pairs_each_free_dof_with_its_mirror(self, order, n, m):
        """T maps each unknown to a free dof in the left columns and to its
        mirror, one dof on the middle column of an odd ``n``; the tree
        numbers the unknowns.  The odd map is 1 on the left dof and -1 on
        its mirror, and leaves out the middle column, with the same tree
        less that column."""
        _, _, space, part, (fold, odd) = mirror_setup(order, n, m)
        assert space.n % 2 == n % 2
        T = fold.matrix.toarray()
        assert np.array_equal(T.sum(axis=1), np.ones(part.n_free))  # one unknown per free dof
        i = fold.tree.order % space.n
        assert np.all(2 * i <= space.n - 1)
        left = part.free == fold.tree.order[fold.unknown]  # the free dofs that are their unknown's own
        mirror = fold.tree.order + space.n - 1 - 2 * i
        assert np.array_equal(part.free[~left], mirror[fold.unknown[~left]])
        middle = 2 * i == space.n - 1
        assert middle.sum() == (space.m - 1 if space.n % 2 else 0)  # the middle's bottom dof is Dirichlet
        assert np.array_equal(T.sum(axis=0), np.where(middle, 1, 2))
        assert fold.n_unknowns == fold.tree.order.size == (part.n_free + middle.sum()) // 2

        assert np.array_equal(odd.tree.order, fold.tree.order[~middle])
        assert np.array_equal(odd.tree.parent, fold.tree.parent)
        T_odd = odd.matrix.toarray()
        on_middle = 2 * (part.free % space.n) == space.n - 1
        assert np.array_equal(np.abs(T_odd).sum(axis=1), np.where(on_middle, 0, 1))
        assert np.array_equal(T_odd.sum(axis=1), np.where(on_middle, 0, np.where(left, 1, -1)))
        assert np.array_equal(T_odd, T[:, ~middle] * np.where(left, 1, -1)[:, None] * ~on_middle[:, None])

    @pytest.mark.parametrize("order, n, m", [(3, 20, 12), (4, 21, 12)], ids=["even", "odd"])
    def test_folded_blocks_are_the_products(self, order, n, m):
        """The folded P is ``T^T (A - i beta M) T`` as sparse products form
        it, with sorted indices, for the even and the odd map: its real and
        imaginary parts each to roundoff, at k = 10 and at k = 0, where it
        is ``T^T (S - i M) T``.  The two maps' unknowns number every free
        dof once, and no block of A joins them but roundoff (E is
        mirror-symmetric only to it)."""
        _, geometry, space, part, folds = mirror_setup(order, n, m)
        mats = assemble(space, geometry, QuadratureRule(space))
        mass = mats.mass[part.free][:, part.free]
        mass.sort_indices()  # an unsorted index set leaves the rows unsorted
        assert folds[0].n_unknowns + folds[1].n_unknowns == part.n_free
        for k, beta in ((10.0, 1.0 / 30.0), (0.0, 1.0)):
            A, _ = build_system(mats, part, k, 1.0)
            assert abs(folds[0].matrix.T @ A @ folds[1].matrix).max() <= 1e-15 * abs(A).max()
            for fold in folds:
                T = fold.matrix
                folded = fold_system(mats, part, fold, k, beta)
                ref = (T.T @ (A - 1j * beta * mass) @ T).tocsr()
                ref.sort_indices()
                assert folded.has_sorted_indices
                assert np.array_equal(folded.indptr, ref.indptr) and np.array_equal(folded.indices, ref.indices)
                for component in (np.real, np.imag):
                    error = np.max(np.abs(component(folded.data - ref.data)))
                    assert error <= 1e-14 * np.max(np.abs(component(ref.data)))

    @pytest.mark.parametrize("a, r, n", [(0.3, 1.0, 23), (0.3 * 0.35, 0.35, 143)], ids=["convergence", "pollution"])
    def test_aperture_end_one_ulp_from_a_knot(self, a, r, n):
        """The studies' domains with 20 k uniform cubic elements: one
        aperture end equals a uniform knot, the other misses its knot by one
        ulp.  That knot moves onto the end, so no span is shorter than
        1e-10 (not 5.6e-17) and the problem stays mirror-symmetric."""
        from igarad.pipeline import build_discretization

        cfg = DomainConfig(a=a, r=r, theta=math.pi / 4)
        geometry = make_semicircle_patch(cfg)
        disc = build_discretization(cfg, geometry, 4, 4, n, n // 2)
        assert np.min(np.diff(disc.space.kv_xi.breakpoints)) > 1e-10
        assert disc.space.n == n
        mirror_fold(disc.space, disc.partition, geometry)

    def test_asymmetric_knots_rejected(self):
        cfg, geometry, space, part, _ = mirror_setup(4, 20, 12)
        knots = space.kv_xi.knots.copy()
        knots[6] += 1e-6
        nudged = TensorProductSpace(KnotVector(4, knots), space.kv_eta)
        with pytest.raises(ValueError, match="xi knots are not mirror-symmetric"):
            mirror_fold(nudged, classify_dofs(nudged, cfg), geometry)

    def test_asymmetric_dirichlet_set_rejected(self):
        _, geometry, space, part, _ = mirror_setup(4, 20, 12)
        lopsided = dataclasses.replace(part, dirichlet=part.dirichlet[:-1])
        with pytest.raises(ValueError, match="Dirichlet set is not mirror-symmetric"):
            mirror_fold(space, lopsided, geometry)

    def test_asymmetric_patch_rejected(self):
        _, geometry, space, part, _ = mirror_setup(4, 20, 12)
        ctrl = geometry.ctrl.copy()
        ctrl[1, 2, 0] += 1e-6
        moved = CoonsSurface(ctrl, geometry.weights, geometry.kv_xi, geometry.kv_eta)
        with pytest.raises(ValueError, match="patch is not mirror-symmetric"):
            mirror_fold(space, part, moved)


class TestEdgeLoad:
    def test_constant_data_integrates_edge_length(self):
        # sum of the load vector for g = 1 is the edge arc length
        cfg = DomainConfig(a=0.01, r=0.5, theta=math.pi / 4)
        geometry = make_semicircle_patch(cfg)
        space = make_space(3, 8, 8)
        quad = QuadratureRule(space)
        one = lambda pts, normals: np.ones(pts.shape[0], dtype=complex)
        total = 0.0 + 0.0j
        for edge in ("left", "top", "right"):
            total += edge_load(space, geometry, quad, edge, one).sum()
        assert total.real == pytest.approx(math.pi * cfg.r, rel=1e-9)
        bottom = edge_load(space, geometry, quad, "bottom", one).sum()
        assert bottom.real == pytest.approx(2 * cfg.r, rel=1e-12)

    def test_outward_normals(self):
        cfg = DomainConfig(a=0.01, r=1.0, theta=math.pi / 4)
        geometry = make_semicircle_patch(cfg)
        space = make_space(3, 8, 8)
        quad = QuadratureRule(space)
        seen = {}

        def capture(edge):
            def fn(pts, normals):
                seen[edge] = (pts.copy(), normals.copy())
                return np.zeros(pts.shape[0])

            return fn

        for edge in ("left", "top", "right", "bottom"):
            edge_load(space, geometry, quad, edge, capture(edge))
        for edge in ("left", "top", "right"):
            pts, normals = seen[edge]
            radial = pts / np.hypot(pts[:, 0], pts[:, 1])[:, None]
            assert np.max(np.abs(normals - radial)) < 1e-12
        _, normals = seen["bottom"]
        assert np.max(np.abs(normals - [0.0, -1.0])) < 1e-12

    def test_outward_normals_unit_square(self):
        geometry = unit_square_patch()
        space = make_space(2, 4, 4)
        quad = QuadratureRule(space)
        expected = {
            "left": (-1.0, 0.0),
            "right": (1.0, 0.0),
            "bottom": (0.0, -1.0),
            "top": (0.0, 1.0),
        }
        for edge, ref in expected.items():
            seen = {}

            def fn(pts, normals, _edge=edge, _seen=seen):
                _seen["n"] = normals.copy()
                return np.zeros(pts.shape[0])

            edge_load(space, geometry, quad, edge, fn)
            assert np.max(np.abs(seen["n"] - ref)) < 1e-13

    def test_restricted_range(self):
        cfg = DomainConfig(a=0.25, r=1.0, theta=math.pi / 4)
        geometry = make_semicircle_patch(cfg)
        space = make_space(3, 9, 6)
        quad = QuadratureRule(space)
        one = lambda pts, normals: np.ones(pts.shape[0], dtype=complex)
        part = classify_dofs(space, cfg)
        left = edge_load(space, geometry, quad, "bottom", one, t_range=(0.0, part.xi_left))
        right = edge_load(space, geometry, quad, "bottom", one, t_range=(part.xi_right, 1.0))
        # each baffle side has physical length r - a
        assert left.sum().real == pytest.approx(cfg.r - cfg.a, rel=1e-12)
        assert right.sum().real == pytest.approx(cfg.r - cfg.a, rel=1e-12)
