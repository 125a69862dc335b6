"""Solver: restarted GMRES, shifted-Laplacian preconditioner, direct solve."""

import os
import signal
import tracemalloc

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from forking import blas_at_two_threads, blas_threads, can_split, count_forks  # noqa: F401  a fixture
from igarad import solver
from igarad.solver import (
    FrontalLdlt,
    GmresConfig,
    _SuperLU,
    as_csr,
    build_cslp,
    direct_solve,
    frontal_storage,
    gmres,
    load_matrix_market,
    load_vector,
    save_matrix_market,
    save_vector,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_complex_system(rng, n=50, diag=5.0):
    A = diag * np.eye(n) + 0.5 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return sp.csr_matrix(A), b


class TestGmres:
    def test_identity_single_iteration(self):
        b = np.arange(1.0, 11.0) + 0j
        x, rep = gmres(sp.identity(10, format="csr", dtype=complex), b)
        assert rep.inner_iterations == 1
        assert rep.outer_iterations == 1
        assert np.allclose(x, b)

    def test_against_dense_oracle(self, rng):
        A, b = random_complex_system(rng)
        x_star = np.linalg.solve(A.toarray(), b)
        x, rep = gmres(A, b, None, GmresConfig(restart=50, tol=1e-10))
        assert rep.converged
        assert np.linalg.norm(x - x_star) / np.linalg.norm(x_star) <= 1e-8

    def test_residual_monotone_within_cycle(self, rng):
        n = 120
        A = sp.csr_matrix(np.diag(np.linspace(1, 80, n)).astype(complex) + 0.2 * rng.standard_normal((n, n)))
        b = (rng.standard_normal(n) + 0j)
        _, rep = gmres(A, b, None, GmresConfig(restart=25, tol=1e-9, max_outer=50))
        assert rep.converged
        hist = np.asarray(rep.history)
        assert hist.size == rep.inner_iterations == sum(rep.cycle_lengths)
        assert len(rep.cycle_lengths) == rep.outer_iterations > 1
        # within each restart cycle the estimate never increases
        for h in np.split(hist, np.cumsum(rep.cycle_lengths)[:-1]):
            assert np.all(np.diff(h) <= 1e-12 + 1e-12 * h[:-1])

    def test_restarted_path_converges(self, rng):
        n = 120
        A = sp.csr_matrix(np.diag(np.linspace(1, 100, n)).astype(complex) + 0.3 * rng.standard_normal((n, n)))
        b = rng.standard_normal(n).astype(complex)
        x, rep = gmres(A, b, None, GmresConfig(restart=20, tol=1e-9, max_outer=200))
        assert rep.converged
        assert rep.outer_iterations > 1
        assert rep.true_residual <= 1e-7

    def test_nonconvergence_returns_flag_and_iterate(self, rng):
        n = 80
        A = sp.csr_matrix(np.diag(np.linspace(1e-3, 100, n)).astype(complex) + rng.standard_normal((n, n)))
        b = rng.standard_normal(n).astype(complex)
        x, rep = gmres(A, b, None, GmresConfig(restart=3, tol=1e-14, max_outer=2))
        assert not rep.converged
        assert rep.outer_iterations == 2
        assert np.all(np.isfinite(x))

    def test_zero_rhs(self):
        A = sp.identity(5, format="csr", dtype=complex)
        x, rep = gmres(A, np.zeros(5, dtype=complex))
        assert np.all(x == 0.0)
        assert rep.converged

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GmresConfig(restart=0)
        with pytest.raises(ValueError):
            GmresConfig(tol=0.0)
        with pytest.raises(ValueError):
            GmresConfig(tol=float("nan"))
        with pytest.raises(ValueError):
            GmresConfig(tol=float("inf"))
        with pytest.raises(ValueError):
            GmresConfig(max_outer=0)

    def test_nonfinite_input_reports_not_converged(self):
        A = sp.identity(4, format="csr", dtype=complex)
        b = np.array([1.0, np.nan, 2.0, 3.0], dtype=complex)
        with np.errstate(invalid="ignore"):
            _, rep = gmres(A, b)
        assert not rep.converged
        assert np.isnan(rep.preconditioned_residual)


class TestGmresMemory:
    def test_basis_grows_with_the_iterations(self):
        """Three distinct eigenvalues: converged after 3 inner iterations of
        a restart-50 cycle, with a handful of n-vectors allocated, not 51."""
        n = 24_000
        A = sp.diags(np.resize([1.0, 2.0, 3.0], n).astype(complex), format="csr")
        b = np.random.default_rng(0).standard_normal(n).astype(complex)
        tracemalloc.start()
        try:
            _, rep = gmres(A, b, None, GmresConfig(restart=50, tol=1e-10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.converged and rep.inner_iterations <= 3
        assert peak <= 8 * n * 16


class TestCslp:
    def test_zero_shift_is_exact_preconditioner(self, rng):
        A, b = random_complex_system(rng, n=70)
        precond = build_cslp(A, 0.0)
        x, rep = gmres(A, b, precond)
        assert rep.outer_iterations == 1
        assert rep.inner_iterations == 1
        x_star = np.linalg.solve(A.toarray(), b)
        assert np.linalg.norm(x - x_star) / np.linalg.norm(x_star) <= 1e-10

    def test_shift_value_matches_wavenumber_rule(self):
        k = 4188.790204786391
        assert 1.0 / (3.0 * k) == pytest.approx(7.957747154594766e-05)

    def test_apply_multiply_roundtrip(self, rng):
        A, _ = random_complex_system(rng, n=60)
        P = A - 1j * 3.7 * sp.identity(60, format="csr", dtype=complex)
        precond = build_cslp(P, 3.7)
        for _ in range(20):
            v = rng.standard_normal(60) + 1j * rng.standard_normal(60)
            w = precond.solve(P @ v)
            assert np.linalg.norm(w - v) / np.linalg.norm(v) <= 1e-10

    def test_transposed_factor_solves_a_not_its_transpose(self, rng):
        # a nonsymmetric A: the factor of P^T must solve with P, not P^T
        A, b = random_complex_system(rng, n=60)
        P = A - 1j * 3.7 * sp.identity(60, format="csr", dtype=complex)
        precond = build_cslp(P, 3.7)
        assert np.linalg.norm(P @ precond.solve(b) - b) / np.linalg.norm(b) <= 1e-12
        x = direct_solve(A, b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-12

    def test_dimension_mismatch(self, rng):
        A, _ = random_complex_system(rng, n=10)
        with pytest.raises(ValueError, match="the fold maps 11 unknowns, P has 10"):
            build_cslp(A, 0.0, fold=sp.identity(11, format="csr"))

    def test_negative_shift_rejected(self, rng):
        A, _ = random_complex_system(rng, n=5)
        for beta in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                build_cslp(A, beta)

    def test_singular_factorization_reported(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
        with pytest.raises(RuntimeError, match="^singular shifted-Laplacian factorization: "):
            build_cslp(A, 0.0)


class TestDirectSolve:
    def test_identity(self):
        b = np.linspace(1, 2, 7) + 0j
        assert np.allclose(direct_solve(sp.identity(7, format="csr", dtype=complex), b), b)

    def test_residual_on_shifted_random(self, rng):
        n = 90
        B = rng.standard_normal((n, n))
        A = sp.csr_matrix((B @ B.T + n * np.eye(n)).astype(complex))
        b = rng.standard_normal(n).astype(complex)
        x = direct_solve(A, b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-12

    def test_singular_reported(self):
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))
        with pytest.raises(RuntimeError, match="^singular matrix in direct solve: "):
            direct_solve(A, np.ones(2, dtype=complex))

    @pytest.mark.parametrize("system", ["desk", "c0_cubic", "mms_160x80"])
    def test_tree_solve_matches_the_oracle(self, system, desk_system):
        """On the tree, A is factored by the block LDL^T and the solve is
        refined once: it matches SuperLU under minimum degree, and its
        residual is at roundoff.  The desk A (k about 300) is indefinite."""
        if system == "desk":
            A, b, _, _, tree = desk_system
        elif system == "c0_cubic":
            cfg, space = c0_cubic_space()
            A, b, _, tree = grid_system(space, cfg, 30.0)
        else:  # the finest mesh of the cubic manufactured-solution study
            cfg, space = mms_space(160, 80)
            A, b, _, tree = grid_system(space, cfg, 10.0)
        x = direct_solve(A, b, tree=tree)
        oracle = direct_solve(A, b)
        assert np.linalg.norm(x - oracle) / np.linalg.norm(oracle) <= 1e-10
        assert relative_residual(A, x, b) <= 1e-13

    def test_refinement_step_restores_roundoff(self):
        """60 x 45 desk physics at k = 277.5: a pivot block of the factor of
        A is ill-conditioned, and the factor alone solves A to 7.3e-9
        (measured); one step of refinement brings it to 3.8e-15."""
        A, b, tree = desk_physics_system(60, 45, 277.5)
        unrefined = FrontalLdlt(A, tree, "A").solve(b)
        assert relative_residual(A, unrefined, b) > 1e-10
        assert relative_residual(A, direct_solve(A, b, tree=tree), b) <= 1e-13

    def test_superlu_solve_is_refined(self, desk_system):
        """Without a tree the desk run's A is factored by SuperLU, whose
        pivoting is static too: the factor alone solves A to 2.2e-12
        (measured), the refined solve to 8.6e-16."""
        A, b, _, _, _ = desk_system
        assert relative_residual(A, direct_solve(A, b), b) <= 1e-14

    def test_singular_on_the_tree_reported(self):
        from igarad.assembly import DissectionTree

        A = sp.csr_matrix(np.diag([2.0, 1.0, 0.0]).astype(complex))
        leaf_and_root = DissectionTree(np.arange(3), np.array([0, 1, 3]), np.array([1, -1]))
        with pytest.raises(RuntimeError, match="^singular matrix in direct solve: "):
            direct_solve(A, np.ones(3, dtype=complex), tree=leaf_and_root)

    def test_tree_solve_makes_no_copy_of_a(self, desk_system):
        """The direct solve on the tree allocates what the factor stores,
        the fronts and updates of the nodes being factored, the index
        arrays of a node's rows, and a few vectors; A is read row block by
        row block, never copied.  Measured: 42.3 MB against the bound's
        45.1 MB (factor 33.7 MB, twice the largest live front 5.5 MB, half
        of A's values 4.2 MB, ten vectors 1.8 MB); a copy of A's values
        (8.3 MB) would not fit."""
        A, b, _, _, tree = desk_system
        nnz, nbytes = frontal_storage(A, tree)
        tracemalloc.start()
        try:
            direct_solve(A, b, tree=tree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        factor = FrontalLdlt(A, tree, "A")
        assert (factor.nnz, factor.nbytes) == (nnz, nbytes)
        largest = max(_live_front_bytes(W, X) for _, _, _, W, X in factor.fronts)
        assert peak <= nbytes + 2 * largest + 0.5 * A.nnz * 16 + 10 * b.nbytes


def semicircle_system(k, n, m):
    """Restricted cubic system ``A x = b`` and free-dof mass of the semicircle
    at wavenumber ``k`` (aperture 0.05, radius twice the near-field length)."""
    import math

    from igarad.assembly import QuadratureRule, assemble, build_system, classify_dofs
    from igarad.bspline import TensorProductSpace, make_uniform_open_knots
    from igarad.geometry import DomainConfig, make_semicircle_patch

    cfg = DomainConfig(a=0.05, r=2 * 0.05**2 * k / (2 * math.pi), theta=math.pi / 4)
    geometry = make_semicircle_patch(cfg)
    space = TensorProductSpace(make_uniform_open_knots(4, n), make_uniform_open_knots(4, m))
    part = classify_dofs(space, cfg)
    mats = assemble(space, geometry, QuadratureRule(space))
    A, b = build_system(mats, part, k, 1.0)
    return A, b, mats.mass[part.free][:, part.free]


class SinglePrecisionCslp:
    """``P = A - i beta M`` factored in complex64: every solve carries a
    relative error of about 1e-7, so GMRES's Arnoldi estimate drifts from
    the explicit residual."""

    def __init__(self, A, M, beta):
        self.beta = beta
        self._lu = spla.splu((A - 1j * beta * M).tocsc().astype(np.complex64))

    def solve(self, v):
        return self._lu.solve(np.asarray(v, dtype=np.complex64)).astype(complex)


class TestShiftSensitivity:
    def test_inverse_k_shift_within_budget(self, capsys):
        """The 1/(3k) shift must converge within the iteration budget; the
        sqrt(k) regime is run for comparison and reported, not ranked."""
        import math

        k = 150.0
        A, b, M = semicircle_system(k, 60, 40)
        results = {}
        for label, beta in (("1/(3k)", 1.0 / (3 * k)), ("sqrt(k)", math.sqrt(k))):
            precond = build_cslp(A - 1j * beta * M, beta)
            _, rep = gmres(A, b, precond, GmresConfig(restart=50, tol=1e-8, max_outer=10))
            results[label] = rep
        print(
            "\nshift comparison: "
            + ", ".join(
                f"beta={lbl}: outer={r.outer_iterations} inner={r.inner_iterations} "
                f"converged={r.converged}"
                for lbl, r in results.items()
            )
        )
        rep = results["1/(3k)"]
        assert rep.converged
        assert rep.outer_iterations <= 3


class TestExplicitResidualStop:
    def test_single_precision_preconditioner_restarts_to_tolerance(self):
        """The Arnoldi estimate passes tol while the explicit preconditioned
        residual does not; only the explicit residual may end the solve."""
        k = 80.0
        A, b, M = semicircle_system(k, 30, 20)
        assert b.size == 574
        precond = SinglePrecisionCslp(A, M, 1.0 / (3 * k))
        config = GmresConfig(restart=50, tol=1e-8, max_outer=20)
        x, rep = gmres(A, b, precond, config)
        assert rep.converged
        assert rep.preconditioned_residual <= config.tol
        assert rep.outer_iterations >= 2
        explicit = np.linalg.norm(precond.solve(b - A @ x)) / np.linalg.norm(precond.solve(b))
        assert explicit == pytest.approx(rep.preconditioned_residual, rel=1e-6)

    def test_cycles_record_why_the_solve_continued(self):
        """Every cycle but the last ends above tol; the record adds up to the history."""
        k = 80.0
        A, b, M = semicircle_system(k, 30, 20)
        precond = SinglePrecisionCslp(A, M, 1.0 / (3 * k))
        config = GmresConfig(restart=50, tol=1e-8, max_outer=20)
        _, rep = gmres(A, b, precond, config)
        assert len(rep.cycle_lengths) == len(rep.cycle_residuals) == rep.outer_iterations >= 2
        assert sum(rep.cycle_lengths) == len(rep.history) == rep.inner_iterations
        assert all(r > config.tol for r in rep.cycle_residuals[:-1])
        assert rep.cycle_residuals[-1] == rep.preconditioned_residual <= config.tol
        # the first cycle's estimate passed tol, its explicit residual did not
        assert rep.history[rep.cycle_lengths[0] - 1] <= config.tol


def _live_front_bytes(W, X):
    """Bytes a front of ``k`` own and ``u`` ancestor unknowns holds while it
    is factored: its fully-summed rows, ``k (k + u)``, and the ``u^2``
    block it passes up."""
    k, u = W.shape[0], X.shape[0]
    return (k * (k + u) + u * u) * 16


@pytest.fixture(scope="module")
def desk_system():
    """``(A, b, M_ff, beta, tree)`` of the desk run (10,980 dofs), with the
    free mass block and the nested-dissection tree of the free dofs."""
    from pathlib import Path

    from igarad.assembly import assemble, build_system
    from igarad.pipeline import RunConfig, discretize

    config = RunConfig.from_json(Path(__file__).resolve().parents[1] / "configs" / "desk_radiation_k300.json")
    disc = discretize(config)
    partition = disc.partition.dissected(disc.space)
    mats = assemble(disc.space, disc.geometry, disc.quadrature)
    k = config.wavenumber
    A, b = build_system(mats, partition, k, config.amplitude)
    return A, b, free_mass(mats, partition), config.beta_factor / k, partition.tree


def free_mass(mats, partition):
    """The free-free block of the mass matrix, with sorted indices."""
    block = mats.mass[partition.free][:, partition.free]
    block.sort_indices()  # an unsorted index set leaves the rows unsorted
    return block


def natural_splu(matrix):
    """SuperLU of ``matrix`` in its own numbering, the grid's nested
    dissection: ``solver._SuperLU``'s options but the ordering."""
    return spla.splu(
        as_csr(matrix).T, permc_spec="NATURAL", diag_pivot_thresh=0.001, options=dict(SymmetricMode=True)
    )


class TestFactorize:
    def test_less_fill_than_default_ordering(self):
        A, b, _ = semicircle_system(150.0, 60, 40)
        matrix = A.tocsc()
        assert _SuperLU(matrix, "system").nnz < spla.splu(matrix).nnz
        x = direct_solve(A, b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_preconditioner_keeps_its_fill(self):
        k = 150.0
        A, _, M = semicircle_system(k, 60, 40)
        beta = 1.0 / (3 * k)
        P = (A - 1j * beta * M).tocsc()
        precond = build_cslp(P, beta)
        assert precond.lu_nnz == _SuperLU(P, "P").nnz > A.nnz

    def test_nested_dissection_on_the_desk_mesh(self, desk_system):
        """The desk run's P, numbered in nested-dissection order, fills less
        in natural order than under minimum degree, and A is solved to a
        direct residual of 1e-10."""
        A, b, mass, beta, tree = desk_system
        P = A - 1j * beta * mass
        assert natural_splu(P).nnz <= _SuperLU(P, "P").nnz
        x = direct_solve(A, b, tree=tree)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_ordered_preconditioner_makes_no_copy_of_p(self, desk_system):
        """Factoring P on the tree allocates, on the heap, only what a node
        holds while it is factored, its front and the updates that meet
        there; P is read row block by row block, never copied.  The factor's
        blocks live in a shared mapping, which ``tracemalloc`` does not see.
        Measured: 7.8 MB (8.9 MB in one process) against the bound's 18.0 MB
        (1.5 P 12.5 MB, twice the largest live front 5.5 MB); two copies of
        P, or the fronts kept past their nodes, would not fit."""
        A, _, mass, beta, tree = desk_system
        P = A - 1j * beta * mass
        tracemalloc.start()
        try:
            precond = build_cslp(P, beta, tree=tree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        fronts = precond.factor.fronts
        largest = max(_live_front_bytes(W, X) for _, _, _, W, X in fronts)
        assert peak <= 1.5 * P.nnz * 16 + 2 * largest

    def test_tiny_diagonal_is_pivoted_away(self):
        """A symmetric matrix whose diagonal is 1e-13: diagonal pivots alone
        lose the solution, threshold partial pivoting keeps it."""
        rng = np.random.default_rng(0)
        n = 300
        B = sp.random(n, n, density=0.02, random_state=1, data_rvs=rng.standard_normal)
        S = sp.triu(B, 1)
        A = (S + S.T + 1e-13 * sp.identity(n)).tocsc().astype(complex)
        b = rng.standard_normal(n).astype(complex)

        def residual(lu):
            return np.linalg.norm(A @ lu.solve(b) - b) / np.linalg.norm(b)

        diagonal_only = spla.splu(
            A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True)
        )
        assert residual(diagonal_only) > 1e-3
        assert residual(_SuperLU(A, "matrix")) <= 1e-8


def grid_system(space, cfg, k):
    """``(A, b, M_ff, tree)`` of the semicircle problem on ``space`` at
    wavenumber ``k``: the free mass block and the nested-dissection tree of
    the free dofs."""
    from igarad.assembly import QuadratureRule, assemble, build_system, classify_dofs
    from igarad.geometry import make_semicircle_patch

    part = classify_dofs(space, cfg).dissected(space)
    mats = assemble(space, make_semicircle_patch(cfg), QuadratureRule(space))
    A, b = build_system(mats, part, k, 1.0)
    return A, b, free_mass(mats, part), part.tree


def relative_residual(P, x, b):
    return np.linalg.norm(P @ x - b) / np.linalg.norm(b)


def c0_cubic_space():
    """The MMS domain and a C^0 cubic space on it: interior knots of
    multiplicity 3, the Bernstein form of cubic Lagrange elements."""
    import math

    from igarad.bspline import KnotVector, TensorProductSpace
    from igarad.geometry import DomainConfig

    def c0(breakpoints):
        return KnotVector(4, np.concatenate([np.zeros(4), np.repeat(breakpoints, 3), np.ones(4)]))

    cfg = DomainConfig(a=0.3, r=1.0, theta=math.pi / 4)
    return cfg, TensorProductSpace(c0(np.arange(1, 16) / 16).with_breakpoints(cfg.aperture_preimage), c0(np.arange(1, 12) / 12))


def mms_space(n, m):
    """The manufactured-solution study's domain and aperture-aligned cubic ``n x m`` space."""
    import math

    from igarad.bspline import TensorProductSpace, make_uniform_open_knots
    from igarad.geometry import DomainConfig

    cfg = DomainConfig(a=0.3, r=1.0, theta=math.pi / 4)
    kv_xi = make_uniform_open_knots(4, n).with_breakpoints(cfg.aperture_preimage)
    return cfg, TensorProductSpace(kv_xi, make_uniform_open_knots(4, m))


def desk_physics_system(n, m, k):
    """``(A, b, tree)`` of the desk run's physics at wavenumber ``k`` on ``n x m``."""
    import math
    from dataclasses import replace
    from pathlib import Path

    from igarad.assembly import assemble, build_system
    from igarad.pipeline import RunConfig, discretize

    base = RunConfig.from_json(Path(__file__).resolve().parents[1] / "configs" / "desk_radiation_k300.json")
    config = replace(base, n=n, m=m, frequency=k * base.sound_speed / (2 * math.pi))
    disc = discretize(config)
    partition = disc.partition.dissected(disc.space)
    mats = assemble(disc.space, disc.geometry, disc.quadrature)
    A, b = build_system(mats, partition, config.wavenumber, config.amplitude)
    return A, b, partition.tree


def aperture_leaves_system():
    """``(A, b, M_ff, tree, k)`` on a quartic (order 5) mesh whose aperture
    covers two whole leaves of the tree, so that their nodes own no
    unknown."""
    import math

    from igarad.bspline import TensorProductSpace, make_uniform_open_knots
    from igarad.geometry import DomainConfig

    cfg = DomainConfig(a=0.5, r=1.0, theta=math.pi / 4)
    space = TensorProductSpace(
        make_uniform_open_knots(5, 29).with_breakpoints(cfg.aperture_preimage), make_uniform_open_knots(5, 7)
    )
    k = 8.0
    return (*grid_system(space, cfg, k), k)


def two_leaves_and_root(diagonal):
    """``(A, tree)``: two leaves of one unknown each, both coupled to the
    root's one unknown, with ``diagonal`` on A's diagonal.  The root takes
    two fronts' updates, so leaf 0 is factored in a child process."""
    from igarad.assembly import DissectionTree

    d0, d1, d2 = diagonal
    A = sp.csr_matrix(np.array([[d0, 0, 1], [0, d1, 1], [1, 1, d2]], dtype=complex))
    tree = DissectionTree(np.arange(3), np.array([0, 1, 2, 3]), np.array([2, 2, -1]))
    return A, tree


class TestFrontalLdlt:
    """The shifted-Laplacian factor on the nested-dissection tree."""

    @pytest.mark.parametrize("system", ["cubic_20x12", "aperture_leaves"])
    def test_every_front_against_the_dense_schur_complement(self, system, monkeypatch):
        """Per front, against dense elimination of every unknown before it:
        ``inv(W)`` is the Schur complement on the node's own unknowns, ``X``
        the eliminated coupling of its ancestors to them times ``W``, and
        ``W`` is exactly symmetric (the solve applies ``X^T`` as ``W F12``)."""
        if system == "cubic_20x12":
            cfg, space = mms_space(20, 12)
            k = 10.0
            A, _, mass, tree = grid_system(space, cfg, k)
        else:
            A, _, mass, tree, k = aperture_leaves_system()
        beta = 1.0 / (3 * k)
        P = A - 1j * beta * mass
        forks = count_forks(monkeypatch)
        factor = build_cslp(P, beta, tree=tree).factor
        P = P.toarray()
        assert len(factor.fronts) > 5
        if system == "cubic_20x12":  # the two subtrees under the root: one in a child
            assert len(forks) == can_split()
        for s, e, up, W, X in factor.fronts:
            eliminated = np.linalg.solve(P[:s, :s], P[:s, s:e])
            schur = P[s:e, s:e] - P[s:e, :s] @ eliminated
            coupling = P[up, s:e] - P[up, :s] @ eliminated
            assert np.linalg.norm(np.linalg.inv(W) - schur) <= 1e-10 * np.linalg.norm(schur)
            assert np.linalg.norm(X - coupling @ W) <= 1e-10 * np.linalg.norm(coupling @ W)
            assert np.array_equal(W, W.T)

    def test_solves_p_on_the_desk_system(self, desk_system):
        A, b, mass, beta, tree = desk_system
        P = A - 1j * beta * mass
        assert relative_residual(P, build_cslp(P, beta, tree=tree).solve(b), b) <= 1e-10

    def test_solves_p_on_a_c0_cubic_space(self):
        """Interior knots of multiplicity 3 (the Bernstein form of cubic
        Lagrange elements): wider separators' worth of coupling per line."""
        cfg, space = c0_cubic_space()
        k = 30.0
        A, b, mass, tree = grid_system(space, cfg, k)
        beta = 1.0 / (3 * k)
        P = A - 1j * beta * mass
        assert relative_residual(P, build_cslp(P, beta, tree=tree).solve(b), b) <= 1e-10
        # the factor reads only P: a lumped (diagonal) mass shifts it as well
        lumped = A - 1j * beta * sp.diags(np.asarray(mass.sum(axis=1)).ravel(), format="csr")
        assert relative_residual(lumped, build_cslp(lumped, beta, tree=tree).solve(b), b) <= 1e-10

    def test_stores_about_half_of_superlus_bytes(self, desk_system):
        """One triangle in dense blocks, no per-entry index: at most 0.55x of
        SuperLU's L and U at 16 B of value and 4 B of row index per entry
        (measured 0.47x: 33.7 MB against 71.9 MB)."""
        A, _, mass, beta, tree = desk_system
        P = A - 1j * beta * mass
        precond = build_cslp(P, beta, tree=tree)
        superlu = natural_splu(P)
        assert precond.factor_bytes <= 0.55 * superlu.nnz * 20

    def test_desk_gmres_ends_after_one_cycle(self, desk_system):
        A, b, mass, beta, tree = desk_system
        x, rep = gmres(A, b, build_cslp(A - 1j * beta * mass, beta, tree=tree))
        assert rep.converged and rep.outer_iterations == 1
        assert rep.true_residual <= 1e-10
        x_direct = direct_solve(A, b, tree=tree)
        assert np.linalg.norm(x - x_direct) / np.linalg.norm(x_direct) <= 1e-7

    def test_node_without_free_dofs_passes_its_updates_on(self):
        """A quartic mesh whose aperture covers two whole leaves of the tree
        (bottom-row blocks one dof high): their nodes own no unknown."""
        A, b, mass, tree, k = aperture_leaves_system()
        is_parent = np.isin(np.arange(tree.parent.size), tree.parent)
        assert np.count_nonzero((np.diff(tree.offsets) == 0) & ~is_parent) == 2
        beta = 1.0 / (3 * k)
        P = A - 1j * beta * mass
        x = build_cslp(P, beta, tree=tree).solve(b)
        assert relative_residual(P, x, b) <= 1e-10
        assert np.allclose(x, np.linalg.solve(P.toarray(), b), rtol=0, atol=1e-10 * np.abs(x).max())

    def test_singular_pivot_block_reported(self):
        from igarad.assembly import DissectionTree

        A = sp.csr_matrix(np.diag([2.0, 1.0, 0.0]).astype(complex))
        leaf_and_root = DissectionTree(np.arange(3), np.array([0, 1, 3]), np.array([1, -1]))
        with pytest.raises(RuntimeError, match="^singular shifted-Laplacian factorization: "):
            build_cslp(A, 0.0, tree=leaf_and_root)
        # a pivot whose reciprocal overflows: getrf goes through, W is not finite
        tiny = sp.csr_matrix(np.diag([2.0, 1.0, 1e-320]).astype(complex))
        with pytest.raises(RuntimeError, match="^singular shifted-Laplacian factorization: "):
            build_cslp(tiny, 0.0, tree=leaf_and_root)

    @pytest.mark.skipif(not can_split(), reason="no settable BLAS thread count or one core: no child process")
    def test_failing_child_reported_and_reaped(self, monkeypatch, blas_at_two_threads):
        """A singular pivot block in the child's subtree raises what the
        in-process factor raises; no child is left, and the BLAS thread
        count is what it was, after a failure and after a success."""
        threads = blas_threads()
        A, tree = two_leaves_and_root([0.0, 2.0, 3.0])
        with monkeypatch.context() as one_core:
            one_core.setattr(os, "sched_getaffinity", lambda pid: {0})
            with pytest.raises(RuntimeError) as in_process:
                build_cslp(A, 0.0, tree=tree)
        forks = count_forks(monkeypatch)
        with pytest.raises(RuntimeError) as forked:
            build_cslp(A, 0.0, tree=tree)
        assert len(forks) == 1
        assert str(forked.value) == str(in_process.value)
        assert str(forked.value).startswith("singular shifted-Laplacian factorization: pivot block of front 0: ")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert blas_threads() == threads
        # the parent's own half fails: the child is killed and reaped
        A, tree = two_leaves_and_root([2.0, 0.0, 3.0])
        with pytest.raises(RuntimeError, match="pivot block of front 1: "):
            build_cslp(A, 0.0, tree=tree)
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert blas_threads() == threads
        # a success, against the dense solve
        A, tree = two_leaves_and_root([2.0, 4.0, 3.0])
        b = np.array([1.0, 2.0, 3.0], dtype=complex)
        x = build_cslp(A, 0.0, tree=tree).solve(b)
        assert len(forks) == 3
        assert np.allclose(x, np.linalg.solve(A.toarray(), b), rtol=1e-14)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert blas_threads() == threads

    @pytest.mark.skipif(not can_split(), reason="no settable BLAS thread count or one core: no child process")
    def test_child_killed_by_a_signal_reported(self, monkeypatch):
        parent, factor_fronts = os.getpid(), solver._factor_fronts

        def dies_in_the_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            factor_fronts(*args)

        monkeypatch.setattr(solver, "_factor_fronts", dies_in_the_child)
        A, tree = two_leaves_and_root([2.0, 4.0, 3.0])
        with pytest.raises(RuntimeError, match="child process factoring fronts 0 to 0 was killed by SIGKILL"):
            build_cslp(A, 0.0, tree=tree)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_two_factors_are_bit_identical(self, desk_system):
        A, _, mass, beta, tree = desk_system
        first, second = (build_cslp(A - 1j * beta * mass, beta, tree=tree).factor for _ in range(2))
        assert (first.child_peak_rss_mib is not None) == can_split()
        for (*_, W1, X1), (*_, W2, X2) in zip(first.fronts, second.fronts, strict=True):
            assert np.array_equal(W1, W2) and np.array_equal(X1, X2)

    def test_tree_must_match_the_coupling(self):
        """Two sibling leaves that couple: no node holds the coupled pair."""
        from igarad.assembly import DissectionTree

        A = sp.csr_matrix(np.array([[2, 1, 0], [1, 2, 0], [0, 0, 2]], dtype=complex))
        siblings = DissectionTree(np.arange(3), np.array([0, 1, 2, 3]), np.array([2, 2, -1]))
        with pytest.raises(ValueError, match="not an ancestor"):
            build_cslp(A, 0.0, tree=siblings)


class TestMatrixMarketIO:
    def test_matrix_roundtrip(self, rng, tmp_path):
        A, _ = random_complex_system(rng, n=20)
        path = tmp_path / "A.mtx"
        save_matrix_market(path, A)
        B = load_matrix_market(path)
        assert (abs(A - B) > 0).nnz == 0
        assert B.has_sorted_indices

    def test_vector_roundtrip(self, rng, tmp_path):
        v = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        path = tmp_path / "b.mtx"
        save_vector(path, v)
        w = load_vector(path)
        assert np.array_equal(v, w)

    def test_coordinate_vector_roundtrip(self, rng, tmp_path):
        # mmwrite stores a sparse N x 1 matrix in coordinate format
        v = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        v[[2, 7]] = 0.0
        path = tmp_path / "b.mtx"
        scipy.io.mmwrite(str(path), sp.coo_matrix(v.reshape(-1, 1)))
        assert "coordinate" in path.read_text().splitlines()[0]
        assert np.array_equal(load_vector(path), v)

    def test_row_vector_read(self, tmp_path):
        path = tmp_path / "b.mtx"
        scipy.io.mmwrite(str(path), np.arange(1.0, 5.0).reshape(1, -1))
        assert np.array_equal(load_vector(path), np.arange(1.0, 5.0))

    @pytest.mark.parametrize("sparse", [False, True], ids=["array", "coordinate"])
    def test_matrix_is_not_a_vector(self, tmp_path, sparse):
        path = tmp_path / "m.mtx"
        scipy.io.mmwrite(str(path), sp.coo_matrix(np.ones((3, 2))) if sparse else np.ones((3, 2)))
        with pytest.raises(ValueError, match="3 x 2 matrix, not a vector"):
            load_vector(path)
