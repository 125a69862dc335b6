"""Solver: restarted GMRES, shifted-Laplacian preconditioner, direct solve."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from igarad.solver import (
    GmresConfig,
    build_cslp,
    direct_solve,
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
        assert hist.size == rep.inner_iterations
        # within each restart cycle the estimate never increases
        per_cycle = np.split(np.arange(hist.size), np.arange(25, hist.size, 25))
        for idx in per_cycle:
            h = hist[idx]
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
            GmresConfig(max_outer=0)

    def test_nonfinite_input_reports_not_converged(self):
        A = sp.identity(4, format="csr", dtype=complex)
        b = np.array([1.0, np.nan, 2.0, 3.0], dtype=complex)
        with np.errstate(invalid="ignore"):
            _, rep = gmres(A, b)
        assert not rep.converged
        assert np.isnan(rep.preconditioned_residual)


class TestCslp:
    def test_zero_shift_is_exact_preconditioner(self, rng):
        A, b = random_complex_system(rng, n=70)
        M = sp.identity(70, format="csr", dtype=complex)
        precond = build_cslp(A, M, 0.0)
        x, rep = gmres(A, b, precond, GmresConfig())
        assert rep.outer_iterations == 1
        assert rep.inner_iterations == 1
        x_star = np.linalg.solve(A.toarray(), b)
        assert np.linalg.norm(x - x_star) / np.linalg.norm(x_star) <= 1e-10

    def test_shift_value_matches_wavenumber_rule(self):
        k = 4188.790204786391
        assert 1.0 / (3.0 * k) == pytest.approx(7.957747154594766e-05)

    def test_apply_multiply_roundtrip(self, rng):
        A, _ = random_complex_system(rng, n=60)
        M = sp.identity(60, format="csr", dtype=complex)
        precond = build_cslp(A, M, 3.7)
        for _ in range(20):
            v = rng.standard_normal(60) + 1j * rng.standard_normal(60)
            w = precond.solve(precond.matrix @ v)
            assert np.linalg.norm(w - v) / np.linalg.norm(v) <= 1e-10

    def test_dimension_mismatch(self, rng):
        A, _ = random_complex_system(rng, n=10)
        M = sp.identity(11, format="csr", dtype=complex)
        with pytest.raises(ValueError):
            build_cslp(A, M, 1.0)

    def test_negative_shift_rejected(self, rng):
        A, _ = random_complex_system(rng, n=5)
        with pytest.raises(ValueError):
            build_cslp(A, sp.identity(5, dtype=complex, format="csr"), -1.0)

    def test_singular_factorization_reported(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
        M = sp.csr_matrix(np.zeros((2, 2), dtype=complex))
        with pytest.raises(RuntimeError, match="singular"):
            build_cslp(A, M, 0.0)


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
        with pytest.raises(RuntimeError, match="singular"):
            direct_solve(A, np.ones(2, dtype=complex))


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
            precond = build_cslp(A, M, beta)
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
