"""Sparse complex linear algebra: left-preconditioned restarted GMRES and
the shifted-Laplacian preconditioner applied through a sparse LU
factorization.

Matrices are scipy CSR with sorted, deduplicated indices; a system from
the grid arrives with its unknowns in elimination order, so it is factored
as it is, with no permuted copy.  GMRES reports
``converged`` only when the explicit preconditioned residual
``|P^-1 (b - A x)| / |P^-1 b|``, recomputed at the end of each restart
cycle, meets ``tol``; the unpreconditioned ("true") residual is reported
alongside as a guard.  Solver objects hold factorizations and are not safe
to share across threads; distinct instances are independent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def as_csr(A) -> sp.csr_matrix:
    """CSR with sorted, deduplicated indices and complex dtype.

    A canonical complex CSR input shares its arrays with the result; nothing
    is copied.
    """
    A = sp.csr_matrix(A)
    A.sum_duplicates()
    A.sort_indices()
    return A.astype(complex, copy=False)


@dataclass
class GmresConfig:
    """Restart length, relative tolerance on the explicit preconditioned
    residual, and outer-iteration (restart cycle) budget."""

    restart: int = 50
    tol: float = 1e-8
    max_outer: int = 20

    def __post_init__(self):
        if self.restart < 1:
            raise ValueError("restart must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


@dataclass
class SolveReport:
    """Iteration counts and residuals of one linear solve.

    For GMRES, ``history`` holds the Arnoldi estimate after every inner
    iteration; restart cycle ``c`` made ``cycle_lengths[c]`` of them and
    ended with the explicit preconditioned residual ``cycle_residuals[c]``,
    the figure that decides whether another cycle runs.  All three are
    empty for a direct solve.
    """

    method: str
    n: int
    outer_iterations: int
    inner_iterations: int
    preconditioned_residual: float
    true_residual: float
    wall_time_s: float
    converged: bool
    restart: int | None = None
    tol: float | None = None
    shift: float | None = None
    history: list[float] = field(default_factory=list)
    cycle_lengths: list[int] = field(default_factory=list)
    cycle_residuals: list[float] = field(default_factory=list)


def _factorize(matrix, what: str, ordered: bool = False):
    """SuperLU factorization of a square sparse matrix; ``what`` names it if singular.

    SuperLU reads the canonical CSR arrays of ``matrix`` as the CSC of its
    transpose, so no CSC copy is made; :func:`_lu_solve` solves with the
    transposed factor.  The systems here are structurally symmetric, so
    SuperLU runs in symmetric mode, preferring diagonal pivots.  A matrix
    already numbered in elimination order (``ordered``: the grid's nested
    dissection, as :func:`igarad.assembly.classify_dofs` numbers the free
    dofs) is factored in natural order; any other, under minimum degree on
    the pattern of ``A^T + A``.  Threshold partial pivoting stays on: a
    diagonal entry is kept only while it is at least 0.001 times the
    largest entry of its column, so a tiny diagonal is still pivoted away.
    The orderings need the small threshold to pay off: with the default
    threshold 1.0 minimum degree gives more fill than SuperLU's COLAMD.
    """
    matrix = as_csr(matrix)
    transpose = sp.csc_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape[::-1])
    try:
        return spla.splu(
            transpose,
            permc_spec="NATURAL" if ordered else "MMD_AT_PLUS_A",
            diag_pivot_thresh=0.001,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:
        raise RuntimeError(f"singular {what}: {exc}") from exc


def _lu_solve(lu, v) -> np.ndarray:
    """Solve ``matrix x = v`` with the factor :func:`_factorize` made of ``matrix``."""
    return lu.solve(np.asarray(v, dtype=complex), trans="T")


def _shifted(A, M, beta: float) -> sp.csr_matrix:
    """``A - i beta M`` as canonical complex CSR.

    When M is stored on A's pattern (as :meth:`igarad.assembly.Gather.block`
    gathers it), the shift is formed on A's data alone and shares A's index
    arrays.
    """
    A, M = as_csr(A), sp.csr_matrix(M)
    if np.array_equal(M.indptr, A.indptr) and np.array_equal(M.indices, A.indices):
        data = (1j * beta) * M.data
        np.subtract(A.data, data, out=data)
        return sp.csr_matrix((data, A.indices, A.indptr), shape=A.shape)
    return as_csr(A - 1j * beta * M)


class CslpPreconditioner:
    """Shifted-Laplacian preconditioner ``P = A - i beta M``, applied by LU.

    P is formed, factored by :func:`_factorize` (in natural order if A and
    M are ``ordered``, else under minimum degree; threshold partial
    pivoting) and dropped: only the factor is kept.  ``lu_nnz`` is
    the factor's fill, SuperLU's count of stored L and U entries.
    ``beta = 0`` makes the preconditioner an exact solve of A.
    """

    def __init__(self, A, M, beta: float, ordered: bool = False):
        if beta < 0:
            raise ValueError("shift beta must be nonnegative")
        if A.shape != M.shape:
            raise ValueError("A and M must have the same shape")
        self.beta = float(beta)
        self._lu = _factorize(_shifted(A, M, self.beta), "shifted-Laplacian factorization", ordered)
        self.lu_nnz = int(self._lu.nnz)

    def solve(self, v: np.ndarray) -> np.ndarray:
        return _lu_solve(self._lu, v)


def build_cslp(A, M, beta: float, ordered: bool = False) -> CslpPreconditioner:
    """Factorized shifted-Laplacian preconditioner (see :class:`CslpPreconditioner`)."""
    return CslpPreconditioner(A, M, beta, ordered)


def direct_solve(A, b, *, ordered: bool = False) -> np.ndarray:
    """Sparse LU solve, in natural order if A is ``ordered`` (see
    :func:`_factorize`); oracle path and default for small systems."""
    return _lu_solve(_factorize(A, "matrix in direct solve", ordered), b)


def gmres(A, b, precond: CslpPreconditioner | None = None, config: GmresConfig | None = None):
    """Left-preconditioned restarted GMRES; returns ``(x, report)``.

    Convergence is decided only by the explicit preconditioned residual
    ``|P^-1 (b - A x)| / |P^-1 b|``, computed once at the end of every
    cycle.  Within a cycle the Arnoldi estimate (the least-squares residual
    of the Hessenberg system, relative to ``|P^-1 b|``) is recorded in
    ``report.history`` after every inner iteration; it, or a breakdown,
    only ends the cycle early.  Each cycle's length and closing explicit
    residual go to ``report.cycle_lengths`` and ``report.cycle_residuals``.
    Non-convergence within the outer budget returns the last iterate with
    ``converged=False`` rather than raising.
    """
    config = config or GmresConfig()
    A = as_csr(A)
    b = np.asarray(b, dtype=complex)
    n, mdim = b.size, config.restart

    def apply_p(v):
        return precond.solve(v) if precond is not None else v

    t0 = time.perf_counter()
    x = np.zeros(n, dtype=complex)
    true_r = b
    r = apply_p(b)  # cycle 1 starts from x = 0, so its residual is P^-1 b
    pb_norm = np.linalg.norm(r)
    res = 1.0 if pb_norm else 0.0
    history: list[float] = []
    cycle_lengths: list[int] = []
    cycle_residuals: list[float] = []
    outer = 0
    while res > config.tol and outer < config.max_outer:
        outer += 1
        beta = np.linalg.norm(r)
        # one contiguous array per Arnoldi vector: memory grows with the
        # iterations done, not with the restart length
        V = [r / beta]
        H = np.zeros((mdim + 1, mdim), dtype=complex)
        g = np.zeros(mdim + 1, dtype=complex)
        g[0] = beta
        y = np.zeros(0, dtype=complex)
        for j in range(mdim):
            w = apply_p(A @ V[j])
            # modified Gram-Schmidt
            for i, v in enumerate(V):
                H[i, j] = np.vdot(v, w)
                w -= H[i, j] * v
            h_next = np.linalg.norm(w)
            H[j + 1, j] = h_next
            if not np.isfinite(h_next):
                break  # NaN or inf in A, b or P: end with a non-finite residual
            Hj, gj = H[: j + 2, : j + 1], g[: j + 2]
            y = np.linalg.lstsq(Hj, gj)[0]
            history.append(float(np.linalg.norm(gj - Hj @ y) / pb_norm))
            if h_next == 0.0 or history[-1] <= config.tol:
                break  # converged estimate or breakdown
            w /= h_next
            V.append(w)
        for yi, v in zip(y, V):
            x += yi * v
        del V, w  # the explicit residual needs no basis
        true_r = b - A @ x
        r = apply_p(true_r)
        res = np.linalg.norm(r) / pb_norm
        cycle_lengths.append(y.size)
        cycle_residuals.append(float(res))

    b_norm = np.linalg.norm(b)
    report = SolveReport(
        method="gmres",
        n=n,
        outer_iterations=outer,
        inner_iterations=sum(cycle_lengths),
        preconditioned_residual=float(res),
        true_residual=float(np.linalg.norm(true_r) / b_norm) if b_norm else 0.0,
        wall_time_s=time.perf_counter() - t0,
        converged=bool(res <= config.tol),
        restart=config.restart,
        tol=config.tol,
        shift=precond.beta if precond is not None else None,
        history=history,
        cycle_lengths=cycle_lengths,
        cycle_residuals=cycle_residuals,
    )
    return x, report


def save_matrix_market(path, A) -> None:
    """Matrix Market export (complex general coordinate format)."""
    scipy.io.mmwrite(str(path), as_csr(A))


def load_matrix_market(path) -> sp.csr_matrix:
    """Read a Matrix Market file as complex CSR."""
    return as_csr(scipy.io.mmread(str(path)))


def save_vector(path, v) -> None:
    scipy.io.mmwrite(str(path), np.asarray(v, dtype=complex).reshape(-1, 1))


def load_vector(path) -> np.ndarray:
    arr = np.asarray(scipy.io.mmread(str(path)))
    if sp.issparse(arr):
        arr = arr.toarray()
    return np.asarray(arr, dtype=complex).ravel()
