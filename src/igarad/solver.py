"""Sparse complex linear algebra: left-preconditioned restarted GMRES and
the shifted-Laplacian preconditioner applied through a sparse LU
factorization.

Matrices are scipy CSR with sorted, deduplicated indices.  GMRES reports
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
    """CSR with sorted, deduplicated indices and complex dtype."""
    A = sp.csr_matrix(A)
    A.sum_duplicates()
    A.sort_indices()
    return A.astype(complex)


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
    """Iteration counts and residuals of one linear solve; ``history`` holds
    the GMRES Arnoldi estimate after every inner iteration (empty for a
    direct solve)."""

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


def _factorize(matrix, what: str):
    """SuperLU factorization (default ordering) of a CSC matrix; ``what`` names it if singular."""
    try:
        return spla.splu(matrix)
    except RuntimeError as exc:
        raise RuntimeError(f"singular {what}: {exc}") from exc


class CslpPreconditioner:
    """Shifted-Laplacian preconditioner ``P = A - i beta M``, applied by LU.

    The factorization uses SuperLU with its default fill-reducing column
    ordering.  ``beta = 0`` makes the preconditioner an exact solve of A.
    """

    def __init__(self, A, M, beta: float):
        if beta < 0:
            raise ValueError("shift beta must be nonnegative")
        A = as_csr(A)
        M = as_csr(M)
        if A.shape != M.shape:
            raise ValueError("A and M must have the same shape")
        self.beta = float(beta)
        self.matrix = (A - 1j * self.beta * M).tocsc()
        self._lu = _factorize(self.matrix, "shifted-Laplacian factorization")

    def solve(self, v: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(v, dtype=complex))


def build_cslp(A, M, beta: float) -> CslpPreconditioner:
    """Factorized shifted-Laplacian preconditioner (see :class:`CslpPreconditioner`)."""
    return CslpPreconditioner(A, M, beta)


def direct_solve(A, b) -> np.ndarray:
    """Sparse LU solve; oracle path and default for small systems."""
    lu = _factorize(as_csr(A).tocsc(), "matrix in direct solve")
    return lu.solve(np.asarray(b, dtype=complex))


def gmres(A, b, precond: CslpPreconditioner | None = None, config: GmresConfig | None = None):
    """Left-preconditioned restarted GMRES; returns ``(x, report)``.

    Convergence is decided only by the explicit preconditioned residual
    ``|P^-1 (b - A x)| / |P^-1 b|``, computed once at the end of every
    cycle.  Within a cycle the Arnoldi estimate (the least-squares residual
    of the Hessenberg system, relative to ``|P^-1 b|``) is recorded in
    ``report.history`` after every inner iteration; it, or a breakdown,
    only ends the cycle early.  Non-convergence within the outer budget
    returns the last iterate with ``converged=False`` rather than raising.
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
    inner_total = outer = 0
    while res > config.tol and outer < config.max_outer:
        outer += 1
        beta = np.linalg.norm(r)
        V = np.empty((n, mdim + 1), dtype=complex)
        H = np.zeros((mdim + 1, mdim), dtype=complex)
        g = np.zeros(mdim + 1, dtype=complex)
        g[0] = beta
        V[:, 0] = r / beta
        y = np.zeros(0, dtype=complex)
        for j in range(mdim):
            w = apply_p(A @ V[:, j])
            # modified Gram-Schmidt
            for i in range(j + 1):
                H[i, j] = np.vdot(V[:, i], w)
                w -= H[i, j] * V[:, i]
            h_next = np.linalg.norm(w)
            H[j + 1, j] = h_next
            if not np.isfinite(h_next):
                break  # NaN or inf in A, b or P: end with a non-finite residual
            inner_total += 1
            Hj, gj = H[: j + 2, : j + 1], g[: j + 2]
            y = np.linalg.lstsq(Hj, gj)[0]
            history.append(float(np.linalg.norm(gj - Hj @ y) / pb_norm))
            if h_next == 0.0 or history[-1] <= config.tol:
                break  # converged estimate or breakdown
            V[:, j + 1] = w / h_next
        x = x + V[:, : y.size] @ y
        true_r = b - A @ x
        r = apply_p(true_r)
        res = np.linalg.norm(r) / pb_norm

    b_norm = np.linalg.norm(b)
    report = SolveReport(
        method="gmres",
        n=n,
        outer_iterations=outer,
        inner_iterations=inner_total,
        preconditioned_residual=float(res),
        true_residual=float(np.linalg.norm(true_r) / b_norm) if b_norm else 0.0,
        wall_time_s=time.perf_counter() - t0,
        converged=bool(res <= config.tol),
        restart=config.restart,
        tol=config.tol,
        shift=precond.beta if precond is not None else None,
        history=history,
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
