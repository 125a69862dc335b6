"""Sparse complex linear algebra: restarted GMRES and the shifted-Laplacian
preconditioner applied through a sparse LU factorization.

Matrices are scipy CSR with sorted, deduplicated indices.  The
preconditioned residual reported everywhere is the left-preconditioned one,
``|P^-1 (b - A x)| / |P^-1 b|``; the unpreconditioned ("true") residual is
reported alongside as a guard.  Solver objects hold factorizations and are
not safe to share across threads; distinct instances are independent.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, asdict

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
    """Restart length, relative tolerance and outer-iteration budget.

    ``side`` selects left preconditioning (default; residuals are
    preconditioned ones) or right preconditioning (residuals are true
    residuals), for experimentation.
    """

    restart: int = 50
    tol: float = 1e-8
    max_outer: int = 20
    side: str = "left"

    def __post_init__(self):
        if self.restart < 1:
            raise ValueError("restart must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")


@dataclass
class SolveReport:
    """Iteration counts and residuals of one linear solve."""

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

    def to_json(self, path=None) -> str:
        text = json.dumps(asdict(self), indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


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
    """Left-preconditioned restarted GMRES.

    Returns ``(x, report, history)`` where ``history`` holds the
    preconditioned relative residual after every inner iteration
    (non-increasing within each restart cycle).  Non-convergence within
    the outer budget returns the best iterate with ``converged=False``
    rather than raising.
    """
    config = config or GmresConfig()
    A = as_csr(A)
    b = np.asarray(b, dtype=complex)
    n = b.size
    right = config.side == "right"

    def apply_p(v):
        return precond.solve(v) if precond is not None else v

    def operator(v):
        # left: P^-1 A v;  right: A P^-1 v (solution recovered through P^-1)
        return A @ apply_p(v) if right else apply_p(A @ v)

    t0 = time.perf_counter()
    pb = b if right else apply_p(b)
    pb_norm = np.linalg.norm(pb)
    x = np.zeros(n, dtype=complex)
    history: list[float] = []
    inner_total = 0
    converged = False
    outer = 0

    if pb_norm == 0.0:
        converged = True
    while not converged and outer < config.max_outer:
        outer += 1
        r = b - A @ x if right else apply_p(b - A @ x)
        beta = np.linalg.norm(r)
        if beta / pb_norm <= config.tol:
            converged = True
            break
        mdim = config.restart
        V = np.empty((n, mdim + 1), dtype=complex)
        H = np.zeros((mdim + 1, mdim), dtype=complex)
        cs = np.empty(mdim, dtype=complex)
        sn = np.empty(mdim, dtype=complex)
        g = np.zeros(mdim + 1, dtype=complex)
        V[:, 0] = r / beta
        g[0] = beta
        j_used = 0
        for j in range(mdim):
            w = operator(V[:, j])
            # modified Gram-Schmidt
            for i in range(j + 1):
                H[i, j] = np.vdot(V[:, i], w)
                w -= H[i, j] * V[:, i]
            H[j + 1, j] = np.linalg.norm(w)
            if H[j + 1, j] != 0.0:
                V[:, j + 1] = w / H[j + 1, j]
            else:
                V[:, j + 1] = 0.0  # lucky breakdown; loop exits on the residual check
            # apply stored Givens rotations
            for i in range(j):
                temp = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -np.conj(sn[i]) * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = temp
            denom = np.hypot(abs(H[j, j]), abs(H[j + 1, j]))
            if denom == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j] = abs(H[j, j]) / denom
                sn[j] = (
                    cs[j] * H[j + 1, j] / H[j, j]
                    if H[j, j] != 0.0
                    else H[j + 1, j] / denom
                )
                sn[j] = np.conj(sn[j])
            temp = cs[j] * g[j] + sn[j] * g[j + 1]
            g[j + 1] = -np.conj(sn[j]) * g[j] + cs[j] * g[j + 1]
            g[j] = temp
            H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
            H[j + 1, j] = 0.0
            inner_total += 1
            j_used = j + 1
            history.append(abs(g[j + 1]) / pb_norm)
            if history[-1] <= config.tol:
                converged = True
                break
        if j_used:
            y = np.linalg.solve(H[:j_used, :j_used], g[:j_used])
            update = V[:, :j_used] @ y
            x = x + (apply_p(update) if right else update)
        if np.isnan(history[-1] if history else 0.0):
            break

    if right:
        final_p = np.linalg.norm(b - A @ x) / pb_norm if pb_norm else 0.0
    else:
        final_p = np.linalg.norm(apply_p(b - A @ x)) / pb_norm if pb_norm else 0.0
    b_norm = np.linalg.norm(b)
    final_t = np.linalg.norm(b - A @ x) / b_norm if b_norm else 0.0
    report = SolveReport(
        method="gmres",
        n=n,
        outer_iterations=outer,
        inner_iterations=inner_total,
        preconditioned_residual=float(final_p),
        true_residual=float(final_t),
        wall_time_s=time.perf_counter() - t0,
        converged=bool(converged and final_p <= 10 * config.tol),
        restart=config.restart,
        tol=config.tol,
        shift=precond.beta if precond is not None else None,
    )
    return x, report, np.asarray(history)


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
