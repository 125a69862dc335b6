"""Sparse complex linear algebra: left-preconditioned restarted GMRES, the
shifted-Laplacian preconditioner and sparse direct solves.

Matrices are scipy CSR with sorted, deduplicated indices; a block folded
from the grid arrives with its unknowns in elimination order, with the
nested-dissection tree of that order, so it is factored as it is, with no
permuted copy, as a block LDL^T on the tree (:class:`FrontalLdlt`).  That
factor takes the two subtrees under the tree's root at once, one in a
forked child process, with numpy's OpenBLAS at one thread in both
(:mod:`igarad._fork`); it runs in this process alone where no child can
run or the root has one subtree.  Solves are serial.  SuperLU, under
minimum degree, factors only matrices that come without a tree
(``solve-mm``'s and the tests' oracle); :func:`_factor` picks between the
two, and both answer the same ``solve``, ``nnz`` and ``nbytes``.  Runs and
studies solve through :class:`FoldedSolve`, direct solves refine once with
any factor.  SuperLU (``scipy.sparse.linalg``) and the Matrix Market
readers and writers (``scipy.io``) are imported where they are called:
they load scipy's own BLAS and LAPACK, which no grid run or study needs,
so such a process maps numpy's OpenBLAS alone.  GMRES reports
``converged`` only when the explicit preconditioned residual
``|P^-1 (b - A x)| / |P^-1 b|``, recomputed at the end of each restart
cycle, meets ``tol``; the unpreconditioned ("true") residual is reported
alongside as a guard.  Solver objects hold factorizations and are not
safe to share across threads; distinct instances are independent.
"""

from __future__ import annotations

import functools
import logging
import mmap
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ._fork import in_two_processes

log = logging.getLogger(__name__)


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
    residual, and outer-iteration (restart cycle) budget.  Every run and
    ``solve-mm`` use these defaults; the GMRES tests set others."""

    restart: int = 50
    tol: float = 1e-8
    max_outer: int = 20

    def __post_init__(self):
        if self.restart < 1:
            raise ValueError("restart must be >= 1")
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


@dataclass
class SolveReport:
    """Iteration counts and residuals of one linear solve.

    For GMRES, ``history`` holds the Arnoldi estimate after every inner
    iteration; restart cycle ``c`` made ``cycle_lengths[c]`` of them and
    ended with the explicit preconditioned residual ``cycle_residuals[c]``,
    the figure that decides whether another cycle runs.
    """

    method: str
    n: int
    outer_iterations: int
    inner_iterations: int
    preconditioned_residual: float
    true_residual: float
    wall_time_s: float
    converged: bool
    restart: int
    tol: float
    shift: float | None = None
    history: list[float] = field(default_factory=list)
    cycle_lengths: list[int] = field(default_factory=list)
    cycle_residuals: list[float] = field(default_factory=list)


class _SuperLU:
    """SuperLU factor of a square sparse matrix; ``what`` names it if singular.

    SuperLU reads the canonical CSR arrays of ``matrix`` as the CSC of its
    transpose, so no CSC copy is made, and :meth:`solve` solves with the
    transposed factor.  The systems here are structurally symmetric, so
    SuperLU runs in symmetric mode, preferring diagonal pivots, under
    minimum degree on the pattern of ``A^T + A``.  Threshold partial
    pivoting stays on: a diagonal entry is kept only while it is at least
    0.001 times the largest entry of its column, so a tiny diagonal is
    still pivoted away.  The ordering needs the small threshold to pay off:
    with the default threshold 1.0 minimum degree gives more fill than
    SuperLU's COLAMD.  ``nnz`` counts the entries of L and U, ``nbytes``
    their bytes at 16 B of value and a 4 B row index per entry.
    ``scipy.sparse.linalg``, and with it scipy's BLAS and LAPACK, is
    imported on the first factor, and ``splu`` is looked up on that module
    at every call, where the benchmark's traced runs wrap it.
    """

    def __init__(self, matrix, what: str):
        import scipy.sparse.linalg as spla

        matrix = as_csr(matrix)
        transpose = sp.csc_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape[::-1])
        try:
            self.lu = spla.splu(
                transpose,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.001,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise RuntimeError(f"singular {what}: {exc}") from exc
        self.nnz = int(self.lu.nnz)
        self.nbytes = 20 * self.nnz
        self.child_peak_rss_mib = None  # factored in this process

    def solve(self, v) -> np.ndarray:
        """Solve ``matrix x = v``."""
        return self.lu.solve(np.asarray(v, dtype=complex), trans="T")


def _subtract_rows(F, front, e, updates) -> list:
    """Split each of the children's ``updates`` (sorted unknowns ``u`` and
    their negated Schur complement ``N``) at this node's last unknown
    ``e``: the rows on the node's own unknowns are subtracted from its
    fully-summed rows ``F`` (columns ``front``), by one ``np.subtract.at``
    over flat positions (faster than 2-D fancy indexing); the block on its
    ancestors is returned with its positions in them, for the node's own
    ``N``."""
    flat, k, uppers = F.reshape(-1), F.shape[0], []
    for u, N in updates:
        i = np.searchsorted(u, e)
        pos = np.searchsorted(front, u)
        np.subtract.at(flat, ((u[:i] - front[0])[:, None] * front.size + pos).ravel(), N[:i].ravel())
        uppers.append((pos[i:] - k, N[i:, i:]))
    return uppers


def _fronts(P, tree):
    """Structure of the fronts of :class:`FrontalLdlt`: per node that owns
    unknowns, in postorder, ``(start, stop, up)``, and the front that takes
    its update (``-1`` for none).

    ``up`` is the sorted ancestor unknowns the node's rows of the pattern
    ``P`` reach, joined with its children's.  A node that owns no
    unknown passes its children's on to its parent.  Raises ``ValueError``
    if the tree does not match the pattern (it must number the matrix's
    unknowns, and an unknown must couple only within its subtree and to its
    ancestors).
    """
    offsets, parent = tree.offsets, tree.parent
    if offsets[-1] != P.shape[0]:
        raise ValueError(f"the tree numbers {offsets[-1]} unknowns, the matrix has {P.shape[0]}")
    structure, target = [], []
    below: dict[int, list] = {}  # node -> fronts whose update it takes
    for p, (s, e) in enumerate(zip(offsets[:-1], offsets[1:])):
        fronts = below.pop(p, [])
        if min((structure[f][2][0] for f in fronts), default=s) < s:
            raise ValueError(f"node {p} of the tree is not an ancestor of every unknown its subtree couples to")
        if s == e:
            if parent[p] >= 0:
                below.setdefault(parent[p], []).extend(fronts)
            continue
        for f in fronts:
            target[f] = len(structure)
        cols = P.indices[P.indptr[s] : P.indptr[e]]
        up = np.unique(np.concatenate([cols[cols >= e], *(structure[f][2] for f in fronts)]))
        up = up[up >= e]
        if up.size:
            if parent[p] < 0:
                raise ValueError(f"the root of the tree couples to {up.size} unknowns outside it")
            below.setdefault(parent[p], []).append(len(structure))
        structure.append((s, e, up))
        target.append(-1)
    return structure, target


def _storage(structure) -> tuple[list[int], int]:
    """Entries each front of :func:`_fronts` keeps, ``k^2 + k u``, and the
    bytes of all of them in complex128 with the fronts' ``up`` arrays."""
    sizes = [int((e - s) * (e - s + up.size)) for s, e, up in structure]
    return sizes, 16 * sum(sizes) + sum(up.nbytes for _, _, up in structure)


def frontal_storage(P, tree) -> tuple[int, int]:
    """``(nnz, nbytes)`` of the :class:`FrontalLdlt` of ``P`` on ``tree``,
    from P's pattern alone, without factoring."""
    sizes, nbytes = _storage(_fronts(as_csr(P), tree)[0])
    return sum(sizes), nbytes


def _factor_fronts(P, what, fronts, target, pending, order) -> None:
    """Factor the :class:`FrontalLdlt` ``fronts`` numbered in ``order``, in
    that order, writing each front's ``W`` and ``X`` in place.  ``pending``
    maps a front to the updates of the fronts below it, ``(up, N)``; each
    front takes its own and adds its ``N`` for ``target[f]``."""
    for f in order:
        s, e, up, W, X = fronts[f]
        k = e - s
        front = np.concatenate([np.arange(s, e), up])
        F = np.zeros((k, front.size), dtype=complex)  # the fully-summed rows [F11 F12]
        lo, hi = P.indptr[s], P.indptr[e]
        cols = P.indices[lo:hi]
        rows = np.repeat(np.arange(k), np.diff(P.indptr[s : e + 1]))
        keep = cols >= s  # the rest is the symmetric half of a descendant's rows
        F[rows[keep], np.searchsorted(front, cols[keep])] = P.data[lo:hi][keep]
        uppers = _subtract_rows(F, front, e, pending.pop(f, []))
        try:
            W[...] = np.linalg.inv(F[:, :k])
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"singular {what}: pivot block of front {f}: {exc}") from exc
        if not np.all(np.isfinite(W)):
            raise RuntimeError(f"singular {what}: pivot block of front {f} has a non-finite inverse")
        # the solve applies X^T as W F12, which needs W symmetric; inv leaves
        # it asymmetric by roundoff times the pivot block's condition
        W += W.T
        W *= 0.5
        np.matmul(F[:, k:].T, W, out=X)
        N = X @ F[:, k:]
        del F
        while uppers:  # each child's block goes as soon as it is added
            pos, block = uppers.pop()
            np.add.at(N.reshape(-1), (pos[:, None] * up.size + pos).ravel(), block.ravel())
            del block
        if up.size:
            pending.setdefault(target[f], []).append((up, N))
        del N


def _root_split(target) -> int:
    """Number of fronts in the first subtree under the root front (the last
    one): ``f + 1`` for the first front ``f`` whose update the root takes,
    since in postorder fronts ``0 .. f`` are exactly ``f``'s subtree (with
    any tree before it that updates no front past it); 0 where the root
    takes fewer than two fronts' updates."""
    root = len(target) - 1
    below = [f for f, t in enumerate(target) if t == root]
    return below[0] + 1 if len(below) > 1 else 0


class FrontalLdlt:
    """Block LDL^T of a complex symmetric ``P`` (a shifted Laplacian
    ``A - i beta M``, or A itself), front by front over a nested-dissection
    tree (multifrontal: Duff & Reid, ACM TOMS 9, 1983).

    ``tree`` (a :class:`igarad.assembly.DissectionTree` in P's numbering)
    gives, per node in postorder, the range ``offsets[p]`` to
    ``offsets[p + 1]`` of its own unknowns and its ``parent``.  The front of
    a node is its own unknowns plus ``up``, the ancestor unknowns its rows
    of P or its children's update matrices reach (:func:`_fronts`); every
    subtree is a contiguous range, so ``up`` lies past the node's own
    range.  Only the front's fully-summed rows ``F = [F11 F12]`` are formed
    (``k x (k + u)`` for ``k`` own and ``u`` ancestor unknowns), from the
    node's rows of P right of its first unknown (entries left of it belong
    to descendants' fronts), less the rows of the children's blocks that
    fall on the node's own unknowns.  ``W = inv(F11)``, symmetrized, and
    ``X = F12^T W`` are kept; the node passes up ``N = X F12`` plus the
    rest of its children's blocks, the negated Schur complement on ``up``
    (its ``F22`` is never formed: those entries of P are an ancestor's
    rows).  ``inv`` pivots only inside the pivot block, so pivoting is
    static across fronts.  A node that owns none of the unknowns (a block
    of Dirichlet dofs) passes its children's blocks on unchanged.

    Only numpy's ``inv`` and ``@`` are used: scipy's BLAS and LAPACK run on
    a thread pool of their own, and switching between the two pools on
    every small block costs more than the blocks.  ``nnz`` counts the
    stored entries, ``sum k^2 + k u`` over the fronts; ``nbytes`` the bytes
    of the blocks and their index arrays (:func:`frontal_storage`).  Both
    are counted from the tree before the one allocation that holds the
    blocks, and logged at INFO, so a factor too large to fit says so first.

    The factor runs on two cores (the subtree-to-process mapping of Amestoy,
    Duff, L'Excellent & Koster, SIMAX 23, 2001).  The allocation is an
    anonymous shared mapping.  A forked child factors the first subtree
    under the root front, which postorder makes the prefix of the fronts
    (:func:`_root_split`), and writes its blocks there in place, while this
    process factors the other fronts below the root; the root front comes
    last, from both halves' updates, in the order a serial factor adds
    them.  Both processes run numpy's OpenBLAS at one thread meanwhile
    (:func:`igarad._fork.in_two_processes`, which forks, reaps and restores
    the thread count).  The child's errors are raised here as they would be
    raised in one process, and its peak resident set is
    ``child_peak_rss_mib``.  Where no child can run (no settable thread
    count, one usable core, a fork that fails) or the root front takes
    fewer than two fronts' updates, every front is factored in this process
    and ``child_peak_rss_mib`` is ``None``.  The results differ from a
    one-process factor by roundoff only: a one-thread BLAS does not sum in
    the order a two-thread one does.
    """

    def __init__(self, P, tree, what: str):
        P = as_csr(P)
        structure, target = _fronts(P, tree)
        # every block in one allocation: the factor does not interleave with
        # the fronts' temporaries, and its memory goes back as a whole; it is
        # a shared mapping, so a forked child writes its blocks in place
        sizes, self.nbytes = _storage(structure)
        self.nnz = sum(sizes)
        log.info("%s: %d unknowns, %d stored entries, %d bytes (%.2f GiB)",
                 what, P.shape[0], self.nnz, self.nbytes, self.nbytes / 2**30)
        store = np.frombuffer(mmap.mmap(-1, max(16 * self.nnz, 1)), dtype=complex, count=self.nnz)
        self.fronts = []  # (start, stop, up, W, X) per front, in postorder
        for (s, e, up), at in zip(structure, np.cumsum([0, *sizes[:-1]])):
            k = e - s
            W = store[at : at + k * k].reshape(k, k)
            self.fronts.append((s, e, up, W, store[at + k * k : at + k * (k + up.size)].reshape(up.size, k)))
        factor = functools.partial(_factor_fronts, P, what, self.fronts, target)
        split, pending = _root_split(target), {}
        self.child_peak_rss_mib = None
        if split:
            root, up = len(self.fronts) - 1, self.fronts[split - 1][2]
            update = np.frombuffer(mmap.mmap(-1, 16 * up.size**2), dtype=complex).reshape(up.size, up.size)

            def first_subtree():  # its update for the root goes back through shared memory
                own = {}
                factor(own, range(split))
                ((_, block),) = own.pop(root)
                update[...] = block

            self.child_peak_rss_mib = in_two_processes(
                first_subtree, lambda: factor(pending, range(split, root)),
                f"{what}: the child process factoring fronts 0 to {split - 1}")
        if self.child_peak_rss_mib is None:
            factor(pending, range(len(self.fronts)))
        else:
            log.info("%s: fronts 0 to %d of %d factored in a child process, its peak RSS %.0f MiB",
                     what, split - 1, len(self.fronts), self.child_peak_rss_mib)
            pending[root] = [(up, update), *pending.get(root, [])]
            factor(pending, [root])

    def solve(self, v) -> np.ndarray:
        """Solve ``P x = v``: forward over the postorder, then back."""
        c = np.array(v, dtype=complex)
        for s, e, up, _, X in self.fronts:
            if up.size:
                c[up] -= X @ c[s:e]
        for s, e, up, W, X in reversed(self.fronts):
            own = W @ c[s:e]
            if up.size:
                own -= X.T @ c[up]
            c[s:e] = own
        return c


def _factor(P, tree, what: str):
    """Factor of ``P``: :class:`FrontalLdlt` on the nested-dissection
    ``tree`` that numbers P, or, without one, :class:`_SuperLU`.  Either
    answers ``solve``, ``nnz``, ``nbytes`` and ``child_peak_rss_mib``;
    ``what`` names it if singular."""
    if tree is None:
        return _SuperLU(P, what)
    return FrontalLdlt(P, tree, what)


class FoldedSolve:
    """``sum_p T_p F_p^-1 T_p^T`` over ``blocks``, pairs of a map ``T_p``
    (:attr:`igarad.assembly.MirrorFold.matrix`) and a factor ``F_p`` of
    ``T_p^T P T_p`` (:func:`igarad.assembly.fold_system`).  With the even
    and the odd map of a mirror-symmetric P it is ``P^-1``, since no block
    of P joins the two (Bossavit, CMAME 56, 1986); with the even map alone,
    on an even vector, whose image P keeps even."""

    def __init__(self, blocks):
        self.blocks = blocks

    def solve(self, v) -> np.ndarray:
        return functools.reduce(np.add, (T @ factor.solve(T.T @ v) for T, factor in self.blocks))


class CslpPreconditioner:
    """Shifted-Laplacian preconditioner, applied by a factor (:func:`_factor`)
    of the caller's ``P = A - i beta M``; only the factor is kept, and
    ``beta`` is recorded for the solve's report (``beta = 0``: P is A).

    With the nested-dissection ``tree`` that numbers P (a run's
    :attr:`igarad.assembly.MirrorFold.tree`), P is factored by
    :class:`FrontalLdlt`, so it must be complex symmetric; without one, by
    SuperLU.  ``lu_nnz`` is the factor's stored entries, ``factor_bytes``
    their bytes and ``child_peak_rss_mib`` the peak resident set of the tree
    factor's child process (``None`` without one).  With ``fold``, a run's
    even map ``T`` (:attr:`igarad.assembly.MirrorFold.matrix`), P is the
    folded ``T^T P T`` and :meth:`solve` applies ``T (T^T P T)^-1 T^T``
    (:class:`FoldedSolve`).
    """

    def __init__(self, P, beta: float, tree=None, fold=None):
        if not 0 <= beta < np.inf:
            raise ValueError("shift beta must be nonnegative and finite")
        if fold is not None and fold.shape[1] != P.shape[0]:
            raise ValueError(f"the fold maps {fold.shape[1]} unknowns, P has {P.shape[0]}")
        self.beta = float(beta)
        factor = _factor(P, tree, "shifted-Laplacian factorization")
        self.lu_nnz, self.factor_bytes, self.child_peak_rss_mib = factor.nnz, factor.nbytes, factor.child_peak_rss_mib
        self.factor = factor if fold is None else FoldedSolve([(fold, factor)])

    def solve(self, v: np.ndarray) -> np.ndarray:
        return self.factor.solve(v)


def build_cslp(P, beta: float, tree=None, fold=None) -> CslpPreconditioner:
    """Factorized shifted-Laplacian preconditioner (see :class:`CslpPreconditioner`)."""
    return CslpPreconditioner(P, beta, tree, fold)


def direct_solve(A, b, *, factor=None) -> np.ndarray:
    """Solve ``A x = b`` directly, with one step of iterative refinement,
    ``x += F^-1 (b - A x)`` (Li & Demmel, ACM TOMS 29, 2003).

    ``factor.solve`` applies ``F^-1``: in a study the :class:`FoldedSolve`
    of A's even and odd blocks' tree factors; without one, SuperLU's, the
    tests' oracle.  Both pivot statically across blocks, so where a pivot
    block is ill-conditioned the factor alone leaves a residual far above
    roundoff: with the full grid's tree factor 7.3e-9 on 60 x 45 desk
    physics at k = 277.5, refined 3.8e-15; with SuperLU 2.2e-12 on the desk
    run's A, refined 8.6e-16.
    """
    A = as_csr(A)
    if factor is None:
        factor = _SuperLU(A, "matrix in direct solve")
    x = factor.solve(b)
    x += factor.solve(b - A @ x)
    return x


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


def _mmwrite(path, a) -> None:
    """``scipy.io.mmwrite`` into a file opened here: given a path it cannot
    open, ``mmwrite`` writes nothing and raises nothing, where ``open``
    raises ``OSError``."""
    import scipy.io

    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, a)


def save_matrix_market(path, A) -> None:
    """Matrix Market export (complex general coordinate format); ``OSError``
    if ``path`` cannot be written."""
    _mmwrite(path, as_csr(A))


def load_matrix_market(path) -> sp.csr_matrix:
    """Read a Matrix Market file as complex CSR."""
    import scipy.io

    return as_csr(scipy.io.mmread(str(path)))


def save_vector(path, v) -> None:
    """Matrix Market export of a column vector (complex array format);
    ``OSError`` if ``path`` cannot be written."""
    _mmwrite(path, np.asarray(v, dtype=complex).reshape(-1, 1))


def load_vector(path) -> np.ndarray:
    """Read a Matrix Market vector, in array or coordinate format: one row
    or one column, else ``ValueError``."""
    import scipy.io

    arr = scipy.io.mmread(str(path))
    if sp.issparse(arr):
        arr = arr.toarray()
    arr = np.asarray(arr, dtype=complex)
    if 1 not in arr.shape:
        raise ValueError(f"{path}: a {arr.shape[0]} x {arr.shape[1]} matrix, not a vector")
    return arr.ravel()
