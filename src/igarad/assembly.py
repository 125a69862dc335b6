"""Galerkin assembly of the Helmholtz sesquilinear form on the unit square.

All integrals are computed in parametric coordinates: the gradient term is
pulled back with the metric ``(J^T J)^{-1} |det J|``, the mass term is
weighted by ``|det J|``, and the impedance (Robin) boundary term becomes
three line integrals along the parametric edges xi=0, eta=1, xi=1 with the
edge speed as arc-length factor.  The inverse geometry map is never
evaluated.

Each direction's basis is tabulated once on all its Gauss nodes
(:func:`igarad.bspline.tabulate`); the geometry Jacobian is evaluated once
per slab of xi nodes on the volume (from designs tabulated once) and once
per edge.  The volume integrals are sum-factorized slab by slab (Antolin,
Buffa, Calabro, Martinelli & Sangalli, CMAME 285, 2015): the metric
weights at the slab's nodes are contracted over eta first, by one sparse
product with an operator built once per call (:func:`_eta_operator`), into
the 1D eta coupling band, and then over xi, by one dense product per
matrix.  Every pair the slab produces is a distinct entry of S and M, so
each is summed into CSR ``data`` by one plain scatter per slab.  The
pattern is the Kronecker product of the knot vectors' 1D coupling bands
over the full ``N x N`` index set.  Where the problem is mirror-symmetric
under x -> -x (:func:`_mirror_asymmetry`), only the slabs that hold the
left xi functions are summed, and each right row of S and M is copied from
its mirror (Bossavit, CMAME 56, 1986), so S and M are mirror-symmetric bit
for bit.

A run numbers its free dofs in grid order (:func:`classify_dofs`), so
:func:`build_system` takes A's rows past the few that reach a Dirichlet dof
as contiguous slices of the pattern and gathers only those few entry by
entry (:class:`Gather`).  The studies factor A itself and number the free
dofs in the elimination order of the grid's nested dissection
(:meth:`DofPartition.dissected`), whose tree (:class:`DissectionTree`) the
partition carries.  A run's field is even under the mirror, so its
preconditioner is factored on the even unknowns (:class:`MirrorFold`,
numbered by the tree of the left half of the grid): :func:`fold_system`
sums each row of ``T^T P T``, for the shifted ``P = A - i beta M`` it
factors, from the unknown's own row of the pattern.

A slab writes only the rows of its ``order`` xi functions, so slabs far
apart write disjoint entries, and the slabs run on two cores (the
subtree-to-process split of the factor, :class:`igarad.solver.FrontalLdlt`):
a forked child sums the first half, this process the second half from the
first slab that shares no entry with the child's last, both into S's and
M's ``data`` in one anonymous shared mapping
(:func:`igarad._fork.in_two_processes`).  The few slabs between (3 for
cubic) run here after the join.  Where no child can run, every slab runs
here in order; the two differ by roundoff on the entries those slabs
share with the halves, which are summed in another order.
"""

from __future__ import annotations

import logging
import mmap
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from ._fork import in_two_processes
from .bspline import KnotVector, TensorProductSpace, tabulate
from .bspline import eval_basis  # noqa: F401  bench/layers.py traces this name
from .geometry import CoonsSurface, DomainConfig

log = logging.getLogger(__name__)


class NonPositiveJacobianError(RuntimeError):
    """Geometry map is degenerate or folded at a quadrature point."""

    def __init__(self, xi: float, eta: float, det: float):
        super().__init__(
            f"nonpositive Jacobian determinant det={det:.6g} at (xi, eta)=({xi:.6g}, {eta:.6g})"
        )
        self.xi = xi
        self.eta = eta
        self.det = det

    def __reduce__(self):  # the default would call __init__ with the message alone
        return type(self), (self.xi, self.eta, self.det)


@dataclass(frozen=True)
class _DirectionRule:
    """Per-span Gauss-Legendre rule along one parametric direction."""

    nodes: np.ndarray    # (n_elements, n_points)
    weights: np.ndarray  # (n_elements, n_points)


def _direction_rule(kv: KnotVector, npoints: int, lo=0.0, hi=1.0) -> _DirectionRule:
    """Gauss rule per span, restricted to the parametric interval [lo, hi]."""
    spans = kv.spans()
    ref_x, ref_w = np.polynomial.legendre.leggauss(npoints)
    t0 = np.maximum(kv.knots[spans], lo)
    t1 = np.minimum(kv.knots[spans + 1], hi)
    keep = t1 - t0 > 1e-15
    t0, t1 = t0[keep], t1[keep]
    mid = 0.5 * (t0 + t1)
    half = 0.5 * (t1 - t0)
    return _DirectionRule(
        nodes=mid[:, None] + half[:, None] * ref_x[None, :],
        weights=half[:, None] * ref_w[None, :],
    )


class QuadratureRule:
    """Tensor Gauss-Legendre quadrature per nonempty knot span.

    The default of ``order + 1`` points per direction per span integrates
    the polynomial part of every integrand exactly; the rational geometry
    weight makes no rule exact, so accuracy is guarded by refinement
    tests.  Rules with fewer than ``order`` points per span trigger an
    under-integration warning.

    Edge integrals (Robin boundary mass and boundary loads) use one more
    point per span than ``points_xi`` and ``points_eta``, built on the
    edge's parametric range.  They are one-dimensional,
    so this costs little, and their arc-speed factor is far from
    polynomial next to the arc junctions, where the boundary
    parametrization slows to zero speed.
    """

    def __init__(self, space: TensorProductSpace, points_xi: int | None = None, points_eta: int | None = None):
        self.points_xi = points_xi if points_xi is not None else space.kv_xi.order + 1
        self.points_eta = points_eta if points_eta is not None else space.kv_eta.order + 1
        for npts, kv, name in (
            (self.points_xi, space.kv_xi, "xi"),
            (self.points_eta, space.kv_eta, "eta"),
        ):
            if npts < 1:
                raise ValueError("quadrature needs at least one point per span")
            if npts < kv.order:
                warnings.warn(
                    f"{npts} Gauss points per span under-integrates order-{kv.order} "
                    f"splines in {name}",
                    stacklevel=2,
                )
        self.xi = _direction_rule(space.kv_xi, self.points_xi)
        self.eta = _direction_rule(space.kv_eta, self.points_eta)


def _tabulate(kv: KnotVector, rule: _DirectionRule):
    """Basis values/derivatives on the rule's nodes.

    Returns ``(vals, ders, first)`` with ``vals[e, a, q]`` the a-th active
    function at node q of element e and ``first[e]`` its global offset.
    """
    n_el, n_q = rule.nodes.shape
    first, vals, ders = tabulate(kv, rule.nodes.ravel())
    shape = (n_el, n_q, kv.order)
    vals, ders = (v.reshape(shape).transpose(0, 2, 1) for v in (vals, ders))
    return vals, ders, first[::n_q]


def _band(kv: KnotVector):
    """1D coupling pattern of ``kv``'s basis: each row's first coupled
    column and the number of them.

    ``B_i`` and ``B_i'`` couple iff their open supports ``(t_i, t_{i+order})``
    overlap, which holds for one contiguous range of ``i'`` per row; with
    repeated interior knots that range is narrower than ``|i - i'| < order``.
    """
    t, nb = kv.knots, kv.num_basis
    # row i runs from the first i' with t_{i'+order} > t_i to the last with t_{i'} < t_{i+order}
    first = np.searchsorted(t[kv.order:], t[:nb], side="right")
    stop = np.searchsorted(t[:nb], t[kv.order:], side="left")
    return first, stop - first


def _tensor_pattern(first_x, len_x, first_e, len_e):
    """CSR ``indptr`` and ``indices`` of the Kronecker product of the eta
    and xi bands (flat index ``j * n + i``), built slab by slab of eta rows.

    Row ``(j, i)`` holds ``(first_e[j] + a) * n + first_x[i] + b`` for
    ``a < len_e[j]``, ``b < len_x[i]``, in that order.
    """
    n = first_x.size
    row_len = np.outer(len_e, len_x).ravel()
    index_type = np.int32 if row_len.sum() <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(row_len.size + 1, dtype=index_type)
    np.cumsum(row_len, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=index_type)
    for j, (fe, le) in enumerate(zip(first_e, len_e)):
        lens = le * len_x
        k = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)  # offset in row
        width = np.repeat(len_x, lens)
        cols = (fe + k // width) * n + np.repeat(first_x, lens) + k % width
        indices[indptr[j * n] : indptr[(j + 1) * n]] = cols
    return indptr, indices


@dataclass(frozen=True)
class DissectionTree:
    """A nested-dissection tree of dofs, its nodes in postorder.

    Node ``p`` owns the dofs ``order[offsets[p]:offsets[p + 1]]``, a
    separator or a leaf block, and hangs below ``parent[p]``, a later node
    (``-1`` for the root); a separator's node has the two halves it splits
    as children.  ``order``, the nodes' own dofs one node after the other,
    is the elimination order, and every subtree owns one contiguous range of
    it that ends with its root's dofs.
    """

    order: np.ndarray
    offsets: np.ndarray
    parent: np.ndarray

    def restrict(self, keep: np.ndarray) -> "DissectionTree":
        """The same tree over the dofs selected by the boolean mask ``keep``
        (by dof index).  A node left with no dofs stays, with an empty range."""
        kept = keep[self.order]
        counts = np.concatenate([[0], np.cumsum(kept)])
        return DissectionTree(self.order[kept], counts[self.offsets], self.parent)


@dataclass(frozen=True)
class DofPartition:
    """Split of the flattened dof indices into free and Dirichlet sets.

    Dirichlet dofs are the bottom-row (eta index 0) basis functions whose
    support meets the transducer aperture on the bottom edge; every other
    basis function vanishes identically on that segment.  ``dirichlet`` is
    sorted.  ``free`` numbers the free dofs: the restricted system's row
    and column ``i`` belong to dof ``free[i]``.  Without a ``tree`` they are
    in grid order (sorted), as a run numbers them; with one
    (:meth:`dissected`), ``free`` is ``tree.order``, the elimination order
    of the grid's :func:`nested_dissection` without the Dirichlet dofs, in
    the restricted system's numbering, which the studies factor A on.
    """

    dirichlet: np.ndarray
    xi_left: float
    xi_right: float
    free: np.ndarray
    tree: DissectionTree | None = None

    @property
    def n_free(self) -> int:
        return self.free.size

    @property
    def n_dirichlet(self) -> int:
        return self.dirichlet.size

    def dissected(self, space: TensorProductSpace) -> "DofPartition":
        """The same split with the free dofs numbered by the nested
        dissection of ``space``'s grid, carrying its tree."""
        is_free = np.ones(space.size, dtype=bool)
        is_free[self.dirichlet] = False
        tree = nested_dissection(space.n, space.m, space.kv_xi.order, space.kv_eta.order).restrict(is_free)
        return replace(self, free=tree.order, tree=tree)


def classify_dofs(space: TensorProductSpace, cfg: DomainConfig) -> DofPartition:
    """Locate the Dirichlet dofs from the aperture preimage
    (:attr:`DomainConfig.aperture_preimage`) and number the rest in grid
    order."""
    xi_left, xi_right = cfg.aperture_preimage
    kv = space.kv_xi
    # B_i is not identically null on the aperture iff its open support
    # (t_i, t_{i+order}) meets (xi_left, xi_right).  When the aperture
    # endpoints sit between knots this is the active range of the two
    # containing spans; when they coincide with knots the function whose
    # support only touches an endpoint is correctly excluded.
    i_all = np.arange(kv.num_basis)
    on_aperture = (kv.knots[i_all] < xi_right) & (kv.knots[i_all + kv.order] > xi_left)
    dirichlet = i_all[on_aperture].astype(np.int64)  # flat q = 0*n + i
    is_free = np.ones(space.size, dtype=bool)
    is_free[dirichlet] = False
    return DofPartition(dirichlet=dirichlet, xi_left=xi_left, xi_right=xi_right, free=np.flatnonzero(is_free))


_ND_LEAF = 32  # blocks this small keep the natural order; 64 fills 3 % more at 27,936 dofs


def nested_dissection(n: int, m: int, order_xi: int, order_eta: int) -> DissectionTree:
    """Fill-reducing order of an ``n x m`` tensor grid of order
    ``order_xi x order_eta`` splines: geometric nested dissection (George,
    SINUM 10, 1973), with its tree.

    Two basis functions couple only if their indices differ by less than
    the order in both directions, so ``order - 1`` whole grid lines split a
    block of the grid in two.  Each block is cut across its longer side,
    the halves are ordered recursively and the separator after them;
    blocks of at most ``_ND_LEAF`` dofs (or too thin to cut) are leaves in
    the natural order.  The tree's ``order`` holds the flat indices
    ``j * n + i`` of all ``n * m`` grid points in elimination order.
    """
    cut_x, cut_e = order_xi - 1, order_eta - 1
    blocks, parent = [], []

    def node(i0, i1, j0, j1, children=()):
        blocks.append((np.arange(j0, j1)[:, None] * n + np.arange(i0, i1)).ravel())
        parent.append(-1)
        for child in children:
            parent[child] = len(blocks) - 1
        return len(blocks) - 1

    def dissect(i0, i1, j0, j1):
        wx, we = i1 - i0, j1 - j0
        if wx * we <= _ND_LEAF:
            return node(i0, i1, j0, j1)
        if wx >= we and wx > cut_x + 1:
            a = i0 + (wx - cut_x) // 2
            halves = dissect(i0, a, j0, j1), dissect(a + cut_x, i1, j0, j1)
            return node(a, a + cut_x, j0, j1, halves)
        if we > cut_e + 1:
            a = j0 + (we - cut_e) // 2
            halves = dissect(i0, i1, j0, a), dissect(i0, i1, a + cut_e, j1)
            return node(i0, i1, a, a + cut_e, halves)
        return node(i0, i1, j0, j1)

    dissect(0, n, 0, m)
    offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
    np.cumsum([b.size for b in blocks], out=offsets[1:])
    return DissectionTree(np.concatenate(blocks), offsets, np.array(parent, dtype=np.int64))


_MIRROR_TOL = 1e-10  # relative: 2.2e-16 on the shipped xi knots, 1.4e-14 on their patches' nets


@dataclass(frozen=True)
class MirrorFold:
    """The 0/1 map ``T`` from the even unknowns of a mirror-symmetric problem
    to its free dofs.

    Mirroring ``x -> -x`` maps xi column ``i`` to ``n - 1 - i``.  Unknown
    ``u`` stands for the free dof ``tree.order[u]`` (a flat grid index) in
    the left ``ceil(n / 2)`` columns and its mirror; on the middle column
    of an odd ``n`` the two are one dof.  ``tree`` is the
    :func:`nested_dissection` of the left columns without the Dirichlet
    dofs, so it numbers the unknowns; ``unknown`` maps each free dof, in
    the restricted system's numbering, to its unknown.
    """

    tree: DissectionTree
    unknown: np.ndarray

    @property
    def n_unknowns(self) -> int:
        return int(self.tree.offsets[-1])

    @property
    def matrix(self) -> sp.csr_matrix:
        """``T``: row ``i`` has a 1 in the column of free dof ``i``'s unknown."""
        n = self.unknown.size
        return sp.csr_matrix((np.ones(n), self.unknown, np.arange(n + 1)), shape=(n, self.n_unknowns))


def _mirror_asymmetry(space: TensorProductSpace, geometry: CoonsSurface, quad: QuadratureRule | None = None):
    """Why the problem on ``space`` and ``geometry`` is not mirror-symmetric
    under x -> -x (xi -> 1 - xi), or ``None`` where it is: the space's xi
    knots (``t + t[::-1] = 1``) and coupling band, ``quad``'s xi nodes and
    weights, and the geometry's xi knots, control net and weights,
    reflected in xi and in x, to ``_MIRROR_TOL`` relative to 1 and to the
    net's extent."""

    def symmetric(knots):
        return np.max(np.abs(knots + knots[::-1] - 1.0)) <= _MIRROR_TOL

    if not symmetric(space.kv_xi.knots):
        return "the xi knots are not mirror-symmetric"
    width = _band(space.kv_xi)[1]
    if not np.array_equal(width, width[::-1]):
        return "the xi coupling band is not mirror-symmetric"
    if quad is not None:
        nodes, weights = quad.xi.nodes.ravel(), quad.xi.weights.ravel()
        if not symmetric(nodes) or np.max(np.abs(weights - weights[::-1])) > _MIRROR_TOL * np.max(weights):
            return "the xi quadrature is not mirror-symmetric"
    ctrl, w = geometry.ctrl, geometry.weights
    mirrored = np.stack([-ctrl[::-1, :, 0], ctrl[::-1, :, 1]], axis=-1)
    if (not symmetric(geometry.kv_xi.knots)
            or np.max(np.abs(mirrored - ctrl)) > _MIRROR_TOL * np.max(np.abs(ctrl))
            or np.max(np.abs(w[::-1] - w)) > _MIRROR_TOL * np.max(w)):
        return "the patch is not mirror-symmetric in x"
    return None


def mirror_fold(space: TensorProductSpace, partition: DofPartition, geometry: CoonsSurface) -> MirrorFold:
    """The :class:`MirrorFold` of ``space``'s free dofs.

    Raises ``ValueError`` unless the problem is mirror-symmetric
    (:func:`_mirror_asymmetry`) and the Dirichlet set is, exactly.
    """
    n, m = space.n, space.m
    asymmetry = _mirror_asymmetry(space, geometry)
    if asymmetry is not None:
        raise ValueError(asymmetry)

    def mirror(q):
        return q + n - 1 - 2 * (q % n)

    if not np.array_equal(np.sort(mirror(partition.dirichlet)), np.sort(partition.dirichlet)):
        raise ValueError("the Dirichlet set is not mirror-symmetric")
    h = (n + 1) // 2
    half = nested_dissection(h, m, space.kv_xi.order, space.kv_eta.order)
    is_free = np.ones(space.size, dtype=bool)
    is_free[partition.dirichlet] = False
    tree = DissectionTree(half.order // h * n + half.order % h, half.offsets, half.parent).restrict(is_free)
    number = np.empty(space.size, dtype=np.int64)
    number[tree.order] = np.arange(tree.order.size)
    free = partition.free
    return MirrorFold(tree, number[np.where(2 * (free % n) <= n - 1, free, mirror(free))])


@dataclass(frozen=True)
class SystemMatrices:
    """Stiffness, mass and Robin boundary-mass matrices over all N dofs.

    Entries are real; the complex Helmholtz combination is formed in
    :func:`build_system`.  ``child_peak_rss_mib`` is the peak resident set
    of the child process :func:`assemble` ran half the slabs in, ``None``
    where it ran in one process.
    """

    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    robin_mass: sp.csr_matrix
    child_peak_rss_mib: float | None = None


def _eta_operator(be: np.ndarray, dbe: np.ndarray, fe: np.ndarray, first_e: np.ndarray, len_e: np.ndarray):
    """The eta half of the sum-factorized volume integrals, as one sparse matrix.

    The volume terms are, with ``X`` the xi and ``Y`` the eta factor of a
    tensor-product function and ``'`` marking the column function:
    ``w11 dX dX' Y Y'``, ``w22 X X' dY dY'``, ``w12 dX X' Y dY'``,
    ``w12 X dX' dY Y'`` (the stiffness) and ``wm X X' Y Y'`` (the mass).
    Entry ``t`` of the 1D eta coupling band couples eta row
    ``rows[t]`` with column ``first_e[rows[t]] + slots[t]``.  ``G`` maps the
    five weights at every eta node, stacked term by term, to the eta sums
    ``sum_{e2, q2} w[e2, q2] Y Y'`` of each band entry: row ``5 t + term``.
    Returns ``(G, rows, slots)``.
    """
    E2, k2, q2 = be.shape
    band_ptr = np.concatenate([[0], np.cumsum(len_e)])
    rows = np.repeat(np.arange(len_e.size), len_e)
    slots = np.arange(band_ptr[-1]) - band_ptr[rows]
    ge = fe[:, None] + np.arange(k2)  # (E2, b) eta rows of each element
    entry = (band_ptr[ge] - first_e[ge])[:, :, None] + ge[:, None, :]  # (E2, b, b')
    pairs = ((be, be), (dbe, dbe), (be, dbe), (dbe, be), (be, be))
    vals = np.stack([np.einsum("ebq,ecq->eqbc", y, y_col) for y, y_col in pairs])  # (5, E2, q2, b, b')
    term = np.arange(len(pairs)).reshape(-1, 1, 1, 1, 1)
    nodes = np.arange(E2 * q2).reshape(1, E2, q2, 1, 1)
    G = sp.csr_matrix(
        (
            vals.ravel(),
            (
                np.broadcast_to(entry[None, :, None] * len(pairs) + term, vals.shape).ravel(),
                np.broadcast_to(term * (E2 * q2) + nodes, vals.shape).ravel(),
            ),
        ),
        shape=(len(pairs) * rows.size, len(pairs) * E2 * q2),
    )
    return G, rows, slots


def _halves(first: np.ndarray, order: int) -> tuple[int, int]:
    """``(h, g)``: slabs ``0 .. h-1`` and ``g .. E1-1`` of the ``E1`` slabs whose
    xi functions are ``first[e] .. first[e] + order - 1`` (``first``
    increasing) share no function, so they write disjoint rows of S and M;
    ``g`` is the first slab that shares none with slab ``h - 1``.  Where
    every knot is simple the ``order - 1`` slabs between are the seam and
    ``h`` makes the halves equal to one slab; repeated knots shorten the
    seam and lengthen the second half.  ``g == E1`` where there are too
    few slabs for two."""
    h = (first.size - order + 1) // 2
    return h, int(np.searchsorted(first, first[h - 1] + order)) if h > 0 else first.size


def _mirror_slots(len_x: np.ndarray, eta_len: int) -> tuple[np.ndarray, np.ndarray]:
    """``(dst, src)``: the entries a mirror-symmetric S or M copies, as
    offsets in the part of the pattern that holds one eta row's ``n`` grid
    rows, when that eta row couples ``eta_len`` eta rows.

    Grid row ``i`` holds ``eta_len * len_x[i]`` entries, eta slot outer.  Its
    mirror, row ``n - 1 - i``, has the same band width ``w``; an entry at
    offset ``o`` in the row has its mirror at ``w - 1 + o - 2 (o % w)`` in
    the mirror row (same eta slot, xi slot reversed).  ``dst`` is every
    entry of a right row (``2 i > n - 1``) and, on the middle row of an odd
    ``n``, every entry in a right column; ``src`` is its mirror.
    """
    n = len_x.size
    start = eta_len * (np.cumsum(len_x) - len_x)
    rows = np.arange(n // 2, n)  # the right rows, after the middle one of an odd n
    lens = eta_len * len_x[rows]
    offset = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)
    width = np.repeat(len_x[rows], lens)
    dst = np.repeat(start[rows], lens) + offset
    src = np.repeat(start[n - 1 - rows], lens) + width - 1 + offset - 2 * (offset % width)
    copy = np.repeat(2 * rows > n - 1, lens) | (2 * (offset % width) > width - 1)
    return dst[copy], src[copy]


def _mirror_rows(data: tuple[np.ndarray, ...], indptr: np.ndarray, len_x: np.ndarray, len_e: np.ndarray) -> None:
    """Copy each right-row entry of every array in ``data``, values on the
    tensor pattern :func:`_tensor_pattern` builds, from its mirror entry
    (:func:`_mirror_slots`), one eta row at a time."""
    n = len_x.size
    slots = {}
    for j, eta_len in enumerate(len_e.tolist()):
        if eta_len not in slots:
            slots[eta_len] = _mirror_slots(len_x, eta_len)
        dst, src = slots[eta_len]
        for values in data:
            row = values[indptr[j * n] : indptr[(j + 1) * n]]
            row[dst] = row[src]


def assemble(space: TensorProductSpace, geometry: CoonsSurface, quad: QuadratureRule) -> SystemMatrices:
    """Assemble stiffness, mass and Robin boundary-mass matrices.

    Where the problem is mirror-symmetric (:func:`_mirror_asymmetry`), only
    the slabs ``e`` whose xi functions start at ``fx[e] <= (n - 1) // 2``
    are summed, which completes every left row, and the right rows are
    copied from their mirrors; otherwise every slab is summed.  Aborts with
    :class:`NonPositiveJacobianError` if the geometry Jacobian determinant
    is nonpositive at any quadrature point: the error of the first slab of
    xi nodes where it is, as a one-process assembly of every slab raises it
    (on a symmetric patch that slab is a left one).  The slabs run on two
    cores where they can (see the module docstring); ``child_peak_rss_mib``
    of the result is the child process's peak resident set, ``None`` where
    every slab ran in this process.
    """
    kvx, kve = space.kv_xi, space.kv_eta
    n = space.n
    N = space.size
    k1 = kvx.order

    bx, dbx, fx = _tabulate(kvx, quad.xi)
    be, dbe, fe = _tabulate(kve, quad.eta)
    E1, q1 = quad.xi.nodes.shape
    xi_flat, eta_flat = quad.xi.nodes.ravel(), quad.eta.nodes.ravel()
    xi_design, eta_design = geometry.designs(xi_flat, eta_flat)
    w_eta = quad.eta.weights.ravel()

    # eta band outer, xi band inner (flat index j * n + i): a local pair (i, j), (i', j')
    # sits at indptr[j * n + i] + (j' - first_e[j]) * len_x[i] + i' - first_x[i]
    first_x, len_x = _band(kvx)
    first_e, len_e = _band(kve)
    indptr, indices = _tensor_pattern(first_x, len_x, first_e, len_e)
    # S's and M's values in one shared mapping, so that a forked child's slabs land in them
    data = np.frombuffer(mmap.mmap(-1, max(16 * indices.size, 1)), count=2 * indices.size)
    s_data, m_data = data[: indices.size], data[indices.size :]

    G, eta_rows, eta_slots = _eta_operator(be, dbe, fe, first_e, len_e)

    def xi_pairs(x, x_col):  # (E1, q1, a * k1 + a') products of the xi factors
        return np.einsum("eaq,ecq->eqac", x, x_col).reshape(E1, q1, k1 * k1)

    # the stiffness terms' xi factors, stacked in the order of G's terms
    xi_s = np.concatenate([xi_pairs(dbx, dbx), xi_pairs(bx, bx), xi_pairs(dbx, bx), xi_pairs(bx, dbx)], axis=1)
    xi_m = xi_pairs(bx, bx)

    def slabs(span):
        """Sum the volume integrals of the slabs ``span`` into S and M."""
        weights = np.empty((5, w_eta.size, q1))  # the slab's weights of G's five terms, eta node major
        for e1 in span:
            # geometry of one slab of xi nodes: the metric weights of the whole
            # volume are never held at once
            sl = slice(e1 * q1, (e1 + 1) * q1)
            designs = tuple(d[sl] for d in xi_design), eta_design
            _, F_xi, F_eta, det = geometry.jacobian_grid(xi_flat[sl], eta_flat, designs)
            if np.any(det <= 0.0):
                p, q = np.unravel_index(int(np.argmin(det)), det.shape)
                raise NonPositiveJacobianError(xi_flat[sl][p], eta_flat[q], float(det.min()))
            w2d = np.outer(quad.xi.weights[e1], w_eta)
            (u0, u1), (v0, v1) = np.moveaxis(F_xi, -1, 0), np.moveaxis(F_eta, -1, 0)
            weights[0] = ((v0**2 + v1**2) / det * w2d).T
            weights[1] = ((u0**2 + u1**2) / det * w2d).T
            weights[2] = (-(u0 * v0 + u1 * v1) / det * w2d).T
            weights[3] = weights[2]
            weights[4] = (det * w2d).T
            # contract eta, then xi: (band entry t, term * q1 + xi node), then (t, a * k1 + a')
            band = (G @ weights.reshape(-1, q1)).reshape(eta_rows.size, 5 * q1)
            s_vals = band[:, : 4 * q1] @ xi_s[e1]
            m_vals = band[:, 4 * q1 :] @ xi_m[e1]

            # each (t, a, a') of the slab is a distinct entry of the pattern
            ix = fx[e1] + np.arange(k1)
            row_pos = indptr[eta_rows[:, None] * n + ix] + eta_slots[:, None] * len_x[ix] - first_x[ix]
            pos = (row_pos[:, :, None] + ix).ravel()
            s_data[pos] += s_vals.ravel()
            m_data[pos] += m_vals.ravel()

    mirrored = _mirror_asymmetry(space, geometry, quad) is None
    summed = int(np.searchsorted(fx, (n - 1) // 2, side="right")) if mirrored else E1
    h, g = _halves(fx[:summed], k1)
    child_peak = None
    if g < summed:
        try:
            child_peak = in_two_processes(lambda: slabs(range(h)), lambda: slabs(range(g, summed)),
                                          f"assembly: the child process assembling xi slabs 0 to {h - 1}")
        except NonPositiveJacobianError:
            slabs(range(summed))  # raises the first failing slab's error, as one process does
            raise
    if child_peak is None:
        slabs(range(summed))
    else:
        log.info("assembly: xi slabs 0 to %d of %d assembled in a child process, its peak RSS %.0f MiB",
                 h - 1, summed, child_peak)
        slabs(range(h, g))
    if mirrored:
        _mirror_rows((s_data, m_data), indptr, len_x, len_e)

    stiffness = sp.csr_matrix((s_data, indices, indptr), shape=(N, N))
    mass = sp.csr_matrix((m_data, indices.copy(), indptr.copy()), shape=(N, N))
    robin = _robin_mass(space, geometry, quad)
    return SystemMatrices(stiffness=stiffness, mass=mass, robin_mass=robin, child_peak_rss_mib=child_peak)


_ROBIN_EDGES = ("left", "top", "right")


def _edge_dofs(space: TensorProductSpace, edge: str, idx: np.ndarray) -> np.ndarray:
    """Flat dof indices of the edge's active 1D basis functions."""
    if edge == "left":
        return idx * space.n
    if edge == "right":
        return idx * space.n + (space.n - 1)
    if edge == "bottom":
        return idx
    return (space.m - 1) * space.n + idx


def _edge_table(
    space: TensorProductSpace, geometry: CoonsSurface, quad: QuadratureRule, edge: str, t_range=(0.0, 1.0)
):
    """Quadrature data of an integral over the parametric range ``t_range`` of ``edge``.

    Returns ``(vals, dofs, points, wds, normals)``: basis values
    ``vals[e, a, q]``, the flat dofs ``dofs[e, a]`` of the active
    functions, and per node the physical point, quadrature weight times
    edge speed ``wds[e, q]`` and outward unit normal.
    """
    along_eta = edge in ("left", "right")
    if not along_eta and edge not in ("bottom", "top"):
        raise ValueError(f"unknown edge {edge!r}")
    kv, points = (space.kv_eta, quad.points_eta) if along_eta else (space.kv_xi, quad.points_xi)
    rule = _direction_rule(kv, points + 1, *t_range)
    ts, fixed = rule.nodes.ravel(), [0.0 if edge in ("left", "bottom") else 1.0]
    if along_eta:
        F, _, F_t, _ = geometry.jacobian_grid(fixed, ts)
        F, F_t = F[0], F_t[0]
    else:
        F, F_t, _, _ = geometry.jacobian_grid(ts, fixed)
        F, F_t = F[:, 0], F_t[:, 0]
    speed = np.hypot(F_t[:, 0], F_t[:, 1])
    # Outward normal for a positively oriented patch (det J > 0): rotate
    # the edge tangent by -90 deg on bottom/right, +90 deg on top/left.
    sign = 1.0 if edge in ("bottom", "right") else -1.0
    normals = sign * np.column_stack([F_t[:, 1], -F_t[:, 0]]) / speed[:, None]
    vals, _, first = _tabulate(kv, rule)
    dofs = _edge_dofs(space, edge, first[:, None] + np.arange(kv.order))
    return vals, dofs, F, rule.weights * speed.reshape(rule.weights.shape), normals


def _robin_mass(space: TensorProductSpace, geometry: CoonsSurface, quad: QuadratureRule) -> sp.csr_matrix:
    """Boundary mass over the three impedance edges (xi=0, eta=1, xi=1)."""
    N = space.size
    rows, cols, vals = [], [], []
    for edge in _ROBIN_EDGES:
        bvals, dofs, _, wds, _ = _edge_table(space, geometry, quad, edge)
        q = bvals * np.sqrt(wds)[:, None, :]
        shape = dofs.shape + dofs.shape[-1:]
        rows.append(np.broadcast_to(dofs[:, :, None], shape).ravel())
        cols.append(np.broadcast_to(dofs[:, None, :], shape).ravel())
        vals.append(np.matmul(q, q.transpose(0, 2, 1)).ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(N, N)
    ).tocsr()


def edge_load(
    space: TensorProductSpace,
    geometry: CoonsSurface,
    quad: QuadratureRule,
    edge: str,
    data,
    t_range: tuple[float, float] = (0.0, 1.0),
) -> np.ndarray:
    """Boundary load vector ``l_p = int_edge g psi_p ds`` over all N dofs.

    ``data(points, normals)`` receives physical points ``(P, 2)`` and
    outward unit normals and returns complex values.  ``t_range``
    restricts the integral to a parametric sub-interval of the edge.
    """
    bvals, dofs, points, wds, normals = _edge_table(space, geometry, quad, edge, t_range)
    g = np.asarray(data(points, normals), dtype=complex).reshape(wds.shape)
    load = np.zeros(space.size, dtype=complex)
    np.add.at(load, dofs, np.matmul(bvals, (wds * g)[:, :, None])[:, :, 0])
    return load


@dataclass(frozen=True)
class Gather:
    """A block ``pattern[rows][:, cols]`` of the pattern S and M share: its
    CSR ``indptr`` and ``indices`` (sorted), and where its entries sit in the
    pattern's ``data``.  The first ``pos.size`` are at the positions ``pos``;
    the rest, rows the block holds as they are in the pattern, are the slice
    ``data[start:]`` (empty where every row is gathered)."""

    indptr: np.ndarray
    indices: np.ndarray
    pos: np.ndarray
    shape: tuple[int, int]
    start: int


def _gather(pattern: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray, number: np.ndarray | None = None) -> Gather:
    """Structure of ``pattern[rows][:, cols]`` for index sets in any order.
    With ``number``, pattern column ``cols[i]`` is the block's column
    ``number[i]`` instead of ``i``; columns that share a number stay apart,
    side by side in their row.

    The nnz-sized temporaries stay in ``pattern``'s index dtype.
    """
    index_type = pattern.indices.dtype
    width = cols.size if number is None else int(number.max()) + 1
    lens = np.diff(pattern.indptr)[rows]  # no row of S is empty
    heads = np.cumsum(lens, dtype=index_type) - lens
    # every entry of the selected rows, row after row
    pos = np.repeat(pattern.indptr[rows] - heads, lens)
    pos += np.arange(pos.size, dtype=index_type)
    col_index = np.full(pattern.shape[1], -1, dtype=index_type)
    col_index[cols] = np.arange(cols.size, dtype=index_type) if number is None else number
    indices = col_index[pattern.indices[pos]]
    keep = indices >= 0
    pos = pos[keep]
    indices = indices[keep]
    indptr = np.zeros(rows.size + 1, dtype=index_type)
    np.cumsum(np.add.reduceat(keep, heads, dtype=index_type), out=indptr[1:])
    # the positions ride along as data while each row's columns are sorted
    block = sp.csr_matrix((pos, indices, indptr), shape=(rows.size, width))
    block.has_sorted_indices = False
    block.sort_indices()
    return Gather(block.indptr, block.indices, block.data, block.shape, pattern.nnz)


def free_gather(matrices: SystemMatrices, partition: DofPartition) -> Gather:
    """The free-free block of the pattern S and M share: :func:`build_system`
    forms ``A`` on it.

    In grid order (a partition with no tree) every row past the last one
    with a column at or before the last Dirichlet dof (the first
    ``order_eta`` eta rows hold them) is free and reaches only free dofs
    that follow every Dirichlet dof: the block holds those rows as the
    pattern does, each dof ``n_dirichlet`` places earlier, so only the rows
    before them are gathered."""
    S, free = matrices.stiffness, partition.free
    if partition.tree is not None:
        return _gather(S, free, free)
    reach = np.flatnonzero(S.indices[S.indptr[:-1]] <= partition.dirichlet[-1])  # a row's first column is its least
    tail = int(reach[-1]) + 1
    head = _gather(S, free[: tail - partition.n_dirichlet], free)
    start, nnz = int(S.indptr[tail]), head.indices.size
    indptr = np.empty(free.size + 1, dtype=head.indptr.dtype)
    indptr[: head.indptr.size] = head.indptr
    np.subtract(S.indptr[tail + 1 :], start - nnz, out=indptr[head.indptr.size :])
    indices = np.empty(nnz + S.nnz - start, dtype=head.indices.dtype)
    indices[:nnz] = head.indices
    np.subtract(S.indices[start:], partition.n_dirichlet, out=indices[nnz:])
    return Gather(indptr, indices, head.pos, (free.size, free.size), start)


def fold_system(matrices: SystemMatrices, partition: DofPartition, fold: MirrorFold,
                wavenumber: float, beta: float) -> sp.csr_matrix:
    """``T^T P T`` for the map ``T`` of ``fold``, the ``A`` of
    :func:`build_system` at ``wavenumber`` and the shifted Laplacian
    ``P = A - i beta M`` on the free dofs, with sorted indices.

    S and M are mirror-symmetric bit for bit (:func:`assemble`), so folded
    row ``u`` is the unknown's own grid row ``fold.tree.order[u]``: its
    entries in free columns, summed by their column's unknown (one or two
    per folded entry) and scaled by the unknown's count of free dofs, T's
    column sum (2, or 1 on the middle column of an odd ``n``).  The real
    part, ``S_f - k^2 M_f``, is formed from the folded S and M as
    :func:`build_system` forms A's; the imaginary part is ``-beta M_f``,
    and ``k T^T E T`` is added at its positions: E is mirror-symmetric only
    to roundoff.  The folded M is a temporary.
    """
    S, M, E = matrices.stiffness, matrices.mass, matrices.robin_mass
    k = float(wavenumber)
    # the unknowns' rows, each column numbered by its unknown, sorted by it in each row
    gather = _gather(S, fold.tree.order, partition.free, fold.unknown)
    first = np.ones(gather.indices.size, dtype=bool)  # the first member of each folded entry
    first[1:] = gather.indices[1:] != gather.indices[:-1]
    first[gather.indptr[:-1]] = True
    entry = np.cumsum(first, dtype=gather.indices.dtype)  # 1 + the folded entry of each member
    indptr = np.zeros_like(gather.indptr)
    indptr[1:] = entry[gather.indptr[1:] - 1]
    indices, pos = gather.indices[first], gather.pos[first]
    second = ~first
    extra, extra_pos = entry[second] - 1, gather.pos[second]  # the entries that sum a second member
    del gather, first, second, entry
    single = np.bincount(fold.unknown, minlength=fold.n_unknowns) == 1  # the middle column's unknowns
    once = np.flatnonzero(np.repeat(single, np.diff(indptr)))

    def folded(x):
        data = x[pos]
        data[extra] += x[extra_pos]
        data *= 2.0
        data[once] *= 0.5  # (x * 2) * 0.5 == x
        return data

    mass = folded(M.data)
    data = np.zeros(mass.size, dtype=complex)
    np.multiply(mass, -(k**2), out=data.real)
    data.real += folded(S.data)
    mass *= beta
    data.imag -= mass
    P = sp.csr_matrix((data, indices, indptr), shape=(fold.n_unknowns,) * 2)
    if k != 0.0:
        T = fold.matrix
        robin = (T.T @ E[partition.free][:, partition.free] @ T).tocsr()
        P.data.imag[_positions(P, robin)] += k * robin.data
    return P


def _positions(pattern: sp.csr_matrix, sub: sp.csr_matrix) -> np.ndarray:
    """Positions in ``pattern.data`` of the entries of ``sub``, whose pattern
    is a subset of ``pattern``'s (sorted indices, no duplicates).  Only the
    rows ``sub`` holds entries in are searched: the Robin mass lives on the
    boundary."""
    lens = np.diff(sub.indptr)
    rows = np.flatnonzero(lens)
    row_lens = np.diff(pattern.indptr)[rows]
    pos = np.repeat(pattern.indptr[rows] - (np.cumsum(row_lens) - row_lens), row_lens)
    pos += np.arange(pos.size)
    # (row, column) as one key, ascending along those rows' entries
    keys = np.repeat(rows, row_lens) * pattern.shape[1] + pattern.indices[pos]
    wanted = np.repeat(np.arange(sub.shape[0]), lens) * pattern.shape[1] + sub.indices
    return pos[np.searchsorted(keys, wanted)]


def _restricted(matrices: SystemMatrices, k: float, gather: Gather, rows: np.ndarray, cols: np.ndarray) -> sp.csr_matrix:
    """``(S - k^2 M + i k E)[rows][:, cols]`` from the ``gather`` of that block
    of the shared pattern of S and M, with no full-size complex matrix; the
    real part is formed in place in the block's complex data, with no
    block-sized real temporary."""
    S, M, E = matrices.stiffness, matrices.mass, matrices.robin_mass
    data = np.zeros(gather.indices.size, dtype=complex)
    real, head = data.real, gather.pos.size
    np.multiply(M.data[gather.pos], -(k**2), out=real[:head])
    real[:head] += S.data[gather.pos]
    np.multiply(M.data[gather.start :], -(k**2), out=real[head:])
    real[head:] += S.data[gather.start :]
    block = sp.csr_matrix((data, gather.indices, gather.indptr), shape=gather.shape)
    if k != 0.0:
        robin = E[rows][:, cols]  # E lives on a few boundary rows
        block.data.imag[_positions(block, robin)] = k * robin.data
    return block


def build_system(
    matrices: SystemMatrices,
    partition: DofPartition,
    wavenumber: float,
    dirichlet_values,
    load: np.ndarray | None = None,
):
    """Form the restricted complex system ``A alpha0 = b``.

    ``A`` is the free-free block of ``S - k^2 M + i k E``; the Dirichlet
    coupling moves to the right-hand side with the sign that makes the
    reconstructed field attain the prescribed boundary values, and any
    boundary load is added on top.  Both blocks are taken from the pattern S
    and M share (E's is a subset of it), the coupling only from the free
    rows that reach a Dirichlet dof, so they equal the scipy expression
    ``(S - k**2 * M + 1j * k * E)[free][:, free]``, with sorted indices, bit
    for bit.  A's rows and columns follow ``partition.free``: in a run's
    grid order all but A's first few rows are contiguous slices of the
    pattern (:func:`free_gather`), in the studies' elimination order every
    entry is gathered.  Returns ``(A, b)``.
    """
    if partition.n_dirichlet == 0:
        raise ValueError("no Dirichlet dofs: the radiation problem needs a source")
    k = float(wavenumber)
    free, diri = partition.free, partition.dirichlet
    values = np.asarray(dirichlet_values, dtype=complex)
    if values.ndim == 0:
        values = np.full(diri.size, complex(values))
    # the coupling first: its gather's temporaries are gone before A is formed.
    # Only the free rows S's Dirichlet rows reach couple (S is structurally
    # symmetric); every other row of b is the empty sum, 0.
    S = matrices.stiffness
    position = np.full(S.shape[0], -1, dtype=np.int64)
    position[free] = np.arange(free.size)
    reached = position[np.unique(S[diri].indices)]
    rows = reached[reached >= 0]
    b = np.zeros(free.size, dtype=complex)
    b[rows] = -_restricted(matrices, k, _gather(S, free[rows], diri), free[rows], diri) @ values
    if load is not None:
        b = b + np.asarray(load, dtype=complex)[free]
    return _restricted(matrices, k, free_gather(matrices, partition), free, free), b


def expand_solution(partition: DofPartition, free_values: np.ndarray, dirichlet_values) -> np.ndarray:
    """Scatter free and Dirichlet coefficients into the full-length vector."""
    values = np.asarray(dirichlet_values, dtype=complex)
    if values.ndim == 0:
        values = np.full(partition.n_dirichlet, complex(values))
    alpha = np.empty(partition.n_free + partition.n_dirichlet, dtype=complex)
    alpha[partition.free] = free_values
    alpha[partition.dirichlet] = values
    return alpha
