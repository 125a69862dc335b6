"""Univariate and tensor-product B-spline machinery.

Conventions used throughout the package (stated once here):

* ``order`` is the B-spline order ``k`` (polynomial degree + 1).
* All indices are 0-based.  A knot vector of length ``len(knots)`` with
  order ``k`` carries ``n = len(knots) - k`` basis functions
  ``B_0, ..., B_{n-1}``.
* Knot vectors are clamped (open): the first and last knot values each
  appear with multiplicity ``order``, the parametric domain is ``[0, 1]``.
* A knot span is identified by the index ``s`` with
  ``knots[s] <= t < knots[s+1]``; evaluation at ``t = 1`` uses the last
  nonempty span, so the final basis function attains the value 1 there.

Every spline the package evaluates goes through :func:`tabulate`, which
runs the Cox-de Boor recurrence over many points at once, or through
:func:`design`, the dense matrices built from it.  :func:`eval_basis` and
:func:`basis_matrix` evaluate one point at a time (Piegl & Tiller, *The
NURBS Book*, A2.3) and are kept as the references the tests compare
against.

All types are immutable after construction and evaluation is pure, so
concurrent use from multiple threads is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class KnotVector:
    """Clamped knot vector on [0, 1] together with its spline order.

    Parameters
    ----------
    order : int
        Spline order (degree + 1), at least 2.
    knots : array_like
        Nondecreasing knot sequence in [0, 1].  Must be clamped: the end
        values 0 and 1 each repeated ``order`` times.  Interior knots may
        be repeated up to ``order - 1`` times.
    """

    def __init__(self, order: int, knots) -> None:
        order = int(order)
        if order < 2:
            raise ValueError(f"order must be >= 2, got {order}")
        knots = np.asarray(knots, dtype=float)
        if knots.ndim != 1:
            raise ValueError("knots must be a 1D sequence")
        if np.any(np.diff(knots) < 0.0):
            raise ValueError("knots must be nondecreasing")
        n = knots.size - order
        if n < order:
            raise ValueError(
                f"too few knots for order {order}: need at least {2 * order}, got {knots.size}"
            )
        if np.any(knots[:order] != knots[0]) or np.any(knots[-order:] != knots[-1]):
            raise ValueError("knot vector must be clamped (end multiplicity == order)")
        if knots[0] != 0.0 or knots[-1] != 1.0:
            raise ValueError("knot vector must span [0, 1]")
        interior = knots[order:-order]
        if interior.size:
            values, counts = np.unique(interior, return_counts=True)
            if np.any(counts > order - 1):
                raise ValueError("interior knot multiplicity must not exceed the degree")
            if values.size and (values[0] <= 0.0 or values[-1] >= 1.0):
                raise ValueError("interior knots must lie strictly inside (0, 1)")
        self.order = order
        self.knots = knots
        self.knots.flags.writeable = False

    @property
    def degree(self) -> int:
        return self.order - 1

    @property
    def num_basis(self) -> int:
        """Dimension of the spline space: ``len(knots) - order``."""
        return self.knots.size - self.order

    @property
    def breakpoints(self) -> np.ndarray:
        """Distinct knot values (element boundaries)."""
        return np.unique(self.knots)

    def spans(self) -> np.ndarray:
        """Indices of the nonempty knot spans (the elements)."""
        d = np.diff(self.knots) > 0.0
        return np.nonzero(d)[0]

    def find_span(self, t):
        """Knot span index containing ``t`` (array-aware).

        Half-open convention ``knots[s] <= t < knots[s+1]``; ``t = 1``
        returns the last nonempty span.  Raises for ``t`` outside [0, 1].
        """
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise ValueError("parameter outside the knot domain [0, 1]")
        s = np.searchsorted(self.knots, t, side="right") - 1
        s = np.clip(s, self.degree, self.num_basis - 1)
        return s if s.ndim else int(s)

    def greville(self) -> np.ndarray:
        """Greville abscissae (running averages of ``degree`` knots)."""
        p = self.degree
        n = self.num_basis
        g = np.empty(n)
        for i in range(n):
            g[i] = self.knots[i + 1 : i + 1 + p].mean() if p else self.knots[i]
        return g

    def with_breakpoints(self, values) -> "KnotVector":
        """New knot vector with extra interior breakpoints inserted (multiplicity 1 each).

        An interior knot within 1e-10 of a value moves onto it instead: an
        aperture end one ulp from a uniform knot would add a 5.6e-17 span,
        on one side of the mirror only.  This changes the spline space, not
        any particular curve (see :func:`insert_knots` for curves).
        """
        knots, add = self.knots.copy(), []
        interior = knots[self.order : -self.order]  # a view: the snap writes through
        for v in np.atleast_1d(np.asarray(values, dtype=float)):
            near = np.abs(interior - v) <= 1e-10
            if near.any():
                interior[near] = v
            elif 0.0 < v < 1.0:
                add.append(v)
        return KnotVector(self.order, np.sort(np.concatenate([knots, add])))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KnotVector)
            and self.order == other.order
            and np.array_equal(self.knots, other.knots)
        )

    def __repr__(self) -> str:
        return f"KnotVector(order={self.order}, knots={self.knots.tolist()})"


@dataclass(frozen=True)
class BasisEval:
    """Nonzero basis functions (and derivatives) at one parameter value.

    ``values[a]`` is ``B_{first_index + a}(t)`` for ``a = 0..order-1``;
    ``derivatives[d-1, a]`` is the d-th derivative of the same function.
    """

    span_index: int
    first_index: int
    values: np.ndarray
    derivatives: np.ndarray


def make_uniform_open_knots(order: int, num_basis: int) -> KnotVector:
    """Clamped knot vector with uniformly spaced interior breakpoints.

    The resulting space has exactly ``num_basis`` basis functions on
    ``num_basis - order + 1`` elements.
    """
    order = int(order)
    num_basis = int(num_basis)
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    if num_basis < order:
        raise ValueError(
            f"num_basis must be >= order for a clamped vector, got {num_basis} < {order}"
        )
    n_interior = num_basis - order
    interior = np.linspace(0.0, 1.0, n_interior + 2)[1:-1]
    knots = np.concatenate([np.zeros(order), interior, np.ones(order)])
    return KnotVector(order, knots)


def _ders_basis_funs(knots: np.ndarray, degree: int, span: int, t: float, nders: int) -> np.ndarray:
    """Nonzero basis functions and derivatives at ``t`` via the Cox-de Boor
    recurrence with in-place triangular tables.

    Returns an array of shape ``(nders + 1, degree + 1)``; row 0 holds the
    function values, row d the d-th derivatives.
    """
    p = degree
    ndu = np.empty((p + 1, p + 1))
    left = np.empty(p + 1)
    right = np.empty(p + 1)
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = t - knots[span + 1 - j]
        right[j] = knots[span + j] - t
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    ders = np.zeros((nders + 1, p + 1))
    ders[0, :] = ndu[:, p]
    nd = min(nders, p)
    a = np.empty((2, p + 1))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, nd + 1):
            d = 0.0
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1
    fac = float(p)
    for k in range(1, nd + 1):
        ders[k, :] *= fac
        fac *= p - k
    return ders


def eval_basis(kv: KnotVector, t: float, num_derivs: int = 1) -> BasisEval:
    """The ``order`` nonzero basis functions and derivatives at ``t``.

    Derivative orders at or beyond ``order`` are identically zero for
    piecewise polynomials of that degree and are returned as zeros rather
    than raising.
    """
    if num_derivs < 0:
        raise ValueError("num_derivs must be nonnegative")
    span = kv.find_span(t)
    ders = _ders_basis_funs(kv.knots, kv.degree, span, float(t), num_derivs)
    return BasisEval(
        span_index=span,
        first_index=span - kv.degree,
        values=ders[0],
        derivatives=ders[1:],
    )


def basis_matrix(kv: KnotVector, ts, deriv: int = 0) -> np.ndarray:
    """Dense design matrix ``D[i, j] = (d/dt)^deriv B_j(ts[i])``, one
    :func:`eval_basis` call per point: the reference for :func:`design`.

    Entries outside each parameter's active span are exact zeros.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.zeros((ts.size, kv.num_basis))
    for i, t in enumerate(ts):
        be = eval_basis(kv, t, deriv)
        row = be.values if deriv == 0 else be.derivatives[deriv - 1]
        out[i, be.first_index : be.first_index + kv.order] = row
    return out


def tabulate(kv: KnotVector, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero basis functions and first derivatives at many points at once.

    Returns ``(first, values, derivs)``: row ``p`` of ``values`` and
    ``derivs`` (shape ``(len(ts), order)``) holds the functions
    ``first[p], ..., first[p] + degree`` and their first derivatives at
    ``ts[p]``.  The Cox-de Boor triangle runs over all points together;
    :func:`eval_basis` is the one-point reference.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    knots, p = kv.knots, kv.degree
    span = np.atleast_1d(kv.find_span(ts))
    left = np.empty((p + 1, ts.size))
    right = np.empty((p + 1, ts.size))
    vals = np.zeros((p + 1, ts.size))
    vals[0] = 1.0
    for j in range(1, p + 1):
        lower = vals[:j].copy()  # degree j - 1
        left[j] = ts - knots[span + 1 - j]
        right[j] = knots[span + j] - ts
        saved = np.zeros(ts.size)
        for r in range(j):
            temp = vals[r] / (right[r + 1] + left[j - r])
            vals[r] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        vals[j] = saved
    # B'_{i,p} = p (B_{i,p-1} / (t_{i+p} - t_i) - B_{i+1,p-1} / (t_{i+p+1} - t_{i+1}))
    derivs = np.zeros((p + 1, ts.size))
    for a in range(1, p + 1):
        derivs[a] += lower[a - 1] / (knots[span + a] - knots[span - p + a])
    for a in range(p):
        derivs[a] -= lower[a] / (knots[span + a + 1] - knots[span - p + a + 1])
    return span - p, vals.T, p * derivs.T


def design(kv: KnotVector, ts) -> tuple[np.ndarray, np.ndarray]:
    """Dense value and first-derivative design matrices of ``kv`` at ``ts``.

    ``values[i, j] = B_j(ts[i])`` and ``derivatives[i, j] = B_j'(ts[i])``,
    scattered from :func:`tabulate`; entries outside each parameter's
    active span are exact zeros.
    """
    first, vals, ders = tabulate(kv, ts)
    rows = np.arange(first.size)[:, None]
    cols = first[:, None] + np.arange(kv.order)
    design = np.zeros((2, first.size, kv.num_basis))
    design[0][rows, cols] = vals
    design[1][rows, cols] = ders
    return design[0], design[1]


def evaluate_spline(coeffs: np.ndarray, kv: KnotVector, ts, deriv: int = 0) -> np.ndarray:
    """Evaluate a spline (``deriv=0``) or its first derivative (``deriv=1``)
    with coefficient rows ``coeffs`` (shape (n, d))."""
    if deriv not in (0, 1):
        raise ValueError(f"deriv must be 0 or 1, got {deriv}")
    coeffs = np.asarray(coeffs, dtype=float)
    return design(kv, ts)[deriv] @ coeffs


def insert_knots(coeffs: np.ndarray, kv: KnotVector, new_knots) -> tuple[np.ndarray, KnotVector]:
    """Insert knots into a spline curve without changing its geometry.

    ``coeffs`` are coefficient rows (for rational curves pass homogeneous
    coordinates).  Each requested value is inserted with the standard
    single-knot recursion; inserting past multiplicity ``degree`` for an
    interior knot (or touching the clamped ends) is an error.
    """
    coeffs = np.array(np.asarray(coeffs, dtype=float), copy=True)
    if coeffs.ndim == 1:
        coeffs = coeffs[:, None]
    if coeffs.shape[0] != kv.num_basis:
        raise ValueError("coefficient count does not match the spline space dimension")
    knots = np.array(kv.knots)
    p = kv.degree
    for u in np.atleast_1d(np.asarray(new_knots, dtype=float)):
        if not 0.0 < u < 1.0:
            raise ValueError(f"can only insert interior knots, got {u}")
        if np.count_nonzero(knots == u) >= p:
            raise ValueError(f"knot {u} already has multiplicity {p}; insertion not allowed")
        s = int(np.clip(np.searchsorted(knots, u, side="right") - 1, p, knots.size - p - 2))
        n = coeffs.shape[0]
        new_c = np.empty((n + 1, coeffs.shape[1]))
        new_c[: s - p + 1] = coeffs[: s - p + 1]
        for i in range(s - p + 1, s + 1):
            alpha = (u - knots[i]) / (knots[i + p] - knots[i])
            new_c[i] = alpha * coeffs[i] + (1.0 - alpha) * coeffs[i - 1]
        new_c[s + 1 :] = coeffs[s:]
        coeffs = new_c
        knots = np.insert(knots, s + 1, u)
    return coeffs, KnotVector(kv.order, knots)


def elevate_order(coeffs: np.ndarray, kv: KnotVector) -> tuple[np.ndarray, KnotVector]:
    """Raise the order of a spline curve by one, tracing the same point set.

    The elevated space has every distinct knot's multiplicity increased by
    one.  Coefficients are recovered by collocation at the Greville
    abscissae of the elevated space; since the input curve lies exactly in
    that space the result is exact up to roundoff.  For rational curves
    pass homogeneous coordinates.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim == 1:
        coeffs = coeffs[:, None]
    if coeffs.shape[0] != kv.num_basis:
        raise ValueError("coefficient count does not match the spline space dimension")
    values, counts = np.unique(kv.knots, return_counts=True)
    target = KnotVector(kv.order + 1, np.repeat(values, counts + 1))
    params = target.greville()
    collocation = design(target, params)[0]
    samples = evaluate_spline(coeffs, kv, params)
    new_coeffs = np.linalg.solve(collocation, samples)
    return new_coeffs, target


class TensorProductSpace:
    """Tensor-product B-spline space on the parametric unit square.

    Basis functions are ``B_i(xi) * B_j(eta)`` with the flattened index
    ``q = j * n + i`` (xi index fastest), a bijection onto ``0..N-1``.
    """

    def __init__(self, kv_xi: KnotVector, kv_eta: KnotVector) -> None:
        self.kv_xi = kv_xi
        self.kv_eta = kv_eta
        self.n = kv_xi.num_basis
        self.m = kv_eta.num_basis

    @property
    def size(self) -> int:
        return self.n * self.m

    def flat_index(self, i, j):
        """Flattened dof index ``q = j * n + i``."""
        return np.asarray(j) * self.n + np.asarray(i)

    def unflatten(self, q):
        """Inverse of :meth:`flat_index`: returns ``(i, j)``."""
        q = np.asarray(q)
        return q % self.n, q // self.n

    def evaluate(self, coeffs: np.ndarray, xis, etas, deriv=(0, 0)) -> np.ndarray:
        """Evaluate ``sum_q coeffs[q] B_q`` on the grid ``xis x etas``.

        ``deriv = (dx, de)``, each 0 or 1, differentiates along xi and eta.
        Returns an array of shape ``(len(xis), len(etas))``; complex
        coefficients are supported.
        """
        coeffs = np.asarray(coeffs)
        if coeffs.size != self.size:
            raise ValueError("coefficient vector has wrong length")
        dx, de = deriv
        if dx not in (0, 1) or de not in (0, 1):
            raise ValueError(f"deriv entries must be 0 or 1, got {deriv}")
        grid = coeffs.reshape(self.m, self.n).T
        bx = design(self.kv_xi, xis)[dx]
        be = design(self.kv_eta, etas)[de]
        return bx @ grid @ be.T

    def __repr__(self) -> str:
        return f"TensorProductSpace(n={self.n}, m={self.m}, N={self.size})"
