"""Exact NURBS geometry of the semicircular radiation domain.

The domain is the upper half-disc of radius ``r`` centered at the origin.
Its boundary is split into four rational quadratic B-spline curves: the
diameter (bottom), two side arcs of polar angle ``theta`` adjacent to the
diameter, and the remaining top arc.  The surface map from the unit square
is the bilinearly blended Coons patch of those curves, built in
homogeneous coordinates so the result is again a rational B-spline.

The top arc meets each side arc on the smooth circle, so the patch corners
(0, 1) and (1, 1) have an interior angle of pi.  A patch whose boundary
curves move with nonzero speed there has ``det J = 0`` at those corners
while ``|F_xi|^2 + |F_eta|^2`` stays positive, so its mean ratio falls to
0 like the distance to the corner.  The patch is therefore built from the
arcs traced by a fixed polynomial change of parameter that has zero speed
at the two junctions (:func:`make_patch_boundary`): near each junction
the map then behaves like ``z -> z^2``, which opens the right angle of the
parameter square to a straight angle, and the mean ratio stays bounded
away from 0.  Slowing the side arcs down slides their points towards the
junctions; the patch keeps that shift next to the side arcs instead of
blending it linearly across the whole square, so the rows of the interior
stay close to those of the plain-arc Coons patch
(:func:`make_semicircle_patch`).

All circle arcs are represented exactly (samples lie on the circle to
roundoff), which is the point of using rational splines for the geometry.
Curves and surfaces are immutable after construction; evaluation is pure
and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bspline import KnotVector, design, elevate_order, insert_knots
from .bspline import basis_matrix  # noqa: F401  bench/layers.py traces this name

_CORNER_TOL = 1e-10


@dataclass(frozen=True)
class DomainConfig:
    """Shape of the radiation domain: half aperture ``a``, semicircle radius
    ``r`` and the polar angle ``theta`` subtended by each of the two side
    arcs.  The physics that sets ``r`` lives in :class:`igarad.pipeline.RunConfig`.
    """

    a: float
    r: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.a < self.r:
            raise ValueError(f"need 0 < a < r, got a={self.a}, r={self.r}")
        if not 0.0 < self.theta < math.pi / 2:
            raise ValueError(f"theta must lie in (0, pi/2), got {self.theta}")

    @property
    def aperture_preimage(self) -> tuple[float, float]:
        """Parameters ``(xi_left, xi_right)`` of the aperture end points.

        The patch traverses its bottom edge affinely
        (:func:`make_patch_boundary`), so (-a, 0) and (a, 0) pull back to
        ``(r -/+ a) / (2 r)``.
        """
        return (self.r - self.a) / (2.0 * self.r), (self.r + self.a) / (2.0 * self.r)


class RationalCurve:
    """Planar rational B-spline curve (control points, positive weights, knots)."""

    def __init__(self, ctrl, weights, kv: KnotVector) -> None:
        ctrl = np.asarray(ctrl, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if ctrl.ndim != 2 or ctrl.shape[1] != 2:
            raise ValueError("ctrl must have shape (n, 2)")
        if weights.shape != (ctrl.shape[0],):
            raise ValueError("weights length must match control point count")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        if ctrl.shape[0] != kv.num_basis:
            raise ValueError(
                f"{ctrl.shape[0]} control points incompatible with space of dim {kv.num_basis}"
            )
        self.ctrl = ctrl
        self.weights = weights
        self.kv = kv

    @property
    def num_ctrl(self) -> int:
        return self.ctrl.shape[0]

    def homogeneous(self) -> np.ndarray:
        """Rows (w*x, w*y, w)."""
        return np.column_stack([self.ctrl * self.weights[:, None], self.weights])

    @classmethod
    def from_homogeneous(cls, coeffs: np.ndarray, kv: KnotVector) -> "RationalCurve":
        w = coeffs[:, 2]
        return cls(coeffs[:, :2] / w[:, None], w, kv)

    def evaluate(self, ts) -> np.ndarray:
        """Curve points, shape (len(ts), 2)."""
        hom = design(self.kv, ts)[0] @ self.homogeneous()
        return hom[:, :2] / hom[:, 2:3]

    def derivative(self, ts) -> np.ndarray:
        """First derivative via the quotient rule, shape (len(ts), 2)."""
        values, derivs = design(self.kv, ts)
        hom = values @ self.homogeneous()
        dhom = derivs @ self.homogeneous()
        pts = hom[:, :2] / hom[:, 2:3]
        return (dhom[:, :2] - pts * dhom[:, 2:3]) / hom[:, 2:3]

    def reversed(self) -> "RationalCurve":
        """Same point set traced in the opposite direction."""
        knots = 1.0 - self.kv.knots[::-1]
        return RationalCurve(
            self.ctrl[::-1].copy(), self.weights[::-1].copy(), KnotVector(self.kv.order, knots)
        )

    def elevated(self) -> "RationalCurve":
        """Degree-elevated curve (homogeneous coordinates)."""
        coeffs, kv = elevate_order(self.homogeneous(), self.kv)
        return RationalCurve.from_homogeneous(coeffs, kv)

    def reparametrized(self, u) -> "RationalCurve":
        """Same point set traced as ``s -> C(u(s))``.

        ``u`` is a polynomial given by its Bernstein coefficients on
        [0, 1], increasing from 0 to 1; a repeated end coefficient means
        zero speed at that end.  The composition is formed exactly, one
        Bezier segment at a time, as products of Bernstein polynomials in
        homogeneous coordinates: a spline of degree ``degree * deg(u)``
        with full-multiplicity breakpoints at the preimages of the knots.
        Repeated end coefficients of ``u`` give exactly repeated control
        points, so tangents next to a zero-speed end carry no
        cancellation noise from the construction.
        """
        u = np.asarray(u, dtype=float)
        if u[0] != 0.0 or u[-1] != 1.0 or np.any(np.diff(u) < 0.0):
            raise ValueError("u must have nondecreasing Bernstein coefficients from 0 to 1")
        p, d = self.kv.degree, u.size - 1
        values, counts = np.unique(self.kv.knots, return_counts=True)
        # Bezier extraction: raise every interior knot to multiplicity p.
        hom, _ = insert_knots(self.homogeneous(), self.kv, np.repeat(values[1:-1], p - counts[1:-1]))
        breaks = [_preimage(u, v) for v in values[1:-1]]

        segments, rest, start = [], u, 0.0
        for k, stop in enumerate(breaks + [1.0]):
            piece, rest = _bernstein_split(rest, (stop - start) / (1.0 - start))
            lam = (piece - values[k]) / (values[k + 1] - values[k])
            h = hom[k * p : k * p + p + 1]
            seg = 0.0
            for i in range(p + 1):
                basis = np.ones(1)
                for factor in [lam] * i + [1.0 - lam] * (p - i):
                    basis = _bernstein_product(basis, factor)
                seg = seg + math.comb(p, i) * basis[:, None] * h[i]
            segments.append(seg if k == 0 else seg[1:])
            start = stop

        q = p * d
        knots = np.concatenate([np.zeros(q + 1), np.repeat(breaks, q), np.ones(q + 1)])
        return RationalCurve.from_homogeneous(np.vstack(segments), KnotVector(q + 1, knots))


def _preimage(b: np.ndarray, value: float) -> float:
    """Parameter where the increasing Bernstein polynomial ``b`` takes ``value`` (bisection)."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        at_mid = _bernstein_split(b, mid)[1][0]
        lo, hi = (mid, hi) if at_mid < value else (lo, mid)
    return 0.5 * (lo + hi)


def _bernstein_split(b: np.ndarray, t: float):
    """Bernstein coefficients of the pieces on [0, t] and [t, 1] (de Casteljau)."""
    left, right = [b[0]], [b[-1]]
    while b.size > 1:
        b = (1.0 - t) * b[:-1] + t * b[1:]
        left.append(b[0])
        right.append(b[-1])
    return np.array(left), np.array(right[::-1])


def _bernstein_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bernstein coefficients of the product of two polynomials on [0, 1]."""
    m, n = a.size - 1, b.size - 1
    out = np.zeros(m + n + 1)
    for i in range(m + 1):
        for j in range(n + 1):
            out[i + j] += math.comb(m, i) * math.comb(n, j) * a[i] * b[j]
    return out / np.array([math.comb(m + n, k) for k in range(m + n + 1)])


def make_line(p0, p1, kv: KnotVector | None = None) -> RationalCurve:
    """Affinely parametrized segment with unit weights.

    By default an order-2 curve; given ``kv``, the same segment on that
    space, with control points at its Greville abscissae (linear
    precision), which is exactly the degree-elevated, knot-refined line.
    """
    if kv is None:
        kv = KnotVector(2, [0.0, 0.0, 1.0, 1.0])
    g = kv.greville()[:, None]
    ctrl = (1.0 - g) * np.asarray(p0, dtype=float) + g * np.asarray(p1, dtype=float)
    return RationalCurve(ctrl, np.ones(kv.num_basis), kv)


def make_arc(center, radius: float, angle_start: float, angle_end: float) -> RationalCurve:
    """Exact rational quadratic circle arc between two polar angles.

    Sweeps larger than a quarter circle are split into equal segments of
    at most pi/2, giving doubled interior knots; the interior control
    point of each segment carries weight ``cos(half sweep)``.
    """
    sweep = angle_end - angle_start
    if not 0.0 < sweep < 2.0 * math.pi:
        raise ValueError(f"arc sweep must lie in (0, 2*pi), got {sweep}")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=float)
    nseg = max(1, math.ceil(sweep / (math.pi / 2.0) - 1e-14))
    seg = sweep / nseg
    half = seg / 2.0
    w_mid = math.cos(half)

    angles_on = angle_start + seg * np.arange(nseg + 1)
    ctrl = [center + radius * np.array([math.cos(angles_on[0]), math.sin(angles_on[0])])]
    weights = [1.0]
    for s in range(nseg):
        mid = angles_on[s] + half
        ctrl.append(center + (radius / w_mid) * np.array([math.cos(mid), math.sin(mid)]))
        weights.append(w_mid)
        ctrl.append(center + radius * np.array([math.cos(angles_on[s + 1]), math.sin(angles_on[s + 1])]))
        weights.append(1.0)

    interior = np.repeat(np.arange(1, nseg) / nseg, 2)
    knots = np.concatenate([np.zeros(3), interior, np.ones(3)])
    return RationalCurve(np.array(ctrl), np.array(weights), KnotVector(3, knots))


def make_semicircle_boundary(cfg: DomainConfig):
    """Four compatible boundary curves (bottom, top, left, right).

    Orientations give a valid Coons boundary with F(0,0) = (-r, 0): the
    bottom runs left to right along y = 0, the side arcs run upward from
    the diameter, the top arc runs left to right.  The bottom segment is
    written on the top arc's knot vector (degree-elevated and refined).
    """
    r, theta = cfg.r, cfg.theta
    c_l = make_arc((0.0, 0.0), r, math.pi - theta, math.pi).reversed()
    c_r = make_arc((0.0, 0.0), r, 0.0, theta)
    c_t = make_arc((0.0, 0.0), r, theta, math.pi - theta).reversed()
    c_b = make_line((-r, 0.0), (r, 0.0), c_t.kv)
    return c_b, c_t, c_l, c_r


# Fixed changes of parameter for the patch boundary, as Bernstein
# coefficients on [0, 1] (no user knob).  The top map has zero speed at
# both ends and the side map at eta = 1, the arc junctions, so the patch
# behaves like z^2 there; the side map keeps its speed at the diameter.
# Both were picked at theta = pi/4 among low-degree maps.  The top map
# starts gently (acceleration 20/7 at the junctions, against 6 for the
# cubic 3 s^2 - 2 s^3), which keeps the pulled-back metric next to the
# junctions smooth enough for the default quadrature rule.
_TOP_MAP = (0.0, 0.0, 1.0 / 7.0, 6.0 / 7.0, 1.0, 1.0)
_SIDE_MAP = (0.0, 3.0 / 7.0, 1.0, 1.0)

# The Coons blend carries the shift of each side arc (reparametrized arc
# minus plain arc, a slide along the arc towards the junction) across the
# whole patch with the weight 1 - xi (xi for the right arc), and so moves
# the rows towards the top arc everywhere, stretching those near the
# diameter.  The patch weights the shift by (1 - xi)**k (xi**k) instead,
# which keeps it next to its own arc.  Within this family, k = 4 gives the
# smallest Winslow energy int (|F_xi|^2 + |F_eta|^2) / det J at theta =
# pi/4 and 3 pi/8, and lies within 0.2 % of the family's minimum at pi/8
# and pi/20.  k = 1 is the plain Coons blend.
_SHIFT_POWER = 4


def make_patch_boundary(cfg: DomainConfig):
    """The four curves the patch interpolates (bottom, top, left, right).

    The arcs of :func:`make_semicircle_boundary`, traced by the fixed
    polynomial changes of parameter above: the top arc (degree 10) has
    zero speed at both ends, each side arc (degree 6) at its upper end,
    where it meets the top arc.  The curves stay exact rational arcs of
    the same circle, with the same end points and end weights.  The
    bottom segment stays affine, so the aperture end points still pull
    back to ``(r -/+ a) / (2 r)``; it is written on the top arc's knot
    vector.
    """
    r = cfg.r
    _, c_t, c_l, c_r = make_semicircle_boundary(cfg)
    c_t = c_t.reparametrized(_TOP_MAP)
    c_b = make_line((-r, 0.0), (r, 0.0), c_t.kv)
    return c_b, c_t, c_l.reparametrized(_SIDE_MAP), c_r.reparametrized(_SIDE_MAP)


@dataclass(frozen=True)
class JacobianData:
    """Surface Jacobian at one parametric point (columns F_xi, F_eta)."""

    J: np.ndarray
    det: float
    mean_ratio: float


class CoonsSurface:
    """Tensor-product rational B-spline surface (the domain parametrization).

    Control net ``ctrl[i, j]`` with weights ``w[i, j]``; ``i`` runs along
    xi (bottom/top direction), ``j`` along eta (left/right direction).

    The mean-ratio quality reported by :meth:`jacobian` and
    :meth:`quality_grid` is measured against a reference rectangle with
    the patch's physical aspect ratio (width x height of the mapped
    domain): it is 1 where the map is conformal up to that overall
    aspect and tends to 0 at degenerate points.  For unit-aspect domains
    this is the classical ``2 det J / (|F_xi|^2 + |F_eta|^2)``.
    """

    def __init__(self, ctrl, weights, kv_xi: KnotVector, kv_eta: KnotVector) -> None:
        ctrl = np.asarray(ctrl, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if ctrl.shape != (kv_xi.num_basis, kv_eta.num_basis, 2):
            raise ValueError("ctrl must have shape (n_xi, n_eta, 2)")
        if weights.shape != ctrl.shape[:2]:
            raise ValueError("weights grid must match the control net")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        self.ctrl = ctrl
        self.weights = weights
        self.kv_xi = kv_xi
        self.kv_eta = kv_eta
        self._hom = np.concatenate([ctrl * weights[..., None], weights[..., None]], axis=2)
        self._extents: tuple[float, float] | None = None

    def _blend(self, bx: np.ndarray, be: np.ndarray) -> np.ndarray:
        """Homogeneous values ``sum_ij bx[p, i] hom[i, j] be[q, j]``, shape (P, Q, 3).

        Contracts xi first and eta second (two matrix products), so the
        cost is ``P n m + P Q m`` multiplications instead of ``P Q n m``.
        """
        n, m, _ = self._hom.shape
        along_eta = (bx @ self._hom.reshape(n, 3 * m)).reshape(-1, m, 3)
        return be @ along_eta

    @property
    def extents(self) -> tuple[float, float]:
        """Physical (width, height) of the patch, from dense boundary samples."""
        if self._extents is None:
            ts = np.linspace(0.0, 1.0, 513)
            pts = np.vstack(
                [
                    self.evaluate_grid(ts, [0.0, 1.0]).reshape(-1, 2),
                    self.evaluate_grid([0.0, 1.0], ts).reshape(-1, 2),
                ]
            )
            w = float(pts[:, 0].max() - pts[:, 0].min())
            h = float(pts[:, 1].max() - pts[:, 1].min())
            self._extents = (w, h)
        return self._extents

    def evaluate_grid(self, xis, etas) -> np.ndarray:
        """Surface points on the tensor grid, shape (len(xis), len(etas), 2)."""
        acc = self._blend(design(self.kv_xi, xis)[0], design(self.kv_eta, etas)[0])
        return acc[..., :2] / acc[..., 2:3]

    def designs(self, xis, etas):
        """Dense value and derivative designs ``((bx, dbx), (be, dbe))`` at
        ``xis`` and ``etas``, for :meth:`jacobian_grid` calls on slices."""
        return design(self.kv_xi, xis), design(self.kv_eta, etas)

    def jacobian_grid(self, xis, etas, designs=None):
        """Points, first derivatives and det on a tensor grid.

        Returns ``(F, F_xi, F_eta, det)`` with leading shape
        ``(len(xis), len(etas))``.  ``designs``, :meth:`designs` at ``xis``
        and ``etas``, saves tabulating the bases again when many calls (one
        per slab of xi nodes) share them.  The mean ratio is
        :meth:`_mean_ratio` of the last three.
        """
        (bx, dbx), (be, dbe) = designs if designs is not None else self.designs(xis, etas)
        acc = self._blend(bx, be)
        acc_x = self._blend(dbx, be)
        acc_e = self._blend(bx, dbe)
        w = acc[..., 2:3]
        F = acc[..., :2] / w
        F_xi = (acc_x[..., :2] - F * acc_x[..., 2:3]) / w
        F_eta = (acc_e[..., :2] - F * acc_e[..., 2:3]) / w
        det = F_xi[..., 0] * F_eta[..., 1] - F_xi[..., 1] * F_eta[..., 0]
        return F, F_xi, F_eta, det

    def _mean_ratio(self, F_xi, F_eta, det) -> np.ndarray:
        """Mean ratio against the patch's :attr:`extents` (see the class
        docstring) from :meth:`jacobian_grid`'s derivatives and det."""
        ew, eh = self.extents
        denom = (F_xi**2).sum(axis=-1) / ew**2 + (F_eta**2).sum(axis=-1) / eh**2
        return 2.0 * (det / (ew * eh)) / denom

    def evaluate(self, xi: float, eta: float) -> np.ndarray:
        """Single surface point."""
        return self.evaluate_grid([xi], [eta])[0, 0]

    def jacobian(self, xi: float, eta: float) -> JacobianData:
        """Jacobian data at a single parametric point."""
        _, F_xi, F_eta, det = self.jacobian_grid([xi], [eta])
        J = np.column_stack([F_xi[0, 0], F_eta[0, 0]])
        mr = self._mean_ratio(F_xi, F_eta, det)
        return JacobianData(J=J, det=float(det[0, 0]), mean_ratio=float(mr[0, 0]))

    def quality_grid(self, grid_res: int):
        """Mean-ratio samples on a uniform parametric grid.

        Samples sit at the midpoints of a ``grid_res x grid_res`` uniform
        partition of the parameter square, so they stay off the corners
        where ``det J`` may vanish (for the semicircle patch: the two arc
        junctions, where the mean ratio has a direction-dependent limit and
        the sampled minimum therefore settles as the grid is refined).
        Returns ``(xis, etas, points, mean_ratio)`` where ``points`` has
        shape ``(grid_res, grid_res, 2)``.
        """
        if grid_res < 2:
            raise ValueError("grid_res must be at least 2")
        xis = (np.arange(grid_res) + 0.5) / grid_res
        etas = (np.arange(grid_res) + 0.5) / grid_res
        F, F_xi, F_eta, det = self.jacobian_grid(xis, etas)
        return xis, etas, F, self._mean_ratio(F_xi, F_eta, det)


def coons_patch(c_b, c_t, c_l, c_r) -> CoonsSurface:
    """Bilinearly blended Coons patch of four boundary curves.

    ``c_b``/``c_t`` must share a knot vector (the xi direction) and
    ``c_l``/``c_r`` likewise (eta); corners must match.  The blend (ruled
    surface in eta plus ruled surface in xi minus the bilinear corner
    patch) is performed on homogeneous control points, so the boundary
    curves are reproduced exactly.
    """
    if c_b.kv != c_t.kv:
        raise ValueError("bottom and top curves must share a knot vector")
    if c_l.kv != c_r.kv:
        raise ValueError("left and right curves must share a knot vector")
    kv_xi, kv_eta = c_b.kv, c_l.kv

    # Corner compatibility in homogeneous coordinates: positions must
    # coincide and the end weights must agree for the blend to reproduce
    # the boundary curves exactly.
    corners = [
        (c_b.evaluate([0.0])[0], c_l.evaluate([0.0])[0], c_b.weights[0], c_l.weights[0]),
        (c_b.evaluate([1.0])[0], c_r.evaluate([0.0])[0], c_b.weights[-1], c_r.weights[0]),
        (c_t.evaluate([0.0])[0], c_l.evaluate([1.0])[0], c_t.weights[0], c_l.weights[-1]),
        (c_t.evaluate([1.0])[0], c_r.evaluate([1.0])[0], c_t.weights[-1], c_r.weights[-1]),
    ]
    for pa, pb, wa, wb in corners:
        if np.max(np.abs(pa - pb)) > _CORNER_TOL:
            raise ValueError(f"corner mismatch {pa} vs {pb} exceeds {_CORNER_TOL}")
        if abs(wa - wb) > _CORNER_TOL:
            raise ValueError("corner weights of adjacent boundary curves must agree")

    # A straight segment between two homogeneous points is represented
    # exactly on any clamped space by control points at its Greville
    # abscissae (linear precision), so both ruled surfaces and the bilinear
    # corner patch are written directly on (kv_xi, kv_eta).
    hb, ht = c_b.homogeneous()[:, None], c_t.homogeneous()[:, None]
    hl, hr = c_l.homogeneous()[None], c_r.homogeneous()[None]
    gx = kv_xi.greville()[:, None, None]
    ge = kv_eta.greville()[None, :, None]
    ruled_bt = (1.0 - ge) * hb + ge * ht
    ruled_lr = (1.0 - gx) * hl + gx * hr
    corner_patch = (1.0 - gx) * ((1.0 - ge) * hb[0] + ge * ht[0]) + gx * (
        (1.0 - ge) * hb[-1] + ge * ht[-1]
    )

    hom = ruled_bt + ruled_lr - corner_patch
    w = hom[..., 2]
    if np.any(w <= 0.0):
        raise ValueError("Coons blend produced nonpositive weights")
    return CoonsSurface(hom[..., :2] / w[..., None], w, kv_xi, kv_eta)


def make_semicircle_patch(cfg: DomainConfig) -> CoonsSurface:
    """Coons parametrization of the semicircular domain for ``cfg``.

    The Coons blend of the curves of :func:`make_patch_boundary`, whose
    arcs have zero speed at the two arc junctions, except that the shift
    each side arc gets from its reparametrization is blended into the
    patch with the weight ``(1 - xi)**4`` (``xi**4``) in place of the Coons
    weight ``1 - xi`` (``xi``); see ``_SHIFT_POWER``.  The boundary curves
    are reproduced exactly.  Near the corners (0, 1) and (1, 1) the map
    behaves like ``z -> z^2``: ``det J`` and ``|F_xi|^2 + |F_eta|^2`` both
    vanish quadratically there, and the mean ratio tends to a positive,
    direction-dependent limit instead of 0.  The other two corners are
    right angles of the domain and stay regular.
    """
    c_b, c_t, c_l, c_r = make_patch_boundary(cfg)
    surface = coons_patch(c_b, c_t, c_l, c_r)
    kv_xi, kv_eta = surface.kv_xi, surface.kv_eta
    _, _, plain_l, plain_r = make_semicircle_boundary(cfg)
    k = _SHIFT_POWER
    hom = surface._hom.copy()
    for arc, plain, blend in (
        (c_l, plain_l, lambda t: (1.0 - t) ** k - (1.0 - t)),
        (c_r, plain_r, lambda t: t**k - t),
    ):
        while plain.kv.order < kv_eta.order:
            plain = plain.elevated()
        extra = _spline_coefficients(kv_xi, blend)
        extra[[0, -1]] = 0.0  # exact zeros: the blend change vanishes on both side edges
        hom += extra[:, None, None] * (arc.homogeneous() - plain.homogeneous())[None]
    w = hom[..., 2]
    return CoonsSurface(hom[..., :2] / w[..., None], w, kv_xi, kv_eta)


def _spline_coefficients(kv: KnotVector, f) -> np.ndarray:
    """Coefficients of the polynomial ``f`` on ``kv`` (collocation at the Greville abscissae)."""
    g = kv.greville()
    return np.linalg.solve(design(kv, g)[0], f(g))

