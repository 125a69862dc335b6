"""Manufactured plane-wave solutions for verifying the discretization.

A unit-direction plane wave ``u*(x) = exp(i k d . x)`` solves the Helmholtz
equation exactly, so only boundary data has to be manufactured: the
Dirichlet trace on the transducer segment, the normal derivative on the
rigid-baffle segment, and the impedance combination on the circular arc.
Discretization errors against ``u*`` then measure the scheme directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import (
    DofPartition,
    QuadratureRule,
    SystemMatrices,
    _direction_rule,
    _tabulate,
    build_system,
    edge_load,
    expand_solution,
    fold_system,
    mirror_fold,
)
from .bspline import TensorProductSpace
from .bspline import basis_matrix, eval_basis  # noqa: F401  bench/layers.py traces these names
from .geometry import CoonsSurface


@dataclass(frozen=True)
class PlaneWave:
    """Exact solution ``A exp(i k d . x)`` with a unit direction ``d``.

    ``amplitude = 0`` gives the trivial manufactured solution (all data
    and the discrete solution vanish identically).
    """

    wavenumber: float
    direction: tuple[float, float] = (0.0, 1.0)
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        d = np.hypot(*self.direction)
        if abs(d - 1.0) > 1e-12:
            raise ValueError("direction must be a unit vector")

    def value(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        phase = points[..., 0] * self.direction[0] + points[..., 1] * self.direction[1]
        return self.amplitude * np.exp(1j * self.wavenumber * phase)

    def gradient(self, points: np.ndarray) -> np.ndarray:
        u = self.value(points)
        d = np.asarray(self.direction)
        return 1j * self.wavenumber * u[..., None] * d

    def normal_derivative(self, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        dn = normals[..., 0] * self.direction[0] + normals[..., 1] * self.direction[1]
        return 1j * self.wavenumber * dn * self.value(points)


def dirichlet_trace(
    space: TensorProductSpace,
    geometry: CoonsSurface,
    partition: DofPartition,
    wave: PlaneWave,
) -> np.ndarray:
    """L2 projection of the exact trace onto the aperture dofs.

    The Dirichlet dofs are the bottom-row functions supported on the
    aperture; their restrictions are linearly independent there, so the
    Gram system is well posed.
    """
    kv = space.kv_xi
    rule = _direction_rule(kv, kv.order + 2, partition.xi_left, partition.xi_right)
    pts = geometry.evaluate_grid(rule.nodes.ravel(), [0.0])[:, 0, :]
    wv = rule.weights * wave.value(pts).reshape(rule.weights.shape)
    b, _, first = _tabulate(kv, rule)  # b[e, a, q]
    # every function active on the aperture is a Dirichlet dof; the flat
    # index of a bottom-row function is its xi index
    loc = np.searchsorted(partition.dirichlet, first[:, None] + np.arange(kv.order))
    local = np.sum(rule.weights[:, None, None] * b[:, :, None] * b[:, None], axis=-1)
    gram = np.zeros((partition.n_dirichlet,) * 2)
    rhs = np.zeros(partition.n_dirichlet, dtype=complex)
    np.add.at(gram, (loc[:, :, None], loc[:, None, :]), local)
    np.add.at(rhs, loc, np.sum(wv[:, None] * b, axis=-1))
    return np.linalg.solve(gram, rhs)


def manufactured_data(
    space: TensorProductSpace,
    geometry: CoonsSurface,
    quad: QuadratureRule,
    partition: DofPartition,
    wave: PlaneWave,
):
    """Boundary load vector and Dirichlet coefficients for ``wave``.

    Robin data ``du*/dn + i k u*`` acts on the three arc edges, Neumann
    data ``du*/dn`` on the baffle part of the bottom edge.
    """
    k = wave.wavenumber

    def robin(pts, normals):
        return wave.normal_derivative(pts, normals) + 1j * k * wave.value(pts)

    def neumann(pts, normals):
        return wave.normal_derivative(pts, normals)

    load = np.zeros(space.size, dtype=complex)
    for edge in ("left", "top", "right"):
        load += edge_load(space, geometry, quad, edge, robin)
    load += edge_load(space, geometry, quad, "bottom", neumann, t_range=(0.0, partition.xi_left))
    load += edge_load(space, geometry, quad, "bottom", neumann, t_range=(partition.xi_right, 1.0))
    values = dirichlet_trace(space, geometry, partition, wave)
    return load, values


def solve_manufactured(
    space: TensorProductSpace,
    geometry: CoonsSurface,
    quad: QuadratureRule,
    partition: DofPartition,
    matrices: SystemMatrices,
    wave: PlaneWave,
) -> np.ndarray:
    """Full coefficient vector of the discrete solution for ``wave``.  The
    problem (not the wave) is mirror-symmetric, so A's even and odd blocks
    (:func:`igarad.assembly.mirror_fold`, ``ValueError`` if not) are
    factored on their half grid's tree one after the other, and the direct
    solve applies ``sum T F^-1 T^T`` (:class:`igarad.solver.FoldedSolve`)."""
    from .solver import FoldedSolve, FrontalLdlt, direct_solve

    load, values = manufactured_data(space, geometry, quad, partition, wave)
    A, b = build_system(matrices, partition, wave.wavenumber, values, load=load)
    blocks = [(fold.matrix, FrontalLdlt(fold_system(matrices, partition, fold, wave.wavenumber, 0.0), fold.tree,
                                        f"{parity} block of A"))
              for fold, parity in zip(mirror_fold(space, partition, geometry), ("even", "odd"))]
    x = direct_solve(A, b, factor=FoldedSolve(blocks))
    return expand_solution(partition, x, values)


def l2_error(
    space: TensorProductSpace,
    geometry: CoonsSurface,
    alpha: np.ndarray,
    wave: PlaneWave,
    quad: QuadratureRule,
) -> float:
    """L2(domain) error of the coefficient field against the plane wave."""
    xis, etas = quad.xi.nodes.ravel(), quad.eta.nodes.ravel()
    F, _, _, det = geometry.jacobian_grid(xis, etas)
    uh = space.evaluate(alpha, xis, etas)
    diff2 = np.abs(uh - wave.value(F)) ** 2
    w2d = np.outer(quad.xi.weights.ravel(), quad.eta.weights.ravel())
    return float(np.sqrt(np.sum(diff2 * det * w2d)))


def h1_semi_error(
    space: TensorProductSpace,
    geometry: CoonsSurface,
    alpha: np.ndarray,
    wave: PlaneWave,
    quad: QuadratureRule,
) -> float:
    """H1 seminorm (energy) error against the plane wave."""
    xis, etas = quad.xi.nodes.ravel(), quad.eta.nodes.ravel()
    F, F_xi, F_eta, det = geometry.jacobian_grid(xis, etas)
    du_dxi = space.evaluate(alpha, xis, etas, (1, 0))
    du_deta = space.evaluate(alpha, xis, etas, (0, 1))
    # physical gradient via J^{-T} (columns F_xi, F_eta)
    gx = (F_eta[..., 1] * du_dxi - F_xi[..., 1] * du_deta) / det
    gy = (-F_eta[..., 0] * du_dxi + F_xi[..., 0] * du_deta) / det
    gstar = wave.gradient(F)
    diff2 = np.abs(gx - gstar[..., 0]) ** 2 + np.abs(gy - gstar[..., 1]) ** 2
    w2d = np.outer(quad.xi.weights.ravel(), quad.eta.weights.ravel())
    return float(np.sqrt(np.sum(diff2 * det * w2d)))


def l2_norm(space, geometry, wave, quad) -> float:
    """L2 norm of the exact solution (for relative errors)."""
    xis, etas = quad.xi.nodes.ravel(), quad.eta.nodes.ravel()
    F, _, _, det = geometry.jacobian_grid(xis, etas)
    w2d = np.outer(quad.xi.weights.ravel(), quad.eta.weights.ravel())
    return float(np.sqrt(np.sum(np.abs(wave.value(F)) ** 2 * det * w2d)))
