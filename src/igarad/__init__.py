"""Isogeometric solver for 2D time-harmonic acoustic radiation.

The package discretizes the Helmholtz equation with mixed boundary
conditions on a semicircular domain: the geometry is an exact rational
B-spline Coons patch, the solution space a tensor-product B-spline basis,
and the resulting complex symmetric system is solved by restarted GMRES
with a shifted-Laplacian preconditioner (or a sparse direct solve).
"""

from .bspline import (
    BasisEval,
    KnotVector,
    TensorProductSpace,
    elevate_order,
    eval_basis,
    insert_knots,
    make_uniform_open_knots,
)
from .geometry import (
    CoonsSurface,
    DomainConfig,
    RationalCurve,
    coons_patch,
    make_arc,
    make_line,
    make_semicircle_boundary,
    make_semicircle_patch,
)
from .assembly import (
    DofPartition,
    NonPositiveJacobianError,
    QuadratureRule,
    SystemMatrices,
    assemble,
    build_system,
    classify_dofs,
    edge_load,
    expand_solution,
)
from .solver import (
    CslpPreconditioner,
    GmresConfig,
    SolveReport,
    build_cslp,
    direct_solve,
    gmres,
)
from .mms import PlaneWave
from .pipeline import (
    PipelineError,
    RunConfig,
    SolutionField,
    axis_profile,
    bottom_profile,
    convergence_study,
    pollution_study,
    run,
)

__all__ = [
    "BasisEval",
    "KnotVector",
    "TensorProductSpace",
    "elevate_order",
    "eval_basis",
    "insert_knots",
    "make_uniform_open_knots",
    "CoonsSurface",
    "DomainConfig",
    "RationalCurve",
    "coons_patch",
    "make_arc",
    "make_line",
    "make_semicircle_boundary",
    "make_semicircle_patch",
    "DofPartition",
    "NonPositiveJacobianError",
    "QuadratureRule",
    "SystemMatrices",
    "assemble",
    "build_system",
    "classify_dofs",
    "edge_load",
    "expand_solution",
    "CslpPreconditioner",
    "GmresConfig",
    "SolveReport",
    "build_cslp",
    "direct_solve",
    "gmres",
    "PlaneWave",
    "PipelineError",
    "RunConfig",
    "SolutionField",
    "axis_profile",
    "bottom_profile",
    "convergence_study",
    "pollution_study",
    "run",
]

__version__ = "0.1.0"
