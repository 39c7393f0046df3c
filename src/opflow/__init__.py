"""opflow: operator transforms, gap/Riesz metrics, homotopies, and spectral flow
for discretized self-adjoint operators, stored dense or banded."""

__version__ = "0.1.0"

from .classify import (
    SplitOperator,
    SymmetricTuple,
    covering_membership,
    density_surgery,
    split_finite_infinite,
    surgery_bound_trials,
    window_projection,
)
from .errors import (
    BoundaryCollisionError,
    BranchCutError,
    ConditioningError,
    DegeneracyError,
    DomainError,
    NonConvergenceError,
    NotInCoveringError,
    OutOfBallError,
    SurgeryViolationError,
    ValidationError,
)
from .homotopy import (
    GridSpace,
    compactify_homotopy,
    completeness_defect,
    default_compact_factor,
    discretization_tolerance,
    inversion_consistency,
    isometry_defect,
    log_path,
    rk_contraction,
    shrink_isometry,
    stretch_isometry,
    zk_path,
)
from .linalg import HermOp, adjoint, func_calc, herm_eig, op_norm
from .metrics import gap_dist, riesz_dist, weyl_gap
from .specflow import Crossing, OperatorPath, SpecFlowReport, concat, spectral_flow
from .sturm import (
    ProjectivePoint,
    RobinOperator,
    analytic_eigenvalues,
    assemble_robin_operator,
    dichotomy_sweep,
    eigenfunction_concentration,
    robin_generator,
    spectral_graph,
)
from .transforms import (
    GraphProjection,
    ball_projection,
    bounded_transform,
    cayley,
    cayley_ball,
    fredholm_factor_check,
    graph_projection,
    horizontal_projection,
    identity_suite,
    inverse_bounded_transform,
    lagrangian_defect,
    lagrangian_to_unitary,
    odd_embedding,
    proj_to_unitary,
    vertical_projection,
)

__all__ = [name for name in dir() if not name.startswith("_")]
