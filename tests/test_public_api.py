"""The package's public surface: a name is added to or dropped from it only on purpose."""

import ast
from pathlib import Path

import opflow

PUBLIC_NAMES = [
    "BoundaryCollisionError",
    "BranchCutError",
    "ConditioningError",
    "Crossing",
    "DegeneracyError",
    "DomainError",
    "GraphProjection",
    "GridSpace",
    "HermOp",
    "NonConvergenceError",
    "NotInCoveringError",
    "OperatorPath",
    "OutOfBallError",
    "ProjectivePoint",
    "RobinOperator",
    "SpecFlowReport",
    "SplitOperator",
    "SurgeryViolationError",
    "SymmetricTuple",
    "ValidationError",
    "adjoint",
    "analytic_eigenvalues",
    "assemble_robin_operator",
    "ball_projection",
    "bounded_transform",
    "cayley",
    "cayley_ball",
    "classify",
    "compactify_homotopy",
    "completeness_defect",
    "concat",
    "covering_membership",
    "default_compact_factor",
    "density_surgery",
    "dichotomy_sweep",
    "discretization_tolerance",
    "eigenfunction_concentration",
    "errors",
    "fredholm_factor_check",
    "func_calc",
    "gap_dist",
    "graph_projection",
    "herm_eig",
    "homotopy",
    "horizontal_projection",
    "identity_suite",
    "inverse_bounded_transform",
    "inversion_consistency",
    "isometry_defect",
    "lagrangian_defect",
    "lagrangian_to_unitary",
    "linalg",
    "log_path",
    "metrics",
    "odd_embedding",
    "op_norm",
    "proj_to_unitary",
    "riesz_dist",
    "rk_contraction",
    "robin_generator",
    "shrink_isometry",
    "specflow",
    "spectral_flow",
    "spectral_graph",
    "split_finite_infinite",
    "stretch_isometry",
    "sturm",
    "surgery_bound_trials",
    "transforms",
    "vertical_projection",
    "weyl_gap",
    "window_projection",
    "zk_path",
]


def test_public_names_are_pinned():
    assert sorted(opflow.__all__) == PUBLIC_NAMES


def test_only_linalg_knows_an_operators_storage():
    """No module but ``linalg`` reads ``.bands`` or ``MIN_FACTOR_DIM``: every
    other one asks a ``HermOp`` to factor, subtract, norm or apply itself."""
    readers = {}
    for path in sorted(Path(opflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in ("bands", "MIN_FACTOR_DIM"):
                readers.setdefault(path.name, set()).add(name)
    assert set(readers) == {"linalg.py"}, readers
