"""Combinatorics of stable dual graphs, axis-like degenerations, and
compactified-Jacobian class keys."""

__version__ = "0.1.0"

from .graph_core import (
    AutomorphismGroup,
    DomainError,
    GraphError,
    StableGraph,
    StructuralError,
)
from .enumeration import (
    BoundExceededError,
    Degeneration,
    GraphCatalog,
    enumerate_stable_graphs,
    iter_degenerations,
)
from .assignment import (
    BridgeRecord,
    BridgeReport,
    CoverageError,
    ExtremalAssignment,
    SEPARATING_BRIDGES,
    VerificationReport,
    classify_bridge,
    is_z_quasi_separating,
    load_assignment_table,
    rational_multibridges,
    separating_bridge_assignment,
    verify_extremal,
)
from .contraction import (
    AxisClassification,
    AxisGraph,
    AxisPointClass,
    FiberStrata,
    SingularPoint,
    classify_axis_points,
    fiber_strata,
    iter_fiber_strata,
    leaf_labeled_trees,
    z_contract,
)
from .torelli import (
    C1Partition,
    FiberVerdict,
    PolystableGraph,
    c1_sets,
    component_class_key,
    fiber_constant,
    polystable_key,
    pst,
    stabilize,
    stabilize_component,
    torelli_key,
)
