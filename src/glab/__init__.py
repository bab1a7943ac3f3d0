"""glab: finite groupoid C*-algebras at desk scale.

Build finite groupoids, realize their reduced C*-algebras as block
matrix algebras, enumerate every two-sided ideal, and check the
structure theorems (sandwiching, the triple bijection, the obstruction
ideal) by exhaustive computation.  A combinatorial layer covers finite
single-map dynamics and graph-algebra ideal lattices.
"""

from .linalg import (
    DEFAULT_TOLERANCE,
    TolerancePolicy,
    hermitian_eigen,
    operator_norm,
)
from .groups import (
    CayleyGroup,
    PartialAction,
    cyclic_group,
    dihedral_group,
    global_action,
    symmetric_group,
    trivial_group,
)
from .groupoids import (
    FiniteGroupoid,
    IsotropyGroup,
    ValidationReport,
    disjoint_union,
    empty_groupoid,
    from_group_action,
    from_partial_action,
    from_tables,
    group_bundle,
    pair_groupoid,
    unit_space_groupoid,
)
from .algebra import (
    DEFAULT_SEED,
    AlgebraElement,
    Block,
    BlockDecomposition,
    Ideal,
    all_ideals,
    convolve,
    delta,
    dynamical_ideal_of,
    expectation_E,
    full_representation,
    jmap,
    random_element,
    unit_element,
    wedderburn,
)
from .ideals import (
    CONVENTIONS,
    SandwichTriple,
    VerificationReport,
    collapse_kernel,
    enumerate_triples,
    exel_witness,
    make_triple,
    obstruction_ideal,
    sandwich,
    theta,
    theta_inverse,
    verify,
)
from .dynamics import DirectedGraph, Edge, FiniteDynSystem
from .errors import CapExceededError, GlabError

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "Block", "BlockDecomposition", "CONVENTIONS",
    "CapExceededError", "CayleyGroup", "DEFAULT_SEED", "DEFAULT_TOLERANCE",
    "DirectedGraph", "Edge", "FiniteDynSystem", "FiniteGroupoid", "GlabError",
    "Ideal", "IsotropyGroup", "PartialAction", "SandwichTriple",
    "TolerancePolicy", "ValidationReport", "VerificationReport", "all_ideals",
    "collapse_kernel", "convolve", "cyclic_group", "delta",
    "dihedral_group", "disjoint_union", "dynamical_ideal_of", "empty_groupoid",
    "enumerate_triples", "exel_witness", "expectation_E", "from_group_action",
    "from_partial_action", "from_tables", "full_representation",
    "global_action", "group_bundle", "hermitian_eigen", "jmap",
    "make_triple", "obstruction_ideal", "operator_norm", "pair_groupoid",
    "random_element", "sandwich", "symmetric_group",
    "theta", "theta_inverse", "trivial_group", "unit_element",
    "unit_space_groupoid", "verify", "wedderburn",
]
