"""Exact Burnside-ring arithmetic and equivariant degrees for finite groups."""

from .burnside import (
    BurnsideElement,
    FiniteGSet,
    TableOfMarks,
    add,
    basis_element,
    coset_gset,
    decompose_gset,
    format_element,
    mark_vector,
    marks_csv,
    mul,
    parse_element,
    product_gset,
    table_of_marks,
    unit_element,
    zero_element,
)
from .degree import (
    DeclaredLocalMap,
    DegreeResult,
    ExpressionLocalMap,
    LinearLocalMap,
    PolystandardMap,
    ProductCheck,
    StandardPiece,
    ambient_linear_map,
    conjugate_linear_piece,
    deg_polystandard,
    deg_standard,
    existence_check,
    expression_local_index,
    local_index,
    polystandard_map,
    product_map,
    standard_piece,
    verify_product,
)
from .expr import Expr, parse, to_source
from .group import (
    FiniteGroup,
    Subgroup,
    SubgroupClass,
    WeylData,
    all_subgroups,
    class_labels,
    class_leq,
    generate_group,
    subgroup_classes,
    subgroup_from_elements,
    weyl_data,
)
from .realize import (
    RealizationTarget,
    realize_element,
    signed_linear_block,
)
from .representation import (
    FixedSubspace,
    OrbitTypeTable,
    OrthogonalRepresentation,
    build_representation,
    direct_sum,
    fixed_subspace,
    isotropy,
    orbit,
    orbit_types,
    permutation_representation,
    point_with_exact_isotropy,
    regular_representation,
    trivial_representation,
    witness_points,
)

__version__ = "0.1.0"
