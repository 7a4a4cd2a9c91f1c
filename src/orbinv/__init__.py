"""Exact invariants controlling uniqueness and minimality of arithmetic
hyperbolic orbifold groups: restricted 2-class numbers of totally real fields,
spinor norms of rational isometries of admissible quadratic forms, normalizer
index checks, and the super-exponential Euler characteristic bound."""

from .exact_arith import (
    InternalConsistencyError,
    QuadFieldElem,
    SquareClass,
    TotallyRealField,
    format_element,
    in_k_infinity_star,
    is_algebraic_integer,
    is_square,
    is_squarefree,
    parse_element,
    sign_at,
    squarefree_part,
)
from .field_invariants import (
    BinaryQuadraticForm,
    FieldInvariants,
    FormCycle,
    RestrictedTwoClassBound,
    UnitGroupData,
    analytic_class_number_oracle,
    class_number,
    form_cycles,
    fundamental_discriminant,
    fundamental_unit,
    narrow_class_number,
    reduced_forms,
    reduction_step,
    restricted_class_number,
    restricted_class_number_from_invariants,
    squarefree_range,
    two_class_number,
    unit_group_data,
    unit_index_from_sign_vectors,
    unit_index_infinity,
)
from .growth_bound import (
    GrowthBoundValue,
    GrowthCertificate,
    euler_char_bound,
    superexponential_certificate,
)
from .spinor import (
    DiagonalForm,
    Isometry,
    NormalizerReport,
    ReflectionDecomposition,
    admissibility_check,
    cartan_dieudonne_decompose,
    decompose_matrix,
    normalizer_index_check,
    preserves_form,
    reflect,
    so0_membership,
    spinor_norm,
    spinor_norm_of_matrix,
    stabilizes_standard_lattice,
    standard_admissible_form,
)

__version__ = "0.1.0"
