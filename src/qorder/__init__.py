"""qorder: exact finite-field tower arithmetic and order computations.

The library builds the tower F_p < F_q < F_{q^n} with canonical moduli,
computes the F_q-order of field elements and of additive characters (by a
definitional scan and by the reciprocal fast path), and verifies the
relationship between the two exhaustively at desk scale.
"""

from .action import (
    adjoint_action,
    apply_action,
    fq_order,
    is_normal,
    linearized_eval,
)
from .characters import (
    AdditiveCharacter,
    char_action_exponent,
    char_annihilated_by,
    char_eval_exponent,
    char_mul,
    char_order_bruteforce,
    char_order_fast,
    trivial_character,
)
from .classify import (
    MEYN_SWEEP_MAX_N,
    MEYN_SWEEP_PRIME_POWERS,
    VERIFICATION_GRID,
    ClassificationReport,
    ClassificationRow,
    CoincidenceCheck,
    MeynVerdict,
    ReciprocalOrderSweep,
    classification_report,
    characters_by_order,
    elements_by_order,
    find_primitive_normal,
    is_primitive,
    meyn_criterion,
    meyn_sweep,
    multiplicative_order,
    orders_coincide_iff_self_reciprocal,
    reciprocal_order_sweep,
)
from .errors import (
    DegreeTooLargeError,
    FieldMismatchError,
    NonPrimeError,
    NotMonicError,
    ParseError,
    PrimitiveNormalNotFoundError,
    QOrderError,
    SizeExceededError,
    ZeroConstantTermError,
    ZeroElementError,
)
from .fields import (
    DEFAULT_SIZE_BOUND,
    BaseField,
    FFElement,
    FieldTower,
    base_field,
    build_tower,
    element_tokens,
    embed_base,
    enumerate_elements,
    frobenius,
    parse_element,
    smallest_irreducible,
    trace_to_prime,
)
from .poly import (
    DEFAULT_DIVISOR_BOUND,
    FactoredPoly,
    FqPoly,
    divisor_phi_table,
    divisors_of_xn_minus_1,
    factor_xn_minus_1,
    is_irreducible,
    is_self_reciprocal,
    monic_polynomials,
    monic_reciprocal,
    parse_poly,
    phi_q,
    poly_gcd,
    poly_sort_key,
    poly_tokens,
)

__version__ = "0.1.0"
