"""idemforge: primitive idempotents of F_q[x]/(x^(p^k) - 1), an independent
Euclid-based oracle, a verifier, and the minimal cyclic codes they generate."""

from .codes import (
    CyclicCodeSummary,
    code_summary,
    generator_polynomial,
    min_distance,
    min_distance_exhaustive,
    summaries_for,
)
from .engine import (
    IdempotentRecord,
    all_idempotents_euclid,
    dispatch,
    euclid_idempotent,
    fully_split_idempotents,
    general_case_idempotents,
    orbit_representatives,
    primitive_root_idempotents,
    second_type_idempotent,
    split_case_idempotents,
    third_type_census,
)
from .errors import (
    BudgetExceededError,
    IdemforgeError,
    InvariantViolation,
    UnsupportedInstanceError,
    UsageError,
)
from .fields import (
    ExtensionField,
    FieldElement,
    PrimeField,
    find_irreducible,
    frobenius,
    get_extension_field,
    get_prime_field,
    primitive_element,
    root_of_unity,
    trace_sigma1,
)
from .polys import (
    CyclicRingElement,
    Poly,
    cyclotomic_poly,
    extended_gcd,
    inflate,
)
from .structure import (
    CosetPartition,
    ProblemInstance,
    cyclotomic_cosets,
    expected_idempotent_count,
    factor_xn_minus_1,
    instance_parameters,
    multiplicative_order,
)
from .verifier import (
    VerificationReport,
    check_completeness,
    check_idempotency,
    check_orthogonality,
    check_primitivity,
    sets_equal,
    verify_system,
)

__version__ = "0.1.0"
