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
    IdempotentSystem,
    all_idempotents_euclid,
    dispatch,
    orbit_representatives,
)
from .errors import (
    BudgetExceededError,
    IdemforgeError,
    InvariantViolation,
    UsageError,
)
from .fields import (
    ExtensionField,
    FieldElement,
    PrimeField,
    find_irreducible,
    get_extension_field,
    get_prime_field,
)
from .polys import (
    CyclicRingElement,
    Poly,
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
    sets_equal,
    verify_system,
)

__version__ = "0.1.0"
