"""Amicable numbers toolkit.

Divisor sums and abundance classification, amicable and betrothed pair
checks and bounded searches, aliquot sequences and sociable cycles, the
classical pair-generating rules (doubling, Euler's two-exponent rule, the
Borho-Hoffmann breeder construction), a verified catalog of reference
values, and deterministic JSON/CSV serialization.
"""

from .catalog import (
    COPRIME_PRODUCT_SEARCH_BOUND,
    EntryKind,
    KnownEntry,
    candidate_from_json,
    export_report,
    from_json,
    known_catalog,
    to_jsonable,
    verify_catalog,
)
from .cycles import (
    AliquotOutcome,
    AliquotResult,
    CycleCheck,
    SociableCycle,
    aliquot_sequence,
    find_cycles,
    verify_cycle,
)
from .divisor import (
    DEFAULT_SIEVE_BUDGET,
    Classification,
    NumberClass,
    SieveTable,
    aliquot_s,
    build_sieve,
    classify,
    sigma,
    sigma_brute,
)
from .errors import (
    BadParameter,
    FactorBudgetExceeded,
    LimitTooLarge,
    ToolkitError,
    UnsupportedFormat,
    VerificationFailed,
    ZeroInput,
)
from .generators import (
    BorhoCandidate,
    BorhoHypothesis,
    EulerCandidate,
    ThabitCandidate,
    borho_candidate,
    borho_structure_check,
    euler_candidate,
    euler_identity_check,
    thabit_candidate,
    thabit_identity_check,
    verify_pair_by_sigma,
)
from .numeric import (
    PRIME_DETERMINISTIC_BOUND,
    Factorization,
    factorize,
    gcd,
    is_prime,
    prime_test_mode,
)
from .pairs import (
    AuditResult,
    GuardFailure,
    Oracle,
    PairKind,
    PairVerdict,
    SearchReport,
    audit,
    check_amicable,
    check_betrothed,
    is_amicable_number,
    search_amicable,
    search_betrothed,
)

__version__ = "0.1.0"
