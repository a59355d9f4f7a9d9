"""Exact kernel for spread/zpread polynomials and their factorizations.

The package constructs the classical polynomial families with
arbitrary-precision integer arithmetic, factors each zpread polynomial
into one factor per divisor (three independent routes, cross-checked),
and applies the factorization at x = 5 to split Fibonacci numbers into
primitive parts.

``import spreadpoly`` loads the errors, intpoly, sequences and factor
layers, which every command builds on.  The fib and verify layers load on
first use: reading one of their names here (``spreadpoly.fib_factorization``,
``spreadpoly.run_verification``, ``spreadpoly.verify``, ...) imports its
module through ``__getattr__``, which returns that module's own object
and binds nothing in this namespace.  So ``show`` and ``factor`` load
neither, ``fib`` loads fib alone, and ``verify`` loads both.
"""

from .errors import (
    ConfigurationError,
    IdentityFailureError,
    InternalInconsistencyError,
    NotDivisibleError,
    NotPalindromicError,
    OddDegreeError,
    OutOfBoundsError,
    RouteMismatchError,
    SpreadPolyError,
    ToleranceExceededError,
    VerificationFailureError,
)
from .factor import (
    Factor,
    FactorizationRecord,
    FloatRootCheck,
    PhiRoute,
    capital_phi,
    cross_check_phi,
    factor_lucas_minus2,
    factor_zpread,
    float_root_check,
    phi_composed,
    phi_min,
    phi_odd_lucas,
    phi_pow2,
    psi,
)
from .intpoly import (
    IntPoly,
    ONE,
    X,
    ZERO,
    div_exact,
    get_mul_threshold,
    mul_karatsuba,
    mul_schoolbook,
    palindrome_fold,
)
from .sequences import (
    CACHE,
    SequenceCache,
    cyclotomic,
    divisors,
    fibonacci,
    lucas,
    monic_zpread,
    spread,
    totient,
    zpread,
    zpread_via_lucas,
)

__version__ = "0.1.0"

# Public name -> the module, loaded on first use, that defines it.
_LAZY = {
    "PrimitivePartTable": "fib",
    "fib_factorization": "fib",
    "primitive_part": "fib",
    "zpread_at5_identity": "fib",
    "SuiteResult": "verify",
    "VerifyReport": "verify",
    "run_suite": "verify",
    "run_verification": "verify",
    "fib": "fib",
    "verify": "verify",
}

__all__ = [
    "CACHE",
    "ConfigurationError",
    "Factor",
    "FactorizationRecord",
    "FloatRootCheck",
    "IdentityFailureError",
    "IntPoly",
    "InternalInconsistencyError",
    "NotDivisibleError",
    "NotPalindromicError",
    "ONE",
    "OddDegreeError",
    "OutOfBoundsError",
    "PhiRoute",
    "PrimitivePartTable",
    "RouteMismatchError",
    "SequenceCache",
    "SpreadPolyError",
    "SuiteResult",
    "ToleranceExceededError",
    "VerificationFailureError",
    "VerifyReport",
    "X",
    "ZERO",
    "capital_phi",
    "cross_check_phi",
    "cyclotomic",
    "div_exact",
    "divisors",
    "factor_lucas_minus2",
    "factor_zpread",
    "fib_factorization",
    "fibonacci",
    "float_root_check",
    "get_mul_threshold",
    "lucas",
    "monic_zpread",
    "mul_karatsuba",
    "mul_schoolbook",
    "palindrome_fold",
    "phi_composed",
    "phi_min",
    "phi_odd_lucas",
    "phi_pow2",
    "primitive_part",
    "psi",
    "run_suite",
    "run_verification",
    "spread",
    "totient",
    "zpread",
    "zpread_at5_identity",
    "zpread_via_lucas",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ takes the import system's own path, so -X importtime lists
    # the module; loading it binds the submodule name here and nothing else.
    __import__(f"{__name__}.{module}")
    loaded = globals()[module]
    return loaded if name == module else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
