"""Identity and property suites over the whole kernel.

Each suite sweeps one exact identity (or one randomized kernel property)
up to its declared bound, capped by the requested sweep size.  Randomized
suites draw from a fixed seed so repeated runs are byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import floor
from time import perf_counter
from typing import Callable, Iterator

from . import factor, fib
from .errors import OutOfBoundsError, SpreadPolyError
from .intpoly import (
    IntPoly,
    ONE,
    ZERO,
    div_exact,
    mul_schoolbook,
    palindrome_fold,
    product,
)
from .sequences import cyclotomic, divisors, fibonacci, lucas, totient, zpread

_RNG_SEED = 0x5EED
# Sample count of each randomized kernel suite.
_INSTANCES = 1000
# Relative residual bound of the floating-point root suite.
_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SuiteResult:
    """One suite's outcome: check count, failures, first counterexample, timing."""

    name: str
    checks: int
    failures: int
    first_failure: str | None
    seconds: float

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_record(self) -> dict:
        return {
            "kind": "verify",
            "name": self.name,
            "checks": self.checks,
            "failures": self.failures,
            "first_failure": self.first_failure,
            "status": "pass" if self.passed else "fail",
        }

    def to_text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status}  {self.name:<36} {self.checks:>6} checks  {self.seconds:8.3f}s"
        if self.first_failure:
            line += f"\n      first failure: {self.first_failure}"
        return line


@dataclass
class VerifyReport:
    """Results of every suite for one sweep."""

    suites: list[SuiteResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def to_text(self) -> str:
        lines = [s.to_text() for s in self.suites]
        good = sum(1 for s in self.suites if s.passed)
        lines.append(f"{len(self.suites)} suites: {good} passed, {len(self.suites) - good} failed")
        return "\n".join(lines)


Check = Iterator[tuple[str, bool]]


# -- zpread and Lucas identities -------------------------------------------


def _suite_zpread_two_routes(n_max: int) -> Check:
    # Z_n = 2 - W_n for W_n = L_n(2 - x), stepped by the Lucas recurrence
    # in 2 - x, one linear-time step per n and no Lucas weight read.
    two_minus_x = IntPoly((2, -1))
    w_prev, w = IntPoly((2,)), two_minus_x
    for n in range(1, n_max + 1):
        yield f"n={n}", zpread(n) == 2 - w
        w_prev, w = w, two_minus_x * w - w_prev


def _suite_zpread_zero_at_origin(n_max: int) -> Check:
    for n in range(1, n_max + 1):
        yield f"n={n}", zpread(n).constant_term() == 0


def _suite_lucas_index_product(n_max: int) -> Check:
    bound = min(20, n_max)
    for m in range(0, bound + 1):
        lm = lucas(m)
        for n in range(0, bound + 1):
            yield f"m={m},n={n}", lucas(m * n) == lm.compose(lucas(n))


def _suite_lucas_double_minus_two(n_max: int) -> Check:
    for n in range(1, min(100, n_max) + 1):
        ln = lucas(n)
        yield f"n={n}", lucas(2 * n) - 2 == (ln - 2) * (ln + 2)


def _suite_lucas_double_plus_two(n_max: int) -> Check:
    for n in range(1, min(100, n_max) + 1):
        ln = lucas(n)
        yield f"n={n}", lucas(2 * n) + 2 == ln * ln


def _suite_lucas_difference_square_odd(n_max: int) -> Check:
    # (L_{2m+1} - 2)(x - 2) is the square of L_{m+1} - L_m.
    for m in range(0, min(50, n_max) + 1):
        left = (lucas(2 * m + 1) - 2) * IntPoly((-2, 1))
        diff = lucas(m + 1) - lucas(m)
        yield f"m={m}", left == diff * diff


def _suite_lucas_difference_square_even(n_max: int) -> Check:
    # (L_{2m} - 2)(x - 2)(x + 2) is the square of L_{m+1} - L_{m-1}.
    for m in range(1, min(50, n_max) + 1):
        left = (lucas(2 * m) - 2) * IntPoly((-4, 0, 1))
        diff = lucas(m + 1) - lucas(m - 1)
        yield f"m={m}", left == diff * diff


def _suite_cyclotomic_completeness(n_max: int) -> Check:
    for n in range(1, min(200, n_max) + 1):
        ok = product(cyclotomic(d) for d in divisors(n)) == IntPoly.monomial(n) - 1
        ok = ok and cyclotomic(n).degree() == totient(n)
        yield f"n={n}", ok


def _suite_cyclotomic_palindromic(n_max: int) -> Check:
    for n in range(3, min(200, n_max) + 1):
        c = cyclotomic(n)
        yield f"n={n}", c.degree() % 2 == 0 and c.is_palindromic()


def _suite_zpread_square_substitution(n_max: int) -> Check:
    x_squared = IntPoly((0, 0, 1))
    for m in range(1, min(49, n_max) + 1, 2):
        lm = lucas(m)
        yield f"odd m={m}", zpread(m).compose(x_squared) == lm * lm
    for n in range(1, min(25, n_max) + 1):
        l2n = lucas(2 * n)
        yield f"even 2n={2 * n}", zpread(2 * n).compose(x_squared) == 4 - l2n * l2n


def _suite_zpread_index_product(n_max: int) -> Check:
    bound = min(15, n_max)
    for m in range(1, bound + 1):
        zm = zpread(m)
        for n in range(1, bound + 1):
            yield f"m={m},n={n}", zpread(m * n) == zm.compose(zpread(n))


def _suite_zpread_rational_points(n_max: int) -> Check:
    points = (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(-3, 2))
    for u in points:
        arg = -((u - 1 / u) ** 2)
        for n in range(1, min(30, n_max) + 1):
            expected = -((u**n - u**-n) ** 2)
            yield f"u={u},n={n}", zpread(n)(arg) == expected


# -- factor-engine identities ------------------------------------------------


def _suite_minimal_poly_shape(n_max: int) -> Check:
    for n in range(1, n_max + 1):
        psi_n = factor.psi(n)
        phi_n = factor.phi_min(n)
        cap = factor.capital_phi(n)
        half = totient(n) // 2 if n >= 3 else 1
        ok = psi_n.degree() == half and psi_n.is_monic()
        ok = ok and phi_n.degree() == half and phi_n.is_monic()
        ok = ok and cap.degree() == totient(n)
        yield f"n={n}", ok


def _suite_psi_at_powers_of_two(n_max: int) -> Check:
    for n in range(1, min(8, n_max) + 1):
        yield f"n={n}", factor.psi(2 ** (n + 2)) == lucas(2**n)


def _suite_phi_pow2_square_substitution(n_max: int) -> Check:
    for n in range(1, min(8, n_max) + 1):
        yield f"n={n}", factor.phi_composed(2 ** (n + 1)).stretch(2) == lucas(2**n)


def _multiplied(record: factor.FactorizationRecord) -> IntPoly:
    """The exact product of a record's factors, each to its multiplicity."""
    return product(f.poly**f.multiplicity if f.multiplicity > 1 else f.poly for f in record.factors)


def _suite_zpread_factorization(n_max: int) -> Check:
    # factor_zpread checks the degrees and the values at 5 and -3 alone;
    # here the factors are multiplied back together exactly.
    for n in range(1, n_max + 1):
        yield f"n={n}", _multiplied(factor.factor_zpread(n)) == zpread(n)


def _suite_lucas_minus2_factorization(n_max: int) -> Check:
    # As above, for L_n - 2.
    for n in range(1, n_max + 1):
        yield f"n={n}", _multiplied(factor.factor_lucas_minus2(n)) == lucas(n) - 2


def _suite_phi_route_agreement(n_max: int) -> Check:
    for n in range(1, n_max + 1):
        factor.cross_check_phi(n)
        yield f"n={n}", True


def _suite_zpread_capital_phi_commutation(n_max: int) -> Check:
    # Compositions with the power-of-two factors commute for odd m only;
    # even m picks up the reflection through 4 (both provable from the
    # square-substitution identities, which split by parity of m).
    for k in range(2, min(5, n_max) + 1):
        cap = factor.capital_phi(2**k)
        for m in range(1, min(12, n_max) + 1):
            left = zpread(m).compose(cap)
            right = cap.compose(zpread(m))
            yield f"m={m},k={k}", left == right if m % 2 else left == 4 - right


def _suite_capital_phi_reflection(n_max: int) -> Check:
    four_minus_x = IntPoly((4, -1))
    for m in range(3, min(49, n_max) + 1, 2):
        left = factor.capital_phi(2 * m)
        yield f"m={m}", left == factor.capital_phi(m).compose(four_minus_x)


def _suite_phi_no_integer_linear_factor(n_max: int) -> Check:
    # An integer root of phi_n would divide its constant term c0.
    for n in (5, 7, 9, 11, 13, 25):
        if n > n_max:
            continue
        p = factor.phi_min(n)
        c0 = abs(p.constant_term())
        yield f"n={n}", c0 != 0 and all(p(r) != 0 for d in divisors(c0) for r in (d, -d))


def _suite_phi_float_roots(n_max: int) -> Check:
    for n in range(3, min(50, n_max) + 1):
        factor.float_root_check(n, _TOLERANCE)
        yield f"n={n}", True


# -- Fibonacci application ---------------------------------------------------


def part_from_minimal_polynomial(n: int) -> int:
    """p_n by its definition, |phi_n(5)| (p_1 = 1): the slow oracle of ``fib.primitive_part``."""
    return 1 if n == 1 else abs(factor.phi_min(n)(5))


def _suite_fibonacci_primitive_parts(n_max: int) -> Check:
    for n in range(1, min(200, n_max) + 1):
        # fib_factorization raises VerificationFailureError unless the parts
        # multiply back to F_n; each part is checked against its definition.
        table = fib.fib_factorization(n)
        yield f"n={n}", all(p == part_from_minimal_polynomial(d) for d, p in table.parts)


def _suite_zpread_at_five(n_max: int) -> Check:
    for n in range(1, min(200, n_max) + 1):
        yield f"n={n}", fib.zpread_at5_identity(n)


def _suite_fibonacci_divisibility(n_max: int) -> Check:
    for n in range(1, min(200, n_max) + 1):
        fn = fibonacci(n)
        ok = all(fn % fibonacci(d) == 0 for d in divisors(n))
        yield f"n={n}", ok


# -- randomized kernel properties ---------------------------------------------


def _random_poly(rng: random.Random, max_degree: int, coeff_bound: int) -> IntPoly:
    # The draws rng.choices(range(-coeff_bound, coeff_bound + 1), k=...) makes, at less cost.
    draw, n = rng.random, 2 * coeff_bound + 1.0
    coeffs = [floor(draw() * n) - coeff_bound for _ in range(rng.randint(0, max_degree + 1))]
    while coeffs and coeffs[-1] == 0:
        coeffs[-1] = rng.randint(-coeff_bound, coeff_bound)
    return IntPoly(coeffs)


def _suite_ring_axioms(n_max: int) -> Check:
    rng = random.Random(_RNG_SEED)
    for i in range(_INSTANCES):
        p = _random_poly(rng, 16, 10**6)
        q = _random_poly(rng, 16, 10**6)
        r = _random_poly(rng, 16, 10**6)
        pq = p * q
        ok = (p + q) + r == p + (q + r)
        ok = ok and p + q == q + p
        ok = ok and pq * r == p * (q * r)
        ok = ok and pq == q * p
        ok = ok and p * (q + r) == pq + p * r
        ok = ok and p * ONE == p and p + ZERO == p
        ok = ok and (pq.is_zero() or pq.leading_coefficient() != 0)
        yield f"instance={i}", ok


def _suite_division_round_trip(n_max: int) -> Check:
    rng = random.Random(_RNG_SEED + 1)
    for i in range(_INSTANCES):
        p = _random_poly(rng, 16, 10**6)
        q = ZERO
        while q.is_zero():
            q = _random_poly(rng, 16, 10**6)
        yield f"instance={i}", div_exact(p * q, q) == p


def _suite_fold_round_trip(n_max: int) -> Check:
    rng = random.Random(_RNG_SEED + 2)
    for i in range(_INSTANCES):
        m = rng.randint(0, 12)
        lead = 0
        while lead == 0:
            lead = rng.randint(-10**6, 10**6)
        if m == 0:
            p = IntPoly((lead,))
        else:
            half = [lead, *[floor(rng.random() * (2 * 10**6 + 1.0)) - 10**6 for _ in range(m - 1)]]
            center = rng.randint(-10**6, 10**6)
            p = IntPoly(half + [center] + half[::-1])
        w = palindrome_fold(p)
        yield f"instance={i}", IntPoly(w[:0:-1] + w) == p


def _suite_mul_path_equivalence(n_max: int) -> Check:
    # p * q takes the zero-skipping schoolbook or the Kronecker kernel;
    # mul_schoolbook is the dense reference loop.  Degrees up to 64, twice
    # the kernel's schoolbook threshold, put operands on both sides of it.
    rng = random.Random(_RNG_SEED + 3)
    for i in range(_INSTANCES):
        p = _random_poly(rng, 64, 10**9)
        q = _random_poly(rng, 64, 10**9)
        yield f"instance={i}", mul_schoolbook(p, q) == p * q


def _suite_compose_associativity(n_max: int) -> Check:
    rng = random.Random(_RNG_SEED + 4)
    for i in range(_INSTANCES):
        p = _random_poly(rng, 4, 20)
        q = _random_poly(rng, 4, 20)
        r = _random_poly(rng, 4, 20)
        left = p.compose(q).compose(r)
        yield f"instance={i}", left == p.compose(q.compose(r))


def _suite_eval_homomorphism(n_max: int) -> Check:
    rng = random.Random(_RNG_SEED + 5)
    for i in range(_INSTANCES):
        p = _random_poly(rng, 16, 10**6)
        q = _random_poly(rng, 16, 10**6)
        a = rng.randint(-10**6, 10**6)
        ok = (p * q)(a) == p(a) * q(a)
        ok = ok and (p + q)(a) == p(a) + q(a)
        yield f"instance={i}", ok


SUITES: tuple[tuple[str, Callable[[int], Check]], ...] = (
    ("zpread-two-routes", _suite_zpread_two_routes),
    ("zpread-zero-at-origin", _suite_zpread_zero_at_origin),
    ("lucas-index-product", _suite_lucas_index_product),
    ("lucas-double-minus-two", _suite_lucas_double_minus_two),
    ("lucas-double-plus-two", _suite_lucas_double_plus_two),
    ("lucas-difference-square-odd", _suite_lucas_difference_square_odd),
    ("lucas-difference-square-even", _suite_lucas_difference_square_even),
    ("cyclotomic-completeness", _suite_cyclotomic_completeness),
    ("cyclotomic-palindromic", _suite_cyclotomic_palindromic),
    ("zpread-square-substitution", _suite_zpread_square_substitution),
    ("zpread-index-product", _suite_zpread_index_product),
    ("zpread-rational-points", _suite_zpread_rational_points),
    ("minimal-poly-shape", _suite_minimal_poly_shape),
    ("psi-at-powers-of-two", _suite_psi_at_powers_of_two),
    ("phi-pow2-square-substitution", _suite_phi_pow2_square_substitution),
    ("zpread-factorization", _suite_zpread_factorization),
    ("lucas-minus2-factorization", _suite_lucas_minus2_factorization),
    ("phi-route-agreement", _suite_phi_route_agreement),
    ("zpread-capital-phi-commutation", _suite_zpread_capital_phi_commutation),
    ("capital-phi-reflection", _suite_capital_phi_reflection),
    ("phi-no-integer-linear-factor", _suite_phi_no_integer_linear_factor),
    ("phi-float-roots", _suite_phi_float_roots),
    ("fibonacci-primitive-parts", _suite_fibonacci_primitive_parts),
    ("zpread-at-five", _suite_zpread_at_five),
    ("fibonacci-divisibility", _suite_fibonacci_divisibility),
    ("ring-axioms", _suite_ring_axioms),
    ("division-round-trip", _suite_division_round_trip),
    ("fold-round-trip", _suite_fold_round_trip),
    ("mul-path-equivalence", _suite_mul_path_equivalence),
    ("compose-associativity", _suite_compose_associativity),
    ("eval-homomorphism", _suite_eval_homomorphism),
)


def run_suite(name: str, sweep: int = 200) -> SuiteResult:
    """Run a single named suite; stops at its first counterexample."""
    factory = dict(SUITES).get(name)
    if factory is None:
        raise OutOfBoundsError(f"unknown verify suite {name!r}")
    if sweep < 1:
        raise OutOfBoundsError("sweep bound must be at least 1")
    start = perf_counter()
    checks = failures = 0
    first: str | None = None
    try:
        for label, ok in factory(sweep):
            checks += 1
            if not ok:
                failures += 1
                first = label
                break
    except SpreadPolyError as exc:
        checks += 1
        failures += 1
        first = str(exc)
    return SuiteResult(name, checks, failures, first, perf_counter() - start)


def run_verification(sweep: int = 200) -> VerifyReport:
    """Run every suite and collect a report."""
    return VerifyReport([run_suite(name, sweep) for name, _ in SUITES])
