"""Irreducible factors of the zpread polynomials, by three independent routes.

For index n the factor attached to divisor d is built from the minimal
polynomial of 4*sin^2(pi/d).  The reference route folds the cyclotomic
polynomial into the Lucas basis and reflects it; two alternate routes
recover the same polynomial from Lucas factorizations (odd index) and a
quadratic recursion (powers of two), and their agreement is the kernel's
primary bug detector.
"""

from __future__ import annotations

import contextvars
import enum
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, zip_longest

from .errors import (
    OddTermPresentError,
    RouteMismatchError,
    ToleranceExceededError,
    VerificationFailureError,
)
from .intpoly import IntPoly, X, div_exact, palindrome_fold, product
from .sequences import CACHE, cyclotomic, divisors, lucas, zpread


@CACHE.family("psi", 1)
def psi(n: int) -> IntPoly:
    """Minimal polynomial of 2*cos(2*pi/n); monic of degree totient(n)/2 for n >= 3.

    Built by folding the n-th cyclotomic polynomial into its central
    weights c_k and summing c_0 + sum_{k>=1} c_k * L_k by the Clenshaw
    recurrence, so no Lucas polynomial is built or cached.

    >>> str(psi(9))
    '1 - 3*x + x^3'
    """
    if n == 1:
        return IntPoly((-2, 1))
    if n == 2:
        return IntPoly((2, 1))
    c = palindrome_fold(cyclotomic(n))
    # Clenshaw for L_k = x*L_{k-1} - L_{k-2}: b_k = c_k + x*b_{k+1} - b_{k+2}
    # from b_{m+1} = b_{m+2} = 0, and the sum is c_0 + x*b_1 - 2*b_2 because
    # L_1 = x and L_0 = 2.  b_k has degree m - k for m = len(c) - 1.
    b1: list[int] = []
    b2: list[int] = []
    for k in range(len(c) - 1, 0, -1):
        b1, b2 = [u - v for u, v in zip_longest(chain((c[k],), b1), b2, fillvalue=0)], b1
    return IntPoly(u - 2 * v for u, v in zip_longest(chain((c[0],), b1), b2, fillvalue=0))


@CACHE.family("phi_min", 1)
def phi_min(n: int) -> IntPoly:
    """Minimal polynomial of 4*sin^2(pi/n); the reference route.

    phi_1 = x, phi_2 = x - 4, and for n >= 3 the reflection
    (-1)^(totient(n)/2) * psi_n(2 - x), monic of degree totient(n)/2.

    >>> str(phi_min(7))
    '-7 + 14*x - 7*x^2 + x^3'
    """
    if n == 1:
        return X
    if n == 2:
        return IntPoly((-4, 1))
    return _reflect_monic(psi(n), 2)


def _reflect_monic(p: IntPoly, a: int) -> IntPoly:
    """The monic polynomial whose roots are a minus the roots of monic p.

    p(a - x) leads with (-1)^deg, so the sign is restored by that factor.
    """
    reflected = p.compose(IntPoly((a, -1)))
    return -reflected if reflected.degree() % 2 else reflected


class PhiRoute(enum.Enum):
    """The independent ways of computing the minimal polynomial of 4*sin^2(pi/n)."""

    MINIMAL_POLY = "minimal_poly"
    ODD_LUCAS = "odd_lucas"
    POWER_OF_TWO = "power_of_two"
    COMPOSITION = "composition"


@CACHE.family("phi_odd_lucas", 1)
def phi_odd_lucas(m: int) -> IntPoly:
    """Recover phi_m for odd m from L_m(x) = x * prod of phi_d(x^2) over d | m, d > 1.

    Divides the Lucas polynomial by the contributions of the proper
    divisors, checks the quotient is a polynomial in x^2, and removes the
    squared variable.
    """
    if m % 2 == 0:
        raise ValueError("phi_odd_lucas index must be odd")
    if m == 1:
        return X
    den = product((phi_odd_lucas(d).stretch(2) for d in divisors(m)[1:-1]), start=X)
    squared = div_exact(lucas(m), den)
    return _unstretch2(squared, m)


def _unstretch2(p: IntPoly, m: int) -> IntPoly:
    cs = p.coeffs
    if any(cs[i] for i in range(1, len(cs), 2)):
        raise OddTermPresentError(
            f"quotient for odd index {m} has odd-degree terms: {p}"
        )
    return IntPoly(cs[0::2])


@CACHE.family("phi_pow2", 0)
def phi_pow2(k: int) -> IntPoly:
    """phi at index 2^k: bases x, x - 4, x - 2, then each square minus 2.

    >>> str(phi_pow2(3))
    '2 - 4*x + x^2'
    """
    if k == 0:
        return X
    if k == 1:
        return IntPoly((-4, 1))
    if k == 2:
        return IntPoly((-2, 1))
    prev = phi_pow2(k - 1)
    return prev * prev - 2


@CACHE.family("phi_composed", 1)
def phi_composed(n: int) -> IntPoly:
    """The composition route: split n = 2^k * m with m odd and compose.

    k = 0 defers to the odd-index route and m = 1 to the power-of-two
    recursion; otherwise phi_{2m} reflects phi_m through 4 - x (with the
    monic sign restored) and phi_{2^k * m} composes phi_m with phi_{2^k}
    squared.
    """
    k = (n & -n).bit_length() - 1
    m = n >> k
    if k == 0:
        return phi_odd_lucas(m)
    if m == 1:
        return phi_pow2(k)
    odd_part = phi_odd_lucas(m)
    if k == 1:
        return _reflect_monic(odd_part, 4)
    return odd_part.compose(phi_pow2(k) ** 2)


_ROUTE_BUILDERS = {
    PhiRoute.MINIMAL_POLY: phi_min,
    PhiRoute.ODD_LUCAS: phi_odd_lucas,
    PhiRoute.POWER_OF_TWO: lambda n: phi_pow2(n.bit_length() - 1),
    PhiRoute.COMPOSITION: phi_composed,
}


def applicable_routes(n: int) -> list[PhiRoute]:
    """Routes that can compute the index-n minimal polynomial."""
    routes = [PhiRoute.MINIMAL_POLY]
    if n % 2:
        routes.append(PhiRoute.ODD_LUCAS)
    if n & (n - 1) == 0:
        routes.append(PhiRoute.POWER_OF_TWO)
    elif n % 2 == 0:
        routes.append(PhiRoute.COMPOSITION)
    return routes


# Index whose reference value cross_check_phi perturbs; set by corrupted_phi.
_CORRUPTED_PHI: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "corrupted_phi", default=None
)


@dataclass(frozen=True)
class PhiCrossCheck:
    """Outcome of computing one index by every applicable route."""

    n: int
    routes: tuple[PhiRoute, ...]
    poly: IntPoly


def cross_check_phi(n: int) -> PhiCrossCheck:
    """Compute phi_n by every applicable route and demand exact agreement.

    Raises RouteMismatchError carrying both polynomials on the first
    disagreement.
    """
    if n < 1:
        raise ValueError("index must be positive")
    routes = applicable_routes(n)
    reference = _ROUTE_BUILDERS[routes[0]](n)
    if n == _CORRUPTED_PHI.get():
        reference = reference + 1
    for route in routes[1:]:
        candidate = _ROUTE_BUILDERS[route](n)
        if candidate != reference:
            raise RouteMismatchError(n, routes[0], reference, route, candidate)
    return PhiCrossCheck(n, tuple(routes), reference)


@contextmanager
def corrupted_phi(n: int | None):
    """Test hook: perturb the reference route at one index (None: no index).

    Lets callers exercise the mismatch reporting without touching caches;
    only cross_check_phi in the current thread or context sees the
    corrupted value.
    """
    token = _CORRUPTED_PHI.set(n)
    try:
        yield
    finally:
        _CORRUPTED_PHI.reset(token)


def capital_phi(n: int, route: PhiRoute = PhiRoute.MINIMAL_POLY) -> IntPoly:
    """The zpread factor attached to divisor n: x, then 4 - x, then phi_n squared.

    Degree is totient(n) for every n.  ``route`` picks which construction
    supplies phi_n for n >= 3 and must be a total route (reference or
    composition).
    """
    if n < 1:
        raise ValueError("index must be positive")
    if route not in (PhiRoute.MINIMAL_POLY, PhiRoute.COMPOSITION):
        raise ValueError(f"route {route.value} cannot build every index")
    return CACHE.get_or_compute(f"capital_phi:{route.value}", n, lambda: _capital_phi(n, route))


def _capital_phi(n: int, route: PhiRoute) -> IntPoly:
    if n == 1:
        return X
    if n == 2:
        return IntPoly((4, -1))
    phi = _ROUTE_BUILDERS[route](n)
    return phi * phi


@dataclass(frozen=True)
class Factor:
    """One factor of a verified product: divisor, multiplicity, polynomial."""

    d: int
    multiplicity: int
    poly: IntPoly

    def to_record(self) -> dict:
        return {
            "d": self.d,
            "multiplicity": self.multiplicity,
            "coefficients": self.poly.coefficient_strings(),
        }


@dataclass(frozen=True)
class FactorizationRecord:
    """A complete factorization with its re-multiplied, verified product.

    ``factors`` is ascending in divisor; ``product`` equals the exact
    product of poly^multiplicity over all entries.
    """

    target_kind: str
    n: int
    factors: tuple[Factor, ...]
    product: IntPoly

    def to_record(self) -> dict:
        return {
            "kind": "factorization",
            "target": self.target_kind,
            "n": self.n,
            "factors": [f.to_record() for f in self.factors],
        }

    def to_text(self) -> str:
        label = "Z" if self.target_kind == "zpread" else "L-2"
        lines = [f"{label}[{self.n}] = product of {len(self.factors)} factors"]
        for f in self.factors:
            lines.append(f"  d={f.d}  multiplicity={f.multiplicity}  {f.poly}")
        lines.append(f"product: {self.product}")
        return "\n".join(lines)


def factor_zpread(n: int, route: PhiRoute = PhiRoute.MINIMAL_POLY) -> FactorizationRecord:
    """Factor the degree-n zpread polynomial over the divisors of n.

    One factor per divisor d, each of degree totient(d); the assembled
    product is compared with the closed-form polynomial before returning.
    """
    if n < 1:
        raise ValueError("index must be positive")
    factors = [Factor(d, 1, capital_phi(d, route)) for d in divisors(n)]
    return _checked_record("zpread", n, factors, zpread(n), "zpread")


def factor_lucas_minus2(n: int) -> FactorizationRecord:
    """Factor L_n - 2: simple factors at divisors 1 and 2, squares elsewhere."""
    if n < 1:
        raise ValueError("index must be positive")
    factors = [Factor(d, 1 if d <= 2 else 2, psi(d)) for d in divisors(n)]
    return _checked_record("lucas_minus_2", n, factors, lucas(n) - 2, "Lucas")


def _checked_record(
    target_kind: str, n: int, factors: list[Factor], expected: IntPoly, label: str
) -> FactorizationRecord:
    """The record of ``factors``, once their product is seen to equal ``expected``.

    The record holds ``expected`` itself as its product, not the equal copy
    assembled here, so a cached target is not kept twice.
    """
    assembled = product(f.poly if f.multiplicity == 1 else f.poly**f.multiplicity for f in factors)
    if assembled != expected:
        raise VerificationFailureError(
            f"{label} factor product mismatch at n={n}: {assembled} != {expected}"
        )
    return FactorizationRecord(target_kind, n, tuple(factors), expected)


@dataclass(frozen=True)
class FloatRootCheck:
    """Residual summary for the floating-point root locations of phi_n."""

    n: int
    tolerance: float
    roots_checked: int
    max_residual: float
    bound: float


def float_root_check(n: int, tol: float) -> FloatRootCheck:
    """Evaluate phi_n at 4*sin^2(k*pi/n) for every k coprime to n, k < n/2.

    The residual bound is tol * (1 + sum of |coefficients|), so the check
    stays meaningful as coefficients grow.  Raises ToleranceExceededError
    with the offending root index on failure.
    """
    if n < 3:
        raise ValueError("root check needs n >= 3")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be finite and positive")
    p = phi_min(n)
    bound = tol * (1 + sum(abs(c) for c in p.coeffs))
    worst = 0.0
    checked = 0
    for k in range(1, (n + 1) // 2):
        if math.gcd(k, n) != 1:
            continue
        residual = abs(p.eval_float(4.0 * math.sin(math.pi * k / n) ** 2))
        if residual > bound:
            raise ToleranceExceededError(n, k, residual, bound)
        worst = max(worst, residual)
        checked += 1
    return FloatRootCheck(n, tol, checked, worst, bound)
