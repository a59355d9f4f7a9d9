"""Irreducible factors of the zpread polynomials, by three independent routes.

For index n the factor attached to divisor d is built from the minimal
polynomial phi_d of 4*sin^2(pi/d).  The reference route folds the
cyclotomic polynomial into the Lucas basis and reflects it through 2 - x;
while phi_d packs into the binary Kronecker size, it does both in one
Clenshaw pass on a packed integer.  The
composition route writes phi_b in the zpread basis, where Z_k(Z_c) = Z_kc
makes phi_b(Z_c) a weighted sum of closed-form Z_kc.  For q the largest
odd prime of n and b = n/q, phi_b(Z_q) is phi_n when q | b and
phi_n * phi_b otherwise, so the route multiplies no polynomials and reads
cyclotomic(b) only at b < n, where the reference reads cyclotomic(n).  The
agreement of the two routes is the kernel's primary bug detector.
"""

from __future__ import annotations

import contextvars
import enum
import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, zip_longest
from typing import Callable, Iterator

from .errors import (
    OutOfBoundsError,
    RouteMismatchError,
    ToleranceExceededError,
    VerificationFailureError,
)
from .intpoly import IntPoly, X, _binary_slot_bytes, _binary_unpack, div_exact, palindrome_fold
from .sequences import (
    CACHE,
    _factorize,
    _lucas_weights,
    cyclotomic,
    divisors,
    lucas,
    lucas_value,
    zpread,
)


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

    psi_n(2 - x) with the monic sign restored.  For n >= 3 and c the m + 1
    folded weights of Phi_n, phi_n = +-(c_0 + sum c_k * (2 - Z_k)), as
    L_k(2 - x) = 2 - Z_k(x).  The signs of Z_k alternate, so its absolute
    coefficients sum to L_k(3) - 2 and no coefficient of phi_n exceeds
    B = sum |c_k| * L_m(3).  In slots of nb bytes, 256^nb > 2B, the
    Clenshaw sum of psi_n at the integer y = 2 - 256^nb is +-phi_n(256^nb),
    one slot per coefficient, and no psi_n is built.  Where the slots
    outgrow the binary Kronecker size, and at psi_1 = x - 2 and
    psi_2 = x + 2, psi_n is reflected through 2 - x instead.

    >>> str(phi_min(7))
    '-7 + 14*x - 7*x^2 + x^3'
    """
    if n >= 3:
        c = palindrome_fold(cyclotomic(n))
        m = len(c) - 1
        nb = _binary_slot_bytes(sum(map(abs, c)) * lucas_value(m, 3), m + 1)
        if nb:
            # psi's Clenshaw recurrence at y = 2 - 2^s, where y*b is
            # 2*b - (b << s); the sum is psi_n(2 - 2^s), so +-phi_n(2^s).
            s = 8 * nb
            b1 = b2 = 0
            for k in range(m, 0, -1):
                b1, b2 = (b1 << 1) - b2 - (b1 << s) + c[k], b1
            value = (b1 << 1) - (b2 << 1) - (b1 << s) + c[0]
            return _monic(IntPoly(_binary_unpack(value, nb, m + 1)))
    return _monic(psi(n).compose(IntPoly((2, -1))))


def _monic(p: IntPoly) -> IntPoly:
    """p or -p, whichever leads with +1; p must lead with +1 or -1."""
    return -p if p.leading_coefficient() < 0 else p


class PhiRoute(enum.Enum):
    """The independent ways of computing the minimal polynomial of 4*sin^2(pi/n)."""

    MINIMAL_POLY = "minimal_poly"
    ODD_LUCAS = "odd_lucas"
    POWER_OF_TWO = "power_of_two"
    COMPOSITION = "composition"


def phi_odd_lucas(m: int) -> IntPoly:
    """phi_m for odd m >= 1, read from the table of ``phi_composed``."""
    if m < 1:
        raise OutOfBoundsError("phi_odd_lucas index must be at least 1")
    if m % 2 == 0:
        raise OutOfBoundsError("phi_odd_lucas index must be odd")
    return phi_composed(m)


def phi_pow2(k: int) -> IntPoly:
    """phi at index 2^k for k >= 0, read from the table of ``phi_composed``.

    >>> str(phi_pow2(3))
    '2 - 4*x + x^2'
    """
    if k < 0:
        raise OutOfBoundsError("phi_pow2 index must be at least 0")
    return phi_composed(1 << k)


@CACHE.family("phi_composed", 1)
def phi_composed(n: int) -> IntPoly:
    """phi_n by the composition route, which keeps its one memo table.

    The powers of two 1, 2 and 2^k, k >= 2, take x, x - 4 and 2 - Z_{2^(k-2)}.
    Any other n takes q its largest odd prime and b = n/q.  At b = 1,
    L_n(x) = x * phi_n(x^2), so phi_n is the reversed Lucas weights of L_n.
    At b = 2, phi_n is phi_q(4 - x) made monic.  Otherwise phi_b(Z_q) is
    phi_n when q | b and phi_n * phi_b when not, as Phi_b(z^q) is Phi_n or
    Phi_n * Phi_b.
    """
    if n == 1:
        return X
    if n == 2:
        return IntPoly((-4, 1))
    if n & (n - 1) == 0:
        return _monic(zpread(n >> 2) - 2)
    q = _factorize(n)[-1][0]
    b = n // q
    if b == 1:
        return IntPoly(_lucas_weights(n, 1)[::-1])
    if b == 2:
        return _monic(phi_composed(q).compose(IntPoly((4, -1))))
    outer = _phi_of_zpread(b, q)
    return outer if b % q == 0 else div_exact(outer, phi_composed(b))


def _phi_of_zpread(b: int, c: int) -> IntPoly:
    """phi_b(Z_c) for b >= 3 as a sum of zpread polynomials, with no product.

    psi_b(y) = w_0 + sum w_k L_k(y) for w the folded weights of Phi_b, and
    L_k(2 - x) = 2 - Z_k(x), so phi_b = +-[(w_0 + 2 sum w_k) - sum w_k Z_k],
    and Z_k(Z_c) = Z_kc.  The x^j coefficient of -w_k Z_kc, j >= 1, is the
    (kc - j)-th Lucas weight of L_2kc led by +-w_k; no Z_kc is cached.
    """
    w = palindrome_fold(cyclotomic(b))
    coeffs = [w[0] + 2 * sum(w[1:])] + [0] * (c * (len(w) - 1))
    for k in range(1, len(w)):
        if w[k]:
            kc = k * c
            weights = _lucas_weights(2 * kc, -w[k] if kc % 2 else w[k])
            coeffs[kc:0:-1] = map(operator.add, coeffs[kc:0:-1], weights)
    return _monic(IntPoly(coeffs))


# The two routes that build every index; phi_composed covers the
# odd-index and power-of-two routes itself.
_ROUTE_BUILDERS = {PhiRoute.MINIMAL_POLY: phi_min, PhiRoute.COMPOSITION: phi_composed}


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


def cross_check_phi(n: int) -> IntPoly:
    """Compute phi_n on the reference and the composition route and demand exact agreement.

    The composition route builds an odd n by the odd-index route and a power
    of two by its closed form, so the candidate carries the label
    ``applicable_routes(n)[1]``.  Returns the reference polynomial; raises
    RouteMismatchError carrying both polynomials if they differ.
    """
    reference = phi_min(n)
    if n == _CORRUPTED_PHI.get():
        reference = reference + 1
    candidate = phi_composed(n)
    if candidate != reference:
        raise RouteMismatchError(
            n, PhiRoute.MINIMAL_POLY, reference, applicable_routes(n)[1], candidate
        )
    return reference


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
    supplies phi_n for n >= 3 and must be a key of ``_ROUTE_BUILDERS``, a
    route that builds every index; anything else raises OutOfBoundsError.
    """
    if route not in _ROUTE_BUILDERS:
        name = getattr(route, "value", repr(route))
        raise OutOfBoundsError(f"route {name} cannot build every index")
    return CACHE.get_or_compute(f"capital_phi:{route.value}", n, lambda: _capital_phi(n, route))


def _capital_phi(n: int, route: PhiRoute) -> IntPoly:
    if n == 1:
        return X
    if n == 2:
        return IntPoly((4, -1))
    if route is PhiRoute.COMPOSITION and _factorize(n) == [(n, 1)]:
        # Z_p = Phi_1 * Phi_p = x * Phi_p at a prime p.
        return IntPoly(zpread(n).coeffs[1:])
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
    """A complete factorization of the degree-n target, checked by its values.

    ``factors`` is ascending in divisor and their degrees, with
    multiplicity, sum to n.  The product of poly^multiplicity over all
    entries has the same exact value as the target at x = 5 and at x = -3.
    """

    target_kind: str
    n: int
    factors: tuple[Factor, ...]

    @property
    def product(self) -> IntPoly:
        """The target polynomial: the cached ``zpread(n)`` itself, or ``lucas(n) - 2``.

        Built on demand; the check that made the record never builds it.
        """
        return zpread(self.n) if self.target_kind == "zpread" else lucas(self.n) - 2

    def to_record(self) -> dict:
        return {
            "kind": "factorization",
            "target": self.target_kind,
            "n": self.n,
            "factors": [f.to_record() for f in self.factors],
        }

    def to_text(self) -> str:
        return "".join(self.text_pieces())

    def text_pieces(self) -> Iterator[str]:
        """``to_text`` in pieces: line by line, and the product: line term by term.

        The product: line spells out the whole target, 26 MB at n = 9240,
        so a writer never needs it as one string.
        """
        label = "Z" if self.target_kind == "zpread" else "L-2"
        yield f"{label}[{self.n}] = product of {len(self.factors)} factors"
        for f in self.factors:
            yield f"\n  d={f.d}  multiplicity={f.multiplicity}  {f.poly}"
        yield "\nproduct:"
        for term in self.product.text_terms():
            yield " " + term


def factor_zpread(n: int, route: PhiRoute = PhiRoute.MINIMAL_POLY) -> FactorizationRecord:
    """Factor the degree-n zpread polynomial over the divisors of n.

    One factor per divisor d, each of degree totient(d).  Before returning,
    the degree sum and the exact values at x = 5 and x = -3 of the factors'
    product are compared with Z_n(a) = 2 - L_n(2 - a); neither the factors'
    product nor Z_n is built.
    """
    factors = [Factor(d, 1, capital_phi(d, route)) for d in divisors(n)]
    return _checked_record("zpread", n, factors, lambda a: 2 - lucas_value(n, 2 - a), "zpread")


def factor_lucas_minus2(n: int) -> FactorizationRecord:
    """Factor L_n - 2: simple factors at divisors 1 and 2, squares elsewhere."""
    factors = [Factor(d, 1 if d <= 2 else 2, psi(d)) for d in divisors(n)]
    return _checked_record("lucas_minus_2", n, factors, lambda a: lucas_value(n, a) - 2, "Lucas")


def _checked_record(
    target_kind: str, n: int, factors: list[Factor], target_at: Callable[[int], int], label: str
) -> FactorizationRecord:
    """The record of ``factors``, once their product is seen to equal the degree-n target.

    Seen means degree n and exact values at x = 5 and x = -3 equal to
    ``target_at(5)`` and ``target_at(-3)``, integers from ``lucas_value``,
    so no polynomial is multiplied and the target is not built.  No factor
    vanishes at either point: the roots of capital_phi lie in [0, 4] and
    those of psi in [-2, 2].  At 3 or -1, Phi_3 = (x - 3)^2 or
    psi_3 = x + 1 would, and both sides would be 0.  verify multiplies the
    factors back exactly.
    """
    degree = sum(f.poly.degree() * f.multiplicity for f in factors)
    if degree != n:
        raise VerificationFailureError(
            f"{label} factor product mismatch at n={n}: degree {degree} != {n}"
        )
    for a in (5, -3):
        if math.prod(f.poly(a) ** f.multiplicity for f in factors) != target_at(a):
            raise VerificationFailureError(
                f"{label} factor product mismatch at n={n}: the values at x = {a} differ"
            )
    return FactorizationRecord(target_kind, n, tuple(factors))


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
        raise OutOfBoundsError("root check needs n >= 3")
    if not (math.isfinite(tol) and tol > 0):
        raise OutOfBoundsError("tolerance must be finite and positive")
    p = phi_min(n)
    bound = tol * (1 + sum(abs(c) for c in p.coeffs))
    worst = 0.0
    checked = 0
    for k in range(1, (n + 1) // 2):
        if math.gcd(k, n) != 1:
            continue
        residual = abs(p(4.0 * math.sin(math.pi * k / n) ** 2))
        if residual > bound:
            raise ToleranceExceededError(n, k, residual, bound)
        worst = max(worst, residual)
        checked += 1
    return FloatRootCheck(n, tol, checked, worst, bound)
