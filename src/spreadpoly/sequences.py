"""Constructors for the classical polynomial and integer families.

Lucas polynomials, cyclotomic polynomials, the zpread/spread family, and
Fibonacci numbers, plus the totient and divisor helpers the factor engine
needs.  Everything is exact; results are memoized per family.
"""

from __future__ import annotations

import functools
from typing import Callable, TypeVar

from .errors import InternalInconsistencyError, OutOfBoundsError
from .intpoly import IntPoly

T = TypeVar("T")

_MISSING = object()


class SequenceCache:
    """Insert-only memo tables, one per family, keyed by index.

    A stored value is never replaced, and every value is a pure function of
    its index, so concurrent readers always see results identical to
    recomputation.  ``store`` returns the value the table keeps, so writers
    that race on one index share one copy.
    """

    def __init__(self):
        self._tables: dict[str, dict[int, object]] = {}

    def table(self, family: str) -> dict[int, object]:
        table = self._tables.get(family)
        if table is None:
            table = self._tables.setdefault(family, {})
        return table

    def lookup(self, family: str, n: int):
        return self.table(family).get(n, _MISSING)

    def store(self, family: str, n: int, value: T) -> T:
        return self.table(family).setdefault(n, value)  # type: ignore[return-value]

    def get_or_compute(self, family: str, n: int, compute: Callable[[], T]) -> T:
        got = self.lookup(family, n)
        if got is not _MISSING:
            return got  # type: ignore[return-value]
        return self.store(family, n, compute())

    def family(self, name: str, minimum: int) -> Callable[[Callable[[int], T]], Callable[[int], T]]:
        """Decorator declaring a memoized family of one index.

        The decorated function builds the value at index n; the result
        refuses n < ``minimum`` with OutOfBoundsError and otherwise
        memoizes the build under ``name``.  The uncached build stays
        reachable as ``__wrapped__``.
        """

        def declare(build: Callable[[int], T]) -> Callable[[int], T]:
            @functools.wraps(build)
            def member(n: int) -> T:
                if n < minimum:
                    raise OutOfBoundsError(f"{name} index must be at least {minimum}")
                return self.get_or_compute(name, n, lambda: build(n))

            return member

        return declare

    def clear(self) -> None:
        self._tables.clear()


CACHE = SequenceCache()


@CACHE.family("lucas", 0)
def lucas(n: int) -> IntPoly:
    """The degree-n Lucas polynomial: L_0 = 2, L_1 = x, L_n = x*L_{n-1} - L_{n-2}.

    Built from the closed form: the coefficient of x^(n-2k) is
    (-1)^k * n/(n-k) * C(n-k, k).

    >>> str(lucas(4))
    '2 - 4*x^2 + x^4'
    >>> str(lucas(5))
    '5*x - 5*x^3 + x^5'
    """
    if n == 0:
        return IntPoly((2,))
    coeffs = [0] * (n + 1)
    coeffs[n::-2] = _lucas_weights(n, 1)
    return IntPoly(coeffs)


def _lucas_weights(n: int, lead: int) -> list[int]:
    """The nonzero coefficients of lead * L_n, n >= 1: c_k at x^(n-2k), k = 0..n//2.

    c_k = -c_{k-1} * (n-2k+2)(n-2k+1) / (k(n-k)) from c_0 = lead; each step
    divides exactly, a failure means the ratio was coded wrong.
    """
    weights = [lead]
    c = lead
    for k in range(1, n // 2 + 1):
        c, r = divmod(-c * ((n - 2 * k + 2) * (n - 2 * k + 1)), k * (n - k))
        if r:
            raise InternalInconsistencyError(f"lucas coefficient ({n},{k}) is not an integer")
        weights.append(c)
    return weights


@CACHE.family("cyclotomic", 1)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, prime by prime from Phi_1 = x - 1; reads no cache entry.

    Each prime p of n, ascending, takes Phi_e to Phi_ep(x) = Phi_e(x^p) times the
    (x^(e/f) - 1)^-mu(f) for f | e: those of mu(f) = -1 multiplied in, then the
    others divided out exactly.  Phi_n(x) = Phi_s(x^(n/s)) for s the radical of n.

    >>> str(cyclotomic(6))
    '1 - x + x^2'
    """
    coeffs, mobius = [-1, 1], [(1, 1)]
    for p, _ in _factorize(n):
        stretched = [0] * (len(coeffs) * p - p + 1)
        stretched[::p] = coeffs
        coeffs = stretched
        for f, mu in sorted(mobius, key=lambda pair: pair[1]):
            coeffs = _times_binomial(coeffs, mobius[-1][0] // f, -mu)
        mobius += [(f * p, -mu) for f, mu in mobius]
    return IntPoly(coeffs).stretch(n // mobius[-1][0])


def _mobius(n: int) -> list[tuple[int, int]]:
    """(e, mu(e)) for every squarefree divisor e of n >= 1; the last e is the radical of n."""
    mobius = [(1, 1)]
    for p, _ in _factorize(n):
        mobius += [(e * p, -mu) for e, mu in mobius]
    return mobius


def _times_binomial(f: list[int], d: int, mu: int) -> list[int]:
    """f * (x^d - 1) for mu = 1, or f / (x^d - 1) for mu = -1.

    The division must be exact; a remainder means the product was built
    wrong and raises InternalInconsistencyError.
    """
    if mu == 1:
        out = [0] * d + f
        for i, c in enumerate(f):
            out[i] -= c
        return out
    # f = q*(x^d - 1) gives q_i = q_{i-d} - f_i below degree m = deg f - d + 1,
    # and f_i = q_{i-d} from there up: the top d coefficients must match.
    m = len(f) - d
    q = [-c for c in f[:m]]
    for i in range(d, m):
        q[i] += q[i - d]
    if m < 1 or f[m:] != ([0] * d + q)[m:]:
        raise InternalInconsistencyError(f"x^{d} - 1 does not divide the cyclotomic product")
    return q


@CACHE.family("zpread", 1)
def zpread(n: int) -> IntPoly:
    """The degree-n zpread polynomial, read from the Lucas weights at 2n.

    Z_n(x) = 2 - (-1)^n * L_2n(sqrt(x)), so the coefficient of x^k for
    k >= 1 is that of x^(2k) in (-1)^(n+1) * L_2n, and the constant term
    is 2 - 2 = 0.

    >>> str(zpread(3))
    '9*x - 6*x^2 + x^3'
    """
    weights = _lucas_weights(2 * n, 1 if n % 2 else -1)
    return IntPoly((0, *weights[-2::-1]))


def zpread_via_lucas(n: int) -> IntPoly:
    """The same polynomial as ``zpread`` built as 2 - L_n(2 - x).

    Kept independent of the closed form so the two constructions can be
    checked against each other.
    """
    if n < 1:
        raise OutOfBoundsError("zpread index must be positive")
    return 2 - lucas(n).compose(IntPoly((2, -1)))


def monic_zpread(n: int) -> IntPoly:
    """The monic version: the zpread polynomial times (-1)^(n-1)."""
    z = zpread(n)
    return z if n % 2 else -z


def spread(n: int) -> IntPoly:
    """The degree-n spread polynomial; x^k picks up a factor 4^(k-1).

    >>> str(spread(3))
    '9*x - 24*x^2 + 16*x^3'
    """
    z = zpread(n).coeffs
    out = [0] * len(z)
    for k in range(1, len(z)):
        out[k] = z[k] * 4 ** (k - 1)
    return IntPoly(out)


@CACHE.family("fibonacci", 0)
def fibonacci(n: int) -> int:
    """The n-th Fibonacci number, exact, by fast doubling.

    >>> [fibonacci(n) for n in range(10)]
    [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    """
    # (a, b) = (F_k, F_{k+1}) for k the leading bits of n read so far:
    # F_2k = F_k(2F_{k+1} - F_k) and F_{2k+1} = F_k^2 + F_{k+1}^2.
    a, b = 0, 1
    for bit in f"{n:b}":
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


def lucas_value(n: int, y: int) -> int:
    """L_n(y), the degree-n Lucas polynomial at an integer y, by doubling.

    Takes O(log n) multiplications and builds no polynomial, so it is not
    cached.

    >>> [lucas_value(n, 3) for n in range(6)]
    [2, 3, 7, 18, 47, 123]
    """
    # (a, b) = (L_k, L_{k+1}) for k the leading bits of n read so far, from
    # L_k(y) = u^k + u^-k with u + 1/u = y: L_2k = L_k^2 - 2 and
    # L_{2k+1} = L_k*L_{k+1} - y.
    a, b = 2, y
    for bit in f"{n:b}":
        if bit == "1":
            a, b = a * b - y, b * b - 2
        else:
            a, b = a * a - 2, a * b - y
    return a


def totient(n: int) -> int:
    """Euler's totient, from the prime factorization."""
    if n < 1:
        raise OutOfBoundsError("totient argument must be positive")
    result = n
    for p, _ in _factorize(n):
        result -= result // p
    return result


def _factorize(n: int) -> list[tuple[int, int]]:
    """The prime powers (p, e) of n >= 1 in ascending order of p, by trial division."""
    powers = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            powers.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        powers.append((n, 1))
    return powers


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order."""
    if n < 1:
        raise OutOfBoundsError("index must be positive")
    divs = [1]
    for p, e in _factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)
