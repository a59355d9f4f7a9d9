"""Exact dense univariate polynomial arithmetic over arbitrary-precision integers.

A polynomial is stored as a tuple of coefficients in ascending degree, so
``IntPoly((1, -2, 0, 1))`` is 1 - 2x + x^3.  The stored sequence is always
normalized: the last coefficient is nonzero and the zero polynomial is the
empty tuple.  Values are immutable and safe to share between threads.

Exact rationals are ``fractions.Fraction``; its invariants (reduced form,
positive denominator) are exactly what the evaluation routines need.

Every product goes through ``IntPoly.__mul__``: schoolbook for short
operands, Kronecker substitution otherwise.  ``mul_schoolbook`` is the
oracle it is checked against.  ``palindrome_fold`` returns the central
weights of a palindromic polynomial as a plain tuple.
"""

from __future__ import annotations

import decimal
import heapq
import re
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from typing import Iterable

from .errors import (
    InternalInconsistencyError,
    NotDivisibleError,
    NotPalindromicError,
    OddDegreeError,
)

# Products whose shorter operand has at most this many coefficients use the
# schoolbook path.  Measured against Kronecker substitution it breaks even
# near 24 coefficients of 20-64 bits and near 56 of 400 bits; 32 lies between.
_MUL_THRESHOLD = 32


def get_mul_threshold() -> int:
    """Coefficient count at or below which products use the schoolbook path.

    Products whose shorter operand is longer go through Kronecker
    substitution.  ``verify`` sizes its multiplication suite from it, and
    the benchmark's tracer and child read it by name.
    """
    return _MUL_THRESHOLD


class IntPoly:
    """A polynomial with integer coefficients, constant term first.

    >>> p = IntPoly((0, 9, -6, 1))
    >>> str(p)
    '9*x - 6*x^2 + x^3'
    >>> p.degree()
    3
    >>> p.eval_int(2)
    2
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = tuple(coeffs)
        end = len(cs)
        while end and cs[end - 1] == 0:
            end -= 1
        self._coeffs = cs[:end]

    @classmethod
    def constant(cls, c: int) -> IntPoly:
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> IntPoly:
        """The single term c*x^k."""
        if k < 0:
            raise ValueError("exponent must be non-negative")
        return cls((0,) * k + (c,))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def leading_coefficient(self) -> int:
        """Leading coefficient; 0 for the zero polynomial."""
        return self._coeffs[-1] if self._coeffs else 0

    def is_monic(self) -> bool:
        return bool(self._coeffs) and self._coeffs[-1] == 1

    def is_palindromic(self) -> bool:
        """True when the coefficient sequence equals its own reverse."""
        return self._coeffs == self._coeffs[::-1]

    def constant_term(self) -> int:
        return self._coeffs[0] if self._coeffs else 0

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            other = IntPoly((other,))
        elif not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly(_seq_add(self._coeffs, other._coeffs))

    __radd__ = __add__

    def __sub__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            other = IntPoly((other,))
        elif not isinstance(other, IntPoly):
            return NotImplemented
        out = list(self._coeffs)
        b = other._coeffs
        if len(b) > len(out):
            out.extend([0] * (len(b) - len(out)))
        for i, c in enumerate(b):
            out[i] -= c
        return IntPoly(out)

    def __rsub__(self, other: int) -> IntPoly:
        return IntPoly((other,)) - self

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self._coeffs))

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self._coeffs))
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return ZERO
        if min(len(a), len(b)) <= _MUL_THRESHOLD:
            return IntPoly(_mul_schoolbook(a, b))
        return IntPoly(_mul_kronecker(a, b))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> IntPoly:
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    # -- composition and evaluation ------------------------------------------

    def compose(self, inner: IntPoly) -> IntPoly:
        """Substitute ``inner`` for the variable.

        A linear ``inner`` a + b*x is a Taylor shift on coefficient lists;
        any other ``inner`` goes through Horner accumulation of polynomials.

        >>> str(IntPoly((-3, 1)).compose(IntPoly((4, -1))))
        '1 - x'
        """
        if len(inner._coeffs) == 2:
            return IntPoly(_compose_linear(self._coeffs, *inner._coeffs))
        return _compose_horner(self, inner)

    def stretch(self, k: int) -> IntPoly:
        """Substitute x^k for x by spreading coefficients; exact and cheap.

        >>> str(IntPoly((-3, 1)).stretch(2))
        '-3 + x^2'
        """
        if k < 1:
            raise ValueError("stretch factor must be positive")
        if not self._coeffs:
            return ZERO
        out = [0] * ((len(self._coeffs) - 1) * k + 1)
        for i, c in enumerate(self._coeffs):
            out[i * k] = c
        return IntPoly(out)

    def eval_int(self, a: int) -> int:
        """Exact value at an integer point."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * a + c
        return acc

    def eval_rational(self, a: Fraction | int) -> Fraction:
        """Exact value at a rational point, always reduced."""
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * a + c
        return acc

    def eval_float(self, a: float) -> float:
        """Horner evaluation in double precision; no exactness contract."""
        acc = 0.0
        for c in reversed(self._coeffs):
            acc = acc * a + c
        return acc

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"IntPoly([{', '.join(map(int_to_digits, self._coeffs))}])"

    def to_text(self) -> str:
        """Canonical text form, ascending degree: '9*x - 6*x^2 + x^3'."""
        if not self._coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = int_to_digits(mag)
            else:
                var = "x" if k == 1 else f"x^{k}"
                term = var if mag == 1 else f"{int_to_digits(mag)}*{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def coefficient_strings(self) -> list[str]:
        """Coefficients as decimal strings, so any size survives serialization."""
        return [int_to_digits(c) for c in self._coeffs]

    @classmethod
    def from_coefficient_strings(cls, strings: Iterable[str]) -> IntPoly:
        return cls(int_from_digits(s) for s in strings)


ZERO = IntPoly()
ONE = IntPoly((1,))
X = IntPoly((0, 1))


def product(polys: Iterable[IntPoly], start: IntPoly = ONE) -> IntPoly:
    """``start`` times every polynomial in ``polys``, by a size-balanced tree.

    The two shortest operands are multiplied first and their product goes
    back into the pool, so the large products come last and have operands
    of similar size.

    >>> str(product([X - 1, X + 1, X]))
    '-x + x^3'
    """
    pool = [(len(p.coeffs), i, p) for i, p in enumerate((start, *polys))]
    heapq.heapify(pool)
    for i in range(len(pool), 2 * len(pool) - 1):
        _, _, p = heapq.heappop(pool)
        _, _, q = heapq.heappop(pool)
        r = p * q
        heapq.heappush(pool, (len(r.coeffs), i, r))
    return pool[0][2]


# -- decimal digit strings ---------------------------------------------------

_DIGIT_STRING = re.compile(r"[+-]?[0-9]+")


def int_to_digits(c: int) -> str:
    """``str(c)``, also beyond the interpreter's limit on converted digits."""
    try:
        return str(c)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return str(Decimal(c))


def int_from_digits(s: str) -> int:
    """``int(s)``, also beyond the interpreter's limit on converted digits."""
    try:
        return int(s)
    except ValueError:
        if not _DIGIT_STRING.fullmatch(s):
            raise
        return int(Decimal(s))


# -- multiplication kernels ----------------------------------------------


def _mul_schoolbook(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _mul_kronecker(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    # Kronecker substitution at x = 10^k: each coefficient fills a slot of k
    # decimal digits, with 10^k > 2 * max|a| * max|b| * min(len), so every
    # product coefficient lies strictly between -10^k/2 and 10^k/2 and the
    # slots can be read back one by one.  libmpdec multiplies the two packed
    # numbers (by number-theoretic transform when they are large), and a
    # decimal packing makes packing and unpacking linear-time string work.
    bound = 2 * max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    k = bound.bit_length() * 30103 // 100000 + 1  # 30103/10^5 > log10(2)
    # The packed operands are freed before unpacking, so the memory peak
    # stays that of the multiplication.
    return _kronecker_unpack(_kronecker_product(a, b, k), k, len(a) + len(b) - 1)


def _kronecker_product(a: tuple[int, ...], b: tuple[int, ...], k: int) -> Decimal:
    ctx = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact, decimal.Rounded],
    )
    try:
        packed_a = _kronecker_pack(a, k, ctx)
        packed_b = packed_a if b is a else _kronecker_pack(b, k, ctx)
        return ctx.multiply(packed_a, packed_b)
    except (decimal.Inexact, decimal.Rounded) as exc:
        raise InternalInconsistencyError("Kronecker product was rounded") from exc


def _kronecker_pack(cs: tuple[int, ...], k: int, ctx: decimal.Context) -> Decimal:
    # The value sum(c_i * 10^(k*i)) as one digit string: a negative c_i
    # fills its slot with c_i + 10^k and borrows 1 from the slot above.
    base = 10**k
    slots = []
    borrow = False
    for c in cs:
        c -= borrow
        borrow = c < 0
        slots.append(int_to_digits(c + base if borrow else c).zfill(k))
    slots.reverse()
    packed = Decimal("".join(slots))
    return ctx.subtract(packed, Decimal(f"1E{k * len(cs)}")) if borrow else packed


def _kronecker_unpack(packed: Decimal, k: int, length: int) -> list[int]:
    # Undo the borrows of the packed product, lowest slot first (the last k
    # digits of the string); a slot at or above 10^k/2 holds a negative c_i.
    digits = str(packed.copy_abs()).zfill(length * k)
    base = 10**k
    half = base // 2
    out = []
    borrow = False
    for i in range((length - 1) * k, -1, -k):
        c = int_from_digits(digits[i : i + k]) + borrow
        borrow = c >= half
        out.append(c - base if borrow else c)
    return [-c for c in out] if packed.is_signed() else out


def _compose_horner(p: IntPoly, inner: IntPoly) -> IntPoly:
    result = ZERO
    for c in reversed(p.coeffs):
        result = result * inner + c
    return result


def _compose_linear(cs: tuple[int, ...], a: int, b: int) -> list[int]:
    # Horner in lists, r <- r*(x + a) + c, gives p(x + a) with one product
    # per coefficient and step; then x^k picks up b^k to make p(a + b*x).
    r: list[int] = []
    for c in reversed(cs):
        r.append(0)
        r = [u + a * v for u, v in zip(chain((c,), r), r)]
    scale = 1
    for k in range(1, len(r)):
        scale *= b
        r[k] *= scale
    return r


def _seq_add(a, b) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _mul_dispatch(a, b, threshold: int) -> list[int]:
    if min(len(a), len(b)) <= threshold:
        return _mul_schoolbook(a, b)
    # Split both operands at half the shorter length; the three half-size
    # products recombine as z2*x^(2m) + (z1 - z2 - z0)*x^m + z0.
    m = min(len(a), len(b)) // 2
    a0, a1 = a[:m], a[m:]
    b0, b1 = b[:m], b[m:]
    z0 = _mul_dispatch(a0, b0, threshold)
    z2 = _mul_dispatch(a1, b1, threshold)
    z1 = _mul_dispatch(_seq_add(a0, a1), _seq_add(b0, b1), threshold)
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(z0):
        out[i] += c
        out[i + m] -= c
    for i, c in enumerate(z2):
        out[i + 2 * m] += c
        out[i + m] -= c
    for i, c in enumerate(z1):
        out[i + m] += c
    return out


def mul_schoolbook(p: IntPoly, q: IntPoly) -> IntPoly:
    """Exact product by the quadratic path, regardless of size."""
    if p.is_zero() or q.is_zero():
        return ZERO
    return IntPoly(_mul_schoolbook(p.coeffs, q.coeffs))


def mul_karatsuba(p: IntPoly, q: IntPoly, threshold: int | None = None) -> IntPoly:
    """Exact product by the divide-and-conquer path.

    ``threshold`` is the recursion floor; defaults to the schoolbook threshold.
    Bit-identical to the schoolbook path for every input.  No product and
    no program path calls it; it stays only because the benchmark's tracer
    binds it by name.
    """
    if p.is_zero() or q.is_zero():
        return ZERO
    t = _MUL_THRESHOLD if threshold is None else max(1, threshold)
    return IntPoly(_mul_dispatch(p.coeffs, q.coeffs, t))


# -- exact division --------------------------------------------------------


def div_exact(p: IntPoly, q: IntPoly) -> IntPoly:
    """The polynomial r with q*r = p, when it exists in integer coefficients.

    Long division over the integers, one ``divmod`` by the leading
    coefficient of q per step.  Raises NotDivisibleError on the first
    fractional quotient coefficient or a nonzero remainder,
    ZeroDivisionError if q is zero.

    >>> str(div_exact(IntPoly((-4, 0, 1)), IntPoly((-2, 1))))
    '2 + x'
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return ZERO
    dp, dq = p.degree(), q.degree()
    if dp < dq:
        raise NotDivisibleError(f"degree {dp} cannot be divided by degree {dq}")
    rem = list(p.coeffs)
    qc = q.coeffs
    lead = qc[-1]
    quot = [0] * (dp - dq + 1)
    for i in range(dp - dq, -1, -1):
        c = rem[i + dq]
        if c:
            t, r = divmod(c, lead)
            if r:
                raise NotDivisibleError(f"{p} / {q} has non-integer quotient coefficients")
            quot[i] = t
            for j in range(dq):
                rem[i + j] -= t * qc[j]
            rem[i + dq] = 0
    if any(rem):
        raise NotDivisibleError(f"{p} is not divisible by {q}")
    return IntPoly(quot)


# -- palindrome folding -----------------------------------------------------


def palindrome_fold(p: IntPoly) -> tuple[int, ...]:
    """The central weights (c_0, ..., c_m) of a palindromic polynomial of degree 2m.

    p(x) = x^m * (c_0 + sum_{k>=1} c_k * (x^k + x^-k)).  Each c_k with
    k >= 1 is also the weight of the degree-k Lucas polynomial when
    p(x)/x^m is rewritten in that basis; c_0 passes through as a plain
    constant rather than c_0 times the constant Lucas value 2.  The
    weights are ``p.coeffs[m:]``, and ``IntPoly(w[:0:-1] + w)`` rebuilds p
    from them.

    >>> palindrome_fold(IntPoly((1, 0, 0, 1, 0, 0, 1)))
    (1, 0, 0, 1)
    """
    d = p.degree()
    if d < 0 or d % 2:
        raise OddDegreeError(f"cannot fold degree {d}; need a nonzero even degree")
    if not p.is_palindromic():
        raise NotPalindromicError(f"{p} is not palindromic")
    return p.coeffs[d // 2 :]
