"""Exact dense univariate polynomial arithmetic over arbitrary-precision integers.

A polynomial is stored as a tuple of coefficients in ascending degree, so
``IntPoly((1, -2, 0, 1))`` is 1 - 2x + x^3.  The stored sequence is always
normalized: the last coefficient is nonzero and the zero polynomial is the
empty tuple.  Values are immutable and safe to share between threads.

Exact rationals are ``fractions.Fraction``; its invariants (reduced form,
positive denominator) are exactly what the evaluation routines need.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import NotDivisibleError, NotPalindromicError, OddDegreeError, env_int

_mul_threshold = env_int("SPREADPOLY_MUL_THRESHOLD", 32, 1)


def get_mul_threshold() -> int:
    """Coefficient count at or below which products use the schoolbook path."""
    return _mul_threshold


def set_mul_threshold(value: int) -> None:
    """Override the schoolbook/divide-and-conquer switchover (must be >= 1)."""
    global _mul_threshold
    if value < 1:
        raise ValueError("multiplication threshold must be at least 1")
    _mul_threshold = value


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
        if not self._coeffs or not other._coeffs:
            return ZERO
        return IntPoly(_mul_dispatch(self._coeffs, other._coeffs, _mul_threshold))

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
        """Substitute ``inner`` for the variable, by Horner accumulation."""
        result = ZERO
        for c in reversed(self._coeffs):
            result = result * inner + c
        return result

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
        return f"IntPoly({list(self._coeffs)!r})"

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
                term = str(mag)
            else:
                var = "x" if k == 1 else f"x^{k}"
                term = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def coefficient_strings(self) -> list[str]:
        """Coefficients as decimal strings, so any size survives serialization."""
        return [str(c) for c in self._coeffs]

    @classmethod
    def from_coefficient_strings(cls, strings: Iterable[str]) -> IntPoly:
        return cls(int(s) for s in strings)


ZERO = IntPoly()
ONE = IntPoly((1,))
X = IntPoly((0, 1))


# -- multiplication kernels ----------------------------------------------


def _mul_schoolbook(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


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

    ``threshold`` is the recursion floor; defaults to the module setting.
    Bit-identical to the schoolbook path for every input.
    """
    if p.is_zero() or q.is_zero():
        return ZERO
    t = _mul_threshold if threshold is None else max(1, threshold)
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


@dataclass(frozen=True)
class PalindromeFold:
    """Central-coefficient form of a palindromic polynomial of degree 2m.

    ``lucas_coeffs[k]`` is the weight c_k in
    p(x) = x^m * (c_0 + sum_{k>=1} c_k * (x^k + x^-k)).
    Each c_k with k >= 1 is also the weight of the degree-k Lucas polynomial
    when the quotient p(x)/x^m is rewritten in that basis; c_0 passes through
    as a plain constant rather than c_0 times the constant Lucas value 2.
    """

    lucas_coeffs: tuple[int, ...]

    def half_degree(self) -> int:
        return len(self.lucas_coeffs) - 1

    def unfold(self) -> IntPoly:
        """Re-expand to the palindromic polynomial the fold came from."""
        m = self.half_degree()
        out = [0] * (2 * m + 1)
        out[m] = self.lucas_coeffs[0]
        for k in range(1, m + 1):
            c = self.lucas_coeffs[k]
            out[m + k] = c
            out[m - k] = c
        return IntPoly(out)

    def __iter__(self) -> Iterator[int]:
        return iter(self.lucas_coeffs)


def palindrome_fold(p: IntPoly) -> PalindromeFold:
    """Fold a palindromic even-degree polynomial into its central weights.

    >>> palindrome_fold(IntPoly((1, 0, 0, 1, 0, 0, 1))).lucas_coeffs
    (1, 0, 0, 1)
    """
    d = p.degree()
    if d < 0 or d % 2:
        raise OddDegreeError(f"cannot fold degree {d}; need a nonzero even degree")
    if not p.is_palindromic():
        raise NotPalindromicError(f"{p} is not palindromic")
    m = d // 2
    return PalindromeFold(p.coeffs[m:])
