"""Exact dense univariate polynomial arithmetic over arbitrary-precision integers.

A polynomial is stored as a tuple of coefficients in ascending degree, so
``IntPoly((1, -2, 0, 1))`` is 1 - 2x + x^3.  The stored sequence is always
normalized: the last coefficient is nonzero and the zero polynomial is the
empty tuple.  Values are immutable and safe to share between threads.

``p(a)`` evaluates by Horner's rule: exactly at an ``int`` or a
``fractions.Fraction``, in double precision at a ``float``, and as the
composition p(a(x)) at an ``IntPoly``.  ``p.compose(q)`` computes the same
composition on coefficient lists: a Taylor shift for a linear ``q``, else
Horner on lists with one ``IntPoly`` built at the end; ``p(q)`` is the
reference it is checked against.

Every product goes through one list-level kernel, which picks one of three
paths by size: for short operands a schoolbook that skips the zero
coefficients of both and takes a square's cross products once, otherwise
Kronecker substitution, packed into bytes while the packed product is
small, and packed into decimal digits and multiplied by ``decimal`` above
that.  The binary radix multiplies at 2^s and -2^s, two ``int`` products
of half the packed width, and reads the even- and odd-index coefficients
from their sum and difference.  This module alone sizes the packed
slots and picks the radix.  Both radices share one slot format, written by
``_to_slots`` and read back by ``_from_slots``, which refuses a borrow left
past the top slot; each radix's reader refuses a value wider than its
slots.  ``factor``'s packed Clenshaw values are read the same way.
``mul_schoolbook``, the dense quadratic loop, is the reference the paths
are checked against, and ``mul_karatsuba`` is another name for the
kernel's product.
``palindrome_fold`` returns the central weights of a palindromic
polynomial as a plain tuple.
"""

from __future__ import annotations

import decimal
import math
import re
from decimal import Decimal
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import (
    InternalInconsistencyError,
    NotDivisibleError,
    NotPalindromicError,
    OddDegreeError,
    OutOfBoundsError,
)

if TYPE_CHECKING:
    from fractions import Fraction

# Products whose shorter operand has at most this many coefficients use the
# schoolbook path.  Measured against Kronecker substitution it breaks even
# near 24 coefficients of 20-64 bits and near 56 of 400 bits; 32 lies between.
_MUL_THRESHOLD = 32

# Two packed kernels run on CPython ints up to this many packed bytes.
# Kronecker products that pack into more multiply in decimal.  Whole
# kernel on squares of random polynomials, two-point binary against
# decimal (ms; 2-vCPU Linux VM, Python 3.11.7, one CPU, CPU time, medians
# of five runs):
#     61 x 81 bits      2.6 KiB    0.09 against 0.44
#    193 x 81 bits      8.3 KiB    0.41 against 0.92
#    200 x 200 bits    20.3 KiB    1.05 against 1.99
#    200 x 400 bits    39.7 KiB    2.52 against 3.37
#    200 x 1000 bits   98.2 KiB    10.7 against 9.3
# So the binary radix wins past 32 KiB, up to somewhere between 40 and
# 98 KiB; the squares of factor n up to 1260 reach 25.8 KiB.  The cutoff
# stays at 32 KiB because factor reads the same rule to choose its packed
# Clenshaw sums for phi_n and phi_n^2, and reflects the list-built psi_n
# and squares it when they do not fit.  Packed against reflected phi_n,
# from a cached cyclotomic(n), same setup:
#    n = 1260   m = 144     3.7 KiB    0.30 against 1.15
#    n = 2520   m = 288    14.4 KiB    1.84 against 4.34
#    n = 1293   m = 430    32.0 KiB    5.77 against 10.19
#    n = 3003   m = 720    89.4 KiB    26.2 against 29.9
#    n = 2021   m = 966   159.6 KiB    81.3 against 56.4
_KRONECKER_BINARY_BYTES = 32 * 1024


def get_mul_threshold() -> int:
    """Coefficient count at or below which products use the schoolbook path.

    Products whose shorter operand is longer go through Kronecker
    substitution.  No program path reads it; the benchmark's tracer and
    child do, by name.
    """
    return _MUL_THRESHOLD


class IntPoly:
    """A polynomial with integer coefficients, constant term first.

    >>> p = IntPoly((0, 9, -6, 1))
    >>> str(p)
    '9*x - 6*x^2 + x^3'
    >>> p.degree()
    3
    >>> p(2)
    2
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = tuple(coeffs)
        # Exactly int: a bool or other int subclass would not render as a
        # decimal coefficient that from_coefficient_strings reads back.
        if not {int}.issuperset(map(type, cs)):
            bad = next(c for c in cs if type(c) is not int)
            raise TypeError(f"IntPoly coefficients must be int, not {type(bad).__name__}")
        self._coeffs = _normalized(cs)

    @classmethod
    def _unchecked(cls, coeffs: Iterable[int]) -> IntPoly:
        # The result of kernel arithmetic on IntPoly coefficients, which are
        # exactly int already, so the constructor's check is skipped.
        p = object.__new__(cls)
        p._coeffs = _normalized(tuple(coeffs))
        return p

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> IntPoly:
        """The single term c*x^k."""
        if k < 0:
            raise OutOfBoundsError("exponent must be non-negative")
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
        if type(other) is int:
            other = IntPoly((other,))
        elif not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly._unchecked(_seq_add(self._coeffs, other._coeffs))

    __radd__ = __add__

    def __sub__(self, other: IntPoly | int) -> IntPoly:
        if type(other) is not int and not isinstance(other, IntPoly):
            return NotImplemented
        return self + -other

    def __rsub__(self, other: int) -> IntPoly:
        return (-self).__add__(other)

    def __neg__(self) -> IntPoly:
        return IntPoly._unchecked([-c for c in self._coeffs])

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        if type(other) is int:
            return IntPoly._unchecked([c * other for c in self._coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return ZERO
        return IntPoly._unchecked(_mul(a, b))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> IntPoly:
        if type(n) is not int:
            return NotImplemented
        if n < 0:
            raise OutOfBoundsError("negative powers are not defined for polynomials")
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
        any other ``inner`` runs Horner's rule on lists, each step one
        product by the list kernel.  ``self(inner)``, Horner's rule through
        ``IntPoly`` values, is the reference both are checked against.

        >>> str(IntPoly((-3, 1)).compose(IntPoly((4, -1))))
        '1 - x'
        """
        if len(inner._coeffs) == 2:
            return IntPoly._unchecked(_compose_linear(self._coeffs, *inner._coeffs))
        return IntPoly._unchecked(_compose_horner(self._coeffs, inner._coeffs))

    def stretch(self, k: int) -> IntPoly:
        """Substitute x^k for x by spreading coefficients; exact and cheap.

        >>> str(IntPoly((-3, 1)).stretch(2))
        '-3 + x^2'
        """
        if k < 1:
            raise OutOfBoundsError("stretch factor must be positive")
        if not self._coeffs:
            return ZERO
        out = [0] * ((len(self._coeffs) - 1) * k + 1)
        out[::k] = self._coeffs
        return IntPoly._unchecked(out)

    def __call__(self, a: int | Fraction | float | IntPoly) -> int | Fraction | float | IntPoly:
        """The value at ``a`` by Horner's rule.

        Exact at an ``int`` or a ``Fraction``, double precision at a
        ``float``, and the composition p(a(x)) at an ``IntPoly``; the
        accumulator starts at ZERO there, so every composition is an IntPoly.
        """
        acc = ZERO if isinstance(a, IntPoly) else 0
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
        return "".join(self.text_terms())

    def text_terms(self) -> Iterator[str]:
        """The pieces of ``to_text``, one per nonzero term, each after the first with its sign.

        >>> list(IntPoly((0, 9, -6, 1)).text_terms())
        ['9*x', ' - 6*x^2', ' + x^3']
        """
        if not self._coeffs:
            yield "0"
        plus, minus = "", "-"
        for k, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = int_to_digits(mag)
            else:
                var = "x" if k == 1 else f"x^{k}"
                term = var if mag == 1 else f"{int_to_digits(mag)}*{var}"
            yield (plus if c > 0 else minus) + term
            plus, minus = " + ", " - "

    def coefficient_strings(self) -> list[str]:
        """Coefficients as decimal strings, so any size survives serialization."""
        return [int_to_digits(c) for c in self._coeffs]

    @classmethod
    def from_coefficient_strings(cls, strings: Iterable[str]) -> IntPoly:
        return cls(int_from_digits(s) for s in strings)


def _normalized(cs: tuple[int, ...]) -> tuple[int, ...]:
    # cs without its trailing zeros; the zero polynomial is ().
    end = len(cs)
    while end and cs[end - 1] == 0:
        end -= 1
    return cs[:end]


ZERO = IntPoly()
ONE = IntPoly((1,))
X = IntPoly((0, 1))


def product(polys: Iterable[IntPoly]) -> IntPoly:
    """The product of every polynomial in ``polys``, left to right; ONE if empty.

    >>> str(product([X - 1, X + 1, X]))
    '-x + x^3'
    """
    return math.prod(polys, start=ONE)


# -- decimal digit strings ---------------------------------------------------

_DIGIT_STRING = re.compile(r"[+-]?[0-9]+")


def int_to_digits(c: int) -> str:
    """``str(c)``, also beyond the interpreter's limit on converted digits."""
    try:
        return str(c)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return str(Decimal(c))


def int_from_digits(s: str) -> int:
    """The integer an optional sign and ASCII decimal digits spell, at any length.

    Raises OutOfBoundsError, quoting the first 20 characters, for any other
    string, including the spaces, underscores and non-ASCII digits that
    ``int`` accepts.
    """
    if not _DIGIT_STRING.fullmatch(s):
        raise OutOfBoundsError(f"not a decimal integer: {s[:20]!r}")
    return _digits_to_int(s)


def _digits_to_int(digits: str) -> int:
    # int(digits) for a string already known to be decimal digits, also
    # beyond the interpreter's limit on converted digits.
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


# -- multiplication kernels ----------------------------------------------


def _mul(a, b) -> list[int]:
    # The product of two nonempty coefficient sequences.  Up to the threshold
    # the longer operand runs in the outer loop and the inner loop visits only
    # the nonzero coefficients of the shorter one, so the parity-sparse Lucas,
    # cyclotomic and zpread operands cost half their length or less.  A
    # square takes each cross product once, doubled.
    if len(a) < len(b):
        a, b = b, a
    if len(b) > _MUL_THRESHOLD:
        return _mul_kronecker(a, b)
    terms = [(j, c) for j, c in enumerate(b) if c]
    out = [0] * (len(a) + len(b) - 1)
    if a is b:
        for k, (i, ai) in enumerate(terms):
            out[2 * i] += ai * ai
            twice = ai << 1
            for j, aj in terms[k + 1 :]:
                out[i + j] += twice * aj
        return out
    for i, ai in enumerate(a):
        if ai:
            for j, bj in terms:
                out[i + j] += ai * bj
    return out


def _mul_schoolbook(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _mul_kronecker(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    # Kronecker substitution: each coefficient fills one slot of a radix R >
    # 2 * max|a| * max|b| * min(len), so every product coefficient lies
    # strictly between -R/2 and R/2 and the slots can be read back one by
    # one.  A product that packs into at most _KRONECKER_BINARY_BYTES takes
    # R = 256^nb and two CPython int products at +-16^nb; a larger one takes
    # R = 10^k and libmpdec's, which switches to a number-theoretic transform.
    bound = _kronecker_bound(a, b)
    if _binary_slot_bytes(bound, len(a) + len(b) - 1):
        return _kronecker_binary(a, b, bound)
    return _kronecker_decimal(a, b, bound)


def _kronecker_bound(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return 2 * max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))


def _slot_bytes(bound: int) -> int:
    # The fewest bytes nb with 256^nb > 2 * bound, so a slot of nb bytes
    # holds every integer of absolute value at most bound.
    return bound.bit_length() // 8 + 1


def _binary_slot_bytes(bound: int, count: int) -> int:
    # The slot bytes of bound when count such slots pack into at most
    # _KRONECKER_BINARY_BYTES, so the packed value is a CPython int; else 0.
    nb = _slot_bytes(bound)
    return nb if nb * count <= _KRONECKER_BINARY_BYTES else 0


def _kronecker_binary(a: tuple[int, ...], b: tuple[int, ...], bound: int) -> list[int]:
    # Two-point Kronecker substitution (Harvey, arXiv:0712.4046): h = a * b
    # is read from h(2^s) and h(-2^s), two int products of half the width
    # of h(2^(2s)).  Slots hold nb bytes, 2^(2s) = 256^nb > 2 * bound, and
    # nb is rounded up to even, so s = 4 * nb bits is whole bytes.  Each
    # operand is E(x^2) + x * O(x^2), and E and O are packed apart, so
    # a(+-2^s) = E_a +- (O_a << s) at x^2 = 2^(2s); then h(2^s) + h(-2^s)
    # is 2 * E_h and h(2^s) - h(-2^s) is O_h << (s + 1).
    nb = _slot_bytes(bound)
    nb += nb & 1
    s = 4 * nb
    even_a, odd_a = _binary_pack(a[0::2], nb), _binary_pack(a[1::2], nb) << s
    if b is a:
        plus = (even_a + odd_a) ** 2
        minus = (even_a - odd_a) ** 2
    else:
        even_b, odd_b = _binary_pack(b[0::2], nb), _binary_pack(b[1::2], nb) << s
        plus = (even_a + odd_a) * (even_b + odd_b)
        minus = (even_a - odd_a) * (even_b - odd_b)
    return _two_point_unpack(plus, minus, nb, len(a) + len(b) - 1)


def _two_point_unpack(plus: int, minus: int, nb: int, length: int) -> list[int]:
    # h from plus = h(2^s) and minus = h(-2^s), s = 4 * nb, as _kronecker_binary reads them.
    out = [0] * length
    out[0::2] = _binary_unpack((plus + minus) >> 1, nb, (length + 1) // 2)
    out[1::2] = _binary_unpack((plus - minus) >> (4 * nb + 1), nb, length // 2)
    return out


def _binary_pack(cs: tuple[int, ...], nb: int) -> int:
    slots, borrow = _to_slots(cs, 1 << (8 * nb))
    packed = int.from_bytes(b"".join([s.to_bytes(nb, "little") for s in slots]), "little")
    return packed - (1 << (8 * nb * len(cs))) if borrow else packed


def _binary_unpack(value: int, nb: int, length: int) -> list[int]:
    # The length coefficients c_i of value = sum(c_i * 256^(nb*i)).
    try:
        data = abs(value).to_bytes(nb * length, "little")
    except OverflowError:
        raise InternalInconsistencyError("packed value is wider than its slots") from None
    from_bytes = int.from_bytes
    slots = [from_bytes(data[i : i + nb], "little") for i in range(0, nb * length, nb)]
    return _from_slots(slots, 1 << (8 * nb), value < 0)


def _kronecker_decimal(a: tuple[int, ...], b: tuple[int, ...], bound: int) -> list[int]:
    # Slots of k decimal digits, 10^k > bound: packing and unpacking are
    # linear-time string work.  The packed operands are freed before
    # unpacking, so the memory peak stays that of the multiplication.
    k = bound.bit_length() * 30103 // 100000 + 1  # 30103/10^5 > log10(2)
    return _decimal_unpack(_kronecker_product(a, b, k), k, len(a) + len(b) - 1)


def _kronecker_product(a: tuple[int, ...], b: tuple[int, ...], k: int) -> Decimal:
    ctx = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact, decimal.Rounded],
    )
    try:
        packed_a = _decimal_pack(a, k, ctx)
        packed_b = packed_a if b is a else _decimal_pack(b, k, ctx)
        return ctx.multiply(packed_a, packed_b)
    except (decimal.Inexact, decimal.Rounded) as exc:
        raise InternalInconsistencyError("Kronecker product was rounded") from exc


def _decimal_pack(cs: tuple[int, ...], k: int, ctx: decimal.Context) -> Decimal:
    # sum(c_i * 10^(k*i)) as one digit string, highest slot first.
    slots, borrow = _to_slots(cs, 10**k)
    packed = Decimal("".join([int_to_digits(s).zfill(k) for s in reversed(slots)]))
    return ctx.subtract(packed, Decimal(f"1E{k * len(cs)}")) if borrow else packed


def _decimal_unpack(packed: Decimal, k: int, length: int) -> list[int]:
    # The lowest slot is the last k digits of the string.
    digits = str(packed.copy_abs())
    if len(digits) > length * k:
        raise InternalInconsistencyError("packed value is wider than its slots")
    digits = digits.zfill(length * k)
    slots = [_digits_to_int(digits[i : i + k]) for i in range((length - 1) * k, -1, -k)]
    return _from_slots(slots, 10**k, packed.is_signed())


def _to_slots(cs: tuple[int, ...], base: int) -> tuple[list[int], bool]:
    # The slots of sum(c_i * base^i), |c_i| < base / 2, lowest first, and
    # the borrow past the top one: a c_i that is negative after the borrow
    # from below fills its slot with itself plus base and borrows 1.
    slots = []
    borrow = False
    for c in cs:
        c -= borrow
        borrow = c < 0
        slots.append(c + base if borrow else c)
    return slots, borrow


def _from_slots(slots: list[int], base: int, negative: bool) -> list[int]:
    # The inverse of _to_slots on the slots of |value|, negated if value < 0.
    # |value| leads with a positive coefficient, so its top slot never
    # borrows; one that does was not written by _to_slots.
    half = base >> 1
    out = []
    borrow = False
    for c in slots:
        c += borrow
        borrow = c >= half
        out.append(c - base if borrow else c)
    if borrow:
        raise InternalInconsistencyError("packed value borrows past its top slot")
    return [-c for c in out] if negative else out


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


def _compose_horner(cs, inner) -> list[int]:
    # Horner in lists, acc <- acc*inner + c from the top coefficient down,
    # for a nonempty inner; a zero inner leaves the constant term p(0).
    if not cs or not inner:
        return list(cs[:1])
    acc = [cs[-1]]
    for c in cs[-2::-1]:
        acc = _mul(acc, inner)
        acc[0] += c
    return acc


def _seq_add(a, b) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def mul_schoolbook(p: IntPoly, q: IntPoly) -> IntPoly:
    """Exact product by the dense quadratic loop, regardless of size.

    The reference every product of ``IntPoly.__mul__`` is checked against.
    """
    if p.is_zero() or q.is_zero():
        return ZERO
    return IntPoly(_mul_schoolbook(p.coeffs, q.coeffs))


def mul_karatsuba(p: IntPoly, q: IntPoly) -> IntPoly:
    """Exact product by the one list kernel, the same as ``p * q``.

    No program path calls it; the name stays only because the benchmark's
    tracer binds it.
    """
    return p * q


# -- exact division --------------------------------------------------------


def div_exact(p: IntPoly, q: IntPoly) -> IntPoly:
    """The polynomial r with q*r = p, when it exists in integer coefficients.

    Long division over the integers, one ``divmod`` by the leading
    coefficient of q per step.  Raises NotDivisibleError on the first
    fractional quotient coefficient or a nonzero remainder, naming the
    quotient degree or the remainder and the two degrees but not the
    operands, whose text can run to megabytes; ZeroDivisionError if q is
    zero, and TypeError if p or q is not an IntPoly.

    >>> str(div_exact(IntPoly((-4, 0, 1)), IntPoly((-2, 1))))
    '2 + x'
    """
    for operand in (p, q):
        if not isinstance(operand, IntPoly):
            raise TypeError(f"div_exact operands must be IntPoly, not {type(operand).__name__}")
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
                raise NotDivisibleError(
                    f"degree {dp} / degree {dq}: the quotient coefficient of x^{i} is not an integer"
                )
            quot[i] = t
            for j in range(dq):
                rem[i + j] -= t * qc[j]
            rem[i + dq] = 0
    if any(rem):
        raise NotDivisibleError(f"degree {dp} / degree {dq} leaves a nonzero remainder")
    return IntPoly._unchecked(quot)


# -- palindrome folding -----------------------------------------------------


def palindrome_fold(p: IntPoly) -> tuple[int, ...]:
    """The central weights (c_0, ..., c_m) of a palindromic polynomial of degree 2m.

    p(x) = x^m * (c_0 + sum_{k>=1} c_k * (x^k + x^-k)).  Each c_k with
    k >= 1 is also the weight of the degree-k Lucas polynomial when
    p(x)/x^m is rewritten in that basis; c_0 passes through as a plain
    constant rather than c_0 times the constant Lucas value 2.  The
    weights are ``p.coeffs[m:]``, and ``IntPoly(w[:0:-1] + w)`` rebuilds p
    from them.  NotPalindromicError names the degree and the first unequal
    pair of indices, never the coefficients.

    >>> palindrome_fold(IntPoly((1, 0, 0, 1, 0, 0, 1)))
    (1, 0, 0, 1)
    """
    d = p.degree()
    if d < 0 or d % 2:
        raise OddDegreeError(f"cannot fold degree {d}; need a nonzero even degree")
    if not p.is_palindromic():
        cs = p.coeffs
        i = next(i for i in range(d // 2) if cs[i] != cs[d - i])
        raise NotPalindromicError(f"degree {d} is not palindromic: c_{i} != c_{d - i}")
    return p.coeffs[d // 2 :]
