"""Kernel tests: arithmetic, division, composition, evaluation, folding."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spreadpoly import intpoly as intpoly_mod
from spreadpoly.intpoly import (
    _binary_pack,
    _binary_unpack,
    _compose_bound,
    _decimal_unpack,
    _kronecker_binary,
    _kronecker_bound,
    _kronecker_decimal,
    _kronecker_product,
    _mul_kronecker,
    _mul_schoolbook,
    _slot_bytes,
    _two_point_square,
    int_from_digits,
    int_to_digits,
    product,
)
from spreadpoly import verify
from spreadpoly import (
    IntPoly,
    InternalInconsistencyError,
    NotDivisibleError,
    NotPalindromicError,
    OddDegreeError,
    ONE,
    X,
    ZERO,
    cyclotomic,
    div_exact,
    lucas,
    mul_karatsuba,
    mul_schoolbook,
    palindrome_fold,
)

coeffs_st = st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=17)
polys = st.builds(IntPoly, coeffs_st)
small_polys = st.builds(IntPoly, st.lists(st.integers(min_value=-20, max_value=20), max_size=5))
HUGE = 10**5000  # past the default 4300-digit int/str conversion limit


def well_formed(p):
    """Exactly-int coefficients and no trailing zero, as the constructor makes them."""
    return all(type(c) is int for c in p.coeffs) and p.coeffs[-1:] != (0,)


def test_normalization_strips_trailing_zeros():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly((0, 0, 0)).coeffs == ()
    assert IntPoly(()).is_zero()


def test_non_int_coefficients_are_refused():
    for bad in (1.5, Fraction(1, 2), "3"):
        with pytest.raises(TypeError, match=type(bad).__name__):
            IntPoly((1, bad))


def test_bool_coefficients_are_refused():
    # IntPoly((True, 2)) would render as ['True', '2'], a record that
    # from_coefficient_strings cannot read back.
    for coeffs in ((True, 2), (1, False), (False,)):
        with pytest.raises(TypeError, match="bool"):
            IntPoly(coeffs)
    # The ring operations refuse a bool operand as they refuse a float, and
    # ** a bool exponent, which would pass for 1 or 0.
    for left, right in ((X, True), (True, X), (ZERO, False)):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a**b):
            with pytest.raises(TypeError):
                op(left, right)


def test_degree_sentinel():
    assert ZERO.degree() == -1
    assert IntPoly((7,)).degree() == 0
    assert X.degree() == 1


def test_add_examples():
    assert X + (-X) == ZERO
    assert IntPoly((2,)) + X == IntPoly((2, 1))
    # the degree-2 Lucas polynomial plus 2 is x^2
    assert IntPoly((-2, 0, 1)) + IntPoly((2,)) == IntPoly((0, 0, 1))
    # subtraction is negation plus addition, and takes only ints besides IntPoly
    assert 3 - X == IntPoly((3, -1)) and X - 3 == IntPoly((-3, 1))
    for left, right in ((2.5, X), (X, 2.5)):
        with pytest.raises(TypeError):
            left - right


def test_mul_examples():
    assert (X - 2) * (X + 2) == IntPoly((-4, 0, 1))
    # (L_3 - 2)(L_3 + 2) = L_6 - 2
    l3 = IntPoly((0, -3, 0, 1))
    assert (l3 - 2) * (l3 + 2) == IntPoly((-4, 0, 9, 0, -6, 0, 1))


def test_mul_by_int_and_pow():
    p = IntPoly((1, 2))
    assert 3 * p == IntPoly((3, 6))
    assert p * 0 == ZERO
    assert p**0 == ONE
    assert p**3 == p * p * p
    with pytest.raises(ValueError):
        p ** (-1)


@given(p=polys, q=polys)
def test_mul_paths_agree(p, q):
    school = mul_schoolbook(p, q)
    assert school == mul_karatsuba(p, q)
    assert school == p * q


@given(p=polys, q=polys)
def test_mul_degree_additive(p, q):
    if not p.is_zero() and not q.is_zero():
        assert (p * q).degree() == p.degree() + q.degree()


# Coefficients for the Kronecker kernel: zeros, tiny values of either sign
# and values wide enough to need slots of dozens of digits.
kernel_coeffs = st.one_of(
    st.just(0),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(10**40), max_value=10**40),
)


def kernel_operands(threshold):
    # Lengths at the edges of the schoolbook/Kronecker switch, plus any up to
    # twice the threshold; the leading coefficient may be negative.
    length = st.one_of(
        st.sampled_from((1, threshold, threshold + 1)),
        st.integers(min_value=1, max_value=2 * threshold),
    )
    return length.flatmap(
        lambda n: st.tuples(
            st.lists(kernel_coeffs, min_size=n - 1, max_size=n - 1),
            kernel_coeffs.filter(bool),
        ).map(lambda body_lead: tuple(body_lead[0]) + (body_lead[1],))
    )


def binary_radix(a, b):
    # The binary radix at any packed size: a square by the two-point square,
    # distinct operands by _kronecker_binary, in the product's slot bytes.
    if b is a:
        return two_point_square(a)
    return _kronecker_binary(a, b, _slot_bytes(_kronecker_bound(a, b)))


def decimal_radix(a, b):
    return _kronecker_decimal(a, b, _kronecker_bound(a, b))


# Each Kronecker test runs both packings directly, whichever one
# _mul_kronecker would pick for the operands at hand.
RADICES = (_mul_kronecker, binary_radix, decimal_radix)


def two_point_square(a):
    # The binary radix's square of a, fed a packed at half the product's
    # slot, as _mul_kronecker feeds it, at any packed size.
    nb = _slot_bytes(_kronecker_bound(a, a))
    return _two_point_square(lambda s: _binary_pack(a, s // 8), nb, len(a))


@given(a=kernel_operands(32), b=kernel_operands(32))
@settings(max_examples=120, deadline=None)
def test_kronecker_matches_schoolbook(a, b):
    expected = _mul_schoolbook(a, b)
    assert IntPoly(a) * IntPoly(b) == IntPoly(expected)
    p = IntPoly(a)
    assert p * p == mul_schoolbook(p, p)
    for kronecker in RADICES:
        assert kronecker(a, b) == expected
        assert IntPoly(kronecker(a, a)) == p * p


@given(p=small_polys, q=small_polys)
@example(p=IntPoly((1, -1)), q=ONE)
@example(p=IntPoly((-1, -2, -3)), q=IntPoly((-4, -5)))
@example(p=IntPoly((-7,)), q=IntPoly((3,)))
@settings(max_examples=150)
def test_kronecker_on_tiny_operands(p, q):
    # Length-1 and length-2 operands leave the binary radix an empty odd
    # half, of an operand or of the product.
    if p.is_zero() or q.is_zero():
        return
    a, b = p.coeffs, q.coeffs
    for kronecker in RADICES:
        assert IntPoly(kronecker(a, b)) == mul_schoolbook(p, q)
        assert IntPoly(kronecker(a, a)) == mul_schoolbook(p, p)
    assert IntPoly(two_point_square(a)) == mul_schoolbook(p, p)
    assert IntPoly(two_point_square(b)) == mul_schoolbook(q, q)


def test_kronecker_unbalanced_shapes():
    rng = random.Random(40)
    short = IntPoly([rng.randint(-(10**12), 10**12) for _ in range(40)])
    long = IntPoly([rng.choice((0, rng.randint(-9, 9))) for _ in range(1999)] + [-1])
    assert short * long == mul_schoolbook(short, long)
    assert long * short == mul_schoolbook(short, long)


def test_kronecker_at_the_slot_bound():
    # Operands of equal magnitude make the middle product coefficients as
    # large as the slot width allows: min(len) * max|a| * max|b|.  The
    # binary radix rounds an odd slot width up to even; both occur here,
    # for products and for the two-point square's own slots.
    parities, square_parities = set(), set()
    for m in (1, 9, 10**40 - 1, 10**40, 2**130):
        for a, b in (((m,) * 33, (m,) * 40), ((m,) * 33, (-m,) * 35), ((-m, m) * 20, (m, -m) * 17)):
            parities.add(_slot_bytes(_kronecker_bound(a, b)) % 2)
            for kronecker in RADICES:
                assert kronecker(a, b) == _mul_schoolbook(a, b)
                assert kronecker(a, a) == _mul_schoolbook(a, a)
            for c in (a, b):
                square_parities.add(_slot_bytes(_kronecker_bound(c, c)) % 2)
                assert two_point_square(c) == _mul_schoolbook(c, c)
    assert parities == square_parities == {0, 1}


@pytest.mark.parametrize("i,j", [(34, 36), (33, 34), (33, 35)])
def test_kronecker_on_parity_sparse_operands(i, j):
    # L_n has only terms of the parity of n, so one half of each operand
    # and one half of each product is all zeros.
    a, b = lucas(i).coeffs, lucas(j).coeffs
    for kronecker in RADICES:
        assert kronecker(a, b) == _mul_schoolbook(a, b)
        assert kronecker(a, a) == _mul_schoolbook(a, a)
        assert kronecker(b, b) == _mul_schoolbook(b, b)


def test_kronecker_beyond_the_digit_limit():
    # Coefficients of about 5000 digits, so both the packed slots and the
    # product slots are wider than CPython's default 4300-digit conversion
    # limit (Python 3.11 and later).
    rng = random.Random(4300)
    big = 10**5000
    a = IntPoly([rng.choice((-1, 0, 1)) * (big + rng.randint(0, 10**9)) for _ in range(33)] + [-big])
    b = IntPoly([rng.randint(-5, 5) * big for _ in range(33)] + [big + 7])
    assert a * b == mul_schoolbook(a, b)
    assert a * a == mul_schoolbook(a, a)
    for kronecker in RADICES:
        assert IntPoly(kronecker(a.coeffs, b.coeffs)) == a * b
        assert IntPoly(kronecker(a.coeffs, a.coeffs)) == a * a
    assert IntPoly(two_point_square(a.coeffs)) == a * a
    assert IntPoly(two_point_square(b.coeffs)) == b * b


def test_kronecker_radix_switches_at_the_packed_size(monkeypatch):
    # Coefficients of 2^248 in operands of lengths 256 and 257 give a slot
    # bound of 2^505, so slots of 64 bytes; at 512 product coefficients the
    # packed product is exactly 32 KiB, and one more slot tips it over.
    cutoff = intpoly_mod._KRONECKER_BINARY_BYTES
    m = 1 << 248
    a = (m,) * 256
    assert _kronecker_bound(a, a + (m,)).bit_length() // 8 + 1 == 64 == cutoff // 512

    def refuse(*args):
        raise AssertionError("wrong Kronecker radix")

    for b, refused in (((m,) * 257, "_kronecker_decimal"), ((m,) * 258, "_kronecker_binary")):
        monkeypatch.setattr(intpoly_mod, refused, refuse)
        assert _mul_kronecker(a, b) == _mul_schoolbook(a, b)
        monkeypatch.undo()


def test_binary_unpack_refuses_a_borrow_past_the_top_slot():
    # A top slot at or above half the radix would read as a negative
    # leading coefficient with a borrow left over; no slot bound allows it.
    assert _binary_unpack(0x7E81, 1, 2) == [-127, 127]
    assert _binary_unpack(-0x7E81, 1, 2) == [127, -127]
    # A value wider than its slots is refused too.
    refused = ((0x80, 1, 1), (-0x80, 1, 1), (0x8000, 1, 2), (0x8000, 2, 1), (0x10203, 1, 2))
    for value, nb, length in refused:
        with pytest.raises(InternalInconsistencyError):
            _binary_unpack(value, nb, length)


def test_decimal_unpack_refuses_a_borrow_past_the_top_slot():
    # The decimal reader of the same slot format, in slots of k digits.
    assert _decimal_unpack(Decimal(36), 1, 2) == [-4, 4]
    assert _decimal_unpack(Decimal(-36), 1, 2) == [4, -4]
    for value, k, length in ((6, 1, 1), (-5, 1, 1), (50, 1, 2), (50, 2, 1), (123, 1, 2)):
        with pytest.raises(InternalInconsistencyError):
            _decimal_unpack(Decimal(value), k, length)


@pytest.mark.parametrize(
    "cs", [(-1,), (1, -1), (0, 0, -1), (-1, -1, -1), (4, -4), (-4, -4, -4), (-4, 0, 4, -4)]
)
def test_slot_codec_round_trips_negative_tops(cs):
    # Negative top coefficients make the packed value negative, and the
    # widest coefficients a slot holds, |c| < base / 2 at k = 1 and nb = 1,
    # put a slot that borrows at exactly half the base.
    assert _decimal_unpack(_kronecker_product(cs, (1,), 1), 1, len(cs)) == list(cs)
    wide = tuple(c * 127 // 4 for c in cs)
    assert _binary_unpack(_binary_pack(wide, 1), 1, len(wide)) == list(wide)


# Operands of the zero-skipping small path: explicit zeros among mixed
# signs, the parity-sparse Lucas and stretched cyclotomic polynomials,
# single coefficients, and coefficients past 10^5000.
signed_with_zeros = st.lists(
    st.one_of(st.just(0), st.integers(min_value=-(10**6), max_value=10**6)), min_size=1, max_size=40
)
huge_coeffs = st.lists(
    st.one_of(st.just(0), st.sampled_from((HUGE, -HUGE, HUGE + 1, -HUGE + 7))), min_size=1, max_size=12
)
small_path_operands = st.one_of(
    st.builds(IntPoly, signed_with_zeros),
    st.integers(min_value=0, max_value=40).map(lucas),
    st.tuples(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=4)).map(
        lambda nk: cyclotomic(nk[0]).stretch(nk[1])
    ),
    st.builds(lambda c: IntPoly((c,)), st.one_of(st.integers(min_value=-9, max_value=9), st.just(-HUGE))),
    st.builds(IntPoly, huge_coeffs),
)


def unbalanced(short_len, long_len, seed):
    rng = random.Random(seed)
    short = IntPoly([rng.choice((0, -1, 1)) * rng.randint(1, 10**9) for _ in range(short_len - 1)] + [-3])
    long = IntPoly([rng.choice((0, rng.randint(-(10**6), 10**6))) for _ in range(long_len - 1)] + [5])
    return short, long


@given(p=small_path_operands, q=small_path_operands)
@example(p=IntPoly((-7,)), q=unbalanced(1, 200, 1)[1])
@example(p=unbalanced(21, 400, 2)[0], q=unbalanced(21, 400, 2)[1])
@example(p=lucas(32), q=cyclotomic(105).stretch(3))
@example(p=IntPoly((0, 0, HUGE, 0, -HUGE)), q=lucas(9))
@settings(max_examples=200, deadline=None)
def test_small_products_match_the_dense_schoolbook(p, q):
    expected = mul_schoolbook(p, q)
    assert p * q == expected
    assert q * p == expected
    assert p * p == mul_schoolbook(p, p)


def left_fold(polys):
    result = ONE
    for p in polys:
        result = result * p
    return result


kernel_polys = st.builds(IntPoly, st.lists(kernel_coeffs, max_size=40))


@given(ps=st.lists(kernel_polys, max_size=9))
@settings(max_examples=100, deadline=None)
def test_product_matches_left_fold(ps):
    assert product(ps) == left_fold(ps)
    assert product(iter(ps)) == left_fold(ps)


def test_product_edge_cases():
    assert product([]) == ONE
    assert product(iter(())) == ONE
    assert product([X]) == X
    assert product([X - 1, ZERO, X]) == ZERO
    assert product([X, X + 1]) == X * (X + 1)


def test_digit_strings_beyond_the_limit():
    cases = {0: "0", -7: "-7", 10**4500 + 3: "1" + "0" * 4499 + "3", 1 - 10**12000: "-" + "9" * 12000}
    for value, text in cases.items():
        assert int_to_digits(value) == text
        assert int_from_digits(text) == value
    assert int_from_digits("+" + "9" * 5000) == 10**5000 - 1
    wide = IntPoly((-(10**5000), 0, 10**4400))
    assert wide.to_text() == f"-1{'0' * 5000} + 1{'0' * 4400}*x^2"
    assert IntPoly.from_coefficient_strings(wide.coefficient_strings()) == wide
    assert repr(wide) == f"IntPoly([-1{'0' * 5000}, 0, 1{'0' * 4400}])"
    for bad in ("", "12a", "1e" + "0" * 5000, "5" * 4000 + "." + "5" * 1000):
        with pytest.raises(ValueError):
            int_from_digits(bad)


def test_div_exact_examples():
    assert div_exact(IntPoly((-4, 0, 1)), IntPoly((-2, 1))) == IntPoly((2, 1))
    # (x^9 - 1) / ((x - 1)(x^2 + x + 1)) is the ninth cyclotomic polynomial
    num = IntPoly.monomial(9) - 1
    den = IntPoly((-1, 1)) * IntPoly((1, 1, 1))
    assert div_exact(num, den) == IntPoly((1, 0, 0, 1, 0, 0, 1))


def test_div_exact_rejects_remainder():
    with pytest.raises(NotDivisibleError):
        div_exact(IntPoly((1, 0, 1)), IntPoly((1, 1)))


def test_div_exact_rejects_fractional_quotient():
    # 2x / 4 = x/2 needs a non-integer coefficient
    with pytest.raises(NotDivisibleError):
        div_exact(IntPoly((0, 2)), IntPoly((4,)))


def test_div_exact_failure_names_degrees_not_operands():
    # The message names degrees only: the operands' text here would run to
    # hundreds of kilobytes, and to megabytes at the index cap.
    p = IntPoly([10**40 + k for k in range(2000)] + [10**40 + 1])
    for num, den in ((p, IntPoly((1, 2))), (p * IntPoly((1, 1)) + 1, IntPoly((1, 1)))):
        with pytest.raises(NotDivisibleError) as excinfo:
            div_exact(num, den)
        assert len(str(excinfo.value)) < 200
        assert f"degree {num.degree()}" in str(excinfo.value)


def test_div_exact_non_monic_divisor():
    p = IntPoly((2, 2)) * IntPoly((4, 3))
    assert div_exact(p, IntPoly((2, 2))) == IntPoly((4, 3))
    assert div_exact(IntPoly((0, 4)), IntPoly((2,))) == IntPoly((0, 2))


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        div_exact(X, ZERO)


def test_div_exact_refuses_an_operand_that_is_not_a_polynomial():
    for num, den, name in ((X, 3, "int"), (6, X, "int"), (X, True, "bool"), (None, X, "NoneType")):
        with pytest.raises(TypeError, match=name):
            div_exact(num, den)


def test_div_zero_numerator():
    assert div_exact(ZERO, X) == ZERO


@given(p=polys, q=polys)
def test_div_round_trip(p, q):
    if not q.is_zero():
        quotient = div_exact(p * q, q)
        assert quotient == p
        assert well_formed(quotient)


def fraction_div(p, q):
    """Long division over the rationals: the quotient, or None unless q divides p in Z[x]."""
    rem = [Fraction(c) for c in p.coeffs]
    dq = q.degree()
    quot = [Fraction(0)] * max(p.degree() - dq + 1, 0)
    for i in reversed(range(len(quot))):
        t = rem[i + dq] / q.leading_coefficient()
        quot[i] = t
        for j, c in enumerate(q.coeffs):
            rem[i + j] -= t * c
    if any(rem) or any(t.denominator != 1 for t in quot):
        return None
    return IntPoly(int(t) for t in quot)


wide_coeffs = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.sampled_from((10**30, -(10**30))),
)
wide_polys = st.builds(IntPoly, st.lists(wide_coeffs, max_size=8))


@given(p=wide_polys, q=wide_polys.filter(lambda q: not q.is_zero()), r=wide_polys)
@settings(max_examples=300)
def test_div_exact_matches_fraction_oracle(p, q, r):
    # Exact multiples, multiples plus a remainder below deg q or of any
    # degree, and arbitrary dividends.
    low = IntPoly(r.coeffs[: q.degree()])
    for a in (p * q, p * q + low, p * q + r, p):
        expected = fraction_div(a, q)
        if expected is None:
            with pytest.raises(NotDivisibleError):
                div_exact(a, q)
        else:
            assert div_exact(a, q) == expected


def test_compose_examples():
    l2, l3 = IntPoly((-2, 0, 1)), IntPoly((0, -3, 0, 1))
    assert l2.compose(l3) == IntPoly((-2, 0, 9, 0, -6, 0, 1))
    # reflecting x - 3 through 4 - x
    assert IntPoly((-3, 1)).compose(IntPoly((4, -1))) == IntPoly((1, -1))


# Inner polynomials a + b*x: the reflections the factor routes use, shifts
# with b = +-1, pure scalings, and both coefficients up to 10^30 in size.
linear_inners = st.one_of(
    st.sampled_from(((2, -1), (4, -1), (0, 1), (0, -1))),
    st.tuples(wide_coeffs, st.sampled_from((1, -1))),
    st.tuples(st.just(0), wide_coeffs.filter(bool)),
    st.tuples(wide_coeffs, wide_coeffs.filter(bool)),
).map(IntPoly)


@given(p=st.builds(IntPoly, st.lists(wide_coeffs, max_size=40)), inner=linear_inners)
@example(p=ZERO, inner=IntPoly((2, -1)))
@example(p=IntPoly((-7,)), inner=IntPoly((10**30, -1)))
@example(p=IntPoly((HUGE, -HUGE + 1, 0, 3)), inner=IntPoly((2, -1)))
@example(p=IntPoly((1, -2, 3)), inner=IntPoly((-HUGE, HUGE + 7)))
@settings(max_examples=300, deadline=None)
def test_linear_compose_matches_horner(p, inner):
    composed = p.compose(inner)
    assert composed == p(inner)
    assert well_formed(composed)


# Inners that are not linear: zero, constants, sparse inners with a zero
# constant term, dense ones of up to 40 coefficients, and HUGE coefficients.
# An outer of two or more coefficients and an inner of three or more take
# Paterson-Stockmeyer on the packed inner while the result packs into 32 KiB;
# outers of up to 30 coefficients make three to six blocks there.  Any other
# composition returns p(q), so for a zero or constant operand the comparison
# below holds by construction; test_compose_with_a_zero_or_constant_operand
# pins those by hand.
nonlinear_inners = st.one_of(
    st.sampled_from((ZERO, ONE, IntPoly((-7,)), IntPoly((HUGE,)), IntPoly((0, 0, 1)), IntPoly((0, 3, 0, -2)))),
    st.builds(IntPoly, st.lists(wide_coeffs, min_size=3, max_size=40)),
).filter(lambda q: q.degree() != 1)


@given(p=st.builds(IntPoly, st.lists(wide_coeffs, max_size=30)), inner=nonlinear_inners)
@example(p=ZERO, inner=IntPoly((0, 0, 1)))
@example(p=IntPoly((-5,)), inner=IntPoly((1, 2, 3)))
@example(p=IntPoly((1, -2, 3)), inner=ZERO)
@example(p=IntPoly((4, 0, -1)), inner=IntPoly((9,)))
@example(p=IntPoly((HUGE, 0, -HUGE + 1, 3)), inner=IntPoly((0, -1, 0, 1)))
@example(p=IntPoly((1, 2, 3)), inner=IntPoly((HUGE, -1, 0, HUGE + 7)))
@example(p=IntPoly(range(-3, 4)), inner=IntPoly((*range(1, 40), -1)))
@settings(max_examples=150, deadline=None)
def test_nonlinear_compose_matches_horner(p, inner):
    composed = p.compose(inner)
    assert composed == p(inner)
    assert well_formed(composed)


def test_compose_with_a_zero_or_constant_operand():
    # compose returns p(q) here, so the values are worked by hand: a zero q
    # leaves p(0), a constant q the number p(c), and a zero or constant p
    # itself, whatever q is.
    p, q = IntPoly((4, 0, -1)), IntPoly((1, -2, 3))
    cases = (
        (ZERO, q, ZERO),
        (ZERO, ZERO, ZERO),
        (IntPoly((-7,)), q, IntPoly((-7,))),
        (IntPoly((5,)), IntPoly((9,)), IntPoly((5,))),
        (IntPoly((HUGE,)), ZERO, IntPoly((HUGE,))),
        (p, ZERO, IntPoly((4,))),
        (p, IntPoly((3,)), IntPoly((-5,))),
        (p, IntPoly((-2,)), ZERO),
        (IntPoly((1, 1, 1)), IntPoly((-HUGE,)), IntPoly((1 - HUGE + HUGE * HUGE,))),
        (IntPoly((0, 0, 0, 1)), ZERO, ZERO),
    )
    for outer, inner, expected in cases:
        composed = outer.compose(inner)
        assert composed == expected, (outer, inner)
        assert well_formed(composed)


def spy_compose(monkeypatch):
    """Record each packed composition and each p(q) at an IntPoly q, as operand lengths."""
    packed, fallback = [], []
    real_packed, real_call = intpoly_mod._compose_packed, IntPoly.__call__

    def packed_spy(cs, inner, nb):
        packed.append((len(cs), len(inner)))
        return real_packed(cs, inner, nb)

    def call_spy(p, a):
        if isinstance(a, IntPoly):
            fallback.append((len(p.coeffs), len(a.coeffs)))
        return real_call(p, a)

    monkeypatch.setattr(intpoly_mod, "_compose_packed", packed_spy)
    monkeypatch.setattr(IntPoly, "__call__", call_spy)
    return packed, fallback


def lengths(pairs):
    return [(len(p.coeffs), len(q.coeffs)) for p, q in pairs]


# Outer lengths around each square s^2, where the block length
# isqrt(length - 1) + 1 and the number of blocks change.
@pytest.mark.parametrize("length", [3, 4, 5, 8, 9, 10, 15, 16, 17, 24, 25, 26])
def test_packed_compose_at_block_boundaries(monkeypatch, length):
    rng = random.Random(length)
    outers = (
        IntPoly([rng.randint(-9, 9) for _ in range(length - 1)] + [-1]),
        IntPoly([rng.randint(-(10**20), 10**20) for _ in range(length - 1)] + [-(10**20)]),
        IntPoly((1,) + (0,) * (length - 2) + (-3,)),  # every block but the first and last is zero
        IntPoly.monomial(length - 1, -1),  # every block but the top one is zero
    )
    inners = (IntPoly((0, 0, 1)), IntPoly((0, 3, 0, -2)), IntPoly((5, -1, 2)), IntPoly((-1, 0, 0, 0, -7)))
    pairs = [(p, q) for p in outers for q in inners]
    expected = [p(q) for p, q in pairs]
    packed, fallback = spy_compose(monkeypatch)
    composed = [p.compose(q) for p, q in pairs]
    assert (packed, fallback) == (lengths(pairs), [])
    assert composed == expected
    assert all(map(well_formed, composed))


def test_packed_compose_beyond_the_digit_limit(monkeypatch):
    # Slots of 2 to 6 thousand bytes, each coefficient past the 4300-digit limit.
    pairs = (
        (IntPoly((HUGE, 0, -HUGE + 1)), IntPoly((1, -2, 1))),
        (IntPoly((1, -2, -3)), IntPoly((HUGE, -1, HUGE + 7))),
        (IntPoly((-HUGE, 1, HUGE)), IntPoly((0, HUGE, -HUGE))),
    )
    expected = [p(q) for p, q in pairs]
    packed, fallback = spy_compose(monkeypatch)
    assert [p.compose(q) for p, q in pairs] == expected
    assert (packed, fallback) == (lengths(pairs), [])


def test_packed_compose_stops_at_the_binary_size(monkeypatch):
    # L_24(L_24) packs 577 slots of 51 bytes, within 32 KiB; L_25(L_25)
    # would pack 626 of 55 and returns p(q), Horner through IntPoly values.
    for n, packed_bytes, fits in ((24, 29427, True), (25, 34430, False)):
        p = lucas(n)
        assert _slot_bytes(_compose_bound(p.coeffs, p.coeffs)) * (n * n + 1) == packed_bytes
        packed, fallback = spy_compose(monkeypatch)
        assert p.compose(p) == lucas(n * n)
        assert (packed, fallback) == (([(n + 1, n + 1)], []) if fits else ([], [(n + 1, n + 1)]))
        monkeypatch.undo()


def test_composition_suites_pack_every_nonlinear_composition(monkeypatch):
    # verify's composition identities take the Taylor shift or the packed
    # path; p(q) sees only a zero or constant operand, such as lucas(0) = 2.
    # At a sweep of 49 every one of these suites has reached its own bound.
    packed, fallback = spy_compose(monkeypatch)
    suites = (
        "lucas-index-product",
        "zpread-index-product",
        "zpread-capital-phi-commutation",
        "zpread-square-substitution",
        "capital-phi-reflection",
        "compose-associativity",
    )
    for name in suites:
        assert verify.run_suite(name, 49).passed, name
    assert fallback and all(min(sizes) <= 1 for sizes in fallback)
    assert len(packed) > 500


@pytest.mark.parametrize("inner", [3, 2.5, None, (0, 1)], ids=repr)
def test_compose_refuses_an_inner_that_is_not_a_polynomial(inner):
    with pytest.raises(TypeError, match=f"compose inner must be IntPoly, not {type(inner).__name__}"):
        X.compose(inner)


@pytest.mark.parametrize("k", [True, 2.0, 1.5], ids=repr)
def test_monomial_and_stretch_refuse_a_k_that_is_not_an_int(k):
    # As p ** k does: a bool would otherwise read as 0 or 1.
    with pytest.raises(TypeError, match=f"exponent must be int, not {type(k).__name__}"):
        IntPoly.monomial(k)
    with pytest.raises(TypeError, match=f"stretch factor must be int, not {type(k).__name__}"):
        X.stretch(k)
    with pytest.raises(TypeError):
        X**k


@given(p=polys)
def test_compose_identity(p):
    assert p.compose(X) == p


@given(p=small_polys, q=small_polys, r=small_polys)
@settings(max_examples=60)
def test_compose_associative(p, q, r):
    assert p.compose(q).compose(r) == p.compose(q.compose(r))


def test_stretch():
    assert IntPoly((-3, 1)).stretch(2) == IntPoly((-3, 0, 1))
    assert ZERO.stretch(3) == ZERO
    with pytest.raises(ValueError):
        X.stretch(0)


def seeded_compositions(seed):
    # Pairs (p, q) with q of degree 2 to 6, so p(q) runs the Horner loop.
    rng = random.Random(seed)
    for _ in range(30):
        p = IntPoly(rng.randint(-50, 50) for _ in range(rng.randint(0, 9)))
        q = IntPoly((*(rng.randint(-50, 50) for _ in range(rng.randint(2, 6))), rng.choice((-3, 1, 7))))
        yield p, q


def test_eval_int_examples():
    assert X(5) == 5
    assert IntPoly((2, -4, 1))(5) == 7
    assert ZERO(3) == 0
    # At a polynomial the value is the composition, an IntPoly even when
    # the polynomial evaluated is zero or constant.
    q = IntPoly((1, -2, 0, 5))
    for p, expected in ((ZERO, ZERO), (IntPoly((3,)), IntPoly((3,)))):
        assert type(p(q)) is IntPoly and p(q) == expected
    for p, q in seeded_compositions(11):
        for a in (-7, 0, 1, 12):
            assert p(q)(a) == p(q(a))


@given(p=polys, q=polys, a=st.integers(min_value=-(10**6), max_value=10**6))
def test_eval_is_ring_homomorphism(p, q, a):
    assert (p * q)(a) == p(a) * q(a)
    assert (p + q)(a) == p(a) + q(a)
    assert (p - q)(a) == p(a) - q(a)


def test_eval_rational():
    assert X(Fraction(3, 2)) == Fraction(3, 2)
    z2 = IntPoly((0, 4, -1))
    assert z2(Fraction(-9, 4)) == Fraction(-225, 16)
    z3 = IntPoly((0, 9, -6, 1))
    assert z3(Fraction(-9, 4)) == Fraction(-3969, 64)
    assert type(z3(Fraction(-9, 4))) is Fraction
    assert z3(2) == 2 and type(z3(2)) is int
    for p, q in seeded_compositions(12):
        for a in (Fraction(-9, 4), Fraction(5, 7)):
            assert p(q)(a) == p(q(a))


def test_eval_float_near_roots():
    assert X(0.0) == 0.0
    assert type(IntPoly((1, -4, 1))(0.5)) is float
    phi5 = IntPoly((5, -5, 1))
    assert abs(phi5(4 * math.sin(math.pi / 5) ** 2)) < 1e-9
    phi12 = IntPoly((1, -4, 1))
    assert abs(phi12(2 - math.sqrt(3))) < 1e-9


@given(p=polys, q=polys, r=polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p * ONE == p
    assert p + ZERO == p
    results = (p + q, p - q, 3 - p, -p, p * q, p * p, p * -2, p * 0, p.stretch(3))
    assert all(map(well_formed, results))


def test_fold_examples():
    assert palindrome_fold(IntPoly((1, 0, 1))) == (0, 1)
    c9 = IntPoly((1, 0, 0, 1, 0, 0, 1))
    assert palindrome_fold(c9) == (1, 0, 0, 1)
    c12 = IntPoly((1, 0, -1, 0, 1))
    assert palindrome_fold(c12) == (-1, 0, 1)


def test_fold_refusal_names_the_first_unequal_pair():
    # lucas(10000) renders to 7.5 million characters; the message names
    # none of them.
    with pytest.raises(NotPalindromicError) as excinfo:
        palindrome_fold(lucas(10000))
    assert str(excinfo.value) == "degree 10000 is not palindromic: c_0 != c_10000"
    with pytest.raises(NotPalindromicError, match=r"^degree 4 is not palindromic: c_1 != c_3$"):
        palindrome_fold(IntPoly((1, 2, 0, 3, 1)))


def test_fold_rejects_bad_inputs():
    with pytest.raises(NotPalindromicError):
        palindrome_fold(IntPoly((3, 2, 1)))
    with pytest.raises(OddDegreeError):
        palindrome_fold(IntPoly((1, 0, 0, 1)))
    with pytest.raises(OddDegreeError):
        palindrome_fold(ZERO)


@given(
    half=st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=8),
    center=st.integers(min_value=-(10**6), max_value=10**6),
    lead=st.integers(min_value=-(10**6), max_value=10**6).filter(bool),
)
def test_fold_round_trip(half, center, lead):
    coeffs = [lead] + half + [center] + half[::-1] + [lead]
    p = IntPoly(coeffs)
    fold = palindrome_fold(p)
    assert fold == (center, *half[::-1], lead)
    assert IntPoly(fold[:0:-1] + fold) == p


def test_constant_fold():
    fold = palindrome_fold(IntPoly((4,)))
    assert fold == (4,)
    assert IntPoly(fold[:0:-1] + fold) == IntPoly((4,))


def test_text_rendering():
    assert ZERO.to_text() == "0"
    assert IntPoly((0, 9, -6, 1)).to_text() == "9*x - 6*x^2 + x^3"
    assert IntPoly((-2, 0, 1)).to_text() == "-2 + x^2"
    assert IntPoly((-7, 14, -7, 1)).to_text() == "-7 + 14*x - 7*x^2 + x^3"
    assert IntPoly((0, 16, -20, 8, -1)).to_text() == "16*x - 20*x^2 + 8*x^3 - x^4"
    assert IntPoly((5,)).to_text() == "5"
    assert X.to_text() == "x"


def test_coefficient_strings_round_trip():
    p = IntPoly((0, 9, -6, 10**40))
    strings = p.coefficient_strings()
    assert strings == ["0", "9", "-6", str(10**40)]
    assert IntPoly.from_coefficient_strings(strings) == p


def test_monomial_and_constant():
    assert IntPoly.monomial(3) == IntPoly((0, 0, 0, 1))
    assert IntPoly.monomial(0, 5) == IntPoly((5,))
    with pytest.raises(ValueError):
        IntPoly.monomial(-1)


def test_palindromic_predicate():
    assert IntPoly((1, 2, 1)).is_palindromic()
    assert not IntPoly((1, 2, 3)).is_palindromic()
    assert ZERO.is_palindromic()


def test_hash_and_equality():
    assert hash(IntPoly((1, 2))) == hash(IntPoly((1, 2, 0)))
    assert IntPoly((1, 2)) != IntPoly((1, 2, 3))
    assert IntPoly((1, 2)) != "1 + 2*x"
