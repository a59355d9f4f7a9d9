"""Kernel tests: arithmetic, division, composition, evaluation, folding."""

import doctest
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spreadpoly.factor
import spreadpoly.fib
import spreadpoly.intpoly
import spreadpoly.sequences
from spreadpoly.intpoly import (
    _compose_horner,
    _mul_kronecker,
    _mul_schoolbook,
    int_from_digits,
    int_to_digits,
    product,
)
from spreadpoly import (
    IntPoly,
    NotDivisibleError,
    NotPalindromicError,
    OddDegreeError,
    ONE,
    X,
    ZERO,
    div_exact,
    mul_karatsuba,
    mul_schoolbook,
    palindrome_fold,
)

coeffs_st = st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=17)
polys = st.builds(IntPoly, coeffs_st)
small_polys = st.builds(IntPoly, st.lists(st.integers(min_value=-20, max_value=20), max_size=5))


def test_doctests():
    for module in (spreadpoly.intpoly, spreadpoly.sequences, spreadpoly.factor, spreadpoly.fib):
        failures, attempted = doctest.testmod(module)
        assert attempted > 0 and failures == 0, module.__name__


def test_normalization_strips_trailing_zeros():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly((0, 0, 0)).coeffs == ()
    assert IntPoly(()).is_zero()


def test_degree_sentinel():
    assert ZERO.degree() == -1
    assert IntPoly((7,)).degree() == 0
    assert X.degree() == 1


def test_add_examples():
    assert X + (-X) == ZERO
    assert IntPoly((2,)) + X == IntPoly((2, 1))
    # the degree-2 Lucas polynomial plus 2 is x^2
    assert IntPoly((-2, 0, 1)) + IntPoly((2,)) == IntPoly((0, 0, 1))


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
    assert school == mul_karatsuba(p, q, 2)
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


@given(a=kernel_operands(32), b=kernel_operands(32))
@settings(max_examples=120, deadline=None)
def test_kronecker_matches_schoolbook(a, b):
    expected = _mul_schoolbook(a, b)
    assert _mul_kronecker(a, b) == expected
    assert IntPoly(a) * IntPoly(b) == IntPoly(expected)
    p = IntPoly(a)
    assert p * p == IntPoly(_mul_kronecker(a, a)) == mul_schoolbook(p, p)


@given(p=small_polys, q=small_polys)
@settings(max_examples=150)
def test_kronecker_on_tiny_operands(p, q):
    if p.is_zero() or q.is_zero():
        return
    a, b = p.coeffs, q.coeffs
    assert IntPoly(_mul_kronecker(a, b)) == mul_schoolbook(p, q)
    assert IntPoly(_mul_kronecker(a, a)) == mul_schoolbook(p, p)


def test_kronecker_unbalanced_shapes():
    rng = random.Random(40)
    short = IntPoly([rng.randint(-(10**12), 10**12) for _ in range(40)])
    long = IntPoly([rng.choice((0, rng.randint(-9, 9))) for _ in range(1999)] + [-1])
    assert short * long == mul_schoolbook(short, long)
    assert long * short == mul_schoolbook(short, long)


def test_kronecker_at_the_slot_bound():
    # Operands of equal magnitude make the middle product coefficients as
    # large as the slot width allows: min(len) * max|a| * max|b|.
    for m in (1, 9, 10**40 - 1, 10**40):
        for a, b in (((m,) * 33, (m,) * 40), ((m,) * 33, (-m,) * 35), ((-m, m) * 20, (m, -m) * 17)):
            assert _mul_kronecker(a, b) == _mul_schoolbook(a, b)
            assert _mul_kronecker(a, a) == _mul_schoolbook(a, a)


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


def left_fold(polys, start=ONE):
    result = start
    for p in polys:
        result = result * p
    return result


kernel_polys = st.builds(IntPoly, st.lists(kernel_coeffs, max_size=40))


@given(ps=st.lists(kernel_polys, max_size=9), start=kernel_polys)
@settings(max_examples=100, deadline=None)
def test_product_matches_left_fold(ps, start):
    assert product(ps) == left_fold(ps)
    assert product(iter(ps), start=start) == left_fold(ps, start)


def test_product_edge_cases():
    assert product([]) == ONE
    assert product([], start=X) == X
    assert product(iter(())) == ONE
    assert product([X - 1, ZERO, X]) == ZERO
    assert product([X + 1], start=X) == X * (X + 1)


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


def test_div_exact_non_monic_divisor():
    p = IntPoly((2, 2)) * IntPoly((4, 3))
    assert div_exact(p, IntPoly((2, 2))) == IntPoly((4, 3))
    assert div_exact(IntPoly((0, 4)), IntPoly((2,))) == IntPoly((0, 2))


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        div_exact(X, ZERO)


def test_div_zero_numerator():
    assert div_exact(ZERO, X) == ZERO


@given(p=polys, q=polys)
def test_div_round_trip(p, q):
    if not q.is_zero():
        assert div_exact(p * q, q) == p


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
HUGE = 10**5000  # past the default 4300-digit int/str conversion limit


@given(p=st.builds(IntPoly, st.lists(wide_coeffs, max_size=40)), inner=linear_inners)
@example(p=ZERO, inner=IntPoly((2, -1)))
@example(p=IntPoly((-7,)), inner=IntPoly((10**30, -1)))
@example(p=IntPoly((HUGE, -HUGE + 1, 0, 3)), inner=IntPoly((2, -1)))
@example(p=IntPoly((1, -2, 3)), inner=IntPoly((-HUGE, HUGE + 7)))
@settings(max_examples=300, deadline=None)
def test_linear_compose_matches_horner(p, inner):
    assert p.compose(inner) == _compose_horner(p, inner)


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


def test_eval_int_examples():
    assert X.eval_int(5) == 5
    assert IntPoly((2, -4, 1)).eval_int(5) == 7
    assert ZERO.eval_int(3) == 0


@given(p=polys, q=polys, a=st.integers(min_value=-(10**6), max_value=10**6))
def test_eval_is_ring_homomorphism(p, q, a):
    assert (p * q).eval_int(a) == p.eval_int(a) * q.eval_int(a)
    assert (p + q).eval_int(a) == p.eval_int(a) + q.eval_int(a)


def test_eval_rational():
    assert X.eval_rational(Fraction(3, 2)) == Fraction(3, 2)
    z2 = IntPoly((0, 4, -1))
    assert z2.eval_rational(Fraction(-9, 4)) == Fraction(-225, 16)
    z3 = IntPoly((0, 9, -6, 1))
    assert z3.eval_rational(Fraction(-9, 4)) == Fraction(-3969, 64)
    assert z3.eval_rational(2) == Fraction(2)


def test_eval_float_near_roots():
    assert X.eval_float(0.0) == 0.0
    phi5 = IntPoly((5, -5, 1))
    assert abs(phi5.eval_float(4 * math.sin(math.pi / 5) ** 2)) < 1e-9
    phi12 = IntPoly((1, -4, 1))
    assert abs(phi12.eval_float(2 - math.sqrt(3))) < 1e-9


@given(p=polys, q=polys, r=polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p * ONE == p
    assert p + ZERO == p


def test_fold_examples():
    assert palindrome_fold(IntPoly((1, 0, 1))) == (0, 1)
    c9 = IntPoly((1, 0, 0, 1, 0, 0, 1))
    assert palindrome_fold(c9) == (1, 0, 0, 1)
    c12 = IntPoly((1, 0, -1, 0, 1))
    assert palindrome_fold(c12) == (-1, 0, 1)


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
    assert IntPoly.constant(-2) == IntPoly((-2,))
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
