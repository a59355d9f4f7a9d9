"""Golden tables and identities for the classical families."""

import functools
import math
from fractions import Fraction

import pytest

import spreadpoly
import spreadpoly.sequences as seq_mod
from spreadpoly import (
    IntPoly,
    InternalInconsistencyError,
    SequenceCache,
    cyclotomic,
    div_exact,
    divisors,
    fibonacci,
    lucas,
    monic_zpread,
    spread,
    totient,
    zpread,
    zpread_via_lucas,
)
from spreadpoly.intpoly import product

LUCAS_TABLE = {
    0: (2,),
    1: (0, 1),
    2: (-2, 0, 1),
    3: (0, -3, 0, 1),
    4: (2, 0, -4, 0, 1),
    5: (0, 5, 0, -5, 0, 1),
    6: (-2, 0, 9, 0, -6, 0, 1),
}

CYCLOTOMIC_TABLE = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}

ZPREAD_TABLE = {
    1: (0, 1),
    2: (0, 4, -1),
    3: (0, 9, -6, 1),
    4: (0, 16, -20, 8, -1),
    5: (0, 25, -50, 35, -10, 1),
}


@pytest.mark.parametrize("n,coeffs", LUCAS_TABLE.items())
def test_lucas_golden(n, coeffs):
    assert lucas(n) == IntPoly(coeffs)


def test_lucas_recursion_holds():
    for n in range(2, 400):
        assert lucas(n) == IntPoly((0, 1)) * lucas(n - 1) - lucas(n - 2)


def test_lucas_caches_only_the_requested_index():
    # The closed form needs no lower index, so none is left in the cache.
    seq_mod.CACHE.clear()
    lucas(2000)
    assert list(seq_mod.CACHE.table("lucas")) == [2000]


def test_lucas_rejects_negative():
    with pytest.raises(ValueError):
        lucas(-1)


@pytest.mark.parametrize("n,coeffs", CYCLOTOMIC_TABLE.items())
def test_cyclotomic_golden(n, coeffs):
    assert cyclotomic(n) == IntPoly(coeffs)


@functools.lru_cache(maxsize=None)
def divided_cyclotomic(n):
    """Phi_n as (x^n - 1) divided by the product of Phi_d over the proper divisors d."""
    rest = product(divided_cyclotomic(d) for d in divisors(n)[:-1])
    return div_exact(IntPoly.monomial(n) - 1, rest)


def test_cyclotomic_matches_division():
    # Five distinct primes (2310 = 2*3*5*7*11 and its multiples), prime
    # powers, and a prime near the default index cap.
    for n in [*range(1, 401), 2310, 4620, 9240, 1024, 2187, 3125, 9973]:
        assert cyclotomic(n) == divided_cyclotomic(n), n


def mobius_product_cyclotomic(n):
    """Phi_n by the Moebius product over all binomials at once.

    Phi_n(x) = Phi_s(x^(n/s)) for s the radical of n, and Phi_s is the
    product of (x^(s/e) - 1)^mu(e) over the divisors e of s: every binomial
    with mu = +1 is multiplied in before any with mu = -1 is divided out.
    """
    mobius = seq_mod._mobius(n)
    s = mobius[-1][0]
    coeffs = [1]
    for e, mu in sorted(mobius, key=lambda pair: -pair[1]):
        coeffs = seq_mod._times_binomial(coeffs, s // e, mu)
    return IntPoly(coeffs).stretch(n // s)


def test_cyclotomic_matches_the_mobius_product():
    # Every index up to 2000, then every squarefree index up to 10000 with
    # at least four distinct primes, where the prime-by-prime passes differ
    # most from the all-binomials product; each from an empty cache.
    powers = {n: seq_mod._factorize(n) for n in range(2001, 10001)}
    wide = [n for n, f in powers.items() if len(f) >= 4 and all(e == 1 for _, e in f)]
    for n in [*range(1, 2001), *wide]:
        seq_mod.CACHE.clear()
        assert cyclotomic(n) == mobius_product_cyclotomic(n), n


def test_cyclotomic_reads_no_other_cache_entry():
    # A wrong Phi_15 in the cache reaches neither Phi_75 nor Phi_105.
    bad = list(mobius_product_cyclotomic(15).coeffs)
    bad[4] += 1
    seq_mod.CACHE.clear()
    try:
        seq_mod.CACHE.store("cyclotomic", 15, IntPoly(bad))
        for n in (75, 105):
            assert cyclotomic(n) == mobius_product_cyclotomic(n), n
    finally:
        seq_mod.CACHE.clear()


def test_cyclotomic_caches_only_the_requested_index():
    seq_mod.CACHE.clear()
    cyclotomic(2310)
    assert list(seq_mod.CACHE.table("cyclotomic")) == [2310]


def test_binomial_steps():
    f = [3, 0, -1, 2]
    for d in (1, 2, 5):
        assert seq_mod._times_binomial(seq_mod._times_binomial(f, d, 1), d, -1) == f
    assert seq_mod._times_binomial([1], 2, 1) == [-1, 0, 1]
    # Remainders 2, x + 2 and x + 2, then degrees too low for x^d - 1.
    for f, d in (([1, 0, 1], 1), ([2, 0, 0, 1], 2), ([1, 1, 1], 2), ([1, 1], 3), ([5], 1)):
        with pytest.raises(InternalInconsistencyError):
            seq_mod._times_binomial(f, d, -1)


def test_cyclotomic_completeness_small():
    for n in range(1, 61):
        product = IntPoly((1,))
        for d in divisors(n):
            product = product * cyclotomic(d)
        assert product == IntPoly.monomial(n) - 1
        assert cyclotomic(n).degree() == totient(n)


def test_cyclotomic_palindromic_small():
    for n in range(3, 61):
        c = cyclotomic(n)
        assert c.degree() % 2 == 0
        assert c.is_palindromic()


@pytest.mark.parametrize("n,coeffs", ZPREAD_TABLE.items())
def test_zpread_golden(n, coeffs):
    assert zpread(n) == IntPoly(coeffs)


def test_zpread_routes_agree_small():
    for n in [*range(1, 301), 720, 1260]:
        assert seq_mod.zpread.__wrapped__(n) == zpread_via_lucas(n), n


def zpread_by_ratio(n):
    """Z_n from its own closed form: the x^k coefficient is (-1)^(k-1) * C(n+k-1, n-k) * n/k.

    u_k = C(n+k-1, n-k) runs from u_1 = n by u_{k+1} = u_k * (n+k)(n-k) / ((2k+1)(2k)).
    """
    coeffs = [0] * (n + 1)
    u = n
    for k in range(1, n + 1):
        c, r = divmod(u * n, k)
        u, s = divmod(u * (n + k) * (n - k), (2 * k + 1) * (2 * k))
        assert not (r or s), (n, k)
        coeffs[k] = c if k % 2 else -c
    return IntPoly(coeffs)


def test_lucas_weight_step_guard():
    # A half-integer lead makes the first step, -lead * 5 * 4 / 4 = -5/2, inexact.
    with pytest.raises(InternalInconsistencyError, match=r"lucas coefficient \(5,1\)"):
        seq_mod._lucas_weights(5, Fraction(1, 2))
    assert seq_mod._lucas_weights(5, 1) == [1, -5, 5]


def test_zpread_matches_its_own_closed_form():
    for n in [*range(1, 301), 2520, 2521, 9999, 10000]:
        assert seq_mod.zpread.__wrapped__(n) == zpread_by_ratio(n), n


def test_zpread_vanishes_at_origin():
    for n in range(1, 61):
        assert zpread(n).constant_term() == 0


def test_monic_zpread_golden():
    assert monic_zpread(1) == IntPoly((0, 1))
    assert monic_zpread(2) == IntPoly((0, -4, 1))
    assert monic_zpread(4) == IntPoly((0, -16, 20, -8, 1))
    for n in range(1, 40):
        assert monic_zpread(n).is_monic()


def test_spread_golden():
    assert spread(1) == IntPoly((0, 1))
    assert spread(2) == IntPoly((0, 4, -4))
    assert spread(3) == IntPoly((0, 9, -24, 16))


def test_spread_matches_sine_numerically():
    # S_n(sin^2 t) = sin^2(n t), checked in floating point
    for n in (2, 3, 5):
        p = spread(n)
        for t in (0.3, 0.7, 1.1):
            expected = math.sin(n * t) ** 2
            assert abs(p(math.sin(t) ** 2) - expected) < 1e-9


def test_lucas_index_product_small():
    for m in range(0, 9):
        for n in range(0, 9):
            assert lucas(m * n) == lucas(m).compose(lucas(n))


def test_lucas_square_identities_small():
    for n in range(1, 31):
        ln = lucas(n)
        assert lucas(2 * n) - 2 == (ln - 2) * (ln + 2)
        assert lucas(2 * n) + 2 == ln * ln


def test_fibonacci_sequence():
    assert [fibonacci(n) for n in range(9)] == [0, 1, 1, 2, 3, 5, 8, 13, 21]
    # Both parities of every fast-doubling step, against the recurrence.
    for n in range(2, 2001):
        assert fibonacci(n) == fibonacci(n - 1) + fibonacci(n - 2)
    assert math.gcd(fibonacci(100), fibonacci(60)) == fibonacci(20)
    with pytest.raises(ValueError):
        fibonacci(-1)


def test_lucas_value_matches_horner_on_the_closed_form():
    # The oracle is the uncached closed form evaluated by Horner.
    build = lucas.__wrapped__
    for n in range(401):
        ln = build(n)
        for y in (-3, -2, -1, 0, 1, 2, 5, 10**40, -(10**40)):
            assert seq_mod.lucas_value(n, y) == ln(y), (n, y)
    for n in (9240, 9973, 9999, 10000):
        ln = build(n)
        assert seq_mod.lucas_value(n, 5) == ln(5), n
        assert seq_mod.lucas_value(n, -3) == ln(-3), n


def test_lucas_value_gives_the_zpread_value_at_five():
    # Z_n(5) = 2 - L_n(-3) = (-1)^(n-1) * 5 * F_n^2.
    for n in range(1, 2001):
        assert 2 - seq_mod.lucas_value(n, -3) == (-1) ** (n - 1) * 5 * fibonacci(n) ** 2, n


def test_totient_examples():
    assert totient(1) == 1
    assert totient(12) == 4
    assert totient(9) == 6


def test_totient_against_enumeration():
    for n in range(1, 201):
        assert totient(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_totient_divisor_sum():
    for n in range(1, 101):
        assert sum(totient(d) for d in divisors(n)) == n


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]
    for n in [*range(1, 2001), 6561, 8192, 9240, 9973, 10000]:
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


def test_preconditions():
    for fn in (cyclotomic, zpread, zpread_via_lucas, monic_zpread, spread, totient, divisors):
        with pytest.raises(ValueError):
            fn(0)


def test_cache_store_returns_the_kept_value():
    # A writer that loses a race gets the stored object, so one copy is kept.
    cache = SequenceCache()
    a, b = IntPoly((1, 2)), IntPoly((1, 2))
    assert cache.store("demo", 2, a) is a
    assert cache.store("demo", 2, b) is a

# Every family declared with SequenceCache.family: its name (also the table
# key), least index, and a mid-size index to build.
DECLARED_FAMILIES = [
    ("lucas", 0, 40),
    ("cyclotomic", 1, 60),
    ("zpread", 1, 40),
    ("fibonacci", 0, 300),
    ("psi", 1, 45),
    ("phi_min", 1, 45),
    ("phi_composed", 1, 44),
]


@pytest.mark.parametrize("name,minimum,n", DECLARED_FAMILIES)
def test_declared_family_contract(name, minimum, n):
    fn = getattr(spreadpoly, name)
    seq_mod.CACHE.clear()
    with pytest.raises(ValueError, match=f"{name} index must be at least {minimum}"):
        fn(minimum - 1)
    assert not seq_mod.CACHE.table(name)
    value = fn(n)
    assert seq_mod.CACHE.table(name)[n] is value
    assert fn(n) is value
    assert fn.__wrapped__(n) == value


def test_cache_hits_are_identical():
    cache = SequenceCache()
    first = cache.get_or_compute("demo", 2, lambda: IntPoly((1, 2)))
    second = cache.get_or_compute("demo", 2, lambda: IntPoly((9, 9)))
    assert second is first
