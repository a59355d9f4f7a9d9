"""Factor engine tests: minimal polynomials, routes, verified factorizations."""

import json
import math
import random
import tracemalloc

import pytest

import spreadpoly.factor as factor_mod
import spreadpoly.intpoly as intpoly_mod
from spreadpoly import (
    IntPoly,
    PhiRoute,
    RouteMismatchError,
    ToleranceExceededError,
    VerificationFailureError,
    X,
    capital_phi,
    cross_check_phi,
    cyclotomic,
    divisors,
    factor_lucas_minus2,
    factor_zpread,
    float_root_check,
    lucas,
    palindrome_fold,
    phi_composed,
    phi_min,
    phi_odd_lucas,
    phi_pow2,
    psi,
    run_verification,
    totient,
    zpread,
)
from spreadpoly.errors import NotDivisibleError, OutOfBoundsError
from spreadpoly.intpoly import mul_schoolbook, product
from spreadpoly.sequences import CACHE

PSI_TABLE = {
    1: (-2, 1),
    2: (2, 1),
    3: (1, 1),
    4: (0, 1),
    5: (-1, 1, 1),
    6: (-1, 1),
    7: (-1, -2, 1, 1),
    8: (-2, 0, 1),
    9: (1, -3, 0, 1),
}

PHI_TABLE = {
    1: (0, 1),
    2: (-4, 1),
    3: (-3, 1),
    4: (-2, 1),
    5: (5, -5, 1),
    6: (-1, 1),
    7: (-7, 14, -7, 1),
    8: (2, -4, 1),
    9: (-3, 9, -6, 1),
}

# phi at 1, 2, 4, 8, 16: bases then each square minus 2
PHI_POW2_TABLE = {
    0: (0, 1),
    1: (-4, 1),
    2: (-2, 1),
    3: (2, -4, 1),
    4: (2, -16, 20, -8, 1),
}


@pytest.mark.parametrize("n,coeffs", PSI_TABLE.items())
def test_psi_golden(n, coeffs):
    assert psi(n) == IntPoly(coeffs)


@pytest.mark.parametrize("n,coeffs", PHI_TABLE.items())
def test_phi_golden(n, coeffs):
    assert phi_min(n) == IntPoly(coeffs)


def test_psi_phi_shape():
    for n in range(3, 80):
        half = totient(n) // 2
        assert psi(n).degree() == half
        assert psi(n).is_monic()
        assert phi_min(n).degree() == half
        assert phi_min(n).is_monic()
        assert capital_phi(n).degree() == totient(n)


def lucas_sum_psi(n):
    """psi_n as c_0 + sum of c_k * L_k over the folded cyclotomic weights, term by term."""
    c = palindrome_fold(cyclotomic(n))
    result = IntPoly((c[0],))
    for k in range(1, len(c)):
        if c[k]:
            result = result + c[k] * lucas(k)
    return result


def test_psi_matches_lucas_sum():
    for n in [*range(3, 401), 720, 1260, 2520]:
        assert psi(n) == lucas_sum_psi(n), n


def test_psi_caches_no_lucas():
    CACHE.clear()
    psi(2003)
    assert CACHE.table("lucas") == {}


def test_psi_memory_is_bounded():
    # A cold psi(4001) (degree 2000) holds only the Clenshaw rows, about
    # 1 MB traced; caching every L_k it used took 134 MB.
    CACHE.clear()
    tracemalloc.start()
    try:
        psi(4001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_psi_equals_lucas_at_powers_of_two():
    for n in range(1, 5):
        assert psi(2 ** (n + 2)) == lucas(2**n)


def reflected_psi(n):
    """phi_n as psi_n reflected through 2 - x: the large-index path and the oracle."""
    return factor_mod._monic(psi(n).compose(IntPoly((2, -1))))


def test_packed_phi_min_matches_the_reflected_psi():
    # 1293 has the largest phi (m = 430) that packs into the binary
    # Kronecker size; 863 (m = 431) is the first index that does not, and
    # 3570 the largest index whose phi packs.
    for n in [*range(3, 901), 863, 1293, 3570]:
        assert phi_min(n) == reflected_psi(n), n


def test_reference_route_builds_psi_only_above_the_packed_size():
    CACHE.clear()
    factor_zpread(1260)
    assert CACHE.table("psi") == {}
    for n, built in ((1293, set()), (3570, set()), (863, {863})):
        CACHE.clear()
        phi_min(n)
        assert set(CACHE.table("psi")) == built, n


@pytest.mark.parametrize("k,coeffs", PHI_POW2_TABLE.items())
def test_phi_pow2_golden(k, coeffs):
    assert phi_pow2(k) == IntPoly(coeffs)


def test_phi_pow2_recursion_and_reference():
    # The closed form 2 - Z_{2^(k-2)} against the squaring recursion from
    # phi_4 = x - 2, which x - 4 does not start.
    assert phi_pow2(2) == IntPoly((-2, 1))
    assert phi_pow2(2) != phi_pow2(1) * phi_pow2(1) - 2
    for k in range(3, 9):
        assert phi_pow2(k) == phi_pow2(k - 1) * phi_pow2(k - 1) - 2, k
    assert phi_pow2(5) == phi_min(32)


def test_phi_pow2_squares_to_four_minus_zpread():
    # The identity the even branch of phi_composed rests on, with the
    # reference route on the other side.
    for k in range(2, 13):
        assert phi_pow2(k) ** 2 == 4 - zpread(2 ** (k - 1)), k
        assert phi_pow2(k) == phi_min(2**k), k


def test_phi_pow2_square_substitution():
    for n in range(1, 6):
        assert phi_pow2(n + 1).stretch(2) == lucas(2**n)


def test_phi_odd_lucas_golden():
    assert phi_odd_lucas(1) == IntPoly((0, 1))
    assert phi_odd_lucas(3) == IntPoly((-3, 1))
    assert phi_odd_lucas(5) == IntPoly((5, -5, 1))
    assert phi_odd_lucas(9) == IntPoly((-3, 9, -6, 1))


def test_phi_odd_lucas_rejects_even():
    with pytest.raises(ValueError):
        phi_odd_lucas(6)


def test_phi_odd_lucas_caches_no_lucas():
    CACHE.clear()
    phi_odd_lucas(3465)
    assert CACHE.table("lucas") == {}


def test_phi_odd_lucas_builds_no_smaller_phi_at_a_prime_power():
    # 3^7 = 3 * 3^6 with 3 | 3^6, so phi_2187 is phi_729(Z_3), read from
    # the weights of cyclotomic(729): no other odd index is built.
    CACHE.clear()
    phi_odd_lucas(3**7)
    assert set(CACHE.table("phi_composed")) == {2187}
    assert 729 in CACHE.table("cyclotomic")


def test_composition_route_keeps_one_table():
    # phi_odd_lucas and phi_pow2 read phi_composed's table and keep none,
    # so no polynomial is held twice and the cache counts each once.
    CACHE.clear()
    run_verification(60)
    tables = CACHE._tables
    assert "phi_odd_lucas" not in tables and "phi_pow2" not in tables
    held: dict[int, list[str]] = {}
    for family, table in tables.items():
        for value in table.values():
            if isinstance(value, IntPoly) and value is not X:
                held.setdefault(id(value), []).append(family)
    assert all(len(families) == 1 for families in held.values()), held
    for m in range(1, 100, 2):
        assert phi_odd_lucas(m) is phi_composed(m), m
    for k in range(13):
        assert phi_pow2(k) is phi_composed(2**k), k


def test_phi_composed_golden():
    assert phi_composed(6) == IntPoly((-1, 1))
    assert phi_composed(8) == IntPoly((2, -4, 1))
    assert phi_composed(12) == IntPoly((1, -4, 1))


def test_phi_composed_matches_reference_where_both_branches_meet():
    # 9900 = 4*3^2*5^2*11 and 9990 = 2*3^3*5*37: an even index over an odd
    # part that is not squarefree, from an empty cache.
    for n in (9900, 9990):
        CACHE.clear()
        assert phi_composed(n) == phi_min(n), n


def test_planted_cyclotomic_fault_is_caught_by_the_composition_route():
    # Phi_15 with its middle coefficient raised by 1 stays palindromic, so
    # both routes fold it without complaint.  The reference route reads it
    # at 15, the composition route at 75 = 5*15 and 105 = 7*15, where the
    # wrong phi_15(Z_7) is no multiple of the right phi_15.
    bad = list(cyclotomic(15).coeffs)
    bad[4] += 1
    CACHE.clear()
    try:
        CACHE.store("cyclotomic", 15, IntPoly(bad))
        for n in (15, 75):
            with pytest.raises(RouteMismatchError):
                cross_check_phi(n)
        with pytest.raises(NotDivisibleError):
            cross_check_phi(105)
    finally:
        CACHE.clear()


def test_capital_phi_reference_route_is_phi_min_squared(monkeypatch):
    # The reference route reads Capital Phi_n from packed values, with no
    # product by the list kernel, exactly where phi_n has at most 213
    # coefficients up to the cap: each such n up to 1500, and 1680, the
    # largest.  431 (216 coefficients) and 1681 lie just past either end
    # and square phi_min(n) by the kernel.
    operands = record_products(monkeypatch)
    packed = [n for n in range(3, 1501) if totient(n) <= 424] + [1680]
    for n in [*packed, 431, 1681]:
        CACHE.clear()
        operands.clear()
        p = phi_min(n)
        assert capital_phi(n, PhiRoute.MINIMAL_POLY) == mul_schoolbook(p, p), n
        assert (operands == []) == (n in packed), n
    CACHE.clear()


def test_capital_phi_golden():
    assert capital_phi(1) == IntPoly((0, 1))
    assert capital_phi(2) == IntPoly((4, -1))
    assert capital_phi(4) == IntPoly((4, -4, 1))
    assert capital_phi(6) == IntPoly((1, -2, 1))


def test_capital_phi_route_must_be_total():
    assert capital_phi(12, PhiRoute.COMPOSITION) == capital_phi(12)
    with pytest.raises(ValueError):
        capital_phi(12, PhiRoute.ODD_LUCAS)


def test_capital_phi_at_a_prime_is_zpread_over_x():
    # The composition route reads Z_p / x; the reference route squares
    # phi_min(p).  At 9973 the fast route's own phi_p, the reversed Lucas
    # weights of L_p, stands in for the reference's 7 s psi_9973.  The
    # cache is cleared per prime: all of them together hold about 300 MB.
    for p in range(3, 2000, 2):
        if divisors(p) == [1, p]:
            CACHE.clear()
            assert capital_phi(p, PhiRoute.COMPOSITION) == capital_phi(p), p
    CACHE.clear()
    assert capital_phi(9973, PhiRoute.COMPOSITION) == phi_composed(9973) ** 2
    CACHE.clear()


def test_cross_check_examples():
    assert cross_check_phi(9) == IntPoly((-3, 9, -6, 1))
    assert set(factor_mod.applicable_routes(9)) == {PhiRoute.MINIMAL_POLY, PhiRoute.ODD_LUCAS}

    assert cross_check_phi(16) == IntPoly((2, -16, 20, -8, 1))
    assert set(factor_mod.applicable_routes(16)) == {PhiRoute.MINIMAL_POLY, PhiRoute.POWER_OF_TWO}

    assert cross_check_phi(24) == phi_min(24)
    assert set(factor_mod.applicable_routes(24)) == {PhiRoute.MINIMAL_POLY, PhiRoute.COMPOSITION}


def test_phi_odd_lucas_matches_reference_above_the_sweep_cap():
    # Prime powers 3^6, 3^7 and 3^8, the squarefree 3*5*7*11 and 3*3331,
    # and the mixed 3^2*5^3, 3*5^5 and 5^3*7*11 (the slowest index of the
    # route up to the cap), each built from an empty cache so every index
    # the route reaches goes through it.
    for m in (729, 1125, 1155, 2187, 3465, 6561, 9375, 9625, 9993):
        CACHE.clear()
        assert phi_odd_lucas(m) == phi_min(m), m


def test_cross_check_sweep_small():
    for n in range(1, 601):
        cross_check_phi(n)


def test_corrupted_phi_reports_mismatch():
    # The candidate is labelled with the route that built it.
    for n, label in ((1, "odd_lucas"), (9, "odd_lucas"), (16, "power_of_two"), (24, "composition")):
        with factor_mod.corrupted_phi(n):
            with pytest.raises(RouteMismatchError) as excinfo:
                cross_check_phi(n)
            err = excinfo.value
            assert err.n == n
            assert (err.route_a, err.route_b.value) == (PhiRoute.MINIMAL_POLY, label)
            assert err.poly_a == phi_min(n) + 1
            assert err.poly_b == phi_min(n)
            assert str(err).startswith(f"routes disagree at n={n}: minimal_poly gave ")
            assert f", {label} gave " in str(err)
        # the hook restores the original route
        cross_check_phi(n)


def test_factor_zpread_examples():
    one = factor_zpread(1)
    assert [(f.d, f.poly) for f in one.factors] == [(1, IntPoly((0, 1)))]
    assert one.product == IntPoly((0, 1))

    two = factor_zpread(2)
    assert [(f.d, f.poly) for f in two.factors] == [
        (1, IntPoly((0, 1))),
        (2, IntPoly((4, -1))),
    ]
    assert two.product == IntPoly((0, 4, -1))

    six = factor_zpread(6)
    assert [f.d for f in six.factors] == [1, 2, 3, 6]
    assert [f.poly.degree() for f in six.factors] == [1, 1, 2, 2]
    assert six.product == zpread(6)


def test_factor_zpread_fast_route_matches():
    # record.product is zpread(n) itself, so the factors are multiplied here.
    for n in (6, 12, 20, 36):
        record = factor_zpread(n, PhiRoute.COMPOSITION)
        assert product(f.poly**f.multiplicity for f in record.factors) == zpread(n)


def test_factor_zpread_keeps_the_cached_target():
    # The verified product is the cached zpread(n) itself, not a second copy.
    assert factor_zpread(60).product is zpread(60)


def test_factor_zpread_degree_sum():
    for n in range(1, 60):
        record = factor_zpread(n)
        assert sum(f.poly.degree() * f.multiplicity for f in record.factors) == n


def test_factor_lucas_minus2_examples():
    one = factor_lucas_minus2(1)
    assert [(f.d, f.multiplicity, f.poly) for f in one.factors] == [
        (1, 1, IntPoly((-2, 1)))
    ]

    two = factor_lucas_minus2(2)
    assert two.product == IntPoly((-4, 0, 1))

    four = factor_lucas_minus2(4)
    assert [(f.d, f.multiplicity) for f in four.factors] == [(1, 1), (2, 1), (4, 2)]
    assert four.product == IntPoly((0, 0, -4, 0, 1))
    assert four.product == lucas(4) - 2


def test_factor_lucas_minus2_odd_index_skips_two():
    record = factor_lucas_minus2(9)
    assert [f.d for f in record.factors] == [1, 3, 9]
    assert record.product == lucas(9) - 2


def test_factorization_record_rendering():
    record = factor_zpread(2)
    payload = record.to_record()
    assert payload["kind"] == "factorization"
    assert payload["target"] == "zpread"
    assert payload["n"] == 2
    assert payload["factors"] == [
        {"d": 1, "multiplicity": 1, "coefficients": ["0", "1"]},
        {"d": 2, "multiplicity": 1, "coefficients": ["4", "-1"]},
    ]


@pytest.mark.parametrize("n", [1, 2, 12, 997, 1260])
def test_record_pieces_lay_out_to_record(n):
    # The pieces with each IntPoly as its coefficient strings, closed by
    # "}", are the compact JSON of to_record on both targets and routes.
    records = [factor_zpread(n, route) for route in (PhiRoute.MINIMAL_POLY, PhiRoute.COMPOSITION)]
    for record in (*records, factor_lucas_minus2(n)):
        pieces = list(record.record_pieces())
        assert [p for p in pieces if isinstance(p, IntPoly)] == [f.poly for f in record.factors]
        text = "".join(p if isinstance(p, str) else json.dumps(p.coefficient_strings()) for p in pieces)
        assert text.endswith("]") and json.loads(text + "}") == record.to_record(), record.target_kind


def test_factor_zpread_detects_product_mismatch(monkeypatch):
    # Both targets' values at 5 and -3 come from lucas_value; one unit off
    # must fail the check.
    real = factor_mod.lucas_value
    monkeypatch.setattr(factor_mod, "lucas_value", lambda n, y: real(n, y) + 1)
    for build in (factor_zpread, factor_lucas_minus2):
        with pytest.raises(VerificationFailureError, match=f"{MISMATCH}3:"):
            build(3)


def test_factor_builds_no_target():
    # The check reads integer values of L_n; the target polynomial is built
    # only when record.product is asked for.
    for route in (PhiRoute.MINIMAL_POLY, PhiRoute.COMPOSITION):
        CACHE.clear()
        record = factor_zpread(1260, route)
        assert 1260 not in CACHE.table("zpread"), route
    CACHE.clear()
    factor_lucas_minus2(1260)
    assert 1260 not in CACHE.table("lucas")
    assert record.product is zpread(1260)
    CACHE.clear()


def test_product_check_points_are_no_roots():
    # factor compares values at 5 and -3; a factor that vanished there would
    # make both sides 0 whatever the other factors are.  3 and -1 would not
    # do: Phi_3 = (x - 3)^2 and psi_3 = x + 1.
    for d in range(1, 401):
        for poly in (
            capital_phi(d, PhiRoute.MINIMAL_POLY),
            capital_phi(d, PhiRoute.COMPOSITION),
            psi(d),
        ):
            assert poly(5) != 0 and poly(-3) != 0, d
    assert capital_phi(3)(3) == 0 and psi(3)(-1) == 0


MISMATCH = "factor product mismatch at n="


def _raise_one_coefficient(monkeypatch, builder, d, k, delta):
    """Patch factor_mod.<builder> to move coefficient k of its factor at d by delta."""
    real = getattr(factor_mod, builder)

    def wrong_at_d(m, *route):
        poly = real(m, *route)
        if m != d:
            return poly
        coeffs = list(poly.coeffs)
        coeffs[k] += delta
        return IntPoly(coeffs)

    monkeypatch.setattr(factor_mod, builder, wrong_at_d)


@pytest.mark.parametrize(
    "builder,build",
    [
        pytest.param("capital_phi", factor_zpread, id="zpread min"),
        pytest.param(
            "capital_phi", lambda n: factor_zpread(n, PhiRoute.COMPOSITION), id="zpread fast"
        ),
        pytest.param("psi", factor_lucas_minus2, id="lucas"),
    ],
)
def test_product_check_catches_one_wrong_coefficient(monkeypatch, builder, build):
    rng = random.Random(5)
    for n in range(1, 121):
        d = rng.choice(divisors(n))
        k = rng.randrange(getattr(factor_mod, builder)(d).degree() + 1)
        delta = rng.choice((1, -1))
        with monkeypatch.context() as m:
            _raise_one_coefficient(m, builder, d, k, delta)
            with pytest.raises(VerificationFailureError, match=f"{MISMATCH}{n}:"):
                build(n)


def test_product_check_catches_one_wrong_coefficient_at_the_cap(monkeypatch):
    try:
        for builder, build in (("capital_phi", factor_zpread), ("psi", factor_lucas_minus2)):
            for k, delta in ((0, 1), (1, -1)):
                with monkeypatch.context() as m:
                    _raise_one_coefficient(m, builder, 12, k, delta)
                    with pytest.raises(VerificationFailureError, match=MISMATCH + "9240:"):
                        build(9240)
            assert build(9240).n == 9240
    finally:
        CACHE.clear()


def record_products(monkeypatch):
    """The operand pairs of every list-kernel product from here on."""
    real = intpoly_mod._mul
    operands = []

    def record(a, b):
        operands.append((a, b))
        return real(a, b)

    monkeypatch.setattr(intpoly_mod, "_mul", record)
    return operands


def test_factor_multiplies_no_factors(monkeypatch):
    # No two factors are ever multiplied together.  At 1260 the reference
    # route squares every Capital Phi_d from its packed Clenshaw value, with
    # no product by the list kernel; every product of the composition route
    # squares one phi_d.
    operands = record_products(monkeypatch)
    CACHE.clear()
    assert factor_zpread(1260, PhiRoute.MINIMAL_POLY).product is zpread(1260)
    assert operands == []
    CACHE.clear()
    assert factor_zpread(1260, PhiRoute.COMPOSITION).product is zpread(1260)
    assert operands and all(a is b for a, b in operands)
    CACHE.clear()
    operands.clear()
    factor_lucas_minus2(1260)
    assert operands == []


def test_float_root_check_examples():
    assert float_root_check(5, 1e-9).roots_checked == 2
    twelve = float_root_check(12, 1e-9)
    assert twelve.roots_checked == totient(12) // 2 == 2
    fifty = float_root_check(50, 1e-6)
    assert fifty.roots_checked == totient(50) // 2
    assert fifty.max_residual <= fifty.bound


def test_float_root_check_scales_with_each_root():
    # A bound of tol * (1 + sum |c_k|), blind to x^k, refused the correct
    # phi_53 at k = 21 (residual 1.248e+02 against 1.192e+02).
    for n in (53, 500, 1500):
        result = float_root_check(n, 1e-9)
        assert result.roots_checked == totient(n) // 2
        assert result.max_residual <= result.bound


def test_float_root_check_refuses_float_overflow(monkeypatch):
    # phi_2003 has coefficients past the largest float.
    with pytest.raises(OutOfBoundsError, match=r"^phi_2003 is beyond float range at its roots$"):
        float_root_check(2003, 1e-9)
    # 10^308 * x is finite at the root 4 sin^2(pi/7) = 0.75, but its
    # sum |c_k| 4^k = 4 * 10^308 is past float range.
    monkeypatch.setattr(factor_mod, "phi_min", lambda n: IntPoly((0, 10**308)))
    with pytest.raises(OutOfBoundsError, match=r"^phi_7 is beyond float range at its roots$"):
        float_root_check(7, 1.0)


def test_float_root_check_refuses_before_any_root(monkeypatch):
    # sum |c_k| 4^k bounds every Horner sum at a root below 4, so an index
    # is refused before the first evaluation or not at all; 809 is the first.
    assert float_root_check(808, 1e-9).roots_checked == totient(808) // 2
    sin, evaluated, refused = math.sin, [], []
    monkeypatch.setattr(math, "sin", lambda t: evaluated.append(t) or sin(t))
    for n in range(790, 840):
        evaluated.clear()
        try:
            float_root_check(n, 1e-9)
        except OutOfBoundsError as exc:
            assert str(exc) == f"phi_{n} is beyond float range at its roots"
            assert evaluated == [], n
            refused.append(n)
    assert refused == [809, 811, 821, 823, 827, 829, 839]
    # tol * M past float range is refused too, where M itself is finite.
    with pytest.raises(OutOfBoundsError, match=r"^phi_5 is beyond float range at its roots$"):
        float_root_check(5, 1e308)


def test_float_root_check_guard():
    with pytest.raises(ValueError):
        float_root_check(2, 1e-9)
    with pytest.raises(ValueError):
        float_root_check(5, 0.0)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            float_root_check(5, tol)
    with pytest.raises(ToleranceExceededError) as excinfo:
        float_root_check(7, 1e-300)
    assert excinfo.value.n == 7
    assert excinfo.value.residual > excinfo.value.bound


def test_preconditions():
    for fn in (psi, phi_min, phi_composed, capital_phi, cross_check_phi, factor_zpread):
        with pytest.raises(ValueError):
            fn(0)
    with pytest.raises(ValueError):
        phi_pow2(-1)
