"""Factor engine tests: minimal polynomials, routes, verified factorizations."""

import tracemalloc

import pytest

import spreadpoly.factor as factor_mod
from spreadpoly import (
    IntPoly,
    PhiRoute,
    RouteMismatchError,
    ToleranceExceededError,
    VerificationFailureError,
    capital_phi,
    cross_check_phi,
    cyclotomic,
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
    totient,
    zpread,
)
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


@pytest.mark.parametrize("k,coeffs", PHI_POW2_TABLE.items())
def test_phi_pow2_golden(k, coeffs):
    assert phi_pow2(k) == IntPoly(coeffs)


def test_phi_pow2_recursion_and_reference():
    assert phi_pow2(5) == phi_pow2(4) * phi_pow2(4) - 2
    assert phi_pow2(5) == phi_min(32)
    # the base case does not satisfy the recursion, it is pinned
    assert phi_pow2(2) != phi_pow2(1) * phi_pow2(1) - 2


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


def test_unstretch_guard():
    from spreadpoly.errors import OddTermPresentError

    assert factor_mod._unstretch2(IntPoly((1, 0, -3, 0, 1)), 5) == IntPoly((1, -3, 1))
    with pytest.raises(OddTermPresentError):
        factor_mod._unstretch2(IntPoly((1, 2, 3)), 5)


def test_phi_composed_golden():
    assert phi_composed(6) == IntPoly((-1, 1))
    assert phi_composed(8) == IntPoly((2, -4, 1))
    assert phi_composed(12) == IntPoly((1, -4, 1))


def test_capital_phi_golden():
    assert capital_phi(1) == IntPoly((0, 1))
    assert capital_phi(2) == IntPoly((4, -1))
    assert capital_phi(4) == IntPoly((4, -4, 1))
    assert capital_phi(6) == IntPoly((1, -2, 1))


def test_capital_phi_route_must_be_total():
    assert capital_phi(12, PhiRoute.COMPOSITION) == capital_phi(12)
    with pytest.raises(ValueError):
        capital_phi(12, PhiRoute.ODD_LUCAS)


def test_cross_check_examples():
    nine = cross_check_phi(9)
    assert nine.poly == IntPoly((-3, 9, -6, 1))
    assert set(nine.routes) == {PhiRoute.MINIMAL_POLY, PhiRoute.ODD_LUCAS}

    sixteen = cross_check_phi(16)
    assert sixteen.poly == IntPoly((2, -16, 20, -8, 1))
    assert set(sixteen.routes) == {PhiRoute.MINIMAL_POLY, PhiRoute.POWER_OF_TWO}

    twentyfour = cross_check_phi(24)
    assert set(twentyfour.routes) == {PhiRoute.MINIMAL_POLY, PhiRoute.COMPOSITION}
    assert twentyfour.poly == phi_min(24)


def test_cross_check_sweep_small():
    for n in range(1, 80):
        cross_check_phi(n)


def test_corrupted_phi_reports_mismatch():
    with factor_mod.corrupted_phi(9):
        with pytest.raises(RouteMismatchError) as excinfo:
            cross_check_phi(9)
        err = excinfo.value
        assert err.n == 9
        assert err.poly_a == phi_min(9) + 1
        assert err.poly_b == phi_min(9)
        assert "9" in str(err)
    # the hook restores the original route
    cross_check_phi(9)


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
    for n in (6, 12, 20, 36):
        assert factor_zpread(n, PhiRoute.COMPOSITION).product == zpread(n)


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


def test_factor_zpread_detects_product_mismatch(monkeypatch):
    monkeypatch.setattr(factor_mod, "zpread", lambda n: IntPoly((1, 1)))
    with pytest.raises(VerificationFailureError):
        factor_mod.factor_zpread(3)


def test_float_root_check_examples():
    assert float_root_check(5, 1e-9).roots_checked == 2
    twelve = float_root_check(12, 1e-9)
    assert twelve.roots_checked == totient(12) // 2 == 2
    fifty = float_root_check(50, 1e-6)
    assert fifty.roots_checked == totient(50) // 2
    assert fifty.max_residual <= fifty.bound


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
