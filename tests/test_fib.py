"""Fibonacci primitive parts and the value of the zpread family at 5."""

import pytest

import spreadpoly.fib as fib_mod
from spreadpoly.intpoly import int_from_digits
from spreadpoly import (
    CACHE,
    IdentityFailureError,
    InternalInconsistencyError,
    VerificationFailureError,
    fib_factorization,
    fibonacci,
    phi_min,
    primitive_part,
    totient,
    zpread,
    zpread_at5_identity,
)

# Published signed values of the reflected minimal polynomials at 5.  For
# n >= 3 the tabulated quantity is psi_n(2 - 5), which is the monic
# phi_n(5) times (-1)^(totient(n)/2); the monic value itself is positive
# for every n >= 2 because all roots lie below 4.
SIGNED_VALUES_AT_5 = {
    1: 5,
    2: 1,
    3: -2,
    4: -3,
    5: 5,
    6: -4,
    7: -13,
    8: 7,
    9: -17,
    10: 11,
    11: -89,
    12: 6,
    13: 233,
    14: -29,
    15: 61,
    16: 47,
}


def test_primitive_part_examples():
    assert primitive_part(1) == 1
    assert primitive_part(11) == 89
    assert primitive_part(12) == 6
    with pytest.raises(ValueError):
        primitive_part(0)


def test_signed_value_table():
    for n, printed in SIGNED_VALUES_AT_5.items():
        value = phi_min(n)(5)
        if n >= 3 and (totient(n) // 2) % 2:
            assert -value == printed
        else:
            assert value == printed
        if n >= 2:
            assert value > 0
            assert primitive_part(n) == abs(printed)
    assert primitive_part(1) == 1


def test_fib_factorization_examples():
    six = fib_factorization(6)
    assert six.parts == ((1, 1), (2, 1), (3, 2), (6, 4))
    assert six.reconstructed == 8

    eight = fib_factorization(8)
    assert eight.parts == ((1, 1), (2, 1), (4, 3), (8, 7))
    assert eight.reconstructed == 21

    nine = fib_factorization(9)
    assert nine.parts == ((1, 1), (3, 2), (9, 17))
    assert nine.reconstructed == 34

    twelve = fib_factorization(12)
    assert [p for _, p in twelve.parts] == [1, 1, 2, 3, 4, 6]
    assert twelve.reconstructed == 144

    assert fib_factorization(30).reconstructed == 832040


def test_fib_factorization_sweep():
    for n in range(1, 101):
        assert fib_factorization(n).reconstructed == fibonacci(n)


def test_fib_divisibility_consequence():
    for n in range(1, 101):
        fn = fibonacci(n)
        for d in range(1, n + 1):
            if n % d == 0:
                assert fn % fibonacci(d) == 0


def test_zpread_at5_examples():
    assert zpread_at5_identity(1)
    assert zpread(5)(5) == 125
    assert zpread(10)(5) == -15125
    for n in range(1, 101):
        assert zpread_at5_identity(n)


def test_table_rendering():
    table = fib_factorization(8)
    payload = table.to_record()
    assert payload["kind"] == "primitive_parts"
    assert payload["parts"] == [
        {"d": 1, "p": "1"},
        {"d": 2, "p": "1"},
        {"d": 4, "p": "3"},
        {"d": 8, "p": "7"},
    ]
    assert payload["reconstructed"] == "21"
    assert "F[8] = 21" in table.to_text()


def test_identity_failure_carries_both_sides(monkeypatch):
    monkeypatch.setattr(fib_mod, "fibonacci", lambda n: 999)
    with pytest.raises(IdentityFailureError) as excinfo:
        fib_mod.zpread_at5_identity(3)
    assert excinfo.value.left == zpread(3)(5)
    assert excinfo.value.right == 5 * 999 * 999


def test_identity_failure_past_the_digit_limit(monkeypatch):
    # Both sides at n = 11000 have about 4600 digits, past CPython's default
    # 4300-digit conversion limit, so str() of either would raise ValueError.
    real = fib_mod.fibonacci
    monkeypatch.setattr(fib_mod, "fibonacci", lambda n: real(n) + 1)
    with pytest.raises(IdentityFailureError) as excinfo:
        fib_mod.zpread_at5_identity(11000)
    left, right = str(excinfo.value).split(": ")[1].split(" != ")
    assert int_from_digits(left) == excinfo.value.left == zpread(11000)(5)
    assert int_from_digits(right) == excinfo.value.right == -5 * (real(11000) + 1) ** 2


def test_verification_failure_on_bad_parts(monkeypatch):
    # Parts from a Moebius list cut to its first entry are F_d, which divide
    # exactly but multiply to F_1 * F_2 * F_3 * F_6 = 16, not F_6 = 8.
    monkeypatch.setattr(fib_mod, "_mobius", lambda n: [(1, 1)])
    with pytest.raises(VerificationFailureError):
        fib_mod.fib_factorization(6)


def test_primitive_part_matches_minimal_polynomial_oracle():
    # The oracle builds the whole minimal polynomial, which primitive_part skips.
    for d in [*range(1, 601), 2003, 2520, 4001, 9240, 9984, 10000]:
        expected = 1 if d == 1 else abs(phi_min(d)(5))
        assert primitive_part(d) == expected, d


def test_fib_builds_no_polynomial():
    CACHE.clear()
    assert fib_factorization(840).reconstructed == fibonacci(840)
    assert CACHE.table("psi") == {}
    assert CACHE.table("phi_min") == {}
    assert CACHE.table("cyclotomic") == {}


def test_primitive_part_refuses_an_inexact_quotient(monkeypatch):
    # F_12 moved by one no longer divides by F_6 * F_4 = 24.
    real = fib_mod.fibonacci
    monkeypatch.setattr(fib_mod, "fibonacci", lambda n: real(n) + 1 if n == 12 else real(n))
    with pytest.raises(InternalInconsistencyError, match="for 12 is inexact"):
        fib_mod.primitive_part(12)
