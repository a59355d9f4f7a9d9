"""Verification report machinery at small sweeps."""

import pytest

import spreadpoly.factor as factor_mod
import spreadpoly.fib as fib_mod
import spreadpoly.intpoly as intpoly_mod
import spreadpoly.verify as verify_mod
from spreadpoly import IntPoly, run_suite, run_verification, zpread_via_lucas
from spreadpoly.errors import OutOfBoundsError
from spreadpoly.verify import SUITES


def test_small_sweep_all_pass():
    report = run_verification(sweep=12)
    assert report.passed
    assert len(report.suites) >= 12
    for suite in report.suites:
        assert suite.failures == 0
        assert suite.first_failure is None
    assert "passed" in report.to_text()


def test_degenerate_sweep_passes():
    report = run_verification(sweep=1)
    assert report.passed


def test_corrupted_route_is_caught_and_reported():
    with factor_mod.corrupted_phi(9):
        result = run_suite("phi-route-agreement", sweep=20)
    assert not result.passed
    assert result.failures == 1
    assert "n=9" in result.first_failure
    assert "routes disagree" in result.first_failure


def test_integer_root_of_phi_is_caught(monkeypatch):
    real = factor_mod.phi_min
    with_root = real(7) * IntPoly((-1, 1))  # phi_7 * (x - 1) has the root 1
    monkeypatch.setattr(factor_mod, "phi_min", lambda n: with_root if n == 7 else real(n))
    result = run_suite("phi-no-integer-linear-factor", sweep=30)
    assert (result.passed, result.checks, result.first_failure) == (False, 2, "n=7")


def test_float_roots_suite_catches_a_wrong_phi(monkeypatch):
    real = factor_mod.phi_min
    monkeypatch.setattr(factor_mod, "phi_min", lambda n: real(n) + 1 if n == 7 else real(n))
    result = run_suite("phi-float-roots", sweep=30)
    assert (result.passed, result.checks) == (False, 5)
    assert result.first_failure.startswith("residual at root k=1 of index n=7 is 1.000e+00")


def test_mul_path_equivalence_catches_a_kronecker_fault(monkeypatch):
    real = intpoly_mod._mul_kronecker

    def off_by_one(a, b):
        out = real(a, b)
        out[0] += 1
        return out

    monkeypatch.setattr(intpoly_mod, "_mul_kronecker", off_by_one)
    result = run_suite("mul-path-equivalence")
    assert not result.passed
    assert result.first_failure.startswith("instance=")


def test_mul_path_equivalence_reaches_both_kernel_paths(monkeypatch):
    # The suite's degrees are fixed, so a schoolbook threshold raised past
    # them would leave the Kronecker path unchecked; this fails instead.
    real = intpoly_mod._mul
    shorter = []

    def record(a, b):
        shorter.append(min(len(a), len(b)))
        return real(a, b)

    monkeypatch.setattr(intpoly_mod, "_mul", record)
    assert run_suite("mul-path-equivalence").passed
    threshold = intpoly_mod._MUL_THRESHOLD
    assert min(shorter) <= threshold < max(shorter)


def test_zpread_oracle_matches_the_lucas_reflection(monkeypatch):
    # The suite compares zpread(n) with 2 - W_n from the recurrence in 2 - x;
    # with 2 - L_n(2 - x) in place of zpread, every n up to 120 must pass.
    monkeypatch.setattr(verify_mod, "zpread", zpread_via_lucas)
    result = run_suite("zpread-two-routes", sweep=120)
    assert (result.passed, result.checks) == (True, 120)


def test_zpread_two_routes_catches_a_moved_coefficient(monkeypatch):
    real = verify_mod.zpread
    monkeypatch.setattr(verify_mod, "zpread", lambda n: real(n) + IntPoly.monomial(5) if n == 37 else real(n))
    result = run_suite("zpread-two-routes", sweep=50)
    assert (result.failures, result.checks, result.first_failure) == (1, 37, "n=37")


def test_primitive_parts_are_checked_against_the_minimal_polynomial(monkeypatch):
    # The parts still multiply to F_12; only the reference |phi_12(5)| moves.
    real = factor_mod.phi_min
    monkeypatch.setattr(factor_mod, "phi_min", lambda d: real(d) + 1 if d == 12 else real(d))
    result = run_suite("fibonacci-primitive-parts", sweep=20)
    assert (result.failures, result.first_failure) == (1, "n=12")


def test_primitive_parts_suite_catches_a_wrong_product(monkeypatch):
    # F_12 moves by 1; the exact Moebius quotient inside primitive_part
    # must report it at n = 12.
    real = fib_mod.fibonacci
    monkeypatch.setattr(fib_mod, "fibonacci", lambda n: real(n) + 1 if n == 12 else real(n))
    result = run_suite("fibonacci-primitive-parts", sweep=20)
    assert (result.failures, result.first_failure) == (
        1,
        "Moebius quotient of Fibonacci numbers for 12 is inexact",
    )


@pytest.mark.parametrize(
    "suite,builder",
    [("zpread-factorization", "capital_phi"), ("lucas-minus2-factorization", "psi")],
)
def test_factorization_suites_catch_a_wrong_factor(monkeypatch, suite, builder):
    # The factor at d = 12 gains 1; the product check inside the factor
    # engine must report it at n = 12, the first index with that divisor.
    real = getattr(factor_mod, builder)

    def wrong_at_12(d, *route):
        return real(d, *route) + 1 if d == 12 else real(d, *route)

    monkeypatch.setattr(factor_mod, builder, wrong_at_12)
    result = run_suite(suite, sweep=20)
    assert result.failures == 1
    assert "factor product mismatch at n=12" in result.first_failure


def test_suite_results_are_deterministic():
    first = run_suite("ring-axioms")
    second = run_suite("ring-axioms")
    assert first.to_record() == second.to_record()


def test_random_draws_cover_their_range(monkeypatch):
    # compose-associativity draws every coefficient from [-20, 20].  The
    # coefficients below each lead must reach both ends and nothing past
    # them, so a draw that drops an end of its range fails here.
    real = verify_mod._random_poly
    drawn = []

    def recording(rng, max_degree, coeff_bound):
        drawn.append(real(rng, max_degree, coeff_bound))
        return drawn[-1]

    monkeypatch.setattr(verify_mod, "_random_poly", recording)
    assert run_suite("compose-associativity").failures == 0
    assert len(drawn) == 3 * verify_mod._INSTANCES
    polys = [p for p in drawn if not p.is_zero()]
    assert all(p.degree() <= 4 for p in polys)
    assert {abs(p.leading_coefficient()) for p in polys} <= set(range(1, 21))
    lower = {c for p in polys for c in p.coeffs[:-1]}
    assert lower == set(range(-20, 21))


def test_record_shape_excludes_timing():
    result = run_suite("zpread-zero-at-origin", sweep=5)
    record = result.to_record()
    assert record == {
        "kind": "verify",
        "name": "zpread-zero-at-origin",
        "checks": 5,
        "failures": 0,
        "first_failure": None,
        "status": "pass",
    }


def test_every_registered_suite_runs():
    report = run_verification(sweep=6)
    assert [s.name for s in report.suites] == [name for name, _ in SUITES]


def test_bad_parameters():
    with pytest.raises(ValueError):
        run_verification(sweep=0)
    with pytest.raises(OutOfBoundsError):
        run_suite("no-such-suite")
