"""Verification report machinery at small sweeps."""

import pytest

import spreadpoly.factor as factor_mod
import spreadpoly.fib as fib_mod
import spreadpoly.intpoly as intpoly_mod
from spreadpoly import run_suite, run_verification
from spreadpoly.verify import SUITES


def test_small_sweep_all_pass():
    report = run_verification(sweep=12, instances=25)
    assert report.passed
    assert len(report.suites) >= 12
    for suite in report.suites:
        assert suite.failures == 0
        assert suite.first_failure is None
    assert "passed" in report.to_text()


def test_degenerate_sweep_passes():
    report = run_verification(sweep=1, instances=5)
    assert report.passed


def test_suite_subset_selection():
    report = run_verification(
        sweep=10, instances=5, names=("zpread-two-routes", "phi-route-agreement")
    )
    assert [s.name for s in report.suites] == [
        "zpread-two-routes",
        "phi-route-agreement",
    ]
    assert report.passed


def test_corrupted_route_is_caught_and_reported():
    with factor_mod.corrupted_phi(9):
        result = run_suite("phi-route-agreement", sweep=20)
    assert not result.passed
    assert result.failures == 1
    assert "n=9" in result.first_failure
    assert "routes disagree" in result.first_failure


def test_mul_path_equivalence_catches_a_kronecker_fault(monkeypatch):
    real = intpoly_mod._mul_kronecker

    def off_by_one(a, b):
        out = real(a, b)
        out[0] += 1
        return out

    monkeypatch.setattr(intpoly_mod, "_mul_kronecker", off_by_one)
    result = run_suite("mul-path-equivalence", instances=200)
    assert not result.passed
    assert result.first_failure.startswith("instance=")


def test_primitive_parts_are_checked_against_the_minimal_polynomial(monkeypatch):
    # The parts still multiply to F_12; only the reference |phi_12(5)| moves.
    real = fib_mod.phi_min
    monkeypatch.setattr(fib_mod, "phi_min", lambda d: real(d) + 1 if d == 12 else real(d))
    result = run_suite("fibonacci-primitive-parts", sweep=20)
    assert (result.failures, result.first_failure) == (1, "n=12")


def test_suite_results_are_deterministic():
    first = run_suite("ring-axioms", instances=40)
    second = run_suite("ring-axioms", instances=40)
    assert first.to_record() == second.to_record()


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
    report = run_verification(sweep=6, instances=5)
    assert [s.name for s in report.suites] == [name for name, _ in SUITES]


def test_bad_parameters():
    with pytest.raises(ValueError):
        run_verification(sweep=0)
    with pytest.raises(ValueError):
        run_verification(tolerance=0.0)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            run_verification(tolerance=tol)
    with pytest.raises(KeyError):
        run_suite("no-such-suite")
