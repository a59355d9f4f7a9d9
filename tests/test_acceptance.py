"""Acceptance gate: every criterion at its stated bound and tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in captured
output) and then asserts, so a red test always names its counterexamples.
All equality checks are exact integer comparisons; the only tolerance is
the float root-residual bound of criterion 6.
"""

from time import perf_counter

from spreadpoly import (
    IntPoly,
    cross_check_phi,
    factor_zpread,
    fib_factorization,
    fibonacci,
    float_root_check,
    lucas,
    monic_zpread,
    phi_min,
    phi_pow2,
    psi,
    cyclotomic,
    run_suite,
    totient,
    zpread,
    zpread_at5_identity,
)
from spreadpoly.intpoly import product

LUCAS = {
    0: (2,),
    1: (0, 1),
    2: (-2, 0, 1),
    3: (0, -3, 0, 1),
    4: (2, 0, -4, 0, 1),
    5: (0, 5, 0, -5, 0, 1),
    6: (-2, 0, 9, 0, -6, 0, 1),
}

ZPREAD = {
    1: (0, 1),
    2: (0, 4, -1),
    3: (0, 9, -6, 1),
    4: (0, 16, -20, 8, -1),
    5: (0, 25, -50, 35, -10, 1),
}

MONIC_ZPREAD = {
    1: (0, 1),
    2: (0, -4, 1),
    3: (0, 9, -6, 1),
    4: (0, -16, 20, -8, 1),
    5: (0, 25, -50, 35, -10, 1),
}

PSI = {
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

CYCLOTOMIC = {
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
}

PHI = {
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

# Indexed by the exponent k for index 2^k; the published table's column
# labels are shifted by one, so entries are pinned to the recursion bases
# x, x-4, x-2 and verified against the reference route.
PHI_POW2 = {
    0: (0, 1),
    1: (-4, 1),
    2: (-2, 1),
    3: (2, -4, 1),
    4: (2, -16, 20, -8, 1),
}

# Published signed values at 5; for n >= 3 the tabulated number is
# psi_n(2-5) = (-1)^(totient(n)/2) * phi_n(5).
PHI_AT_5 = {
    1: 5, 2: 1, 3: -2, 4: -3, 5: 5, 6: -4, 7: -13, 8: 7,
    9: -17, 10: 11, 11: -89, 12: 6, 13: 233, 14: -29, 15: 61, 16: 47,
}

FIB_PARTS = {
    1: (1,),
    2: (1, 1),
    3: (1, 2),
    4: (1, 1, 3),
    5: (1, 5),
    6: (1, 1, 2, 4),
    7: (1, 13),
    8: (1, 1, 3, 7),
    9: (1, 2, 17),
}

FIB_VALUES = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]

IDENTITY_SUITES = (
    "lucas-index-product",
    "lucas-double-minus-two",
    "lucas-double-plus-two",
    "lucas-difference-square-odd",
    "lucas-difference-square-even",
    "zpread-square-substitution",
    "zpread-index-product",
    "zpread-rational-points",
    "psi-at-powers-of-two",
    "phi-pow2-square-substitution",
    "zpread-capital-phi-commutation",
    "capital-phi-reflection",
    "cyclotomic-completeness",
)

KERNEL_SUITES = (
    "ring-axioms",
    "division-round-trip",
    "fold-round-trip",
    "mul-path-equivalence",
)


def _report(index: int, name: str, failures: list[str], started: float) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {index} {name}: {status} ({perf_counter() - started:.2f}s)")
    assert not failures, failures[:5]


def test_criterion_1_golden_tables():
    started = perf_counter()
    failures = []
    for n, coeffs in LUCAS.items():
        if lucas(n) != IntPoly(coeffs):
            failures.append(f"lucas({n})")
    for n, coeffs in ZPREAD.items():
        if zpread(n) != IntPoly(coeffs):
            failures.append(f"zpread({n})")
    for n, coeffs in MONIC_ZPREAD.items():
        if monic_zpread(n) != IntPoly(coeffs):
            failures.append(f"monic_zpread({n})")
    for n, coeffs in PSI.items():
        if psi(n) != IntPoly(coeffs):
            failures.append(f"psi({n})")
    for n, coeffs in CYCLOTOMIC.items():
        if cyclotomic(n) != IntPoly(coeffs):
            failures.append(f"cyclotomic({n})")
    for n, coeffs in PHI.items():
        if phi_min(n) != IntPoly(coeffs):
            failures.append(f"phi({n})")
    for k, coeffs in PHI_POW2.items():
        if phi_pow2(k) != IntPoly(coeffs):
            failures.append(f"phi_pow2({k})")
    if phi_pow2(5) != phi_min(32):
        failures.append("phi_pow2(5) vs reference route")
    for n, printed in PHI_AT_5.items():
        value = phi_min(n)(5)
        expected = -printed if n >= 3 and (totient(n) // 2) % 2 else printed
        if value != expected:
            failures.append(f"phi_{n}(5)={value}, table {printed}")
    for n, parts in FIB_PARTS.items():
        table = fib_factorization(n)
        if tuple(p for _, p in table.parts) != parts:
            failures.append(f"fib parts({n})")
        if table.reconstructed != FIB_VALUES[n]:
            failures.append(f"fib product({n})")
    _report(1, "golden tables", failures, started)


def test_criterion_2_zpread_factorization_sweep():
    started = perf_counter()
    failures = []
    for n in range(1, 301):
        record = factor_zpread(n)
        # record.product is zpread(n) itself, so the factors are multiplied here.
        if product(f.poly**f.multiplicity for f in record.factors) != zpread(n):
            failures.append(f"product n={n}")
        if sum(f.poly.degree() * f.multiplicity for f in record.factors) != n:
            failures.append(f"degree sum n={n}")
    _report(2, "factorization sweep to 300", failures, started)


def test_criterion_3_route_equivalence_sweep():
    started = perf_counter()
    failures = []
    for n in range(1, 301):
        try:
            cross_check_phi(n)
        except Exception as exc:  # a mismatch anywhere must be reported, not raised
            failures.append(f"n={n}: {exc}")
    _report(3, "route equivalence to 300", failures, started)


def test_criterion_4_identity_suites():
    started = perf_counter()
    results = [run_suite(name, sweep=200) for name in IDENTITY_SUITES]
    failures = [f"{s.name}: {s.first_failure}" for s in results if not s.passed]
    _report(4, "identity suites at stated bounds", failures, started)


def test_criterion_5_fibonacci_application():
    started = perf_counter()
    failures = []
    for n in range(1, 201):
        table = fib_factorization(n)
        if table.reconstructed != fibonacci(n):
            failures.append(f"parts n={n}")
        if not zpread_at5_identity(n):
            failures.append(f"value at 5, n={n}")
        for d in range(1, n + 1):
            if n % d == 0 and fibonacci(n) % fibonacci(d) != 0:
                failures.append(f"divisibility d={d}, n={n}")
    _report(5, "Fibonacci primitive parts to 200", failures, started)


def test_criterion_6_float_root_check():
    started = perf_counter()
    failures = []
    for n in range(3, 51):
        try:
            result = float_root_check(n, 1e-6)
            if result.roots_checked != totient(n) // 2:
                failures.append(f"root count n={n}")
        except Exception as exc:
            failures.append(f"n={n}: {exc}")
    _report(6, "float root residuals 3..50 at 1e-6", failures, started)


def test_criterion_7_kernel_properties():
    started = perf_counter()
    failures = []
    for name in KERNEL_SUITES:
        result = run_suite(name)
        if not result.passed:
            failures.append(f"{name}: {result.first_failure}")
        elif result.checks < 1000:
            failures.append(f"{name}: only {result.checks} instances")
    _report(7, "kernel properties, 1000 instances each", failures, started)
