"""CLI behavior: rendering, record stability, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spreadpoly.factor as factor_mod
import spreadpoly.fib as fib_mod
from spreadpoly import ConfigurationError, IntPoly, X, spread, verify
from spreadpoly import sequences
from spreadpoly.cli import MAX_SWEEP, main
from spreadpoly.errors import OutOfBoundsError, SpreadPolyError, env_int

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_show_text(capsys):
    code, out, _ = run_cli(capsys, "show", "phi", "7")
    assert code == 0
    assert out.strip() == "-7 + 14*x - 7*x^2 + x^3"

    code, out, _ = run_cli(capsys, "show", "zpread", "1")
    assert code == 0
    assert out.strip() == "x"

    code, out, _ = run_cli(capsys, "show", "psi", "8")
    assert code == 0
    assert out.strip() == "-2 + x^2"

    code, out, _ = run_cli(capsys, "show", "lucas", "0")
    assert code == 0
    assert out.strip() == "2"


def test_show_record(capsys):
    code, out, _ = run_cli(capsys, "show", "zpread", "3", "--format", "record")
    assert code == 0
    record = json.loads(out)
    assert record == {
        "kind": "poly",
        "family": "zpread",
        "n": 3,
        "coefficients": ["0", "9", "-6", "1"],
        "status": "ok",
    }


def test_show_routes_agree(capsys):
    _, fast, _ = run_cli(capsys, "show", "phi", "24", "--route", "fast")
    _, slow, _ = run_cli(capsys, "show", "phi", "24", "--route", "min")
    assert fast == slow


def test_show_out_of_bounds(capsys, monkeypatch):
    monkeypatch.setenv("SPREADPOLY_MAX_INDEX", "10")
    code, _, err = run_cli(capsys, "show", "phi", "20")
    assert code == 1
    assert "exceeds" in err


def test_show_family_minimum_index(capsys):
    code, _, err = run_cli(capsys, "show", "cyclotomic", "0")
    assert code == 1
    assert "n >= 1" in err


def test_factor_records(capsys):
    code, out, _ = run_cli(capsys, "factor", "2", "zpread", "--format", "record")
    assert code == 0
    record = json.loads(out)
    assert record["target"] == "zpread"
    assert record["factors"] == [
        {"d": 1, "multiplicity": 1, "coefficients": ["0", "1"]},
        {"d": 2, "multiplicity": 1, "coefficients": ["4", "-1"]},
    ]

    code, out, _ = run_cli(capsys, "factor", "1", "--format", "record")
    assert code == 0
    assert json.loads(out)["factors"] == [
        {"d": 1, "multiplicity": 1, "coefficients": ["0", "1"]}
    ]


def test_factor_six_degrees(capsys):
    code, out, _ = run_cli(capsys, "factor", "6", "zpread", "--format", "record")
    assert code == 0
    record = json.loads(out)
    degrees = [len(f["coefficients"]) - 1 for f in record["factors"]]
    assert degrees == [1, 1, 2, 2]
    assert sum(degrees) == 6


def test_factor_lucas_target(capsys):
    code, out, _ = run_cli(capsys, "factor", "4", "lucas", "--format", "record")
    assert code == 0
    record = json.loads(out)
    assert record["target"] == "lucas_minus_2"
    assert [f["multiplicity"] for f in record["factors"]] == [1, 1, 2]


def test_fib_output(capsys):
    code, out, _ = run_cli(capsys, "fib", "8", "--format", "record")
    assert code == 0
    record = json.loads(out)
    assert record["parts"] == [
        {"d": 1, "p": "1"},
        {"d": 2, "p": "1"},
        {"d": 4, "p": "3"},
        {"d": 8, "p": "7"},
    ]
    assert record["reconstructed"] == "21"

    code, out, _ = run_cli(capsys, "fib", "1")
    assert code == 0
    assert "F[1] = 1" in out

    code, out, _ = run_cli(capsys, "fib", "30", "--format", "record")
    assert json.loads(out)["reconstructed"] == "832040"


def test_record_output_is_stable(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "factor", "12", "zpread", "--format", "record")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_verify_small_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify", "--sweep", "12")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 12
    assert all(line.startswith("PASS") for line in lines)


def test_verify_record_stability(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", "--sweep", "6", "--format", "record")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    for line in outputs[0].splitlines():
        record = json.loads(line)
        assert record["status"] == "pass"


def test_verify_fault_injection(capsys):
    code, out, _ = run_cli(capsys, "verify", "--sweep", "12", "--corrupt-phi", "9")
    assert code == 1
    assert "routes disagree" in out
    assert "n=9" in out


def test_verify_sweep_above_the_cap_is_refused(capsys, monkeypatch):
    runs = []

    def run_verification(sweep):
        runs.append(sweep)
        return verify.VerifyReport()

    monkeypatch.setattr(verify, "run_verification", run_verification)
    code, out, err = run_cli(capsys, "verify", "--sweep", str(MAX_SWEEP + 1))
    assert (code, out, runs) == (1, "", [])
    assert err == f"error: sweep {MAX_SWEEP + 1} exceeds the maximum {MAX_SWEEP}\n"
    code, _, _ = run_cli(capsys, "verify", "--sweep", str(MAX_SWEEP))
    assert (code, runs) == (0, [MAX_SWEEP])


def test_verify_corrupt_phi_outside_the_sweep_is_refused(capsys, monkeypatch):
    runs = []

    def run_verification(sweep):
        runs.append((sweep, factor_mod._CORRUPTED_PHI.get()))
        return verify.VerifyReport()

    monkeypatch.setattr(verify, "run_verification", run_verification)
    for n in ("9", "0", "-1"):
        code, out, err = run_cli(capsys, "verify", "--sweep", "5", "--corrupt-phi", n)
        assert (code, out, runs) == (1, "", [])
        assert err == f"error: corrupt-phi index {n} is outside 1..5\n"
    for n in (1, 5):
        code, _, _ = run_cli(capsys, "verify", "--sweep", "5", "--corrupt-phi", str(n))
        assert (code, runs[-1]) == (0, (5, n))


def test_verify_has_no_settings(capsys, monkeypatch):
    # The suites depend on the sweep alone: retired settings are ignored or refused.
    argv = ("verify", "--sweep", "3", "--format", "record")
    plain = run_cli(capsys, *argv)
    monkeypatch.setenv("SPREADPOLY_VERIFY_INSTANCES", "abc")
    assert run_cli(capsys, *argv) == plain
    assert plain[0] == 0
    with pytest.raises(SystemExit):
        main(["verify", "--tol", "1e-6"])
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_bad_index_exits_nonzero(capsys):
    code, _, err = run_cli(capsys, "factor", "0")
    assert code == 1
    assert "positive" in err


def test_usage_error_exits_nonzero():
    for argv in (["show", "nosuchfamily", "3"], ["bench", "16"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


# Each library call at its minimum index - 1, with a CLI request refused at
# the same minimum and its stderr line, where there is one.
BELOW_MINIMUM = [
    (sequences.lucas, -1, ("show", "lucas", "-1"), "family lucas needs n >= 0"),
    (sequences.cyclotomic, 0, None, None),
    (sequences.zpread, 0, None, None),
    (sequences.fibonacci, -1, None, None),
    (sequences.zpread_via_lucas, 0, None, None),
    (sequences.totient, 0, None, None),
    (sequences.divisors, 0, None, None),
    (factor_mod.cross_check_phi, 0, None, None),
    (factor_mod.capital_phi, 0, None, None),
    (factor_mod.factor_zpread, 0, ("factor", "0"), "index must be positive"),
    (factor_mod.factor_lucas_minus2, 0, None, None),
    (fib_mod.primitive_part, 0, None, None),
    (verify.part_from_minimal_polynomial, 0, None, None),
    (fib_mod.fib_factorization, 0, ("fib", "0"), "index must be positive"),
    (fib_mod.zpread_at5_identity, 0, None, None),
    (verify.run_verification, 0, ("verify", "--sweep", "0"), "sweep bound must be at least 1"),
]


@pytest.mark.parametrize(
    "call,n,argv,line", BELOW_MINIMUM, ids=[row[0].__name__ for row in BELOW_MINIMUM]
)
def test_below_minimum_is_out_of_bounds(capsys, call, n, argv, line):
    # Typed for callers that catch SpreadPolyError, and still a ValueError.
    with pytest.raises(OutOfBoundsError) as excinfo:
        call(n)
    assert isinstance(excinfo.value, SpreadPolyError)
    assert isinstance(excinfo.value, ValueError)
    if argv is not None:
        assert run_cli(capsys, *argv) == (1, "", f"error: {line}\n")


# Requests outside a function's domain other than below its minimum index,
# with the message each refusal carries.
DOMAIN_REFUSALS = {
    "float_root_check": (lambda: factor_mod.float_root_check(2, 1e-9), "root check needs n >= 3"),
    "phi_odd_lucas": (lambda: factor_mod.phi_odd_lucas(4), "phi_odd_lucas index must be odd"),
    # Uncached entry points into phi_composed's table, each with its own minimum.
    "phi_odd_lucas_below_minimum": (
        lambda: factor_mod.phi_odd_lucas(0),
        "phi_odd_lucas index must be at least 1",
    ),
    "phi_pow2_below_minimum": (lambda: factor_mod.phi_pow2(-1), "phi_pow2 index must be at least 0"),
    "capital_phi": (
        lambda: factor_mod.capital_phi(3, factor_mod.PhiRoute.ODD_LUCAS),
        "route odd_lucas cannot build every index",
    ),
    "float_root_check_tolerance": (
        lambda: factor_mod.float_root_check(5, 0.0),
        "tolerance must be finite and positive",
    ),
    "monomial": (lambda: IntPoly.monomial(-1), "exponent must be non-negative"),
    "stretch": (lambda: X.stretch(0), "stretch factor must be positive"),
    "pow": (lambda: X**-1, "negative powers are not defined for polynomials"),
    "run_suite": (lambda: verify.run_suite("nope"), "unknown verify suite 'nope'"),
    "run_suite_sweep_zero": (
        lambda: verify.run_suite("lucas-index-product", 0),
        "sweep bound must be at least 1",
    ),
    "run_suite_sweep_negative": (
        lambda: verify.run_suite("lucas-index-product", -1),
        "sweep bound must be at least 1",
    ),
    # A route must be a PhiRoute; the CLI's "min" and "fast" are not routes.
    "capital_phi_route_name": (
        lambda: factor_mod.capital_phi(3, "fast"),
        "route 'fast' cannot build every index",
    ),
    "factor_zpread_route_name": (
        lambda: factor_mod.factor_zpread(12, "fast"),
        "route 'fast' cannot build every index",
    ),
    "digit_string": (
        lambda: IntPoly.from_coefficient_strings(["1a"]),
        "not a decimal integer: '1a'",
    ),
    # int() accepts these three; the digit-string rule refuses them at any length.
    "digit_string_space": (
        lambda: IntPoly.from_coefficient_strings([" 7"]),
        "not a decimal integer: ' 7'",
    ),
    "digit_string_underscore": (
        lambda: IntPoly.from_coefficient_strings(["1_0"]),
        "not a decimal integer: '1_0'",
    ),
    "digit_string_arabic_indic": (
        lambda: IntPoly.from_coefficient_strings(["\u0663"]),
        "not a decimal integer: '\u0663'",
    ),
    # Past the 4300-digit limit of Python 3.11 and later, where int() refuses it by length.
    "long_digit_string": (
        lambda: IntPoly.from_coefficient_strings(["7" * 5000 + "a"]),
        "not a decimal integer: '77777777777777777777'",
    ),
}


@pytest.mark.parametrize("name", DOMAIN_REFUSALS)
def test_domain_refusal_is_out_of_bounds(name):
    call, message = DOMAIN_REFUSALS[name]
    with pytest.raises(OutOfBoundsError) as excinfo:
        call()
    assert str(excinfo.value) == message


# sha256 of each request's stdout: record output stays byte-identical
# across changes and Python versions.
RECORD_DIGESTS = {
    ("factor", "60", "--format", "record"):
        "ef014d5ef161743f58d9ce6e3344baa78b8c5d6d9ffcbc867635d7667e30770e",
    ("factor", "60", "--format", "record", "--route", "fast"):
        "ef014d5ef161743f58d9ce6e3344baa78b8c5d6d9ffcbc867635d7667e30770e",
    ("factor", "36", "lucas", "--format", "record"):
        "e9a6562eb4badd4d4e2eb883e9bbdf864f55520e522ca5bffd6fa216f58a1803",
    ("fib", "300", "--format", "record"):
        "a30ba1ecbd31f465866bbc8bad3673c3a08990a635e957c5573545a8de5901c0",
    ("show", "Phi", "60", "--format", "record"):
        "c2403614fdbcf6487397383dc28e3c73b3d1e31c9174d81ac294880a1285564b",
    ("verify", "--sweep", "30", "--format", "record"):
        "a4034e82769608598f4fec0ff16506ff946085fcc0d4910a5700fc7c470206e4",
    ("verify", "--sweep", "30", "--corrupt-phi", "9", "--format", "record"):
        "d9d30012312d645a1495db8d36921a095df943a9ba5d4a894c709397fb097b60",
    # 9998 = 2*4999: the b = 2 branch of the composition route, phi_4999(4 - x).
    ("show", "phi", "9998", "--route", "fast", "--format", "record"):
        "92cc242008733ba9afbe1af38c73f03f6f4d6e205a30a1fb121c29ed1716d0bd",
    # 8192 = 2^13: the power-of-two branch, 2 - Z_2048.
    ("show", "phi", "8192", "--route", "fast", "--format", "record"):
        "b98503e261bb1e6e4a957a512fe4213933b98c687c85a3b7c75f6da260a155e1",
    # The reference route on each side of the packed size: phi_1293
    # (m = 430) is read from one packed Clenshaw value, phi_863 (m = 431)
    # reflects psi_863 through 2 - x.
    ("show", "phi", "1293", "--format", "record"):
        "5994837d9cb31beecf8de62a2f74b789ce6218bab3e25a7d7b8a2d9b0eb34ee7",
    ("show", "phi", "863", "--format", "record"):
        "ef8f3bf6055adcd6b08dec4af6c4f154950f7690a02a468930cf3248041adfa6",
    # The square of Phi_2520 (289 coefficients) packs past the binary
    # Kronecker size, so both routes run the decimal radix.
    ("factor", "2520", "--format", "record"):
        "16469eb2bba4fc49f13d51b41083e8cdd018466673321be4f49cf60241208b6e",
    ("factor", "2520", "--format", "record", "--route", "fast"):
        "16469eb2bba4fc49f13d51b41083e8cdd018466673321be4f49cf60241208b6e",
}


# Only the text format prints a factorization's target, built on demand
# from FactorizationRecord.product.
TEXT_DIGESTS = {
    ("factor", "60", "--format", "text"):
        "20c3d105b32edb03a77f8734e8a8b02e6452a5974a3fbfd974e67185f885b976",
    ("factor", "60", "--format", "text", "--route", "fast"):
        "20c3d105b32edb03a77f8734e8a8b02e6452a5974a3fbfd974e67185f885b976",
    ("factor", "36", "lucas", "--format", "text"):
        "c7f909429483693758ec3e2d0b03083dce2148f57baf6cfc36ec38d0e88e7729",
}


def test_record_bytes_are_pinned(capsys):
    for argv, digest in RECORD_DIGESTS.items():
        sequences.CACHE.clear()
        code, out, _ = run_cli(capsys, *argv)
        assert code == (1 if "--corrupt-phi" in argv else 0)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_factor_text_bytes_are_pinned(capsys):
    for argv, digest in TEXT_DIGESTS.items():
        sequences.CACHE.clear()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def run_subprocess(overrides, *argv):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPREADPOLY_")}
    env["PYTHONPATH"] = str(SRC)
    env.update(overrides)
    return subprocess.run(
        [sys.executable, "-m", "spreadpoly.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_import_reads_no_knob():
    # The multiplication threshold and the cache bound are not configurable
    # from the environment; values in these retired variables are ignored.
    plain = run_subprocess({}, "factor", "40")
    retired = {"SPREADPOLY_MUL_THRESHOLD": "abc", "SPREADPOLY_CACHE_MAX_INDEX": "abc"}
    proc = run_subprocess(retired, "factor", "40")
    assert plain.returncode == proc.returncode == 0
    assert proc.stdout == plain.stdout != ""
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "name,value,argv",
    [
        ("SPREADPOLY_MAX_INDEX", "abc", ("show", "phi", "7")),
        ("SPREADPOLY_MAX_INDEX", "0", ("show", "phi", "7")),
    ],
)
def test_bad_cli_knob_exits_with_error(name, value, argv):
    proc = run_subprocess({name: value}, *argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {name}={value!r} is invalid")
    assert "Traceback" not in proc.stderr


def test_good_knobs_are_applied():
    proc = run_subprocess({"SPREADPOLY_MAX_INDEX": "10"}, "show", "phi", "20")
    assert proc.returncode == 1
    assert "exceeds the configured maximum 10" in proc.stderr
    proc = run_subprocess({"SPREADPOLY_MAX_INDEX": "7"}, "show", "phi", "7")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-7 + 14*x - 7*x^2 + x^3"


def test_env_int(monkeypatch):
    monkeypatch.delenv("SPREADPOLY_TEST_KNOB", raising=False)
    assert env_int("SPREADPOLY_TEST_KNOB", 5, 1) == 5
    monkeypatch.setenv("SPREADPOLY_TEST_KNOB", "")
    assert env_int("SPREADPOLY_TEST_KNOB", 5, 1) == 5
    monkeypatch.setenv("SPREADPOLY_TEST_KNOB", "7")
    assert env_int("SPREADPOLY_TEST_KNOB", 5, 1) == 7
    for bad in ("0", "1.5", "seven", "1_0", " 7 ", "\u0667"):
        monkeypatch.setenv("SPREADPOLY_TEST_KNOB", bad)
        with pytest.raises(ConfigurationError, match="SPREADPOLY_TEST_KNOB.*>= 1"):
            env_int("SPREADPOLY_TEST_KNOB", 5, 1)


def test_show_spread_beyond_the_digit_limit(capsys):
    # spread(6000) has coefficients of more than 4300 digits, CPython's
    # default limit on int/str conversion since 3.11.
    argv = ("show", "spread", "6000", "--format", "record")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    coefficients = json.loads(out)["coefficients"]
    assert max(map(len, coefficients)) > 4300
    assert IntPoly.from_coefficient_strings(coefficients) == spread(6000)
    proc = run_subprocess({"PYTHONINTMAXSTRDIGITS": "640"}, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out


def test_fib_beyond_the_digit_limit(capsys):
    # F_3100 has 648 digits, past a conversion limit of 640 digits.
    for fmt in ("record", "text"):
        argv = ("fib", "3100", "--format", fmt)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        proc = run_subprocess({"PYTHONINTMAXSTRDIGITS": "640"}, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out
        if fmt == "record":
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == "b44774c26e2c082f2b2278ab2ccfedce762348649771e3c434a98a81689bde62"
