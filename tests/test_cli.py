"""CLI behavior: rendering, record stability, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spreadpoly.factor as factor_mod
from spreadpoly import ConfigurationError, IntPoly, mul_karatsuba, mul_schoolbook, spread, verify
from spreadpoly.cli import DEFAULT_MAX_INDEX, MAX_SWEEP, main
from spreadpoly.errors import env_int

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


def test_verify_small_sweep(capsys, monkeypatch):
    monkeypatch.setenv("SPREADPOLY_VERIFY_INSTANCES", "20")
    code, out, _ = run_cli(capsys, "verify", "--sweep", "12")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 12
    assert all(line.startswith("PASS") for line in lines)


def test_verify_record_stability(capsys, monkeypatch):
    monkeypatch.setenv("SPREADPOLY_VERIFY_INSTANCES", "10")
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", "--sweep", "6", "--format", "record")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    for line in outputs[0].splitlines():
        record = json.loads(line)
        assert record["status"] == "pass"


def test_verify_fault_injection(capsys, monkeypatch):
    monkeypatch.setenv("SPREADPOLY_VERIFY_INSTANCES", "5")
    code, out, _ = run_cli(capsys, "verify", "--sweep", "12", "--corrupt-phi", "9")
    assert code == 1
    assert "routes disagree" in out
    assert "n=9" in out


def test_verify_sweep_above_the_cap_is_refused(capsys, monkeypatch):
    monkeypatch.delenv("SPREADPOLY_VERIFY_INSTANCES", raising=False)
    runs = []

    def run_verification(sweep, tol, instances):
        runs.append(sweep)
        return verify.VerifyReport(sweep, tol)

    monkeypatch.setattr(verify, "run_verification", run_verification)
    code, out, err = run_cli(capsys, "verify", "--sweep", str(MAX_SWEEP + 1))
    assert (code, out, runs) == (1, "", [])
    assert err == f"error: sweep {MAX_SWEEP + 1} exceeds the maximum {MAX_SWEEP}\n"
    code, _, _ = run_cli(capsys, "verify", "--sweep", str(MAX_SWEEP))
    assert (code, runs) == (0, [MAX_SWEEP])


def test_verify_corrupt_phi_outside_the_sweep_is_refused(capsys, monkeypatch):
    monkeypatch.delenv("SPREADPOLY_VERIFY_INSTANCES", raising=False)
    runs = []

    def run_verification(sweep, tol, instances):
        runs.append((sweep, factor_mod._CORRUPTED_PHI.get()))
        return verify.VerifyReport(sweep, tol)

    monkeypatch.setattr(verify, "run_verification", run_verification)
    for n in ("9", "0", "-1"):
        code, out, err = run_cli(capsys, "verify", "--sweep", "5", "--corrupt-phi", n)
        assert (code, out, runs) == (1, "", [])
        assert err == f"error: corrupt-phi index {n} is outside 1..5\n"
    for n in (1, 5):
        code, _, _ = run_cli(capsys, "verify", "--sweep", "5", "--corrupt-phi", str(n))
        assert (code, runs[-1]) == (0, (5, n))


def test_bench_completes(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "bench", "16", "64")
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = [line for line in out.splitlines() if line.strip().startswith(("16", "64"))]
    assert len(rows) == 2
    assert elapsed < 60


def test_bench_refuses_bad_sizes_before_printing(capsys, monkeypatch):
    monkeypatch.delenv("SPREADPOLY_MAX_INDEX", raising=False)
    for bad, message in (("0", "index must be positive"), (str(DEFAULT_MAX_INDEX + 1), "exceeds")):
        code, out, err = run_cli(capsys, "bench", "16", bad)
        assert (code, out) == (1, "")
        assert message in err


def test_bench_refuses_disagreeing_paths(capsys, monkeypatch):
    import spreadpoly.intpoly as intpoly_mod

    def off_by_one(a, b):
        out = intpoly_mod._mul_schoolbook(a, b)
        out[0] += 1
        return out

    monkeypatch.setattr(intpoly_mod, "_mul_kronecker", off_by_one)
    code, _, err = run_cli(capsys, "bench", "64")
    assert code == 1
    assert "multiplication paths disagree at size 64" in err


def test_bench_refuses_disagreeing_reflection(capsys, monkeypatch):
    import spreadpoly.intpoly as intpoly_mod

    real = intpoly_mod._compose_linear

    def off_by_one(cs, a, b):
        out = real(cs, a, b)
        out[0] += 1
        return out

    monkeypatch.setattr(intpoly_mod, "_compose_linear", off_by_one)
    code, _, err = run_cli(capsys, "bench", "64")
    assert code == 1
    assert "reflection paths disagree at size 64" in err


def test_karatsuba_not_catastrophically_slower():
    coeffs = list(range(1, 258))
    p = IntPoly(coeffs)
    q = IntPoly(coeffs[::-1])
    start = time.perf_counter()
    school = mul_schoolbook(p, q)
    t_school = time.perf_counter() - start
    start = time.perf_counter()
    fast = mul_karatsuba(p, q)
    t_fast = time.perf_counter() - start
    assert school == fast
    assert t_fast <= 10 * t_school + 0.01


def test_bad_index_exits_nonzero(capsys):
    code, _, err = run_cli(capsys, "factor", "0")
    assert code == 1
    assert "positive" in err


def test_usage_error_exits_nonzero():
    with pytest.raises(SystemExit) as excinfo:
        main(["show", "nosuchfamily", "3"])
    assert excinfo.value.code == 2


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
        ("SPREADPOLY_VERIFY_INSTANCES", "abc", ("verify", "--sweep", "3")),
        ("SPREADPOLY_VERIFY_INSTANCES", "-5", ("verify", "--sweep", "3")),
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
    for bad in ("0", "1.5", "seven"):
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
