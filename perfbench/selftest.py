"""Self-test of the benchmark itself; takes about ten seconds.

    python3 perfbench/selftest.py

Checks that every workload runs clean at a tiny size, traced and not,
that corrupted or failing outputs are counted as failed, that the host
probe's time stays out of the measured times, that a cold request really
starts from an empty cache, and that tracing restores every binding it
replaced.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import workloads
from child import import_program, run
from tracer import Tracer

HERE = Path(__file__).resolve().parent
PKG = import_program()


def child(*args: str) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--tiny", *args]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=170).stdout
    lines = out.splitlines()
    assert lines[0] == "ready", lines[:1]
    return json.loads(lines[-1])


def test_each_workload_runs_clean_at_tiny_size():
    per_layer = [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]
    for name, count in (("factor-cold", 8), ("fib-warm", 10), ("verify-cold", 1)):
        plain = child("--workload", name, "--seed", "7", "--requests", str(count))
        traced = child("--workload", name, "--seed", "7", "--requests", str(count), "--trace")
        for result in (plain, traced):
            assert result["attempted"] == count and result["failed"] == 0, (name, result["failures"])
        assert traced["outputs_sha256"] == plain["outputs_sha256"], name
        assert traced["restored"], name
        reported = list(traced["per_layer"]) + ["trace.requests", "trace.overhead_ratio"]
        assert sorted(reported) == sorted(per_layer), name


def test_time_bound_stops_the_loop():
    result = child("--workload", "fib-warm", "--seed", "1", "--seconds", "0.5")
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert result["wall_s"] < 5


def test_probe_time_is_kept_out_of_latency_and_wall_time():
    batches = [next(workloads.TINY["verify-cold"].batches(3))]  # over a second, many probe periods
    count = sum(map(len, batches))
    t0 = perf_counter()
    result = run(PKG, batches, checks.load_digests(), None, count, None, probe_host=True)
    elapsed = perf_counter() - t0
    assert result["failed"] == 0 and result["probes"], result["failures"]
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert result["wall_s"] + sum(result["probes"]) <= elapsed
    assert sum(result["latencies"]) <= result["wall_s"]


def _run_with(main, batches):
    original = PKG.cli.main
    PKG.cli.main = main
    try:
        return run(PKG, batches, checks.load_digests(), None, sum(map(len, batches)), None)
    finally:
        PKG.cli.main = original


def test_corrupted_outputs_are_counted_as_failed():
    real = PKG.cli.main
    batches = [b for _, b in zip(range(3), workloads.TINY["fib-warm"].batches(2))]
    target = " ".join(batches[1][0])

    def corrupt_one_digit(argv):
        if " ".join(argv) != target:
            return real(argv)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = real(argv)
        print(out.getvalue().replace('"reconstructed":"', '"reconstructed":"1', 1), end="")
        return rc

    result = _run_with(corrupt_one_digit, batches)
    assert result["failed"] == 1, result["failures"]
    assert result["failures"][0].startswith(f"fib {batches[1][0][1]}: reconstructed")

    def crash(argv):
        raise RuntimeError("boom")

    result = _run_with(crash, batches[:1])
    assert result["failed"] == result["attempted"] == len(batches[0])


def test_each_check_rejects_a_wrong_output():
    digests = checks.load_digests()
    cases = {
        ("fib", "30"): ('"p":"5"', '"p":"6"'),
        ("factor", "24"): ('"coefficients":["0","1"]', '"coefficients":["0","2"]'),
        ("verify", "--sweep", "4"): ('"status":"pass"', '"status":"fail"'),
    }
    for head, (good, bad) in cases.items():
        argv = [*head, "--format", "record"]
        PKG.sequences.CACHE.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = PKG.cli.main(argv)
        text = out.getvalue()
        assert checks.check_output(argv, rc, text) is None, argv
        assert good in text, (argv, good)
        wrong = text.replace(good, bad, 1)
        assert checks.check_output(argv, rc, wrong) is not None, argv
        assert checks.check_digest(digests, argv, wrong.encode()) is not None, argv
        assert checks.check_output(argv, 1, text) is not None, argv


def test_cold_requests_start_from_an_empty_cache():
    argv = ["factor", "60", "--format", "record", "--route", "min"]
    counts = []
    for _ in range(2):
        tracer = Tracer(PKG)
        tracer.install()
        try:
            run(PKG, [[argv]], checks.load_digests(), None, 1, tracer)
        finally:
            tracer.uninstall()
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1] and counts[0]["sequences.cache.lookups"] > 0


def _bindings():
    """Every value reachable by name in the package's namespaces."""
    tracer = Tracer(PKG)
    out = {}
    for holder, is_mapping in tracer._package_holders():
        items = holder.items() if is_mapping else vars(holder).items()
        for key, value in list(items):
            out[id(holder), key] = value
    return out


def test_tracing_wraps_every_binding_and_restores_it():
    intpoly, factor, fib, verify = PKG.intpoly, PKG.factor, PKG.fib, PKG.verify
    routes = factor._ROUTE_BUILDERS
    required = [
        *((factor, name) for name in ("cyclotomic", "lucas", "zpread", "div_exact", "palindrome_fold")),
        *((fib, name) for name in ("phi_min", "fibonacci")),
        *((verify, name) for name in ("cyclotomic", "lucas", "zpread", "fibonacci", "div_exact")),
        *((routes, route) for route, builder in routes.items() if builder.__name__ != "<lambda>"),
        (intpoly.IntPoly, "__mul__"),
        (intpoly.IntPoly, "__rmul__"),
        (PKG.sequences.SequenceCache, "lookup"),
    ]
    before = _bindings()
    tracer = Tracer(PKG)
    tracer.install()
    try:
        wrapped = {(id(holder), key) for holder, key, _, _ in tracer.bindings}
        missing = [key for holder, key in required if (id(holder), key) not in wrapped]
        assert not missing, missing
        assert intpoly.IntPoly.__rmul__ is intpoly.IntPoly.__mul__
        with contextlib.redirect_stdout(io.StringIO()):
            assert PKG.cli.main(["fib", "12", "--format", "record"]) == 0
        assert len(tracer.span_name) > 0
    finally:
        tracer.uninstall()
    assert tracer.restored()
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert not changed, changed


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS  {name}")
        except Exception:
            failed += 1
            print(f"FAIL  {name}")
            traceback.print_exc()
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
