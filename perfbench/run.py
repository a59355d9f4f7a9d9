"""spreadpoly benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload factor-cold --seed 1 --seconds 33 --trace 0

Run from a checkout of the repository; it measures the program in that
checkout's ``src``.  Each run starts the workload in a fresh child process
(see child.py) and prints a short report, then one JSON line with the
metrics named in BENCHMARK.json:

* ``--trace 0``: the end-to-end metrics.  ``requests_per_s`` and
  ``latency_p50_s`` are given at a fixed reference speed of the host: a
  timer in the child runs a reference computation throughout the run, and
  each request's times are scaled by how fast that computation ran around
  it (see probe.py).  ``setup_s`` is the median over several set-ups, each
  a fresh child started, spreadpoly imported and the inputs generated,
  scaled the same way by the time to start a bare interpreter.  This
  process and its children run pinned to one CPU.
* ``--trace 1``: the per-layer metrics.  An untraced child runs for half
  the time, then a traced child replays exactly the requests it completed.
  Both must produce byte-identical output; the gap in requests per second
  between them is the tracing overhead.

Exit code 2 means the benchmark could not run at all (no program in the
checkout, or a ``SPREADPOLY_*`` variable set that would change it).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9  # eight set-up-only children and the measuring child
# About the median reference_start() on a 2-vCPU Intel Xeon virtual machine,
# Python 3.11.7.  The process start that dominates set-up time drifts with
# the host as much as requests do, and the host probe tracks it poorly, so
# set-ups are scaled to this reference by bare interpreter starts instead.
START_REFERENCE_S = 0.05
LOCAL_PROBES = 5  # fewest probes that gauge the host speed during one request
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def start(*args: str) -> tuple[subprocess.Popen, float]:
    """Start ``python3 args`` and wait for its ``ready`` line; returns it with its set-up time."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        finish(proc)
        raise BenchError(f"child did not start: {' '.join(args)}")
    return proc, setup


def start_child(*args: str) -> tuple[subprocess.Popen, float]:
    return start(str(HERE / "child.py"), *args)


def reference_start() -> float:
    """Set-up time of a bare interpreter, which never touches the program."""
    proc, setup = start("-c", "print('ready')")
    finish(proc)
    return setup


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("child timed out")
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    return out


def run_child(*args: str) -> tuple[dict, float]:
    proc, setup = start_child(*args)
    lines = finish(proc).strip().splitlines()
    if not lines:
        raise BenchError("child printed no result")
    return json.loads(lines[-1]), setup


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(latencies) * (100 - p) / 100 >= 10:
            return p, percentile(sorted(latencies), p)
    return None


def scale(probes: list[float]) -> float:
    """Factor that brings times measured alongside these probes to the reference speed (see probe.py).

    A request slows by the host's slowdown averaged over its run, so the
    probes are averaged too, less their fastest and slowest tenth.
    """
    ordered = sorted(probes)
    cut = len(ordered) // 10
    return probe.REFERENCE_S / statistics.fmean(ordered[cut : len(ordered) - cut])


def local_scales(result: dict) -> list[float]:
    """Each request's scale, from the probes taken during it, widened to
    its nearest neighbours until there are LOCAL_PROBES of them."""
    probes = result["probes"]
    if not probes:
        raise BenchError("the run ended before the host speed was probed")
    want = min(LOCAL_PROBES, len(probes))
    scales = []
    for lo, hi in result["probe_spans"]:
        while hi - lo < want:
            lo, hi = max(0, lo - 1), min(len(probes), hi + 1)
        scales.append(scale(probes[lo:hi]))
    return scales


def rate(result: dict) -> float:
    """Requests per second as measured."""
    return result["attempted"] / result["wall_s"]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(common: list[str]) -> tuple[dict, dict, list[str]]:
    setups, starts = [], []
    for _ in range(SETUP_SAMPLES - 1):
        starts.append(reference_start())
        proc, setup = start_child(*common, "--setup-only")
        finish(proc)
        setups.append(setup)
    starts.append(reference_start())
    result, setup = run_child(*common, "--probe")
    setups.append(setup)
    setup_scale = START_REFERENCE_S / statistics.median(starts)
    lat = result["latencies"]
    scales = local_scales(result)
    wall_at_reference = sum(step * s for step, s in zip(result["steps"], scales))
    metrics = {
        "requests_per_s": metric(result["attempted"] / wall_at_reference, "1/s"),
        "latency_p50_s": metric(statistics.median(t * s for t, s in zip(lat, scales)), "s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        "setup_s": metric(statistics.median(setups) * setup_scale, "s"),
    }
    t = tail(lat)
    notes = [
        f"latency tail (as measured): p{t[0]:g} = {t[1]:.4f} s over {len(lat)} requests"
        if t
        else f"latency tail: omitted, {len(lat)} requests leave no percentile above p50 "
        "with 10 samples beyond it",
        f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setups)}",
        f"bare interpreter starts (s): {', '.join(f'{s:.4f}' for s in starts)}: "
        f"set-up scale {setup_scale:.4f} against {START_REFERENCE_S:g} s",
        f"host speed: {len(result['probes'])} probes, median {statistics.median(result['probes']) * 1e3:.3f} ms "
        f"against {probe.REFERENCE_S * 1e3:g} ms at the reference speed: scale {scale(result['probes']):.4f}, "
        f"per request {min(scales):.4f} to {max(scales):.4f}",
        f"as measured: {rate(result):.6g} requests/s, latency p50 {statistics.median(lat):.6g} s, "
        f"set-up {statistics.median(setups):.6g} s",
    ]
    return result, metrics, notes


def traced(common: list[str], seconds: float) -> tuple[dict, dict, list[str]]:
    base, _ = run_child(*common, "--seconds", str(seconds / 2))
    result, _ = run_child(*common, "--requests", str(base["attempted"]), "--trace")
    overhead = 1 - rate(result) / rate(base)
    same = result["outputs_sha256"] == base["outputs_sha256"]
    metrics = dict(result["per_layer"])
    metrics["trace.requests"] = metric(result["attempted"], "count")
    metrics["trace.overhead_ratio"] = metric(overhead, "ratio")
    notes = [
        f"untraced {rate(base):.4f} req/s, traced {rate(result):.4f} req/s over "
        f"{result['attempted']} requests: tracing overhead {overhead:.1%}",
        f"traced outputs {'match' if same else 'DIFFER FROM'} the untraced run's; "
        f"{result['bindings']} bindings wrapped, {'all' if result['restored'] else 'NOT all'} restored",
    ]
    combined = {
        "attempted": base["attempted"] + result["attempted"],
        "failed": base["failed"] + result["failed"],
        "failures": base["failures"] + result["failures"],
        "program": result["program"],
        "consistent": same and result["restored"],
    }
    return combined, metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=33)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("SPREADPOLY_"))
    if knobs:
        print(f"refusing to run: {', '.join(knobs)} set; each changes the program measured", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "spreadpoly" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'spreadpoly'} is missing", file=sys.stderr)
        return 2

    # One CPU for this process and every child: the probes then gauge the
    # CPU the requests run on, and nothing migrates mid-run.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            result, metrics, notes = traced(common, args.seconds)
        else:
            result, metrics, notes = end_to_end(common + ["--seconds", str(args.seconds)])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    correct = result["failed"] == 0 and result.get("consistent", True)
    program = result["program"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(
        f"program: python {program['python']}, nproc {nproc}, pinned to cpu {','.join(map(str, program['cpus']))}, "
        f"mul_threshold {program['mul_threshold']}, max_index {program['max_index']}"
    )
    print(
        f"requests: {result['attempted']} attempted, {result['failed']} failed, "
        f"failed_ratio {result['failed'] / max(1, result['attempted']):.4f}"
    )
    for reason in result["failures"]:
        print(f"  failure: {reason}")
    for line in notes:
        print(line)
    if not args.trace:
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
