"""One workload run in a fresh process.

Set-up imports spreadpoly from the checkout's ``src`` and prepares the
seeded input stream, then prints ``ready``.  The run is a closed loop with a single
client: each request calls ``spreadpoly.cli.main(argv)`` in-process with
stdout captured, and the next one starts only when it has been checked.
The last line of stdout is the run's result as JSON.

A run is bounded by time (``--seconds``) or by a request count
(``--requests``), which replays exactly the requests an earlier run of
the same seed completed.  With ``--probe`` a timer runs the host-speed
probe (probe.py) throughout the run; its time is taken out of every
latency and of the wall time, and each request's share of the wall time
is reported with the probes taken during it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

import checks
import probe
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import spreadpoly from this checkout only, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import spreadpoly
    import spreadpoly.cli

    if Path(spreadpoly.__file__).resolve().parent != SRC / "spreadpoly":
        raise SystemExit(f"imported spreadpoly from {spreadpoly.__file__}, not {SRC}")
    # Cold means clearing the one shared cache; factor.py holds its own
    # reference to it, so rebinding sequences.CACHE would leave factor warm.
    if spreadpoly.factor.CACHE is not spreadpoly.sequences.CACHE:
        raise SystemExit("factor and sequences no longer share one cache")
    return spreadpoly


def check_domain(workload: workloads.Workload, max_index: int) -> None:
    """Every index any seed can generate must stay within the CLI's default cap."""
    for argv in workload.requests():
        if argv[0] in ("factor", "fib") and int(argv[1]) > max_index:
            raise SystemExit(f"workload index {argv[1]} exceeds the CLI's cap {max_index}")


def run(
    pkg,
    batches,
    digests,
    seconds: float | None,
    limit: int | None,
    tracer: Tracer | None,
    probe_host: bool = False,
) -> dict:
    """The closed loop; with ``probe_host`` the host speed is probed throughout."""
    cache = pkg.sequences.CACHE
    main = pkg.cli.main
    latencies: list[float] = []
    steps: list[float] = []  # each request's share of the loop's wall time
    probe_spans: list[tuple[int, int]] = []  # the probes taken during each step
    failures: list[str] = []
    outputs = hashlib.sha256()
    sampler = probe.Sampler()
    attempted = 0
    if probe_host:
        sampler.start()
    start = perf_counter()
    deadline = start + seconds if seconds is not None else None
    end, probed = start, 0.0

    def more() -> bool:
        if limit is not None:
            return attempted < limit
        return perf_counter() < deadline

    try:
        for batch in batches:
            if not more():
                break
            if tracer:
                tracer.snapshot_cache(cache)
            cache.clear()
            for argv in batch:
                if not more():
                    break
                attempted += 1
                if tracer:
                    tracer.request = attempted - 1
                out, err = io.StringIO(), io.StringIO()
                probing = sampler.spent
                t0 = perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = main(argv)
                    reason = None
                except (Exception, SystemExit) as exc:  # a crash is a failed request, not a dead run
                    rc, reason = None, f"{' '.join(argv)}: raised {exc!r}"
                latencies.append(perf_counter() - t0 - (sampler.spent - probing))
                stdout = out.getvalue()
                data = stdout.encode()
                outputs.update(data)
                if reason is None:
                    reason = checks.check_output(argv, rc, stdout) or checks.check_digest(digests, argv, data)
                if reason is not None:
                    failures.append(reason)
                now = perf_counter()
                steps.append(now - end - (sampler.spent - probed))
                probe_spans.append((probe_spans[-1][1] if probe_spans else 0, len(sampler.durations)))
                end, probed = now, sampler.spent
    finally:
        sampler.stop()
    if tracer:
        tracer.snapshot_cache(cache)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "latencies": latencies,
        "steps": steps,
        "probes": sampler.durations,
        "probe_spans": probe_spans,
        "wall_s": end - start - probed,
        "outputs_sha256": outputs.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    bound = parser.add_mutually_exclusive_group()
    bound.add_argument("--seconds", type=float)
    bound.add_argument("--requests", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true", help="probe the host speed while measuring")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args()
    protocol = sys.stdout

    pkg = import_program()
    workload = (workloads.TINY if args.tiny else workloads.WORKLOADS)[args.workload]
    check_domain(workload, pkg.cli.DEFAULT_MAX_INDEX)
    batches = workload.batches(args.seed)
    digests = checks.load_digests()
    print("ready", file=protocol, flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer(pkg) if args.trace else None
    if tracer:
        tracer.install()
    try:
        result = run(pkg, batches, digests, args.seconds, args.requests, tracer, probe_host=args.probe)
    finally:
        if tracer:
            tracer.uninstall()
    result["program"] = {
        "python": platform.python_version(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "mul_threshold": pkg.intpoly.get_mul_threshold(),
        "max_index": pkg.cli.DEFAULT_MAX_INDEX,
    }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        result["restored"] = tracer.restored()
        result["bindings"] = len(tracer.bindings)
        result["per_layer"] = tracer.metrics([name for name, _ in pkg.verify.SUITES])
        tracer.write(
            Path(__file__).resolve().parent / "out" / f"trace-{args.workload}.spans",
            {"workload": args.workload, "seed": args.seed, "program": result["program"]},
        )
    print(json.dumps(result), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
