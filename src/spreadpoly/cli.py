"""Command-line front end: show, factor, fib, verify, bench.

Text output uses the canonical polynomial rendering; record output is
newline-delimited JSON with decimal-string coefficients, byte-stable
across runs for identical requests.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from time import perf_counter

from . import factor as factor_mod
from . import fib as fib_mod
from . import sequences, verify
from .errors import OutOfBoundsError, SpreadPolyError, env_int
from .factor import PhiRoute
from .intpoly import IntPoly, _compose_horner, mul_schoolbook

DEFAULT_MAX_INDEX = 10_000
# verify --sweep S runs six suites over every n <= S, in time growing about
# as S^2.6: S = 400 took 5.3-5.9 s and S = 500 took 11.0 s on a 2-vCPU VM
# (Python 3.11.7), against the 10 s budget of one command.
MAX_SWEEP = 400

_ROUTES = {"min": PhiRoute.MINIMAL_POLY, "fast": PhiRoute.COMPOSITION}

_FAMILIES = {
    "lucas": (lambda n, route: sequences.lucas(n), 0),
    "cyclotomic": (lambda n, route: sequences.cyclotomic(n), 1),
    "zpread": (lambda n, route: sequences.zpread(n), 1),
    "spread": (lambda n, route: sequences.spread(n), 1),
    "psi": (lambda n, route: factor_mod.psi(n), 1),
    "phi": (lambda n, route: factor_mod._ROUTE_BUILDERS[route](n), 1),
    "Phi": (lambda n, route: factor_mod.capital_phi(n, route), 1),
}


def _emit_record(obj: dict) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _check_bounds(n: int, max_index: int) -> None:
    if n > max_index:
        raise OutOfBoundsError(f"index {n} exceeds the configured maximum {max_index}")


def _cmd_show(args: argparse.Namespace) -> int:
    builder, min_index = _FAMILIES[args.family]
    if args.n < min_index:
        raise SpreadPolyError(f"family {args.family} needs n >= {min_index}")
    _check_bounds(args.n, args.max_index)
    poly = builder(args.n, _ROUTES[args.route])
    if args.format == "record":
        _emit_record(
            {
                "kind": "poly",
                "family": args.family,
                "n": args.n,
                "coefficients": poly.coefficient_strings(),
                "status": "ok",
            }
        )
    else:
        print(poly.to_text())
    return 0


def _cmd_factor(args: argparse.Namespace) -> int:
    _check_bounds(args.n, args.max_index)
    if args.target == "zpread":
        record = factor_mod.factor_zpread(args.n, _ROUTES[args.route])
    else:
        record = factor_mod.factor_lucas_minus2(args.n)
    if args.format == "record":
        payload = record.to_record()
        payload["status"] = "ok"
        _emit_record(payload)
    else:
        print(record.to_text())
    return 0


def _cmd_fib(args: argparse.Namespace) -> int:
    _check_bounds(args.n, args.max_index)
    table = fib_mod.fib_factorization(args.n)
    if args.format == "record":
        payload = table.to_record()
        payload["status"] = "ok"
        _emit_record(payload)
    else:
        print(table.to_text())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.sweep > MAX_SWEEP:
        raise OutOfBoundsError(f"sweep {args.sweep} exceeds the maximum {MAX_SWEEP}")
    if args.corrupt_phi is not None and not 1 <= args.corrupt_phi <= args.sweep:
        raise OutOfBoundsError(f"corrupt-phi index {args.corrupt_phi} is outside 1..{args.sweep}")
    instances = env_int("SPREADPOLY_VERIFY_INSTANCES", 1000, 1)
    with factor_mod.corrupted_phi(args.corrupt_phi):
        report = verify.run_verification(args.sweep, args.tol, instances)
    if args.format == "record":
        for suite in report.suites:
            _emit_record(suite.to_record())
    else:
        print(report.to_text())
    return 0 if report.passed else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    for size in args.sizes:
        if size < 1:
            raise ValueError("index must be positive")
        _check_bounds(size, args.max_index)
    rng = random.Random(0xBE7C)
    print(
        f"{'size':>6}  {'schoolbook':>12}  {'kronecker':>12}"
        f"  {'reflect':>12}  {'factor':>12}  {'crosscheck':>12}"
    )
    two_minus_x = IntPoly((2, -1))
    for size in args.sizes:
        p = IntPoly([rng.randint(-(10**9), 10**9) for _ in range(size)] + [1])
        q = IntPoly([rng.randint(-(10**9), 10**9) for _ in range(size)] + [1])
        start = perf_counter()
        school = mul_schoolbook(p, q)
        t_school = perf_counter() - start
        start = perf_counter()
        default = p * q
        t_default = perf_counter() - start
        if school != default:
            raise SpreadPolyError(f"multiplication paths disagree at size {size}")
        start = perf_counter()
        reflected = p.compose(two_minus_x)
        t_reflect = perf_counter() - start
        if reflected != _compose_horner(p, two_minus_x):
            raise SpreadPolyError(f"reflection paths disagree at size {size}")
        start = perf_counter()
        factor_mod.factor_zpread(size)
        t_factor = perf_counter() - start
        start = perf_counter()
        factor_mod.cross_check_phi(size)
        t_cross = perf_counter() - start
        print(
            f"{size:>6}  {t_school:>11.4f}s  {t_default:>11.4f}s"
            f"  {t_reflect:>11.4f}s  {t_factor:>11.4f}s  {t_cross:>11.4f}s"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spreadpoly",
        description="Exact spread/zpread polynomial kernel: construct, factor, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="print one polynomial of a family")
    show.add_argument("family", choices=sorted(_FAMILIES))
    show.add_argument("n", type=int)
    show.add_argument("--format", choices=("text", "record"), default="text")
    show.add_argument("--route", choices=("min", "fast"), default="min")
    show.set_defaults(func=_cmd_show)

    fac = sub.add_parser("factor", help="print a verified factorization")
    fac.add_argument("n", type=int)
    fac.add_argument("target", nargs="?", choices=("zpread", "lucas"), default="zpread")
    fac.add_argument("--format", choices=("text", "record"), default="text")
    fac.add_argument("--route", choices=("min", "fast"), default="min")
    fac.set_defaults(func=_cmd_factor)

    fibp = sub.add_parser("fib", help="print a Fibonacci primitive-part table")
    fibp.add_argument("n", type=int)
    fibp.add_argument("--format", choices=("text", "record"), default="text")
    fibp.set_defaults(func=_cmd_fib)

    ver = sub.add_parser("verify", help="run every identity and property suite")
    ver.add_argument("--sweep", type=int, default=200)
    ver.add_argument("--tol", type=float, default=1e-9)
    ver.add_argument("--format", choices=("text", "record"), default="text")
    ver.add_argument(
        "--corrupt-phi",
        type=int,
        default=None,
        metavar="N",
        help="test mode: corrupt the reference route at index N, 1 <= N <= sweep",
    )
    ver.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="time the kernel at the given sizes")
    bench.add_argument("sizes", type=int, nargs="+")
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.max_index = env_int("SPREADPOLY_MAX_INDEX", DEFAULT_MAX_INDEX, 1)
        return args.func(args)
    except (SpreadPolyError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
