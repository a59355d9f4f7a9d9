"""Command-line front end: show, factor, fib, verify.

Text output uses the canonical polynomial rendering; record output is
newline-delimited JSON with decimal-string coefficients, byte-stable
across runs for identical requests.  One writer, ``_emit_record``, puts
every line on stdout; ``show`` and ``factor`` hand it theirs piece by
piece, so no output of theirs is held as one string.

Each command loads only the layers it runs.  ``show`` and ``factor`` run
on the intpoly, sequences and factor modules that importing the package
loads; ``fib`` imports the fib module inside its command, and ``verify``
the verify module, which imports fib.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from typing import Iterable

from . import factor as factor_mod
from . import sequences
from .errors import ConfigurationError, OutOfBoundsError, SpreadPolyError
from .factor import PhiRoute
from .intpoly import IntPoly, int_from_digits, int_to_digits

DEFAULT_MAX_INDEX = 10_000
# verify --sweep S runs six suites over every n <= S, in time growing about
# as S^2: S = 400 took 3.2-3.9 s and S = 500 took 5.2-6.2 s on a 2-vCPU VM
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


# Coefficient strings joined per write by _emit_record: one write for
# most factors, and at most 7.8 MB, from spread(10000), at the cap.
_RECORD_CHUNK = 1024


def _emit_record(pieces: Iterable[str | IntPoly]) -> None:
    """Write pieces and a newline: each str piece as it is, each IntPoly as its coefficients.

    The only writer of stdout: each call writes one record line, or the
    whole text of one command.  A polynomial is written as the JSON array
    of its coefficient strings, _RECORD_CHUNK of them at a time.  Decimal
    digits need no JSON escape, so with pieces that are JSON text the line
    is byte for byte what ``json.dumps`` gives for the same record.
    """
    write = sys.stdout.write
    for piece in pieces:
        if type(piece) is str:
            write(piece)
            continue
        cs = piece.coeffs
        sep = '["'
        for i in range(0, len(cs), _RECORD_CHUNK):
            write(sep + '","'.join(map(int_to_digits, cs[i : i + _RECORD_CHUNK])))
            sep = '","'
        write('"]' if cs else "[]")
    write("\n")


def _cmd_show(args: argparse.Namespace) -> int:
    builder, min_index = _FAMILIES[args.family]
    if args.n < min_index:
        raise OutOfBoundsError(f"family {args.family} needs n >= {min_index}")
    poly = builder(args.n, _ROUTES[args.route])
    if args.format == "record":
        head = f'{{"kind":"poly","family":{json.dumps(args.family)},"n":{args.n},"coefficients":'
        _emit_record((head, poly, ',"status":"ok"}'))
    else:
        _emit_record(poly.text_terms())
    return 0


def _cmd_factor(args: argparse.Namespace) -> int:
    if args.target == "zpread":
        record = factor_mod.factor_zpread(args.n, _ROUTES[args.route])
    else:
        record = factor_mod.factor_lucas_minus2(args.n)
    # Piece by piece: the product: line alone is 26 MB at n = 9240.
    record_line = chain(record.record_pieces(), (',"status":"ok"}',))
    _emit_record(record_line if args.format == "record" else record.text_pieces())
    return 0


def _cmd_fib(args: argparse.Namespace) -> int:
    from . import fib

    table = fib.fib_factorization(args.n)
    if args.format == "record":
        _emit_record((json.dumps({**table.to_record(), "status": "ok"}, separators=(",", ":")),))
    else:
        _emit_record((table.to_text(),))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    if args.sweep > MAX_SWEEP:
        raise OutOfBoundsError(f"sweep {args.sweep} exceeds the maximum {MAX_SWEEP}")
    # A sweep below 1 is left to run_verification to refuse.
    if args.corrupt_phi is not None and args.sweep >= 1 and not 1 <= args.corrupt_phi <= args.sweep:
        raise OutOfBoundsError(f"corrupt-phi index {args.corrupt_phi} is outside 1..{args.sweep}")
    with factor_mod.corrupted_phi(args.corrupt_phi):
        report = verify.run_verification(args.sweep)
    if args.format == "record":
        for suite in report.suites:
            _emit_record((json.dumps(suite.to_record(), separators=(",", ":")),))
    else:
        _emit_record((report.to_text(),))
    return 0 if report.passed else 1


class _Parser(argparse.ArgumentParser):
    # The subparsers are made of this class too.  argparse calls print_help
    # for --help alone, with no file; its own write would swallow an
    # OSError, which through _emit_record reaches run().
    def print_help(self, file=None) -> None:
        _emit_record((self.format_help().removesuffix("\n"),))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spreadpoly",
        description="Exact spread/zpread polynomial kernel: construct, factor, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="print one polynomial of a family")
    show.add_argument("family", choices=sorted(_FAMILIES))
    show.add_argument("n", type=int)
    show.set_defaults(func=_cmd_show)

    fac = sub.add_parser("factor", help="print a verified factorization")
    fac.add_argument("n", type=int)
    fac.add_argument("target", nargs="?", choices=("zpread", "lucas"), default="zpread")
    fac.set_defaults(func=_cmd_factor)

    fibp = sub.add_parser("fib", help="print a Fibonacci primitive-part table")
    fibp.add_argument("n", type=int)
    fibp.set_defaults(func=_cmd_fib)

    ver = sub.add_parser("verify", help="run every identity and property suite")
    ver.add_argument("--sweep", type=int, default=200)
    ver.add_argument(
        "--corrupt-phi",
        type=int,
        default=None,
        metavar="N",
        help="test mode: corrupt the reference route at index N, 1 <= N <= sweep",
    )
    ver.set_defaults(func=_cmd_verify)

    for command in (show, fac, fibp, ver):
        command.add_argument("--format", choices=("text", "record"), default="text")
    for command in (show, fac):
        command.add_argument("--route", choices=tuple(_ROUTES), default="min")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = os.environ.get("SPREADPOLY_MAX_INDEX", "")
        max_index = DEFAULT_MAX_INDEX
        if raw:
            # ASCII digits only: int() would also take "+7", "1_0", " 7 " and "\u0667".
            max_index = int_from_digits(raw) if raw.isascii() and raw.isdigit() else 0
            if max_index < 1:
                raise ConfigurationError(f"SPREADPOLY_MAX_INDEX={raw!r} is invalid: expected an integer >= 1")
        # show, factor and fib take an index n; verify takes a sweep.
        if getattr(args, "n", 0) > max_index:
            raise OutOfBoundsError(f"index {args.n} exceeds the configured maximum {max_index}")
        return args.func(args)
    except SpreadPolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    if sys.stdout is None:  # fd 1 was closed when the interpreter started
        sys.exit("error: cannot write output: stdout is closed")
    try:
        try:
            code = main()
        finally:  # also after argparse's SystemExit, from --help or a usage error
            sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full disk on stdout
        # Point fd 1 at devnull, so that the flush at exit cannot fail again
        # (the "Note on SIGPIPE" in the signal module's documentation).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    run()
