"""Output checks computed without the package under test.

Every request's stdout is checked twice: against an oracle worked out
here from first principles, and byte for byte against the sha256 digest
recorded for that exact argv in ``digests.json``.  A check returns None
when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def fibonacci(n: int) -> int:
    """F_n by fast doubling."""

    def pair(k: int) -> tuple[int, int]:
        if k == 0:
            return 0, 1
        a, b = pair(k >> 1)
        c = a * (2 * b - a)
        d = a * a + b * b
        return (d, c + d) if k & 1 else (c, d)

    return pair(n)[0]


def _eval_at(coefficients: list[str], x: int) -> int:
    acc = 0
    for c in reversed(coefficients):
        acc = acc * x + int(c)
    return acc


def _records(stdout: str) -> list[dict]:
    lines = stdout.splitlines()
    if not lines:
        raise ValueError("no output")
    return [json.loads(line) for line in lines]


def check_fib(n: int, stdout: str) -> str | None:
    (rec,) = _records(stdout)
    expected = fibonacci(n)
    if rec.get("kind") != "primitive_parts" or rec.get("n") != n or rec.get("status") != "ok":
        return f"fib {n}: unexpected record header"
    if int(rec["reconstructed"]) != expected:
        return f"fib {n}: reconstructed is not F_{n}"
    product = 1
    for part in rec["parts"]:
        product *= int(part["p"])
    if product != expected:
        return f"fib {n}: parts multiply to {product}, not F_{n}"
    return None


def check_factor(n: int, stdout: str) -> str | None:
    (rec,) = _records(stdout)
    if rec.get("kind") != "factorization" or rec.get("n") != n or rec.get("status") != "ok":
        return f"factor {n}: unexpected record header"
    degree = 0
    at5 = 1
    for f in rec["factors"]:
        degree += (len(f["coefficients"]) - 1) * f["multiplicity"]
        at5 *= _eval_at(f["coefficients"], 5) ** f["multiplicity"]
    if degree != n:
        return f"factor {n}: degrees sum to {degree}"
    fn = fibonacci(n)
    if at5 != (1 if n % 2 else -1) * 5 * fn * fn:
        return f"factor {n}: product at 5 is not (-1)^(n-1)*5*F_n^2"
    return None


def check_verify(stdout: str) -> str | None:
    records = _records(stdout)
    failing = [r.get("name") for r in records if r.get("status") != "pass"]
    if failing:
        return f"verify: suites not passing: {failing}"
    return None


def check_output(argv: list[str], rc: int, stdout: str) -> str | None:
    """Oracle check of one request's exit code and stdout."""
    if rc != 0:
        return f"{' '.join(argv)}: exit code {rc}"
    try:
        if argv[0] == "fib":
            return check_fib(int(argv[1]), stdout)
        if argv[0] == "factor":
            return check_factor(int(argv[1]), stdout)
        return check_verify(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"{' '.join(argv)}: malformed output ({exc!r})"


def request_key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def check_digest(digests: dict[str, str], argv: list[str], stdout: bytes) -> str | None:
    want = digests.get(request_key(argv))
    if want is None:
        return f"{request_key(argv)}: no recorded digest"
    if digest(stdout) != want:
        return f"{request_key(argv)}: output differs from the recorded digest"
    return None
