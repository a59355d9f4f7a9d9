"""Fibonacci numbers factored into primitive parts.

At x = 5 the zpread factorization becomes F_n = prod_{d|n} p_d, with
p_1 = p_2 = 1 and p_d = |phi_d(5)| for d >= 3, phi_d the minimal polynomial
of 4*sin^2(pi/d).  No polynomial is built here: Moebius inversion gives
p_n = prod_{e|n} F_{n/e}^mu(e), the product ``sequences.cyclotomic`` runs
over x^e - 1, taken over Fibonacci numbers and closed by one exact division.
``verify`` checks each part against its definition |phi_d(5)|.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import (
    IdentityFailureError,
    InternalInconsistencyError,
    VerificationFailureError,
)
from .factor import phi_min  # noqa: F401 -- unused; perfbench's selftest wraps fib.phi_min
from .intpoly import int_to_digits
from .sequences import _mobius, divisors, fibonacci, zpread


def primitive_part(n: int) -> int:
    """The positive integer attached to divisor n in the Fibonacci product.

    p_n = prod_{e|n} F_{n/e}^mu(e): the terms with mu(e) = +1 multiplied, then
    divided exactly by those with mu(e) = -1 (else InternalInconsistencyError).

    >>> [primitive_part(n) for n in (1, 2, 3, 11, 12)]
    [1, 1, 2, 89, 6]
    """
    mobius = _mobius(n)
    part, rest = divmod(
        prod(fibonacci(n // e) for e, mu in mobius if mu == 1),
        prod(fibonacci(n // e) for e, mu in mobius if mu == -1),
    )
    if rest:
        raise InternalInconsistencyError(f"Moebius quotient of Fibonacci numbers for {n} is inexact")
    return part


@dataclass(frozen=True)
class PrimitivePartTable:
    """Divisor-indexed primitive parts whose product rebuilds a Fibonacci number."""

    n: int
    parts: tuple[tuple[int, int], ...]
    reconstructed: int

    def to_record(self) -> dict:
        return {
            "kind": "primitive_parts",
            "n": self.n,
            "parts": [{"d": d, "p": int_to_digits(p)} for d, p in self.parts],
            "reconstructed": int_to_digits(self.reconstructed),
        }

    def to_text(self) -> str:
        product = " * ".join(int_to_digits(p) for _, p in self.parts)
        lines = [f"F[{self.n}] = {int_to_digits(self.reconstructed)} = {product}"]
        for d, p in self.parts:
            lines.append(f"  d={d}  p={int_to_digits(p)}")
        return "\n".join(lines)


def fib_factorization(n: int) -> PrimitivePartTable:
    """Primitive parts for every divisor of n, verified against F_n.

    The check catches a wrong Moebius enumeration that still divides exactly.
    """
    parts = tuple((d, primitive_part(d)) for d in divisors(n))
    product = prod(p for _, p in parts)
    expected = fibonacci(n)
    if product != expected:
        raise VerificationFailureError(
            f"primitive parts of {n} multiply to {int_to_digits(product)}, "
            f"not F_{n} = {int_to_digits(expected)}"
        )
    return PrimitivePartTable(n, parts, product)


def zpread_at5_identity(n: int) -> bool:
    """Check Z_n(5) = (-1)^(n-1) * 5 * F_n^2 exactly; raises on mismatch."""
    left = zpread(n)(5)
    f = fibonacci(n)
    right = 5 * f * f if n % 2 else -5 * f * f
    if left != right:
        raise IdentityFailureError(f"zpread value at 5 for n={n}", left, right)
    return True
