"""Fibonacci numbers factored into primitive parts.

Evaluating the zpread factorization at 5 turns the polynomial identity into
an integer one: F_n is the product over divisors d of n of the primitive
parts p_d, where p_1 = p_2 = 1 and, for d >= 3, p_d = |phi_d(5)| with
phi_d the minimal polynomial of 4*sin^2(pi/d).

No minimal polynomial is built.  phi_d(5) = +-psi_d(2 - 5) = +-psi_d(-3),
and psi_d = c_0 + sum_{k>=1} c_k * L_k with c_k the folded weights of the
d-th cyclotomic polynomial.  Since 3 = a^2 + a^-2 for the golden ratio a,
L_k(-3) = (-1)^k * Luc(2k), so

    p_d = |c_0 + sum_{k>=1} (-1)^k * c_k * Luc(2k)|,

which is summed at x = -3 by the scalar Clenshaw recurrence.
``part_from_minimal_polynomial`` keeps the definition |phi_d(5)| as the
reference that ``verify`` checks these parts against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IdentityFailureError, VerificationFailureError
from .factor import phi_min
from .intpoly import palindrome_fold
from .sequences import cyclotomic, divisors, fibonacci, zpread


def primitive_part(n: int) -> int:
    """The positive integer attached to divisor n in the Fibonacci product.

    p_1 = p_2 = 1; for n >= 3, p_n = |c_0 + sum_{k>=1} (-1)^k * c_k * Luc(2k)|
    with c_k the folded weights of the n-th cyclotomic polynomial.

    >>> [primitive_part(n) for n in (1, 2, 3, 11, 12)]
    [1, 1, 2, 89, 6]
    """
    if n < 1:
        raise ValueError("index must be positive")
    if n <= 2:
        return 1
    c = palindrome_fold(cyclotomic(n))
    # Clenshaw for L_k = x*L_{k-1} - L_{k-2} at x = -3, as factor.psi runs it
    # on coefficient lists: b_k = c_k - 3*b_{k+1} - b_{k+2} and the sum is
    # c_0 - 3*b_1 - 2*b_2.
    b1 = b2 = 0
    for k in range(len(c) - 1, 0, -1):
        b1, b2 = c[k] - 3 * b1 - b2, b1
    return abs(c[0] - 3 * b1 - 2 * b2)


def part_from_minimal_polynomial(n: int) -> int:
    """p_n by its definition, |phi_n(5)| with phi_n built whole (p_1 = 1).

    Far slower than ``primitive_part``; ``fib_factorization`` never calls it.
    """
    if n < 1:
        raise ValueError("index must be positive")
    return 1 if n == 1 else abs(phi_min(n).eval_int(5))


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
            "parts": [{"d": d, "p": str(p)} for d, p in self.parts],
            "reconstructed": str(self.reconstructed),
        }

    def to_text(self) -> str:
        product = " * ".join(str(p) for _, p in self.parts)
        lines = [f"F[{self.n}] = {self.reconstructed} = {product}"]
        for d, p in self.parts:
            lines.append(f"  d={d}  p={p}")
        return "\n".join(lines)


def fib_factorization(n: int) -> PrimitivePartTable:
    """Primitive parts for every divisor of n, verified against F_n."""
    if n < 1:
        raise ValueError("index must be positive")
    parts = tuple((d, primitive_part(d)) for d in divisors(n))
    product = 1
    for _, p in parts:
        product *= p
    expected = fibonacci(n)
    if product != expected:
        raise VerificationFailureError(
            f"primitive parts of {n} multiply to {product}, not F_{n} = {expected}"
        )
    return PrimitivePartTable(n, parts, product)


def zpread_at5_identity(n: int) -> bool:
    """Check Z_n(5) = (-1)^(n-1) * 5 * F_n^2 exactly; raises on mismatch."""
    if n < 1:
        raise ValueError("index must be positive")
    left = zpread(n).eval_int(5)
    f = fibonacci(n)
    right = 5 * f * f if n % 2 else -5 * f * f
    if left != right:
        raise IdentityFailureError(f"zpread value at 5 for n={n}", left, right)
    return True
