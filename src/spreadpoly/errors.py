"""Exception types raised by the spreadpoly kernel.

Division by the zero polynomial raises the builtin ZeroDivisionError, and
an operand or coefficient that is not an int (a float, a Fraction, a
string) raises the builtin TypeError; everything else derives from
SpreadPolyError so callers can catch the whole family at once.
"""

from __future__ import annotations

import os


class SpreadPolyError(Exception):
    """Base class for all spreadpoly-specific errors."""


class NotDivisibleError(SpreadPolyError):
    """Exact division left a remainder or a non-integer quotient coefficient."""


class NotPalindromicError(SpreadPolyError):
    """Coefficient sequence does not read the same forwards and backwards."""


class OddDegreeError(SpreadPolyError):
    """Palindrome folding needs an even-degree polynomial."""


class InternalInconsistencyError(SpreadPolyError):
    """A coefficient failed an integrality check that must hold by construction.

    Signals an implementation bug, never a bad argument.
    """


class VerificationFailureError(SpreadPolyError):
    """A factorization or reconstruction did not match its target value."""


class RouteMismatchError(SpreadPolyError):
    """Two computation routes produced different polynomials for the same index."""

    def __init__(self, n, route_a, poly_a, route_b, poly_b):
        self.n = n
        self.route_a = route_a
        self.poly_a = poly_a
        self.route_b = route_b
        self.poly_b = poly_b
        super().__init__(
            f"routes disagree at n={n}: {route_a.value} gave {poly_a}, "
            f"{route_b.value} gave {poly_b}"
        )


class ToleranceExceededError(SpreadPolyError):
    """A floating-point residual exceeded its guarded tolerance."""

    def __init__(self, n, k, residual, bound):
        self.n = n
        self.k = k
        self.residual = residual
        self.bound = bound
        super().__init__(
            f"residual at root k={k} of index n={n} is {residual:.3e}, "
            f"allowed {bound:.3e}"
        )


class IdentityFailureError(SpreadPolyError):
    """An exact identity check failed; carries both evaluated sides."""

    def __init__(self, message, left, right):
        from .intpoly import int_to_digits  # intpoly imports this module
        self.left = left
        self.right = right
        super().__init__(f"{message}: {int_to_digits(left)} != {int_to_digits(right)}")


class OutOfBoundsError(SpreadPolyError, ValueError):
    """An index, sweep, exponent, tolerance, suite name or digit string outside the accepted range."""


class ConfigurationError(SpreadPolyError):
    """A ``SPREADPOLY_*`` environment variable is malformed or out of range."""


def env_int(name: str, default: int, minimum: int) -> int:
    """The integer in environment variable ``name``, or ``default`` when unset or empty.

    Raises ConfigurationError naming the variable, its value and the allowed
    range when the value is not a string of decimal digits 0-9 or is below
    ``minimum``.
    """
    raw = os.environ.get(name, "")
    if not raw:
        return default
    # int() would also take "1_0", " 7 " and non-ASCII digits, and would
    # refuse more digits than the interpreter's int/str conversion limit.
    if raw.isascii() and raw.isdigit():
        from .intpoly import _digits_to_int  # intpoly imports this module
        value = _digits_to_int(raw)
        if value >= minimum:
            return value
    raise ConfigurationError(f"{name}={raw!r} is invalid: expected an integer >= {minimum}")
