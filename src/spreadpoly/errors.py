"""Exception types raised by the spreadpoly kernel.

Division by the zero polynomial raises the builtin ZeroDivisionError, and
an operand or coefficient that is not an int (a float, a Fraction, a
string) raises the builtin TypeError; everything else derives from
SpreadPolyError so callers can catch the whole family at once.
"""

from __future__ import annotations

from decimal import Decimal


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
        self.left = left
        self.right = right
        # str(Decimal(i)) is str(i), also past the int/str digit limit.
        super().__init__(f"{message}: {Decimal(left)} != {Decimal(right)}")


class OutOfBoundsError(SpreadPolyError, ValueError):
    """An index, sweep, exponent, tolerance, suite name or digit string outside the accepted range."""


class ConfigurationError(SpreadPolyError):
    """A ``SPREADPOLY_*`` environment variable is malformed or out of range."""

