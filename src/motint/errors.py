"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class
here, so that library code never has to raise bare ValueError for a
domain-specific problem.
"""

from __future__ import annotations


class MotintError(Exception):
    """Base class for all library errors."""


class NotInA(MotintError):
    """A rational function in L falls outside the coefficient ring.

    The coefficient ring consists of Laurent polynomials in L with the
    elements 1/(1 - L^-i) adjoined; in lowest terms its members have
    denominators whose irreducible factors are L or cyclotomic.
    """


class QOutOfRange(MotintError):
    """Numeric evaluation requested at a point q <= 1."""


class NotIntegrable(MotintError):
    """A fiber sum diverges in some unbounded direction."""


class FrameMismatch(MotintError):
    """Two objects were combined over incompatible variable frames."""


class SortError(MotintError):
    """A term or formula is ill-sorted."""


class ParseError(MotintError):
    """Input text does not conform to the grammar."""


class CapExceeded(MotintError):
    """An enumeration would exceed the configured tuple cap."""

    def __init__(self, message: str, needed: int | None = None, cap: int | None = None):
        super().__init__(message)
        self.needed = needed
        self.cap = cap


class OutsideFragment(MotintError):
    """A condition uses constructs the cell decomposer does not handle."""


class NotCellPresented(MotintError):
    """An integrand lacks the nested cell presentation the iterator needs."""


class ZeroDerivative(MotintError):
    """An affine substitution with zero linear coefficient is not a change
    of variables."""


class UnsupportedH(MotintError):
    """The zeta pipeline only accepts monomials with explicit coefficient."""


class NonGeometricFamily(MotintError):
    """A cell family's volumes do not decay geometrically in the index."""
