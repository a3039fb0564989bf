"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class
here, so that library code never has to raise bare ValueError for a
domain-specific problem.

Every resource limit is an entry of ``CAPS``, checked by
``CapExceeded.check``, the one place that raises ``CapExceeded``.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from contextvars import ContextVar


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
    """A computation would pass the cap on one of its resources in
    ``CAPS``: it ``needed`` more than ``cap``."""

    def __init__(self, message: str, needed: int, limit: int):
        super().__init__(message)
        self.needed, self.cap = needed, limit

    @staticmethod
    def check(resource: str, needed: int, what: str, hint=None) -> None:
        """Raise ``CapExceeded`` when ``needed`` passes the cap on
        ``resource``.  ``what`` names the work; ``hint``, called only on
        raising, gives advice, so a check that passes builds no string."""
        limit = CAPS[resource]
        if type(limit) is not int:
            limit = limit()
        if needed > limit:
            tail = f"; {hint()}" if hint else ""
            raise CapExceeded(f"{what} needs {needed}, over the {resource} "
                              f"cap of {limit}{tail}", needed, limit)


_POINTS = ContextVar("points", default=10 ** 8)

# Every resource limit, an int or a function read at each check: "points"
# (ring elements, quantifier values, counting evaluations and term products)
# is set through points_cap; "digits" is the interpreter's int-string limit.
CAPS = {"points": _POINTS.get, "digits": sys.get_int_max_str_digits,
        "degree": 50_000,        # of a power in a ring expression
        "residue atoms": 12,     # residue conditions in one cell
        "pieces": 2_000}         # held while pieces are made disjoint


@contextmanager
def points_cap(n: int | None):
    """Set the points cap (default 10^8) to n inside the block, or keep it."""
    token = _POINTS.set(_POINTS.get() if n is None else n)
    try:
        yield
    finally:
        _POINTS.reset(token)


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
