"""Exception types.

Exceptions are reserved for malformed or unsupported input. Mathematical
invalidity (a family that fails to cover some difference, a plane table with
a repeated pair) is reported through result objects, never raised.
"""

from __future__ import annotations


class KaleidoError(Exception):
    """Base class for every error raised by this package."""


class MalformedInput(KaleidoError):
    """Input does not have the required shape or type."""


class UntiledLayout(MalformedInput):
    """A layout's lines miss or repeat a position pair.

    ``name`` is the layout's name and ``first_violation`` its first such
    pair, in lexicographic order, as ``((i, j), count)``.
    """

    def __init__(self, name: str, first_violation: tuple):
        self.name = name
        self.first_violation = first_violation
        pair, count = first_violation
        super().__init__(
            f"layout covers position pair {pair} {count} times, wanted 1"
        )


class NonPrimeModulus(KaleidoError):
    """A prime was required and the given modulus is composite."""


class ReducibleModulus(KaleidoError):
    """The extension-field modulus polynomial factors over the base field."""


class OrderTooSmall(KaleidoError):
    """The structure is too small for the requested operation."""


class ZeroElement(KaleidoError):
    """Zero was passed where a nonzero element is required."""


class BadCongruence(KaleidoError):
    """The order fails a congruence condition required by the operation."""


class DuplicateElements(KaleidoError):
    """A collection that must consist of distinct elements has a repeat."""


class InvalidKDF(KaleidoError):
    """A family failed verification where a verified family is required."""


class NotAUnitalDesign(KaleidoError):
    """The block collection is not a 2-design with a single block size
    and every point pair covered exactly once."""


class IngredientInvalid(KaleidoError):
    """A composition ingredient failed its own verification."""


class SchemaMismatch(KaleidoError):
    """Two objects that must share one plane layout use different ones."""


class MissingIngredient(KaleidoError):
    """The catalog has no entry for a required block size."""

    def __init__(self, size: int):
        self.size = size
        super().__init__(f"no catalog entry for block size {size}")


class InvalidPBD(KaleidoError):
    """The block collection does not cover every point pair exactly once."""


class NotAnInitialBlock(KaleidoError):
    """The block has a line whose differences do not spread over all
    three classes."""


class UnsupportedOrder(KaleidoError):
    """The order or layout is out of reach: past the exhaustive search's
    bound, or a probable prime past the bound of the exact prime test."""
