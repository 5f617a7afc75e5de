"""Exception types shared across the package."""

from __future__ import annotations


class RoyaltyShareError(Exception):
    """Base class for all package errors."""


class CoalitionBoundsError(RoyaltyShareError):
    """A player index falls outside the game's player range."""


class TooManyPlayersError(RoyaltyShareError):
    """An exact solver was asked to enumerate more players than its cap allows."""


class OracleFailureError(RoyaltyShareError):
    """A utility oracle could not produce a value for a coalition."""


class EmptyDatasetError(RoyaltyShareError):
    """A density fit was requested on zero points."""


class DimensionMismatchError(RoyaltyShareError, ValueError):
    """Data does not have the layout expected of it.

    A query point whose dimension differs from a fitted model's, owner data
    of the wrong shape, or a dataset CSV with a bad header, row width or
    owner id. A ``ValueError`` too, like numpy's own shape errors.
    """


class NonFiniteError(RoyaltyShareError):
    """A value that must be finite was NaN or infinite, or is past a bound that keeps it so."""


class DuplicateIdError(RoyaltyShareError):
    """A transaction id was recorded twice."""


class StorageFailureError(RoyaltyShareError):
    """The ledger backend failed to read or write durably."""


class ConfigError(RoyaltyShareError):
    """A run configuration is missing, malformed, or self-contradictory."""
