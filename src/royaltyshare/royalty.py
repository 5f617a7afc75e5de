"""Turning Shapley values into royalty shares and a developer/data split.

Royalty shares normalize a Shapley vector onto the probability simplex:
negative values are clamped to zero in both numerator and denominator, since
a negative score means a player's data made the output less likely and a
royalty cannot be negative. If every score clamps to zero the shares
degenerate; the vector falls back to uniform and is flagged so callers can
route the case by policy rather than by crash.

The developer's cut comes from a permission structure: an augmented game adds
the model developer as player ``n``, and any coalition without the developer
is worth nothing, because without the trained model there is no output to
sell. Shapley values of the augmented game then price the developer's veto
alongside the owners' data. ``beta_data``, the fraction of revenue flowing to
data owners collectively, is one minus the developer's share of the augmented
game. The exact values come straight from the owners' utility table
(:func:`~royaltyshare.exact.exact_permission_shapley`); the augmented game
itself is built only when a sampling solver asks for it.

Utilities are in nats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteError
from .exact import ShapleyVector, exact_permission_shapley
from .games import Coalition, CoalitionGame, EMPTY, coalition_array

Solver = Callable[[CoalitionGame], ShapleyVector]


@dataclass(frozen=True)
class ShareVector:
    """Nonnegative shares on the simplex, with a degeneracy flag.

    ``degenerate`` is True when every underlying score was zero or negative
    and the shares fell back to uniform.
    """

    shares: np.ndarray
    degenerate: bool

    def __len__(self) -> int:
        return len(self.shares)


def royalty_shares(phi: ShapleyVector | np.ndarray) -> ShareVector:
    """Normalize Shapley values into royalty shares.

    Negative scores are clamped to zero before normalizing. An all-clamped
    vector yields uniform shares with ``degenerate=True``.
    """
    values = np.asarray(phi.values if isinstance(phi, ShapleyVector) else phi, dtype=float)
    if values.size and not np.all(np.isfinite(values)):
        raise NonFiniteError("Shapley values must be finite to define shares")
    clamped = np.maximum(values, 0.0)
    total = math.fsum(clamped.tolist())
    if total > 0.0:
        return ShareVector(clamped / total, degenerate=False)
    n = len(values)
    uniform = np.full(n, 1.0 / n) if n else np.empty(0)
    return ShareVector(uniform, degenerate=True)


class PermissionGame:
    """The owners' game augmented with the developer as a veto player.

    Player indices 0..n-1 are the data owners, player ``n`` is the developer.
    The augmented utility is v(S minus developer) when the developer is in S
    and zero otherwise. The base game must satisfy v(empty) = 0, which holds
    for relative utilities by construction; this is checked eagerly with one
    (memoized) evaluation.

    The exact solve works on the base game alone. :attr:`augmented`, the
    ``(n+1)``-player game that a sampling solver walks, is built on first
    access. Its batch oracle reads the base game through its memo, one
    ``evaluate_many`` call per batch, so solving the permission game costs no
    more base-oracle calls than solving the base game itself.
    """

    def __init__(self, base: CoalitionGame):
        if base.evaluate(EMPTY) != 0.0:
            raise ValueError("permission games require a base game with v(empty) = 0")
        self.base = base
        self.developer = base.n

    @cached_property
    def augmented(self) -> CoalitionGame:
        return CoalitionGame(self.base.n + 1, _DeveloperVeto(self.base))


class _DeveloperVeto:
    """Batch oracle of the augmented game: v(S minus developer) when the
    developer (player ``base.n``) is in S, exactly 0.0 otherwise.

    :meth:`many` reads every coalition holding the developer from the base
    game in one :meth:`~royaltyshare.games.CoalitionGame.evaluate_many` call.
    """

    def __init__(self, base: CoalitionGame):
        self.base = base

    def many(self, masks: Sequence[Coalition]) -> np.ndarray:
        arr = coalition_array(masks, self.base.n + 1)
        dev_bit = np.uint64(1 << self.base.n)
        with_dev = (arr & dev_bit) != 0
        values = np.zeros(arr.size)
        if with_dev.any():
            values[with_dev] = self.base.evaluate_many(arr[with_dev] ^ dev_bit)
        return values


def permission_shapley(pg: PermissionGame, solver: Solver | None = None) -> ShapleyVector:
    """Shapley values of the augmented game; entry ``pg.developer`` is the developer.

    With no ``solver`` the values are exact, computed from the base game's
    utility table. A ``solver`` (a sampling estimator, say) is run on
    :attr:`PermissionGame.augmented` instead.
    """
    if solver is None:
        return exact_permission_shapley(pg.base)
    return solver(pg.augmented)


@dataclass(frozen=True)
class DeveloperSplit:
    """How one unit of revenue divides between the developer and the owners.

    ``owner_payout_fractions[i]`` is owner i's fraction of total revenue, not
    of the owners' pool; the fractions sum to ``beta_data`` unless the split
    is degenerate.
    """

    beta_data: float
    developer_share: float
    owner_payout_fractions: np.ndarray
    degenerate: bool = False


def developer_split(pg: PermissionGame, solver: Solver | None = None) -> DeveloperSplit:
    """Price the developer's share from the permission game itself.

    ``solver`` is passed to :func:`permission_shapley`: None for the exact
    values, or a solver to run on the augmented game.

    The owners' payout fractions equal the augmented-game royalty shares
    restricted to the owners: scaling the owner-renormalized shares by
    ``beta_data`` cancels the renormalization.
    """
    shares = royalty_shares(permission_shapley(pg, solver))
    developer_share = float(shares.shares[pg.developer])
    return DeveloperSplit(
        beta_data=1.0 - developer_share,
        developer_share=developer_share,
        owner_payout_fractions=shares.shares[: pg.developer].copy(),
        degenerate=shares.degenerate,
    )


def fixed_split(beta_data: float, owner_shares: ShareVector) -> DeveloperSplit:
    """Apply a negotiated ``beta_data`` to already-computed owner shares."""
    if not 0.0 <= beta_data <= 1.0:
        raise ValueError(f"beta_data must lie in [0, 1], got {beta_data}")
    return DeveloperSplit(
        beta_data=beta_data,
        developer_share=1.0 - beta_data,
        owner_payout_fractions=beta_data * owner_shares.shares,
        degenerate=owner_shares.degenerate,
    )
