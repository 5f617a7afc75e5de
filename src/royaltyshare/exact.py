"""Exact Shapley solvers and the leave-one-out contrast.

Two independent exact routes are provided. :func:`exact_shapley` implements
the stratified subset formula

    phi_i = (1/n) * sum_{k=1..n} C(n-1, k-1)^{-1}
                  * sum_{S subset of N\\{i}, |S| = k-1} [v(S + i) - v(S)]

with exact integer binomial weights and exactly rounded (fsum) accumulation
per stratum. :func:`exact_shapley_by_permutations` averages marginal
contributions over all ``n!`` orderings instead; it exists so each route can
check the other.

Every solver here is table first: it fills the game's 2^n utility table once
through :meth:`~royaltyshare.games.CoalitionGame.evaluate_many`, so the oracle
is paid at most once per coalition, and then works on that array alone.
:func:`exact_permission_shapley` solves the developer's permission game from
the same table without building the (n+1)-player game.

fsum accumulation is order independent, which has a useful consequence:
players whose marginal contribution multisets coincide get bit-identical
Shapley values, so symmetry and duplication results hold exactly rather than
within a tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import TooManyPlayersError
from .games import CoalitionGame, full_coalition

# Above this the 2^n subset enumeration stops being a desk-scale computation.
DEFAULT_EXACT_LIMIT = 20

# n! enumeration grows faster still.
PERMUTATION_LIMIT = 10

# Compact fsum buffers once they reach this length; keeps memory bounded for
# the n=10 permutation enumeration without giving up exact rounding.
_FSUM_CHUNK = 1 << 16


@dataclass(frozen=True)
class ShapleyVector:
    """Attribution scores, one per player, plus the method that produced them.

    ``method`` is ``"stratified"`` or ``"permutation"`` for the exact solvers
    and ``"estimated"`` for Monte Carlo estimates.
    """

    values: np.ndarray
    method: str

    def __len__(self) -> int:
        return len(self.values)


def _utility_table(game: CoalitionGame) -> np.ndarray:
    """All ``2**n`` utilities of ``game``, indexed by coalition bitmask."""
    return game.evaluate_many(np.arange(1 << game.n, dtype=np.int64))


def _coalitions_by_size(n: int) -> np.ndarray:
    """Every coalition of ``n`` players, grouped by size, ascending in a group.

    Group ``j`` (size ``j``) holds ``C(n, j)`` coalitions.
    """
    sizes = np.zeros(1 << n, dtype=np.int8)
    for i in range(n):
        sizes[1 << i : 2 << i] = sizes[: 1 << i] + 1
    return np.argsort(sizes, kind="stable")


def _groups(values: np.ndarray, lengths: list[int]) -> list[list[float]]:
    """Split ``values`` into consecutive runs of the given lengths."""
    out = []
    start = 0
    for length in lengths:
        out.append(values[start : start + length].tolist())
        start += length
    return out


def _table_by_size(game: CoalitionGame, exact_limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The utility table and the coalitions grouped by size, for ``n <= exact_limit``."""
    n = game.n
    if n > exact_limit:
        raise TooManyPlayersError(f"{n} players exceeds exact enumeration limit {exact_limit}")
    return _utility_table(game), _coalitions_by_size(n)


def _marginal_groups(table: np.ndarray, by_size: np.ndarray, n: int):
    """Per player i, its marginals ``v(S + i) - v(S)`` as lists grouped by ``|S|``."""
    lengths = [math.comb(n - 1, j) for j in range(n)]
    for i in range(n):
        without = by_size[(by_size & (1 << i)) == 0]
        yield _groups(table[without | (1 << i)] - table[without], lengths)


def _stratified(groups: list[list[float]], players: int) -> float:
    """One fsum per stratum ``k``, divided by ``C(players - 1, k)``, then one
    fsum over the strata, divided by ``players``."""
    strata = [math.fsum(group) / math.comb(players - 1, k) for k, group in enumerate(groups)]
    return math.fsum(strata) / players


def exact_shapley(game: CoalitionGame, exact_limit: int = DEFAULT_EXACT_LIMIT) -> ShapleyVector:
    """Compute exact Shapley values by stratified subset enumeration.

    The utility table is filled once through :meth:`CoalitionGame.evaluate_many`;
    each stratum is then one fsum over that table.

    Raises :class:`TooManyPlayersError` when ``game.n`` exceeds
    ``exact_limit`` (default 20); beyond that the 2^n enumeration is no
    longer appropriate and a sampling estimator should be used.
    """
    table, by_size = _table_by_size(game, exact_limit)
    values = [_stratified(groups, game.n) for groups in _marginal_groups(table, by_size, game.n)]
    return ShapleyVector(np.array(values, dtype=float), method="stratified")


def exact_permission_shapley(
    game: CoalitionGame, exact_limit: int = DEFAULT_EXACT_LIMIT
) -> ShapleyVector:
    """Exact Shapley values of ``game``'s permission game, from ``game``'s table.

    The permission game adds a developer as player ``n`` and is worth
    ``v(S minus developer)`` when the developer is in S, zero otherwise.
    Entry ``n`` of the result is the developer. This computes the same
    numbers, bit for bit, as :func:`exact_shapley` on the ``(n+1)``-player
    game, without building it: every marginal of that game is either a base
    marginal, ``v(S)`` for the developer, or an exact zero.

    Raises :class:`TooManyPlayersError` when ``game.n`` exceeds ``exact_limit``.
    """
    n = game.n
    table, by_size = _table_by_size(game, exact_limit)
    values = []
    for groups in _marginal_groups(table, by_size, n):
        # Stratum k of the n+1 players holds the base marginals over
        # |T| = k - 1 (coalitions with the developer) and C(n-1, k) exact
        # zeros (coalitions without). One 0.0 stands for the zeros: fsum of
        # exact zeros depends only on whether a +0.0 is among them. Stratum 0
        # is the empty coalition alone, a zero marginal.
        for group in groups[:-1]:
            group.append(0.0)
        values.append(_stratified([[0.0], *groups], n + 1))
    # The developer's marginal on a coalition S of owners is v(S) - 0.0, which
    # is v(S) exactly; stratum k sums it over |S| = k.
    values.append(_stratified(_groups(table[by_size], [math.comb(n, j) for j in range(n + 1)]),
                              n + 1))
    return ShapleyVector(np.array(values, dtype=float), method="stratified")


def exact_shapley_by_permutations(game: CoalitionGame) -> ShapleyVector:
    """Compute exact Shapley values by enumerating all ``n!`` orderings.

    Deliberately a different code path from :func:`exact_shapley`; agreement
    between the two is a correctness check, not a tautology. Capped at
    ``n <= 10``.
    """
    n = game.n
    if n > PERMUTATION_LIMIT:
        raise TooManyPlayersError(
            f"{n} players exceeds permutation enumeration limit {PERMUTATION_LIMIT}"
        )
    # The walks below index the table as a list, which is much faster than
    # reading numpy scalars n * n! times.
    vals = _utility_table(game).tolist()
    buffers: list[list[float]] = [[] for _ in range(n)]
    for perm in itertools.permutations(range(n)):
        mask = 0
        prev = vals[0]
        for p in perm:
            mask |= 1 << p
            cur = vals[mask]
            buffers[p].append(cur - prev)
            prev = cur
        for buf in buffers:
            if len(buf) >= _FSUM_CHUNK:
                buf[:] = [math.fsum(buf)]
    total = math.factorial(n)
    values = np.array([math.fsum(buf) / total for buf in buffers])
    return ShapleyVector(values, method="permutation")


def loo_scores(game: CoalitionGame) -> np.ndarray:
    """Leave-one-out scores: ``v(N) - v(N minus i)`` for each player.

    Costs exactly ``n + 1`` distinct oracle evaluations. Provided as the
    contrast baseline: under exact data duplication LOO collapses to zero for
    every copy while Shapley values split the credit.
    """
    grand = full_coalition(game.n)
    # A uint64 array: numpy infers float64 for a list of ints on both sides of 2**63.
    vals = game.evaluate_many(
        np.array([grand] + [grand & ~(1 << i) for i in range(game.n)], dtype=np.uint64))
    return vals[0] - vals[1:]
