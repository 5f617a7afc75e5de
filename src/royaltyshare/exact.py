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
is paid at most once per coalition, and then works on that array alone. One
stratified kernel serves both stratified solvers. It gathers each player's
marginals by inserting a zero bit at that player into the size-ordered
coalitions of the others, so every stratum is a contiguous slice and one
fsum. :func:`exact_shapley` runs it on the game's table, and
:func:`exact_permission_shapley` on the developer's permission game, whose
(n+1)-player table is the owners' table behind a half of zeros.

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


def _shapley_from_table(table: np.ndarray, n: int) -> np.ndarray:
    """Shapley values of the ``n``-player game whose utility table is ``table``.

    Player i's stratum k is its marginals ``v(S + i) - v(S)`` over the
    ``C(n-1, k)`` coalitions S of size k without i. Inserting a zero bit at i
    into the size-ordered coalitions of the other ``n - 1`` players gives those
    S for every k at once, each stratum a contiguous slice. One fsum per
    stratum, divided by ``C(n-1, k)``, then one fsum over the strata, divided
    by ``n``.
    """
    others = _coalitions_by_size(max(n - 1, 0))
    weights = [math.comb(n - 1, k) for k in range(n)]
    bounds = list(itertools.accumulate(weights, initial=0))
    values = []
    for i in range(n):
        without = ((others >> i) << (i + 1)) | (others & ((1 << i) - 1))
        marginals = memoryview(table[without | (1 << i)] - table[without])
        strata = [math.fsum(marginals[a:b]) / w for a, b, w in zip(bounds, bounds[1:], weights)]
        values.append(math.fsum(strata) / n)
    return np.array(values, dtype=float)


def _check_limit(n: int, exact_limit: int) -> None:
    if n > exact_limit:
        raise TooManyPlayersError(f"{n} players exceeds exact enumeration limit {exact_limit}")


def exact_shapley(game: CoalitionGame, exact_limit: int = DEFAULT_EXACT_LIMIT) -> ShapleyVector:
    """Compute exact Shapley values by stratified subset enumeration.

    The utility table is filled once through :meth:`CoalitionGame.evaluate_many`;
    each stratum is then one fsum over that table.

    Raises :class:`TooManyPlayersError` when ``game.n`` exceeds
    ``exact_limit`` (default 20); beyond that the 2^n enumeration is no
    longer appropriate and a sampling estimator should be used.
    """
    _check_limit(game.n, exact_limit)
    return ShapleyVector(_shapley_from_table(_utility_table(game), game.n), method="stratified")


def exact_permission_shapley(
    game: CoalitionGame, exact_limit: int = DEFAULT_EXACT_LIMIT
) -> ShapleyVector:
    """Exact Shapley values of ``game``'s permission game, from ``game``'s table.

    The permission game adds a developer as player ``n`` and is worth
    ``v(S minus developer)`` when the developer is in S, zero otherwise: its
    utility table is a zero half, the coalitions without the developer,
    followed by ``game``'s table. Entry ``n`` of the result is the developer.
    The numbers are those of :func:`exact_shapley` on the ``(n+1)``-player
    game, bit for bit, without building it.

    Raises :class:`TooManyPlayersError` when ``game.n``, the owner count,
    exceeds ``exact_limit``.
    """
    n = game.n
    _check_limit(n, exact_limit)
    values = _shapley_from_table(np.concatenate([np.zeros(1 << n), _utility_table(game)]), n + 1)
    return ShapleyVector(values, method="stratified")


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
    vals = game.evaluate_many([grand] + [grand & ~(1 << i) for i in range(game.n)])
    return vals[0] - vals[1:]
