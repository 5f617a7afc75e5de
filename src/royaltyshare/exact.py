"""Exact Shapley solvers and the leave-one-out contrast.

Two independent exact routes are provided. :func:`exact_shapley` implements
the stratified subset formula

    phi_i = (1/n) * sum_{k=1..n} C(n-1, k-1)^{-1}
                  * sum_{S subset of N\\{i}, |S| = k-1} [v(S + i) - v(S)]

with exact integer binomial weights and exactly rounded (fsum) accumulation
per stratum. :func:`exact_shapley_by_permutations` averages marginal
contributions over all ``n!`` orderings instead; it exists so each route can
check the other. Every solver returns a float64 array of one value per
player, as :func:`loo_scores` does.

Every solver here is table first: it fills the game's 2^n utility table once
through :meth:`~royaltyshare.games.CoalitionGame.evaluate_many`, so the oracle
is paid at most once per coalition, and then works on that array alone. One
stratified kernel serves both stratified solvers. It gathers each player's
marginals by inserting a zero bit at that player into the size-ordered
coalitions of the others, so every stratum is a contiguous slice and one
fsum. :func:`exact_shapley` divides those stratum sums by their binomial
weights, and :func:`exact_permission_shapley` takes the developer's
permission game from the same sums with the (n+1)-player weights, plus one
pass over the owners' table for the developer.

The stratum sums are cached per process, for the last 16 distinct tables,
keyed by the sha256 of the table's bytes (a table holds ``2**n`` floats, so
its bytes fix n), as tuples no caller can change. ``attribute``,
``developer-share`` and ``compare-loo`` on one game's content each fill
their own table, so the oracle sees the same calls as before, but the
stratified pass runs once. A pass that raises stores nothing: the same
table raises again on the next call. The size-ordered coalitions the pass
and the developer's strata walk are built once per n.

fsum accumulation is order independent, which has a useful consequence:
players whose marginal contribution multisets coincide get bit-identical
Shapley values, so symmetry and duplication results hold exactly rather than
within a tolerance.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math

import numpy as np

from .cache import DigestCache
from .errors import TooManyPlayersError
from .games import CoalitionGame, full_coalition

# Above this the 2^n subset enumeration stops being a desk-scale computation.
DEFAULT_EXACT_LIMIT = 20

# n! enumeration grows faster still.
PERMUTATION_LIMIT = 10

# Compact fsum buffers once they reach this length; keeps memory bounded for
# the n=10 permutation enumeration without giving up exact rounding.
_FSUM_CHUNK = 1 << 16

# Distinct utility tables whose stratum sums stay cached.
_CACHE_SIZE = 16

# Utility table bytes -> its stratum sums.
_STRATA = DigestCache(_CACHE_SIZE)


def _utility_table(game: CoalitionGame) -> np.ndarray:
    """All ``2**n`` utilities of ``game``, indexed by coalition bitmask."""
    return game.evaluate_many(np.arange(1 << game.n, dtype=np.int64))


@functools.cache
def _coalitions_by_size(n: int) -> np.ndarray:
    """Every coalition of ``n`` players, grouped by size, ascending in a group.

    Group ``j`` (size ``j``) holds ``C(n, j)`` coalitions. Built once per n
    and returned read-only; for n up to 20 all of them take 16 MB.
    """
    sizes = np.zeros(1 << n, dtype=np.int8)
    for i in range(n):
        sizes[1 << i : 2 << i] = sizes[: 1 << i] + 1
    order = np.argsort(sizes, kind="stable")
    order.flags.writeable = False
    return order


def _stratum_sums(table: np.ndarray, n: int) -> tuple[tuple[float, ...], ...]:
    """``F[i][k]``: the fsum of player i's marginals over the size-k coalitions without i.

    Cached per table content: ``table`` holds ``2**n`` floats, so the sha256
    of its bytes fixes n as well. A pass that raises stores nothing.
    """
    table = np.ascontiguousarray(table, dtype=np.float64)
    return _STRATA.get(hashlib.sha256(table.data).digest(), lambda: _stratum_pass(table, n))


def _stratum_pass(table: np.ndarray, n: int) -> tuple[tuple[float, ...], ...]:
    """The stratum sums of :func:`_stratum_sums`, computed from ``table``.

    Player i's marginals are ``v(S + i) - v(S)`` over the ``C(n-1, k)``
    coalitions S of size k without i. Inserting a zero bit at i into the
    size-ordered coalitions of the other ``n - 1`` players gives those S for
    every k at once, each stratum a contiguous slice and one fsum.
    """
    others = _coalitions_by_size(max(n - 1, 0))
    bounds = list(itertools.accumulate((math.comb(n - 1, k) for k in range(n)), initial=0))
    sums = []
    for i in range(n):
        without = ((others >> i) << (i + 1)) | (others & ((1 << i) - 1))
        marginals = memoryview(table[without | (1 << i)] - table[without])
        sums.append(tuple(math.fsum(marginals[a:b]) for a, b in zip(bounds, bounds[1:])))
    return tuple(sums)


def _check_limit(n: int) -> None:
    if n > DEFAULT_EXACT_LIMIT:
        raise TooManyPlayersError(
            f"{n} players exceeds exact enumeration limit {DEFAULT_EXACT_LIMIT}")


def exact_shapley(game: CoalitionGame) -> np.ndarray:
    """Exact Shapley values, one float per player, by stratified subset enumeration.

    The utility table is filled once through :meth:`CoalitionGame.evaluate_many`;
    each stratum is then one fsum over that table.

    Raises :class:`TooManyPlayersError` when ``game.n`` exceeds
    ``DEFAULT_EXACT_LIMIT`` (20); beyond that the 2^n enumeration is no
    longer appropriate and a sampling estimator should be used.
    """
    n = game.n
    _check_limit(n)
    values = [
        math.fsum([f / math.comb(n - 1, k) for k, f in enumerate(strata)]) / n
        for strata in _stratum_sums(_utility_table(game), n)
    ]
    return np.array(values, dtype=float)


def exact_permission_shapley(game: CoalitionGame) -> np.ndarray:
    """Exact Shapley values of ``game``'s permission game, from ``game``'s table.

    The permission game adds a developer as player ``n`` and is worth
    ``v(S minus developer)`` when the developer is in S, zero otherwise.
    Entry ``n`` of the result is the developer. The numbers are those of
    :func:`exact_shapley` on the ``(n+1)``-player game, bit for bit, without
    building it: there, owner i's stratum ``k + 1`` holds its stratum k of
    ``game`` plus exact zeros (the coalitions without the developer), so it
    is ``F[i][k] / C(n, k+1)``, and its stratum 0 is one zero. The
    developer's stratum k holds ``v(T)`` for the ``C(n, k)`` coalitions T of
    k owners.

    Raises :class:`TooManyPlayersError` when ``game.n``, the owner count,
    exceeds ``DEFAULT_EXACT_LIMIT``.
    """
    n = game.n
    _check_limit(n)
    table = _utility_table(game)
    values = [
        math.fsum([0.0] + [f / math.comb(n, k + 1) for k, f in enumerate(strata)]) / (n + 1)
        for strata in _stratum_sums(table, n)
    ]
    by_size = memoryview(table[_coalitions_by_size(n)])
    bounds = list(itertools.accumulate((math.comb(n, k) for k in range(n + 1)), initial=0))
    developer = [math.fsum(by_size[a:b]) / (b - a) for a, b in zip(bounds, bounds[1:])]
    values.append(math.fsum(developer) / (n + 1))
    return np.array(values, dtype=float)


def exact_shapley_by_permutations(game: CoalitionGame) -> np.ndarray:
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
                buf[:] = _exact_parts(buf)
    total = math.factorial(n)
    return np.array([math.fsum(buf) / total for buf in buffers])


def _exact_parts(values: list[float]) -> list[float]:
    """Floats whose exact sum is that of ``values``, so an fsum over them rounds alike.

    The first part is the fsum of ``values``, which alone would round the
    partial sum; each next one is the rounded rest, until the rest is exactly
    zero, or not finite as an fsum of the whole would be.
    """
    parts: list[float] = []
    while True:
        parts.append(math.fsum(values + [-p for p in parts]))
        if parts[-1] == 0.0 or not math.isfinite(parts[-1]):
            return parts


def loo_scores(game: CoalitionGame) -> np.ndarray:
    """Leave-one-out scores: ``v(N) - v(N minus i)`` for each player.

    Costs exactly ``n + 1`` distinct oracle evaluations. Provided as the
    contrast baseline: under exact data duplication LOO collapses to zero for
    every copy while Shapley values split the credit.
    """
    grand = full_coalition(game.n)
    vals = game.evaluate_many([grand] + [grand & ~(1 << i) for i in range(game.n)])
    return vals[0] - vals[1:]
