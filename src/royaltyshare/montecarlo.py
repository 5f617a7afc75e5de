"""Monte Carlo Shapley estimation by permutation sampling.

The estimator samples player orderings and walks each one once, charging each
player its marginal contribution when it joins the growing prefix. Averaged
over uniformly random orderings this is an unbiased estimate of the Shapley
value.

:func:`permutation_sample` runs all walks at once: it builds every walk's
prefix coalitions with a cumulative OR over the sampled orderings and
evaluates them in one :meth:`~royaltyshare.games.CoalitionGame.evaluate_many`
batch, so on a memoized game each coalition is paid for once however many
walks visit it.
:func:`truncated_walk` walks a single ordering coalition by coalition; it is
the reference the batched sampler is tested against.

The report's ``estimate`` is a float64 array of one value per player, as
the exact solvers return; it and ``stderr`` are finite for finite marginals.

Reproducibility contract: ordering ``j`` is drawn from a counter-based stream
derived from ``(config.seed, j)`` (:func:`sampled_ordering`; the sampler
computes all walks' stream keys in one pass), and per-permutation results are
reduced in index order. Estimates are therefore a pure function of
``(game, config)``, bit for bit.

Truncation: with ``truncation_tolerance > 0`` a walk stops as soon as the
prefix utility is within the tolerance of the grand coalition's utility, and
every remaining player is charged exactly zero. The batched sampler then
advances the walks one position at a time, evaluating only the walks still
running, so it pays for exactly the coalitions the single walks would. The
grand coalition value is paid for once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .games import CoalitionGame, EMPTY, full_coalition
from .seeding import key_generators, philox_keys, rng_for

DEFAULT_NUM_PERMUTATIONS = 2000

# A player's marginals below 2**480 are reduced as they are: a deviation from
# the mean is below 2**481, so a sum of squares over fewer than 2**60 walks
# stays below 2**1022. Wider ones are scaled below 1 by a power of two and
# back; a standard error is at most the largest marginal, so it stays finite.
_WIDE_EXPONENT = 480


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling budget, root seed, and optional truncation tolerance."""

    num_permutations: int = DEFAULT_NUM_PERMUTATIONS
    seed: int = 0
    truncation_tolerance: float = 0.0

    def __post_init__(self) -> None:
        if self.num_permutations < 1:
            raise ValueError("num_permutations must be at least 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not (math.isfinite(self.truncation_tolerance) and self.truncation_tolerance >= 0):
            raise ValueError("truncation_tolerance must be finite and nonnegative")


@dataclass(frozen=True)
class EstimateReport:
    """A Monte Carlo estimate with its sampling uncertainty and cost."""

    estimate: np.ndarray
    stderr: np.ndarray
    permutations_used: int
    oracle_calls: int


def sampled_ordering(seed: int, index: int, n: int) -> np.ndarray:
    """The ``index``-th sampled player ordering for a given root seed.

    The scalar reference for the orderings :func:`permutation_sample` draws
    from batched keys.
    """
    return rng_for(seed, index).permutation(n)


def truncated_walk(
    game: CoalitionGame,
    ordering: Sequence[int],
    tolerance: float = 0.0,
    *,
    total_utility: float | None = None,
) -> np.ndarray:
    """Walk one ordering and return each player's marginal contribution.

    With ``tolerance == 0`` this is the plain full walk. With a positive
    tolerance the walk stops once ``|v(N) - v(prefix)| <= tolerance`` and the
    players not yet seen are charged exactly 0.0. ``total_utility`` may be
    passed when v(N) is already known; otherwise it is read through the
    game's memo.

    Each prefix is one :meth:`~royaltyshare.games.CoalitionGame.evaluate`
    call, and each miss merges into the memo, a copy of its arrays, so a
    loop of walks costs O(memo) per new coalition: this is a small-n
    reference, not a production path. :func:`permutation_sample` evaluates
    all walks in one batch.
    """
    n = game.n
    if sorted(ordering) != list(range(n)):
        raise ValueError("ordering must be a permutation of range(game.n)")
    check = tolerance > 0
    if check and total_utility is None:
        total_utility = game.evaluate(full_coalition(n))
    marginals = np.zeros(n, dtype=float)
    mask = EMPTY
    prev = game.evaluate(EMPTY)
    for p in ordering:
        if check and abs(total_utility - prev) <= tolerance:
            break
        mask |= 1 << int(p)
        cur = game.evaluate(mask)
        marginals[p] = cur - prev
        prev = cur
    return marginals


def _reduce(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's mean and standard error; only wide columns are rescaled."""
    m = matrix.shape[0]
    exponents = np.frexp(np.abs(matrix).max(axis=0, initial=0.0))[1]
    shifts = np.where(exponents > _WIDE_EXPONENT, exponents, 0)
    scaled = np.ldexp(matrix, -shifts)
    estimate = np.ldexp(scaled.mean(axis=0), shifts)
    if m > 1:
        stderr = np.ldexp(scaled.std(axis=0, ddof=1) / math.sqrt(m), shifts)
    else:
        stderr = np.zeros(matrix.shape[1])
    return estimate, stderr


def _prefix_masks(orderings: np.ndarray) -> np.ndarray:
    """Row ``j``, column ``t``: the coalition of the first ``t + 1`` players of walk ``j``."""
    bits = np.left_shift(np.uint64(1), orderings.astype(np.uint64))
    return np.bitwise_or.accumulate(bits, axis=1)


def permutation_sample(game: CoalitionGame, config: EstimatorConfig) -> EstimateReport:
    """Estimate Shapley values from ``config.num_permutations`` sampled walks.

    The numbers, ``oracle_calls`` included, equal those of running
    :func:`truncated_walk` on each sampled ordering in turn over a memoized
    game.
    """
    n = game.n
    m = config.num_permutations
    tolerance = config.truncation_tolerance
    calls_before = game.eval_count
    keys = philox_keys(config.seed, np.arange(m, dtype=np.uint64))
    orderings = np.array([rng.permutation(n) for rng in key_generators(keys)],
                         dtype=np.int64).reshape(m, n)
    prefixes = _prefix_masks(orderings)
    marginals = np.zeros((m, n), dtype=float)
    if tolerance > 0:
        total = game.evaluate_many([full_coalition(n)])[0]
        prev = np.full(m, game.evaluate_many([EMPTY])[0])
        for t in range(n):
            active = np.flatnonzero(~(np.abs(total - prev) <= tolerance))
            if active.size == 0:
                break
            cur = game.evaluate_many(prefixes[active, t])
            marginals[active, orderings[active, t]] = cur - prev[active]
            prev[active] = cur
    else:
        utilities = game.evaluate_many(
            np.concatenate([np.full((m, 1), EMPTY, dtype=np.uint64), prefixes], axis=1))
        marginals[np.arange(m)[:, None], orderings] = np.diff(utilities, axis=1)
    estimate, stderr = _reduce(marginals)
    return EstimateReport(
        estimate=estimate,
        stderr=stderr,
        permutations_used=m,
        oracle_calls=game.eval_count - calls_before,
    )
