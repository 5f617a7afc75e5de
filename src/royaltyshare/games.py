"""Coalition games over bitset coalitions with memoized utility evaluation.

A coalition is a plain ``int`` used as a bitset: bit ``i`` set means player
``i`` is a member. Using machine integers keeps coalition handling allocation
free and makes dictionary memoization cheap. Games are sized at construction;
any number of players up to the word size works, and solvers impose their own
tighter caps.

A utility oracle is any callable ``oracle(coalition) -> float``. Oracles must
be pure and deterministic: repeated calls with the same coalition return the
same value bit for bit. Oracles signal failure by raising, most specifically
:class:`~royaltyshare.errors.OracleFailureError`, which callers see unchanged.

An oracle may also be a batch oracle: one with a method
``many(coalitions) -> array`` that returns the utilities of a list of
coalitions, equal bit for bit to calling the oracle on each one. A batch either
returns every value or raises, and a batch that raises leaves nothing in the
memo. :class:`~royaltyshare.density.CoalitionDensityOracle` is one.

:meth:`CoalitionGame.evaluate_many` is the evaluation path the solvers use: an
array of coalitions in, an array of utilities out, with only the coalitions
missing from the memo sent to the oracle, as one ``many`` call when the oracle
has it and one call per coalition otherwise. :meth:`CoalitionGame.evaluate`
reads one coalition through the same memo.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

import numpy as np

from .errors import CoalitionBoundsError

Coalition = int
UtilityOracle = Callable[[Coalition], float]

EMPTY: Coalition = 0

# Coalitions are word-sized bitsets; solvers cap n far below this anyway.
MAX_PLAYERS = 64


def coalition_from_members(members: Iterable[int], n: int) -> Coalition:
    """Build a coalition bitset from player indices.

    Duplicates collapse silently. Indices outside ``range(n)`` raise
    :class:`CoalitionBoundsError`.
    """
    mask = 0
    for i in members:
        if not 0 <= i < n:
            raise CoalitionBoundsError(f"player index {i} outside range(0, {n})")
        mask |= 1 << i
    return mask


def coalition_members(s: Coalition) -> list[int]:
    """Return the sorted player indices contained in ``s``."""
    out = []
    i = 0
    while s:
        if s & 1:
            out.append(i)
        s >>= 1
        i += 1
    return out


def coalition_size(s: Coalition) -> int:
    return int(s).bit_count()


def full_coalition(n: int) -> Coalition:
    return (1 << n) - 1


class CoalitionGame:
    """A cooperative game: player count plus a memoized utility oracle.

    Evaluation results are cached per coalition, so any solver built on top
    pays for each coalition at most once. ``eval_count`` reports how many
    oracle invocations actually happened; with memoization enabled it never
    exceeds ``2**n``.

    Evaluation is safe to call from several threads. Distinct coalitions
    evaluate in parallel; concurrent calls on the same coalition may duplicate
    oracle work, but the first stored value wins and every caller sees it.
    """

    def __init__(self, n: int, oracle: UtilityOracle, *, memoize: bool = True):
        if not 0 <= n <= MAX_PLAYERS:
            raise CoalitionBoundsError(f"player count {n} outside [0, {MAX_PLAYERS}]")
        self.n = n
        self._oracle = oracle
        self._memoize = memoize
        self._cache: dict[Coalition, float] = {}
        self._eval_count = 0
        self._lock = threading.Lock()

    @property
    def eval_count(self) -> int:
        return self._eval_count

    @property
    def cache(self) -> dict[Coalition, float]:
        """Read-only view intent: mutate only through the evaluate methods."""
        return self._cache

    def evaluate(self, s: Coalition) -> float:
        """Return the oracle's utility for coalition ``s``, caching it.

        Raises :class:`CoalitionBoundsError` if ``s`` sets bits at or above
        ``self.n``. Oracle exceptions propagate to the caller and nothing is
        cached for that coalition.
        """
        if s < 0 or (s >> self.n):
            raise self._out_of_range(s)
        if not self._memoize:
            value = float(self._oracle(s))
            with self._lock:
                self._eval_count += 1
            return value
        try:
            return self._cache[s]
        except KeyError:
            pass
        value = float(self._oracle(s))
        with self._lock:
            if s not in self._cache:
                self._cache[s] = value
                self._eval_count += 1
            return self._cache[s]

    def evaluate_many(self, masks) -> np.ndarray:
        """Return the utilities of an integer array of coalitions, same shape.

        Coalitions already in the memo are read from it; the missing ones go
        to the oracle once each, in order of first appearance, and are
        counted in ``eval_count`` exactly as :meth:`evaluate` would count
        them. Without memoization every entry is an oracle call. Raises
        :class:`CoalitionBoundsError` before any oracle call if an entry sets
        bits at or above ``self.n``. If the oracle raises, the coalitions
        evaluated before it are kept and counted, the failing one is not; a
        batch oracle's ``many`` call that raises keeps and counts nothing.
        """
        arr = np.asarray(masks)
        if arr.size and arr.dtype.kind not in "iu":
            raise CoalitionBoundsError(f"coalitions must be integer bitsets, got {arr.dtype}")
        keys = arr.ravel().tolist()
        if arr.size and (arr.min() < 0 or max(keys) >> self.n):
            raise self._out_of_range(min(keys) if arr.min() < 0 else max(keys))
        if not self._memoize:
            values: list[float] = []
            try:
                self._call_oracle(keys, values)
            finally:
                with self._lock:
                    self._eval_count += len(values)
            return np.array(values, dtype=float).reshape(arr.shape)
        cache = self._cache
        missing = [s for s in dict.fromkeys(keys) if s not in cache]
        fresh: list[float] = []
        try:
            self._call_oracle(missing, fresh)
        finally:
            with self._lock:
                for s, value in zip(missing, fresh):
                    if s not in cache:
                        cache[s] = value
                        self._eval_count += 1
        return np.array([cache[s] for s in keys], dtype=float).reshape(arr.shape)

    def _call_oracle(self, coalitions: list[Coalition], out: list[float]) -> None:
        """Append the utilities of ``coalitions`` to ``out``, in order."""
        batch = getattr(self._oracle, "many", None)
        if batch is None:
            for s in coalitions:
                out.append(float(self._oracle(s)))
        elif coalitions:
            out.extend(np.asarray(batch(coalitions), dtype=float).tolist())

    def _out_of_range(self, s: Coalition) -> CoalitionBoundsError:
        return CoalitionBoundsError(
            f"coalition {bin(s)} uses players outside range(0, {self.n})"
        )

    def grand_coalition(self) -> Coalition:
        return full_coalition(self.n)
