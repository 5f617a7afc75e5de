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
memo. :class:`AdditiveOracle` (the sum of the members' weights) and
:class:`~royaltyshare.density.CoalitionDensityOracle` are batch oracles, and so
is the developer-augmented oracle of :class:`~royaltyshare.royalty.PermissionGame`.

:meth:`CoalitionGame.evaluate_many` is the evaluation path the solvers use: an
array of coalitions in, an array of utilities out, with only the coalitions
missing from the memo sent to the oracle, as one ``many`` call when the oracle
has it and one call per coalition otherwise. :meth:`CoalitionGame.evaluate`
answers one coalition from the memo when it can and sends a miss through
:meth:`~CoalitionGame.evaluate_many`, so there is one place that calls the
oracle and counts its calls.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CoalitionBoundsError, NonFiniteError, OracleFailureError

Coalition = int
UtilityOracle = Callable[[Coalition], float]

EMPTY: Coalition = 0

# Coalitions are word-sized bitsets; solvers cap n far below this anyway.
MAX_PLAYERS = 64

# Additive weights are split into limbs of this many bits, so a limb summed
# over up to MAX_PLAYERS members stays below 2**37 and is exact in int64.
_LIMB_BITS = 31


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


def full_coalition(n: int) -> Coalition:
    return (1 << n) - 1


def scaled_integers(values: Iterable[float], scale: int = 0) -> tuple[int, list[int]]:
    """Finite floats as exact integers at one power-of-two scale.

    Returns the least ``k >= scale`` for which every value times ``2**k`` is
    an integer, and those integers.
    """
    ratios = [v.as_integer_ratio() for v in values]
    k = max([scale] + [den.bit_length() - 1 for _, den in ratios])
    return k, [num << (k + 1 - den.bit_length()) for num, den in ratios]


class AdditiveOracle:
    """Batch oracle of an additive game: v(S) is the sum of the members' weights.

    Each utility is the exact sum rounded once to the nearest float, ties to
    even, which is bit for bit ``math.fsum`` of the members' weights (an exact
    zero is ``+0.0``, as fsum gives). The weights are held once as integers at
    one power-of-two scale, split into signed limbs of ``_LIMB_BITS`` bits, and
    :meth:`many` adds the members' limbs in int64 over the whole batch.

    With at most two limbs, each limb sum is an exact float, so one float
    addition rounds the total once, and scaling it by ``2**-scale`` is exact:
    a normal result only changes exponent, and a subnormal one is a multiple
    of ``2**-1074`` like every weight, so it is representable. With more
    limbs, each coalition's integer is rebuilt and divided by ``2**scale``, a
    correctly rounded division. A sum beyond the float range raises
    :class:`OracleFailureError`. (Where fsum fails on an intermediate overflow
    but the sum itself is a float, this returns it.)
    """

    def __init__(self, weights: Sequence[float]):
        values = [float(w) for w in weights]
        if not all(map(math.isfinite, values)):
            raise NonFiniteError("additive weights must be finite")
        if len(values) > MAX_PLAYERS:
            raise CoalitionBoundsError(f"{len(values)} weights for at most {MAX_PLAYERS} players")
        self.n = len(values)
        self._scale, ints = scaled_integers(values)
        width = max((abs(v).bit_length() for v in ints), default=0)
        self._limb_count = max(1, -(-width // _LIMB_BITS))
        low = (1 << _LIMB_BITS) - 1
        # Per player, its nonzero limbs as (limb index, signed value).
        self._limbs = [
            [(k, c if v > 0 else -c)
             for k in range(self._limb_count)
             if (c := (abs(v) >> (_LIMB_BITS * k)) & low)]
            for v in ints
        ]

    def many(self, masks: Sequence[Coalition]) -> np.ndarray:
        """Utilities of a sequence of coalitions, as a float array of its length."""
        arr = np.asarray(masks, dtype=np.uint64)
        if arr.size and int(arr.max()) >> self.n:
            raise CoalitionBoundsError(
                f"coalition {bin(int(arr.max()))} uses players outside range(0, {self.n})")
        limbs = np.zeros((self._limb_count, arr.size), dtype=np.int64)
        for i, player in enumerate(self._limbs):
            if player:
                member = ((arr >> np.uint64(i)) & np.uint64(1)).view(np.int64)
                for k, c in player:
                    limbs[k] += member * c
        if self._limb_count > 2:
            return self._divided(limbs)
        total = limbs[0].astype(float)
        if self._limb_count == 2:
            total += limbs[1].astype(float) * float(1 << _LIMB_BITS)
        return np.ldexp(total, -self._scale)

    def _divided(self, limbs: np.ndarray) -> np.ndarray:
        """The coalitions' exact integer totals, each divided by ``2**scale``."""
        totals = limbs[0].astype(object)
        for k in range(1, self._limb_count):
            totals += limbs[k].astype(object) << (_LIMB_BITS * k)
        try:
            return (totals / (1 << self._scale)).astype(float)
        except OverflowError:
            raise OracleFailureError(
                "the weights of a coalition sum beyond the float range") from None

    def __call__(self, s: Coalition) -> float:
        return float(self.many([s])[0])


class CoalitionGame:
    """A cooperative game: player count plus a memoized utility oracle.

    Evaluation results are cached per coalition, so any solver built on top
    pays for each coalition at most once. ``eval_count`` reports how many
    oracle invocations actually happened; it never exceeds ``2**n``.

    Evaluation is safe to call from several threads. Distinct coalitions
    evaluate in parallel; concurrent calls on the same coalition may duplicate
    oracle work, but the first stored value wins and every caller sees it.
    """

    def __init__(self, n: int, oracle: UtilityOracle):
        if not 0 <= n <= MAX_PLAYERS:
            raise CoalitionBoundsError(f"player count {n} outside [0, {MAX_PLAYERS}]")
        self.n = n
        self._oracle = oracle
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
        try:
            return self._cache[s]
        except KeyError:
            return float(self.evaluate_many([s])[0])

    def evaluate_many(self, masks) -> np.ndarray:
        """Return the utilities of an integer array of coalitions, same shape.

        Coalitions already in the memo are read from it; the missing ones go
        to the oracle once each, in order of first appearance, and each adds
        one to ``eval_count``. Raises :class:`CoalitionBoundsError` before
        any oracle call if an entry sets bits at or above ``self.n``. If the
        oracle raises, the coalitions evaluated before it are kept and
        counted, the failing one is not; a batch oracle's ``many`` call that
        raises keeps and counts nothing.
        """
        arr = np.asarray(masks)
        if arr.size and arr.dtype.kind not in "iu":
            raise CoalitionBoundsError(f"coalitions must be integer bitsets, got {arr.dtype}")
        keys = arr.ravel().tolist()
        if arr.size and (arr.min() < 0 or max(keys) >> self.n):
            raise self._out_of_range(min(keys) if arr.min() < 0 else max(keys))
        memo = self._cache
        missing = [s for s in dict.fromkeys(keys) if s not in memo]
        fresh: list[float] = []
        batch = getattr(self._oracle, "many", None)
        try:
            if batch is None:
                for s in missing:
                    fresh.append(float(self._oracle(s)))
            elif missing:
                fresh.extend(np.asarray(batch(missing), dtype=float).tolist())
        finally:
            with self._lock:
                for s, value in zip(missing, fresh):
                    if s not in memo:
                        memo[s] = value
                        self._eval_count += 1
        return np.array([memo[s] for s in keys], dtype=float).reshape(arr.shape)

    def _out_of_range(self, s: Coalition) -> CoalitionBoundsError:
        return CoalitionBoundsError(
            f"coalition {bin(s)} uses players outside range(0, {self.n})"
        )

    def grand_coalition(self) -> Coalition:
        return full_coalition(self.n)
