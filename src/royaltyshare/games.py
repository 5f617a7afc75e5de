"""Coalition games over bitset coalitions with memoized utility evaluation.

A coalition is a plain ``int`` used as a bitset: bit ``i`` set means player
``i`` is a member. Coalitions fit one machine word, so a batch of them is a
uint64 array. Games are sized at construction; any number of players up to
the word size works, and solvers impose their own tighter caps.

A utility oracle is any callable ``oracle(coalition) -> float``. Oracles must
be pure and deterministic: repeated calls with the same coalition return the
same value bit for bit. Oracles signal failure by raising, most specifically
:class:`~royaltyshare.errors.OracleFailureError`, which callers see unchanged.
An oracle may also have a method ``many(coalitions) -> array`` that returns
the utilities of a list of coalitions, equal bit for bit to calling the oracle
on each one. :class:`AdditiveOracle` (the sum of the members' weights),
:class:`~royaltyshare.density.CoalitionDensityOracle` and the
developer-augmented oracle of :class:`~royaltyshare.royalty.PermissionGame`
have it.

Exact sums over coalitions share one kernel. Floats become exact integers at
one power-of-two scale (:func:`exact_scale`, :func:`scaled_integers`), and
each player's integers are split into signed int64 limbs (:func:`integer_limbs`);
:func:`subset_sums` adds the members' limbs for a whole batch of coalitions,
one broadcast multiply-add per player, and :func:`limb_integers` rebuilds the
totals as Python ints, which :func:`scaled_floats` rounds once. The additive
oracle sums one integer per player this way, and the Gaussian density oracle
each owner's count and moment sums.

:class:`CoalitionMemo` pays for each coalition's value once: the coalitions
seen so far, sorted as uint64, and their values, float64 numbers or rows.
Under its lock it looks a whole batch up with one ``searchsorted``, dedupes
the misses with ``np.unique``, computes them in one call and merges them in
linear time with :func:`merge_sorted`, so each coalition is computed once,
even across threads, and a batch either returns one value per coalition or
keeps nothing. A game's utilities and the density oracle's Gaussian fits
are each held in one.

:meth:`CoalitionGame.evaluate_many` is the one evaluation path: an array of
coalitions in, an array of utilities out, the misses sent to the oracle as
one batch through :func:`_batch_values`. :meth:`CoalitionGame.evaluate` is
``evaluate_many`` of one coalition. An oracle may evaluate another game, as
the permission game's oracle reads the base game, but never the game it
serves: that call would wait on the lock its caller holds.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .errors import CoalitionBoundsError, NonFiniteError, OracleFailureError
from .seeding import uint64_array

Coalition = int
UtilityOracle = Callable[[Coalition], float]

EMPTY: Coalition = 0

# Coalitions are word-sized bitsets; solvers cap n far below this anyway.
MAX_PLAYERS = 64

# Exact integers are split into limbs of this many bits, so a limb summed
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


def exact_scale(values) -> int:
    """The least ``k >= 0`` for which every value times ``2**k`` is an integer.

    ``values`` are finite floats. A value is its ``np.frexp`` mantissa as a
    53-bit integer times ``2**(exponent - 53)``, so it needs ``53 - exponent``
    bits of scale less the mantissa's trailing zero bits.
    """
    mantissas, exponents = np.frexp(np.asarray(values, dtype=float))
    ints = (mantissas * 2.0**53).astype(np.int64)
    nonzero = ints != 0
    if not nonzero.any():
        return 0
    lowest = ints[nonzero] & -ints[nonzero]  # the lowest set bit, a power of two
    trailing = np.frexp(lowest.astype(float))[1] - 1
    return max(0, int((53 - exponents[nonzero] - trailing).max()))


def scaled_integers(values, scale: int) -> np.ndarray:
    """Finite floats times ``2**scale``, as an object array of Python ints.

    ``scale`` must be at least :func:`exact_scale` of the values, so every
    product is an integer and the conversion is exact.
    """
    mantissas, exponents = np.frexp(np.asarray(values, dtype=float))
    ints = (mantissas * 2.0**53).astype(np.int64)
    shifts = exponents.astype(np.int64) + (scale - 53)
    # A negative shift drops only zero bits of the mantissa, so do it in int64.
    ints >>= np.maximum(-shifts, 0)
    return ints.astype(object) << np.maximum(shifts, 0).astype(object)


def integer_limbs(ints: np.ndarray) -> np.ndarray:
    """Python ints as signed ``_LIMB_BITS``-bit limbs, low limb first.

    Returns int64 of shape ``ints.shape + (L,)``, with ``L`` the fewest limbs
    that hold the widest value; every limb carries its integer's sign, so
    ``limb_integers`` gives the integers back.
    """
    magnitudes = np.abs(ints)
    width = max(map(int.bit_length, magnitudes.ravel().tolist()), default=0)
    limbs = np.empty(ints.shape + (max(1, -(-width // _LIMB_BITS)),), dtype=np.int64)
    low = (1 << _LIMB_BITS) - 1
    for k in range(limbs.shape[-1]):
        limbs[..., k] = ((magnitudes >> (_LIMB_BITS * k)) & low).astype(np.int64)
    limbs *= np.where(ints < 0, -1, 1)[..., None]
    return limbs


def subset_sums(limbs: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Each coalition's sums of its members' limbs.

    ``limbs`` holds player ``i``'s signed limbs at ``limbs[i]``, shape
    ``(n, K, L)``; ``masks`` is a uint64 array of B coalitions over those n
    players. Returns int64 of shape ``(B, K, L)``. A limb of at most
    ``_LIMB_BITS`` bits summed over at most ``MAX_PLAYERS`` members stays
    below ``2**37``, so the sums are exact. One broadcast multiply-add per
    player, over the coalitions as the contiguous axis: no ``(B, n)``
    membership matrix is built.
    """
    n, channels, width = limbs.shape
    players = limbs.reshape(n, channels * width, 1)
    sums = np.zeros((channels * width, masks.size), dtype=np.int64)
    for i in range(n):
        member = ((masks >> np.uint64(i)) & np.uint64(1)).view(np.int64)
        sums += players[i] * member
    return sums.reshape(channels, width, masks.size).transpose(2, 0, 1)


def limb_integers(limbs: np.ndarray) -> np.ndarray:
    """The Python ints ``sum(limbs[..., k] << (_LIMB_BITS * k))``, as an object array.

    ``limbs`` are int64 below ``2**62`` in magnitude. Carries are propagated
    first, so every limb but the top one lies in ``[0, 2**_LIMB_BITS)`` and
    two limbs join into one int64 word: half as many Python-int steps.
    """
    count = limbs.shape[-1]
    # An even number of limbs, with one more at the top to carry the sign.
    work = np.zeros((count + 1 + (count + 1) % 2,) + limbs.shape[:-1], dtype=np.int64)
    work[:count] = np.moveaxis(limbs, -1, 0)
    for k in range(len(work) - 1):
        carry = work[k] >> _LIMB_BITS
        work[k] -= carry << _LIMB_BITS
        work[k + 1] += carry
    words = work[0::2] + (work[1::2] << _LIMB_BITS)
    totals = words[-1].astype(object)
    for word in words[-2::-1]:
        totals = (totals << 2 * _LIMB_BITS) + word.astype(object)
    return totals


def scaled_floats(ints: np.ndarray, scale: int) -> np.ndarray:
    """An object array of Python ints divided by ``2**scale``, each correctly rounded.

    ``float(int)`` rounds correctly, and scaling a float by a power of two is
    exact while the result stays normal, so that is the fast path; a result
    that would be subnormal or zero, or an int beyond the float range, is
    divided exactly instead. A quotient beyond the float range raises
    ``OverflowError``.
    """
    try:
        rounded = ints.astype(float)
    except OverflowError:
        return (ints / (1 << scale)).astype(float)
    out = np.ldexp(rounded, -scale)
    low = (rounded != 0) & (np.frexp(rounded)[1] - scale < -1021)
    if low.any():
        out[low] = (ints[low] / (1 << scale)).astype(float)
    return out


def coalition_array(masks, n: int) -> np.ndarray:
    """Integer coalitions as a uint64 array of the same shape.

    Python ints are read exactly, also in a list on both sides of 2**63.
    Raises :class:`CoalitionBoundsError` if an entry is not an integer, is
    negative, or uses players outside ``range(n)``.
    """
    try:
        arr = uint64_array(masks, "coalition")
    except (TypeError, ValueError) as exc:
        raise CoalitionBoundsError(str(exc)) from None
    if arr.size and int(arr.max()) >> n:
        raise CoalitionBoundsError(
            f"coalition {bin(int(arr.max()))} uses players outside range(0, {n})")
    return arr


def merge_sorted(keys, values, new_keys, new_values) -> tuple[np.ndarray, np.ndarray]:
    """Ascending ``keys`` and ascending ``new_keys``, none shared, merged with their values.

    The values are one entry or one row per key; the merged arrays take the
    dtypes of ``keys`` and ``values``. Scatters the new keys to their final
    slots, their ``searchsorted`` positions shifted by the new keys before
    them, and the old keys to the rest: linear time, no sort.
    """
    if not new_keys.size:
        return keys, values
    slots = keys.searchsorted(new_keys) + np.arange(new_keys.size)
    old = np.ones(keys.size + slots.size, dtype=bool)
    old[slots] = False
    merged_keys = np.empty(old.size, dtype=keys.dtype)
    merged_keys[slots], merged_keys[old] = new_keys, keys
    merged_values = np.empty((old.size,) + values.shape[1:], dtype=values.dtype)
    merged_values[slots], merged_values[old] = new_values, values
    return merged_keys, merged_values


class CoalitionMemo:
    """Values computed once per coalition: sorted uint64 keys, float64 values, one lock.

    A value is a float, or a row of ``width`` floats. The keys are found by
    ``searchsorted`` and new ones merged in linear time with
    :func:`merge_sorted`, which copies both arrays: a batch costs O(memo)
    once. At most ``capacity`` keys are kept; past that, the coalitions not
    kept are computed on every call. ``count`` is how many coalitions
    ``compute`` has returned values for, kept or not.
    """

    def __init__(self, width: int | None = None, capacity: int = 1 << MAX_PLAYERS):
        self._keys = np.empty(0, dtype=np.uint64)
        self._values = np.empty((0,) if width is None else (0, width))
        self._capacity = capacity
        self._lock = threading.Lock()
        self.count = 0

    def get(self, masks: np.ndarray, compute: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """The values of the 1-D uint64 coalitions ``masks``, as a new array.

        The coalitions not in the memo go to ``compute`` in one call, once
        each, in order of first appearance, and it returns their values in
        that order. The lowest of them are kept while there is room. The
        lock is held for the whole call, ``compute`` included, so each
        coalition is computed once even across threads, and ``compute`` must
        not call this memo. A ``compute`` that raises keeps and counts
        nothing.
        """
        with self._lock:
            keys, values = self._keys, self._values
            pos = keys.searchsorted(masks)
            hit = (keys[np.minimum(pos, keys.size - 1)] == masks if keys.size
                   else np.zeros(masks.shape, dtype=bool))
            if hit.all():
                return values[pos]
            # ``missing`` is sorted; ``order`` lists it in order of first appearance.
            missing, first, inverse = np.unique(masks[~hit], return_index=True, return_inverse=True)
            fresh = np.empty(missing.shape + values.shape[1:])
            order = np.argsort(first)
            fresh[order] = compute(missing[order])
            room = max(0, self._capacity - keys.size)
            self._keys, self._values = merge_sorted(keys, values, missing[:room], fresh[:room])
            self.count += missing.size
        out = np.empty(masks.shape + values.shape[1:])
        out[hit] = values[pos[hit]]
        out[~hit] = fresh[inverse]
        return out


def _batch_values(oracle, masks: np.ndarray) -> np.ndarray:
    """The oracle's utilities of the uint64 coalitions ``masks``, one per coalition.

    ``many`` is looked up on every call: an oracle that has it gets the whole
    batch in one call; a plain oracle is called once per coalition, in batch
    order, with Python ints. A result of the wrong shape raises
    :class:`OracleFailureError`.
    """
    many = getattr(oracle, "many", None)
    if many is None:
        result = np.array([float(oracle(s)) for s in masks.tolist()])
    else:
        result = np.asarray(many(masks), dtype=float)
    if result.shape != (masks.size,):
        raise OracleFailureError(
            f"batch oracle returned shape {result.shape} for {masks.size} coalitions")
    return result


class AdditiveOracle:
    """Batch oracle of an additive game: v(S) is the sum of the members' weights.

    Each utility is the exact sum rounded once to the nearest float, ties to
    even, which is bit for bit ``math.fsum`` of the members' weights (an exact
    zero is ``+0.0``, as fsum gives). The weights are held once as integers at
    one power-of-two scale, split into signed limbs, and :meth:`many` adds the
    members' limbs with :func:`subset_sums` over the whole batch.

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
        values = np.array([float(w) for w in weights])
        if not np.all(np.isfinite(values)):
            raise NonFiniteError("additive weights must be finite")
        if len(values) > MAX_PLAYERS:
            raise CoalitionBoundsError(f"{len(values)} weights for at most {MAX_PLAYERS} players")
        self.n = len(values)
        self._scale = exact_scale(values)
        self._limbs = integer_limbs(scaled_integers(values, self._scale))[:, None, :]

    def many(self, masks: Sequence[Coalition]) -> np.ndarray:
        """Utilities of a sequence of coalitions, as a float array of its length."""
        limbs = subset_sums(self._limbs, coalition_array(masks, self.n))[:, 0]
        if limbs.shape[1] > 2:
            try:
                return scaled_floats(limb_integers(limbs), self._scale)
            except OverflowError:
                raise OracleFailureError(
                    "the weights of a coalition sum beyond the float range") from None
        total = limbs[:, 0].astype(float)
        if limbs.shape[1] == 2:
            total += limbs[:, 1].astype(float) * float(1 << _LIMB_BITS)
        return np.ldexp(total, -self._scale)

    def __call__(self, s: Coalition) -> float:
        return float(self.many([s])[0])


class CoalitionGame:
    """A cooperative game: player count plus a memoized utility oracle.

    Evaluation results are memoized per coalition in a
    :class:`CoalitionMemo`, so any solver built on top pays for each
    coalition once; a loop of single :meth:`evaluate` misses pays the memo's
    copy per miss. ``eval_count`` reports how many coalitions the oracle
    actually evaluated; it never exceeds ``2**n``.

    Evaluation is safe to call from several threads. Each call holds the
    memo's lock from lookup to merge, oracle included, so calls on one game
    run one at a time and each coalition goes to the oracle once. The oracle
    may evaluate another game but must not evaluate this one, or it
    deadlocks.
    """

    def __init__(self, n: int, oracle: UtilityOracle):
        if not 0 <= n <= MAX_PLAYERS:
            raise CoalitionBoundsError(f"player count {n} outside [0, {MAX_PLAYERS}]")
        self.n = n
        self._oracle = oracle
        self._memo = CoalitionMemo()

    @property
    def eval_count(self) -> int:
        return self._memo.count

    def evaluate(self, s: Coalition) -> float:
        """Return the oracle's utility for coalition ``s``: :meth:`evaluate_many` of ``[s]``."""
        return float(self.evaluate_many([s])[0])

    def evaluate_many(self, masks) -> np.ndarray:
        """Return the utilities of an integer array of coalitions, same shape.

        Coalitions already in the memo are read from it; the missing ones go
        to the oracle once each, in order of first appearance, and each adds
        one to ``eval_count``. Raises :class:`CoalitionBoundsError` before
        any oracle call if an entry is not an integer, is negative, or sets
        bits at or above ``self.n``. An oracle call that raises, or returns
        other than one value per coalition, keeps and counts nothing of the
        batch.
        """
        arr = coalition_array(masks, self.n)
        values = self._memo.get(arr.ravel(), lambda missing: _batch_values(self._oracle, missing))
        return values.reshape(arr.shape)

    def grand_coalition(self) -> Coalition:
        return full_coalition(self.n)
