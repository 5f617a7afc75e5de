"""Density models over owner datasets and the coalition utility they induce.

The utility of a coalition S for a generated sample x is the relative
log-likelihood ``log p_S(x) - log p_baseline(x)`` in nats, where ``p_S`` is a
density fit on the pooled data of the owners in S and the baseline is an
ownerless reference model (standard normal by default, or a fit on a public
dataset). The empty coalition is exactly zero by construction.

Two desk-scale families are provided: Gaussian maximum likelihood fits with a
ridge and an eigenvalue floor, and a fixed-bandwidth Gaussian kernel density
estimate. A coordinate past ``2**500`` in magnitude is refused where it
enters a fit or an oracle, and every fit below that bound is finite. A log
density that is not finite (an event far below the float range of a
coalition's density, say) makes the oracle raise, naming the coalition.

A Gaussian fit is a function of the count, Σx and Σxxᵀ of its points. These
are held exactly, as integers at one power-of-two scale, so pooling owners is
integer addition and each moment is rounded once: the mean is the correctly
rounded Σx divided by m, and the covariance is the correctly rounded moment
Σ(x−μ)(x−μ)ᵀ about that mean, divided by m. A fit therefore depends only on
the pooled multiset of points, and owners with identical datasets produce
bit-identical models; the duplication results downstream are exact because
of this, not approximate.

:class:`CoalitionDensityOracle` computes each owner's moments once, from the
coordinates' ``frexp`` mantissas and exponents, and stores them as int64
limbs. A batch is fit in blocks of ``_FIT_BLOCK`` coalitions: the members'
limbs are summed with :func:`~royaltyshare.games.subset_sums`, the kernel
the additive oracle also uses, rebuilt as Python ints, and every mean and
covariance numerator of the block is formed in one pass over object arrays,
then rounded once; the covariance floor, Cholesky factor and log density run
as stacked linear algebra. :func:`fit_gaussian` is the same fit on a batch
of one.

A process that prices many events reads the same owners' data each time,
so two things are cached, each in an LRU of the last ``_CACHE_SIZE``
distinct inputs, keyed by a sha256 digest:

- the dataset CSV's parse, keyed by the file's bytes;
- an oracle's pooled scale, read-only moment limbs and fit table, keyed by
  n, the owners whose pool the event's label restricts, the shapes and
  bytes of the point groups, and the ridge. The fit table is a
  :class:`~royaltyshare.games.CoalitionMemo` of each coalition's Gaussian
  fit, one record of ``_fit_dtype(d)``: everything before the log density,
  that is mean, covariance, floor flag, Cholesky factor and log
  determinant. None of it depends on the event's coordinates, so every
  event on the same owners' data, label pools and ridge reads the same
  records, and each coalition is fit once, even across threads. A table
  holds at most ``_FIT_TABLE_BYTES`` of records; fits past that are
  computed on every call.

Only results that returned are kept; errors are never cached. What an oracle
records of its event is not cached: ``fallback_coalitions`` and
``covariance_floor_coalitions`` start empty on every oracle and are filled
as its coalitions are evaluated, the latter from the table's floor flags.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .cache import DigestCache
from .errors import (
    DimensionMismatchError,
    EmptyDatasetError,
    NonFiniteError,
    OracleFailureError,
)
from .files import replace_file
from .games import (
    Coalition,
    CoalitionMemo,
    coalition_array,
    coalition_members,
    exact_scale,
    integer_limbs,
    limb_integers,
    scaled_floats,
    scaled_integers,
    subset_sums,
)

LOG_2PI = math.log(2.0 * math.pi)

# Fits never report a covariance eigenvalue below this, so log densities stay
# finite even for single-point or collinear datasets. The floor is absolute:
# a covariance whose eigenvalues span more than about 16 decades above it
# can still be rejected by its Cholesky factorization, which then names the
# coalition.
COVARIANCE_FLOOR = 1e-6

# No coordinate of owners' points, fitted points or an event may exceed this
# magnitude. A square is then at most 2**1000, so over m < 2**23 points Σx²
# and each entry of Σxxᵀ (|xy| <= (x² + y²) / 2) stay below 2**1023. So does
# the moment about the rounded mean μ, and Scott's variance: with μ* the exact
# mean, Σ(x−μ)² = Σ(x−μ*)² + m(μ−μ*)², where Σ(x−μ*)² <= Σx² and
# |μ − μ*| <= 2**-53 |μ*|. A squared distance, at most 2**1002 a coordinate,
# sums finitely over d < 2**21 coordinates: so does the standard normal's.
_COORDINATE_BOUND = 2.0**500

_KDE_BANDWIDTH_FLOOR = 1e-6

# Coalitions per block of a batched fit: a fill of any size holds its limb
# sums and Python-int moments for one block at a time.
_FIT_BLOCK = 1024

# Distinct contents whose parse, and owners' moments and fit table, stay cached.
_CACHE_SIZE = 16

# Bytes of the records one fit table holds at most, keys not counted. A
# record takes 2d² + d + 2 eight-byte slots, so all 16383 coalitions of 14
# owners fit at d = 2. The memo's capacity is this over the record size; fits
# past it are not stored.
_FIT_TABLE_BYTES = 1 << 21


# Dataset CSV bytes -> parsed rows; an oracle's point groups and ridge -> its
# pooled scale, exact moment limbs and fit table.
_DATASETS = DigestCache(_CACHE_SIZE)
_FITS = DigestCache(_CACHE_SIZE)


@dataclass(frozen=True)
class GenerationEvent:
    """One generated sample: the output vector and an optional conditioning label."""

    x: np.ndarray
    label: str | None = None


@dataclass(frozen=True)
class OwnerDataset:
    """One copyright owner's training points, with optional per-point labels."""

    owner: int
    points: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise DimensionMismatchError("owner points must be a 2-D array (m, d)")
        object.__setattr__(self, "points", pts)
        if self.labels is not None and len(self.labels) != pts.shape[0]:
            raise DimensionMismatchError("labels, when given, must match the point count")


@dataclass(frozen=True)
class GaussianModel:
    """A multivariate normal with precomputed Cholesky factor."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise DimensionMismatchError("mean must be (d,) and cov (d, d)")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        chols, logdets = _cholesky_logdet(cov[None])
        object.__setattr__(self, "_chol", chols[0])
        object.__setattr__(self, "_logdet", logdets[0])

    @property
    def dim(self) -> int:
        return self.mean.size

    def log_density(self, x: np.ndarray) -> float:
        x = _check_query(x, self.dim)
        return float(
            _gaussian_log_densities(self.mean[None], self._chol[None], self._logdet[None], x)[0]
        )


def logsumexp(a: np.ndarray) -> float:
    """``log(sum(exp(a)))`` over a nonempty 1-D array, without overflow.

    The steps, in their order, are those of the reference real-input
    algorithm the tests compare it with, so the result is the same bits: the
    maximal entries are counted apart, the others are shifted by the maximum
    and summed with zeros in the places of the maximal ones, and the sum is
    divided by their count. A non-finite maximum falls back to the direct
    formula, as the reference does.
    """
    return float(_logsumexp_rows(np.asarray(a, dtype=float)[None])[0])


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """:func:`logsumexp` of each row of a ``(B, K)`` array, each row on its own."""
    top = a.max(axis=-1)
    ties = a == top[:, None]
    finite = np.isfinite(top)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Rows with a non-finite maximum make NaNs here; they are replaced below.
        m = np.sum(ties, axis=-1, dtype=float)
        s = np.sum(np.exp(np.where(ties, -np.inf, a) - top[:, None]), axis=-1) / m
        out = np.log1p(s) + np.log(m) + top
        if not finite.all():
            out[~finite] = np.log(np.sum(np.exp(a[~finite]), axis=-1))
    return out


def _check_query(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DimensionMismatchError(f"query shape {x.shape} does not match model dim {dim}")
    return x


def _check_magnitude(points: np.ndarray, what: str) -> None:
    """Raise :class:`NonFiniteError` if a coordinate exceeds ``_COORDINATE_BOUND``."""
    if points.size and np.abs(points).max() > _COORDINATE_BOUND:
        raise NonFiniteError(f"{what} coordinates of magnitude at most 2**500, "
                             "past which a fit or a log density may overflow")


def log_density(model: GaussianModel, x: np.ndarray) -> float:
    """Log density of ``x`` under ``model``, in nats."""
    return model.log_density(x)


def _exact_scale(points: np.ndarray) -> int:
    """The least ``k >= 0`` for which every coordinate times ``2**k`` is an integer."""
    if not np.all(np.isfinite(points)):
        raise NonFiniteError("gaussian fits need finite coordinates")
    return exact_scale(points)


@functools.cache
def _upper_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the upper triangle of a ``(d, d)`` matrix, row-major."""
    return np.triu_indices(d)


def _moment_integers(groups: Sequence[np.ndarray], scale: int) -> np.ndarray:
    """Count, Σx and the upper triangle of Σxxᵀ (row-major) of each group of points.

    ``groups`` are ``(m, d)`` arrays, at least one. Returns an object array
    of Python ints, one row of length ``1 + d + d(d+1)/2`` per group: Σx
    times ``2**scale`` and Σxxᵀ times ``2**(2 * scale)``, so moments add
    exactly.
    """
    ints = scaled_integers(np.concatenate(groups), scale)
    rows, cols = _upper_indices(ints.shape[1])
    terms = np.concatenate([ints, ints[:, rows] * ints[:, cols]], axis=1)
    ends = np.cumsum([len(g) for g in groups])
    return np.array([[len(g), *terms[end - len(g):end].sum(axis=0)]
                     for g, end in zip(groups, ends)], dtype=object)


def _owner_moments(
    groups: Sequence[np.ndarray], n: int, partial: list[int]
) -> tuple[int, np.ndarray]:
    """The pooled scale and each owner's moments as read-only limbs ``(2, n, K, L)``.

    ``groups`` are one empty group, the n owners' whole datasets, then the
    labeled pools of the owners in ``partial``. Pool 0 holds each owner's
    labeled moments (its whole dataset's outside ``partial``), pool 1 its
    whole dataset's.
    """
    scale = _exact_scale(np.concatenate(groups))
    moments = _moment_integers(groups, scale)[1:]
    pools = np.stack([moments[:n]] * 2)
    pools[0, partial] = moments[n:]
    limbs = integer_limbs(pools)
    limbs.setflags(write=False)
    return scale, limbs


def _fit_moments(
    totals: np.ndarray, d: int, scale: int, ridge: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means ``(B, d)``, covariances ``(B, d, d)`` and floor flags ``(B,)``.

    Row ``b`` of ``totals`` holds the :func:`_moment_integers` of a nonempty
    point set at ``scale``. Its mean is Σx rounded once, divided by m: bit
    for bit ``math.fsum(column) / m``. Its covariance is the exact moment
    Σ(x−μ)(x−μ)ᵀ about that rounded mean μ, rounded once, divided by m,
    plus ``ridge`` on the diagonal, with eigenvalues below
    ``COVARIANCE_FLOOR`` raised to it (:func:`_floor_eigenvalues`).

    Each μ is exact at any scale at or above the one its own bits need, so
    the block holds every μ as integers at one scale ``2**shift``: the
    moment's numerator ``Σxxᵀ·2**lift − μΣxᵀ − Σxμᵀ + mμμᵀ`` is then an exact
    integer times ``2**(2 * shift)``, and one correctly rounded division
    gives the same float whatever the block's shift.
    """
    m = totals[:, :1].astype(float)
    sx, sxx = totals[:, 1:d + 1], totals[:, d + 1:]
    means = scaled_floats(sx, scale) / m
    mantissas, exponents = np.frexp(means)
    mu = (mantissas * 2.0**53).astype(np.int64)
    shift = max(scale, int((53 - exponents[mu != 0]).max(initial=0)))
    mu = mu.astype(object) << np.maximum(exponents + (shift - 53), 0).astype(object)
    lift = shift - scale
    sx = sx << lift
    m_mu = totals[:, :1] * mu
    rows, cols = _upper_indices(d)
    mu_j = mu[:, cols]
    numerators = ((sxx << 2 * lift) - mu[:, rows] * sx[:, cols] - sx[:, rows] * mu_j
                  + m_mu[:, rows] * mu_j)
    entries = scaled_floats(numerators, 2 * shift) / m
    covs = np.empty((len(totals), d, d))
    covs[:, rows, cols] = entries
    covs[:, cols, rows] = entries
    covs[:, np.arange(d), np.arange(d)] += ridge
    return means, covs, _floor_eigenvalues(covs, COVARIANCE_FLOOR)


def _floor_eigenvalues(covs: np.ndarray, floor: float) -> np.ndarray:
    """Raise the eigenvalues below ``floor`` of symmetric ``(B, d, d)`` ``covs``, in place.

    Returns the flags of the rows rebuilt: those whose smallest eigenvalue is
    below ``floor``, each becoming ``V max(Λ, floor) Vᵀ`` symmetrized. The
    other rows are left untouched.
    """
    floored = np.linalg.eigvalsh(covs)[:, 0] < floor
    if floored.any():
        vals, vecs = np.linalg.eigh(covs[floored])
        low = (vecs * np.maximum(vals, floor)[:, None, :]) @ np.swapaxes(vecs, 1, 2)
        covs[floored] = (low + np.swapaxes(low, 1, 2)) / 2.0
    return floored


def _cholesky_logdet(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors and log determinants of stacked covariances."""
    chols = np.linalg.cholesky(covs)
    logs = np.log(np.ascontiguousarray(np.diagonal(chols, axis1=1, axis2=2)))
    return chols, np.array([2.0 * math.fsum(row) for row in logs.tolist()])


def _forward_substitute(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``lower[b] @ w[b] = rhs[b]`` for every row ``b`` of ``rhs`` ``(..., d)``.

    ``lower`` is ``(..., d, d)``, broadcast against the rows. Elementwise
    operations only, in a fixed order, so a row's result does not depend on
    the batch it came in.
    """
    w = np.empty_like(rhs)
    for i in range(rhs.shape[-1]):
        acc = rhs[..., i].copy()
        for k in range(i):
            acc -= lower[..., i, k] * w[..., k]
        w[..., i] = acc / lower[..., i, i]
    return w


def _gaussian_log_densities(
    means: np.ndarray, chols: np.ndarray, logdets: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Log density of ``x`` under each of the stacked Gaussians ``means`` ``(..., d)``.

    ``chols`` ``(..., d, d)`` and ``logdets`` broadcast against the means.
    """
    # A distance past the float range gives a log density of -inf (or NaN,
    # from inf - inf in the substitution), which an oracle refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        w = _forward_substitute(chols, x - means)
        # A stacked matmul takes each row's dot product on its own (np.einsum
        # and np.sum do not), so a row's result does not depend on its batch.
        quad = np.matmul(w[..., None, :], w[..., :, None])[..., 0, 0]
        return -0.5 * (x.size * LOG_2PI + logdets + quad)


@functools.cache
def _fit_dtype(d: int) -> np.dtype:
    """The record of one coalition's Gaussian fit in ``d`` dimensions; aligned, so
    each float field of a record array is an aligned view."""
    return np.dtype([("mean", float, (d,)), ("cov", float, (d, d)), ("floored", bool),
                     ("chol", float, (d, d)), ("logdet", float)], align=True)


def _check_ridge(ridge: float) -> None:
    if not (math.isfinite(ridge) and ridge >= 0):
        raise ValueError(f"ridge must be a finite number >= 0, got {ridge!r}")


def fit_gaussian(points: np.ndarray, ridge: float = 0.0) -> GaussianModel:
    """Maximum likelihood Gaussian fit with a diagonal ridge.

    The moments are exact and each is rounded once: the mean is the
    correctly rounded Σx divided by m (``math.fsum(column) / m``), the
    covariance the correctly rounded moment about that mean divided by m.
    The fit depends only on the multiset of points, so a dataset
    concatenated with itself fits to the same model bit for bit, which keeps
    exact-duplicate owners exactly symmetric downstream. After adding
    ``ridge`` to the diagonal, eigenvalues are floored at
    ``COVARIANCE_FLOOR``; covariances already above the floor are returned
    untouched. This is the coalition oracle's batched fit on a batch of one.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise EmptyDatasetError("gaussian fit requires a nonempty (m, d) array")
    _check_ridge(ridge)
    scale = _exact_scale(pts)
    _check_magnitude(pts, "gaussian fits need")
    means, covs, _ = _fit_moments(_moment_integers([pts], scale), pts.shape[1], scale, ridge)
    return GaussianModel(mean=means[0], cov=covs[0])


def scott_bandwidth(points: np.ndarray) -> float:
    """Scott's rule bandwidth: rms per-dimension spread times ``m**(-1/(d+4))``."""
    pts = np.asarray(points, dtype=float)
    m, d = pts.shape
    if m == 0:
        raise EmptyDatasetError("bandwidth selection requires points")
    variances = pts.var(axis=0)
    spread = math.sqrt(float(variances.mean()))
    return max(spread * m ** (-1.0 / (d + 4)), _KDE_BANDWIDTH_FLOOR)


def standard_normal_model(dim: int) -> GaussianModel:
    """The default ownerless baseline."""
    return GaussianModel(mean=np.zeros(dim), cov=np.eye(dim))


class CoalitionDensityOracle:
    """Batch utility oracle: relative log-likelihood of one event.

    :meth:`many` takes a sequence of coalitions and returns their utilities
    as an array; calling the oracle on one coalition is ``many([s])[0]``.
    Gaussian fits come from the fit table of the owners' content and the
    ridge, shared with every oracle on the same content: a coalition missing
    from it is fit from each owner's exact moments, stacked over the batch,
    and stored. Only the log density of the event runs on every call. KDE
    fits pool each coalition's points.

    Conditioning: when the event carries a label and a coalition has labeled
    points, the fit uses only points with that label. A nonempty coalition
    whose conditioned pool is empty falls back to its unconditioned pool and
    the coalition is recorded in ``fallback_coalitions`` rather than killing
    the run; a coalition with no points at all raises
    :class:`OracleFailureError`. Coalitions whose Gaussian fit had an
    eigenvalue raised to ``COVARIANCE_FLOOR`` are recorded in
    ``covariance_floor_coalitions``.

    ``kind`` is ``"gaussian_mle"`` or ``"kde"``; ``ridge`` applies to
    Gaussian fits and ``bandwidth`` to KDE fits (None means Scott's rule).
    """

    def __init__(
        self,
        partition: Sequence[OwnerDataset],
        baseline: GaussianModel,
        event: GenerationEvent,
        *,
        kind: str = "gaussian_mle",
        ridge: float = COVARIANCE_FLOOR,
        bandwidth: float | None = None,
    ):
        if kind not in ("gaussian_mle", "kde"):
            raise ValueError(f"unknown oracle kind {kind!r}")
        _check_ridge(ridge)
        if bandwidth is not None and not (math.isfinite(bandwidth) and bandwidth > 0):
            raise ValueError(f"bandwidth must be a finite number > 0, got {bandwidth!r}")
        owners = sorted(ds.owner for ds in partition)
        if owners != list(range(len(partition))):
            raise ValueError("partition owners must be exactly 0..n-1")
        self.datasets = {ds.owner: ds for ds in partition}
        self.n = len(partition)
        dims = {ds.points.shape[1] for ds in partition}
        if len(dims) > 1:
            raise DimensionMismatchError(f"owner datasets disagree on dimension: {dims}")
        self.event = GenerationEvent(
            x=_check_query(event.x, dims.pop() if dims else len(np.asarray(event.x))),
            label=event.label,
        )
        for ds in partition:
            _check_magnitude(ds.points, f"owner {ds.owner} needs")
        _check_magnitude(self.event.x, "the event needs")
        self._kind, self._ridge, self._bandwidth = kind, ridge, bandwidth
        self.baseline = baseline
        self.baseline_log = log_density(baseline, self.event.x)
        if not math.isfinite(self.baseline_log):
            raise OracleFailureError("the event's log density under the baseline is not finite")
        self.fallback_coalitions: set[Coalition] = set()
        self.covariance_floor_coalitions: set[Coalition] = set()
        # Per owner, index 0: the points a fit uses under the event's label;
        # index 1: all of them, the fallback.
        everything = [self.datasets[i].points for i in range(self.n)]
        labeled = [self._labeled(self.datasets[i]) for i in range(self.n)]
        self._pools = (labeled, everything)
        # Per pool, the bitmask of the owners holding points in it.
        self._holders = tuple(
            np.uint64(sum(1 << i for i, pts in enumerate(pool) if len(pts)))
            for pool in self._pools
        )
        if kind == "gaussian_mle":
            # Whole datasets, then the labeled pools that leave points out; the
            # leading empty group keeps a partition of no owners valid.
            partial = [i for i in range(self.n) if labeled[i] is not everything[i]]
            groups = [np.empty((0, self.event.x.size)), *everything,
                      *(labeled[i] for i in partial)]
            key = hashlib.sha256(repr((self.n, partial, [g.shape for g in groups])).encode())
            for g in groups:
                key.update(np.ascontiguousarray(g))
            key.update(float(ridge).hex().encode())
            dtype = _fit_dtype(self.event.x.size)
            self._scale, self._limbs, self._fit_table = _FITS.get(key.digest(), lambda: (
                *_owner_moments(groups, self.n, partial),
                CoalitionMemo(dtype, _FIT_TABLE_BYTES // dtype.itemsize)))

    def _labeled(self, ds: OwnerDataset) -> np.ndarray:
        if self.event.label is None or ds.labels is None:
            return ds.points
        return ds.points[[lab == self.event.label for lab in ds.labels]]

    def many(self, masks: Iterable[Coalition]) -> np.ndarray:
        """Utilities of a sequence of coalitions, as a float array of its length.

        Raises :class:`OracleFailureError` before any fit if a nonempty
        coalition holds no points, and nothing is recorded then; it raises
        it too for a log density that is not finite. The coalitions run in
        blocks of at most ``_FIT_BLOCK``, so the memory a fill takes
        besides the fit table does not grow with its size. A block's misses
        are fit together and stored when their fit returns: a fit that
        raises stores nothing of its block.
        """
        masks = coalition_array(masks, self.n)
        live = masks != 0
        fallback = live & self._fallback(masks)
        empty = fallback & ((masks & self._holders[1]) == 0)
        if empty.any():
            owners = coalition_members(int(masks[empty][0]))
            raise OracleFailureError(f"coalition {owners} holds no training points")
        self.fallback_coalitions.update(masks[fallback].tolist())
        values = np.zeros(masks.size)
        live = np.flatnonzero(live)
        for start in range(0, live.size, _FIT_BLOCK):
            block = live[start:start + _FIT_BLOCK]
            logs = self._event_log_densities(masks[block])
            bad = ~np.isfinite(logs)
            if bad.any():
                owners = coalition_members(int(masks[block[bad][0]]))
                raise OracleFailureError(
                    f"the event's log density under coalition {owners} is not finite")
            values[block] = logs - self.baseline_log
        return values

    def __call__(self, s: Coalition) -> float:
        return float(self.many([s])[0])

    def _fallback(self, masks: np.ndarray) -> np.ndarray:
        """Which coalitions hold no points under the event's label, so fit on all of theirs."""
        return (masks & self._holders[0]) == 0

    def _fits(self, masks: np.ndarray) -> np.ndarray:
        """The coalitions' :func:`_fit_dtype` records, read from the fit table or fit
        and stored; the coalitions whose fit was floored are recorded, on every call."""
        fits = self._fit_table.get(masks, self._fit_rows)
        self.covariance_floor_coalitions.update(masks[fits["floored"]].tolist())
        return fits

    def _fit_rows(self, masks: np.ndarray) -> np.ndarray:
        """The coalitions' fit records, fit from the owners' exact moments.

        A covariance that Cholesky rejects after the floor raises
        ``LinAlgError`` naming the first such coalition.
        """
        sums = subset_sums(self._limbs[0], masks)
        fallback = self._fallback(masks)
        if fallback.any():
            sums[fallback] = subset_sums(self._limbs[1], masks[fallback])
        fits = np.empty(len(masks), _fit_dtype(self.event.x.size))
        fits["mean"], fits["cov"], fits["floored"] = _fit_moments(
            limb_integers(sums), self.event.x.size, self._scale, self._ridge)
        try:
            fits["chol"], fits["logdet"] = _cholesky_logdet(fits["cov"])
        except np.linalg.LinAlgError as exc:
            for s, cov in zip(masks.tolist(), fits["cov"]):
                try:
                    np.linalg.cholesky(cov)
                except np.linalg.LinAlgError:
                    raise np.linalg.LinAlgError(
                        f"{exc}: the covariance of coalition {coalition_members(s)}") from None
            raise
        return fits

    def _event_log_densities(self, masks: np.ndarray) -> np.ndarray:
        """Log density of the event under each nonempty coalition's fit;
        subclasses may replace the direct evaluation with an estimator."""
        x = self.event.x
        if self._kind == "gaussian_mle":
            fits = self._fits(masks)
            return _gaussian_log_densities(fits["mean"], fits["chol"], fits["logdet"], x)
        # A Gaussian kernel on each of the coalition's pooled points.
        d = x.size
        out = np.empty(masks.size)
        for k, (s, p) in enumerate(zip(masks.tolist(), self._fallback(masks).tolist())):
            points = np.concatenate([self._pools[p][i] for i in coalition_members(s)])
            h = scott_bandwidth(points) if self._bandwidth is None else self._bandwidth
            sq = np.sum((points - x) ** 2, axis=1)
            # An exponent past the float range is a kernel whose weight is zero.
            with np.errstate(over="ignore"):
                kernel_logs = -sq / (2.0 * h * h)
            out[k] = (logsumexp(kernel_logs) - math.log(len(points)) - d * math.log(h)
                      - 0.5 * d * LOG_2PI)
        return out


# ---------------------------------------------------------------------------
# Dataset CSV interface
#
# Columns: owner_id,label,x0,...,x{d-1}. Coordinates are written with repr,
# i.e. the shortest decimal digits (at most 17 significant) that round-trip
# the binary double exactly.
# ---------------------------------------------------------------------------


def save_owner_datasets(path: str | Path, datasets: Iterable[OwnerDataset]) -> None:
    """Write the datasets as one dataset CSV, replacing ``path`` whole (no fsync)."""
    datasets = sorted(datasets, key=lambda ds: ds.owner)
    if not datasets:
        raise EmptyDatasetError("nothing to save")
    d = datasets[0].points.shape[1]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["owner_id", "label"] + [f"x{j}" for j in range(d)])
    for ds in datasets:
        labels = ds.labels if ds.labels is not None else [""] * ds.points.shape[0]
        for row, lab in zip(ds.points, labels):
            writer.writerow([ds.owner, lab] + [repr(float(v)) for v in row])
    replace_file(path, text.getvalue(), durable=False)


def load_owner_datasets(path: str | Path) -> list[OwnerDataset]:
    """Read the dataset CSV back into per-owner datasets.

    Owner ids must be dense 0..n-1; an owner's rows keep their file order,
    wherever they stand in the file. Labels come back as written; an owner
    whose label cells are all empty gets ``labels=None``. The rows are
    checked in file order and the first bad one is named by its line: a row
    of the wrong width, an owner id that is not an integer and a coordinate
    that is not a number raise :class:`DimensionMismatchError`, and a NaN or
    infinite coordinate raises :class:`NonFiniteError`. Then owner ids that
    are not dense raise :class:`DimensionMismatchError` naming the first
    line of the owner where they break off. A file that is not UTF-8, or
    whose header has no coordinate column, raises
    :class:`DimensionMismatchError`, and a file with no data rows raises
    :class:`EmptyDatasetError`, naming the file.

    Every call reads the file's bytes. The parse is cached by their sha256,
    for the last ``_CACHE_SIZE`` distinct contents, so a file whose bytes
    changed is parsed again and equal bytes at any path are parsed once. A
    file that fails is never cached: it raises the same error on every call.
    The datasets returned are over a fresh copy of the cached points.
    """
    data = Path(path).read_bytes()
    points, ends, labels = _DATASETS.get(hashlib.sha256(data).digest(),
                                         lambda: _parse_owner_datasets(path, data))
    points = points.copy()
    return [OwnerDataset(owner=owner, points=points[start:end], labels=owner_labels)
            for owner, (start, end, owner_labels) in enumerate(zip([0, *ends], ends, labels))]


def _parse_owner_datasets(
    path, data: bytes
) -> tuple[np.ndarray, list[int], list[tuple[str, ...] | None]]:
    """The points of ``data``, a dataset CSV, grouped by owner, read-only.

    Returns the ``(rows, d)`` points in owner order, each owner's end row and
    each owner's labels (``None`` when all are empty). Errors name ``path``.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DimensionMismatchError(f"{path}: not UTF-8 text ({exc})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None or header[:2] != ["owner_id", "label"]:
        raise DimensionMismatchError(f"{path}: expected header owner_id,label,x0,...")
    d = len(header) - 2
    if d == 0:
        raise DimensionMismatchError(f"{path}: the header names no coordinate column")
    rows: list[list[str]] = []
    lines: list[int] = []
    for row in reader:
        if row:
            rows.append(row)
            lines.append(reader.line_num)

    # The fast path checks each kind over all rows at once; if one fails,
    # the rows are walked in file order to name the first bad one.
    try:
        if list(map(len, rows)).count(d + 2) != len(rows):
            raise ValueError
        owners = list(map(int, [row[0] for row in rows]))
        points = np.array(list(map(float, [v for row in rows for v in row[2:]])),
                          dtype=float).reshape(len(rows), d)
        if not np.isfinite(points).all():
            raise ValueError
    except ValueError:
        raise _first_bad_row(path, rows, lines, d) from None
    if not rows:
        raise EmptyDatasetError(f"{path}: the dataset has a header but no rows")

    ids = sorted(set(owners))
    gap = next((k for k, owner in enumerate(ids) if owner != k), None)
    if gap is not None:
        raise DimensionMismatchError(
            f"{path}: line {lines[owners.index(ids[gap])]}: "
            f"owner ids must be dense 0..n-1, got {ids}"
        )
    owner_ids = np.array(owners)
    order = np.argsort(owner_ids, kind="stable")
    points = points[order]
    points.setflags(write=False)
    labels = [rows[k][1] for k in order.tolist()]
    ends = np.cumsum(np.bincount(owner_ids)).tolist()
    owner_labels = [tuple(labels[start:end]) for start, end in zip([0, *ends], ends)]
    return points, ends, [lab if any(lab) else None for lab in owner_labels]


def _first_bad_row(path, rows: list[list[str]], lines: list[int], d: int) -> Exception:
    """The error of the first row that fails a check, in file order.

    Within a row, width comes first, then the owner id, then the
    coordinates, then their finiteness.
    """
    for row, line in zip(rows, lines):
        if len(row) != d + 2:
            return DimensionMismatchError(f"{path}: line {line}: row width {len(row)} != {d + 2}")
        try:
            int(row[0])
        except ValueError:
            return DimensionMismatchError(
                f"{path}: line {line}: owner id {row[0]!r} is not an integer")
        try:
            coords = [float(v) for v in row[2:]]
        except ValueError:
            return DimensionMismatchError(f"{path}: line {line}: a coordinate is not a number")
        if not all(math.isfinite(v) for v in coords):
            return NonFiniteError(f"{path}: line {line} has a non-finite coordinate")
    # Unreached: the fast path failed one of these same checks on some row.
    raise AssertionError("every row passes")
