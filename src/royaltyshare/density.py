"""Density models over owner datasets and the coalition utility they induce.

The utility of a coalition S for a generated sample x is the relative
log-likelihood ``log p_S(x) - log p_baseline(x)`` in nats, where ``p_S`` is a
density fit on the pooled data of the owners in S and the baseline is an
ownerless reference model (standard normal by default, or a fit on a public
dataset). The empty coalition is exactly zero by construction.

Two desk-scale families are provided: Gaussian maximum likelihood fits with a
ridge and an eigenvalue floor, and a fixed-bandwidth Gaussian kernel density
estimate.

A Gaussian fit is a function of the count, Σx and Σxxᵀ of its points. These
are held exactly, as Python integers at one power-of-two scale, so pooling
owners is integer addition and each moment is rounded once: the mean is the
correctly rounded Σx divided by m, and the covariance is the correctly
rounded moment Σ(x−μ)(x−μ)ᵀ about that mean, divided by m. A fit therefore
depends only on the pooled multiset of points, and owners with identical
datasets produce bit-identical models; the duplication results downstream
are exact because of this, not approximate. :class:`CoalitionDensityOracle`
computes each owner's moments once and fits a whole batch of coalitions with
stacked linear algebra; :func:`fit_gaussian` is the same routine on a batch
of one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy.special import logsumexp

from .errors import (
    DimensionMismatchError,
    EmptyDatasetError,
    NonFiniteError,
    OracleFailureError,
)
from .games import Coalition, UtilityOracle, coalition_members

LOG_2PI = math.log(2.0 * math.pi)

# Fits never report a covariance eigenvalue below this, so log densities stay
# finite even for single-point or collinear datasets.
COVARIANCE_FLOOR = 1e-6

_KDE_BANDWIDTH_FLOOR = 1e-6


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
    """A multivariate normal with precomputed Cholesky factor.

    ``fit_count`` is the number of points the model was fit on (0 for models
    built directly from moments).
    """

    mean: np.ndarray
    cov: np.ndarray
    fit_count: int = 0
    kind: str = field(default="gaussian_mle", init=False)

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


@dataclass(frozen=True)
class KernelDensityModel:
    """An isotropic Gaussian KDE with a single scalar bandwidth."""

    support: np.ndarray
    bandwidth: float
    fit_count: int = 0
    kind: str = field(default="kde", init=False)

    def __post_init__(self) -> None:
        pts = np.asarray(self.support, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise EmptyDatasetError("kde support must be a nonempty (m, d) array")
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError("bandwidth must be positive and finite")
        object.__setattr__(self, "support", pts)

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    def log_density(self, x: np.ndarray) -> float:
        x = _check_query(x, self.dim)
        h = self.bandwidth
        m, d = self.support.shape
        sq = np.sum((self.support - x) ** 2, axis=1)
        kernel_logs = -sq / (2.0 * h * h)
        return float(logsumexp(kernel_logs)) - math.log(m) - d * math.log(h) - 0.5 * d * LOG_2PI


DensityModel = GaussianModel | KernelDensityModel


def _check_query(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DimensionMismatchError(f"query shape {x.shape} does not match model dim {dim}")
    return x


def log_density(model: DensityModel, x: np.ndarray) -> float:
    """Log density of ``x`` under ``model``, in nats."""
    return model.log_density(x)


def _exact_scale(arrays: Iterable[np.ndarray]) -> int:
    """The least ``k >= 0`` for which every coordinate times ``2**k`` is an integer."""
    scale = 0
    for pts in arrays:
        if not np.all(np.isfinite(pts)):
            raise NonFiniteError("gaussian fits need finite coordinates")
        for v in pts.ravel().tolist():
            scale = max(scale, v.as_integer_ratio()[1].bit_length() - 1)
    return scale


@dataclass(frozen=True)
class _Moments:
    """Count, Σx and the upper triangle of Σxxᵀ (row-major) of a point set.

    ``sx`` holds Σx times ``2**scale`` and ``sxx`` holds Σxxᵀ times
    ``2**(2 * scale)``, both as Python integers, so moments add exactly.
    """

    count: int
    sx: tuple[int, ...]
    sxx: tuple[int, ...]

    @classmethod
    def of(cls, points: np.ndarray, scale: int) -> _Moments:
        rows = [
            [num << (scale + 1 - den.bit_length()) for num, den in map(float.as_integer_ratio, row)]
            for row in points.tolist()
        ]
        d = points.shape[1]
        return cls(
            count=len(rows),
            sx=tuple(sum(r[i] for r in rows) for i in range(d)),
            sxx=tuple(sum(r[i] * r[j] for r in rows) for i, j in _upper_pairs(d)),
        )

    @classmethod
    def pooled(cls, parts: Sequence[_Moments]) -> _Moments:
        return cls(
            count=sum(p.count for p in parts),
            sx=tuple(map(sum, zip(*(p.sx for p in parts)))),
            sxx=tuple(map(sum, zip(*(p.sxx for p in parts)))),
        )


def _upper_pairs(d: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(d) for j in range(i, d)]


def _fit_moments(
    moments: Sequence[_Moments], scale: int, ridge: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means ``(B, d)``, covariances ``(B, d, d)`` and floor flags ``(B,)``.

    Row ``b`` fits the nonempty point set whose moments, held at ``scale``,
    are ``moments[b]``. Its mean is Σx rounded once, divided by m: bit for bit
    ``math.fsum(column) / m``. Its covariance is the exact moment
    Σ(x−μ)(x−μ)ᵀ about that rounded mean μ, rounded once, divided by m,
    plus ``ridge`` on the diagonal. Where the smallest eigenvalue is below
    ``COVARIANCE_FLOOR`` the eigenvalues are raised to it and the row's flag
    is set; the other covariances are returned untouched.
    """
    d = len(moments[0].sx)
    pairs = _upper_pairs(d)
    unit = 1 << scale
    means, entries = [], []
    for mom in moments:
        m = mom.count
        mean = [s / unit / m for s in mom.sx]
        # The mean as integers at a scale 2**shift that holds it and the sums exactly.
        ratios = [v.as_integer_ratio() for v in mean]
        shift = max([scale] + [den.bit_length() - 1 for _, den in ratios])
        mu = [num << (shift + 1 - den.bit_length()) for num, den in ratios]
        sx = [s << (shift - scale) for s in mom.sx]
        lift, denom = 2 * (shift - scale), 1 << (2 * shift)
        entries.append([
            ((q << lift) - mu[i] * sx[j] - sx[i] * mu[j] + m * mu[i] * mu[j]) / denom / m
            for (i, j), q in zip(pairs, mom.sxx)
        ])
        means.append(mean)
    covs = np.empty((len(moments), d, d))
    rows, cols = np.triu_indices(d)
    covs[:, rows, cols] = entries
    covs[:, cols, rows] = entries
    covs[:, np.arange(d), np.arange(d)] += ridge
    floored = np.linalg.eigvalsh(covs)[:, 0] < COVARIANCE_FLOOR
    if floored.any():
        vals, vecs = np.linalg.eigh(covs[floored])
        low = (vecs * np.maximum(vals, COVARIANCE_FLOOR)[:, None, :]) @ np.swapaxes(vecs, 1, 2)
        covs[floored] = (low + np.swapaxes(low, 1, 2)) / 2.0
    return np.array(means), covs, floored


def _cholesky_logdet(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors and log determinants of stacked covariances."""
    chols = np.linalg.cholesky(covs)
    logs = np.log(np.ascontiguousarray(np.diagonal(chols, axis1=1, axis2=2)))
    return chols, np.array([2.0 * math.fsum(row) for row in logs.tolist()])


def _forward_substitute(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``lower[b] @ w[b] = rhs[b]`` for every row ``b`` of ``rhs``.

    Elementwise operations only, in a fixed order, so a row's result does not
    depend on the batch it came in.
    """
    w = np.empty_like(rhs)
    for i in range(rhs.shape[1]):
        acc = rhs[:, i].copy()
        for k in range(i):
            acc -= lower[:, i, k] * w[:, k]
        w[:, i] = acc / lower[:, i, i]
    return w


def _gaussian_log_densities(
    means: np.ndarray, chols: np.ndarray, logdets: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Log density of ``x`` under each of B stacked Gaussians."""
    w = _forward_substitute(chols, x - means)
    # A stacked matmul takes each row's dot product on its own (np.einsum
    # and np.sum do not), so a row's result does not depend on its batch.
    quad = np.matmul(w[:, None, :], w[:, :, None])[:, 0, 0]
    return -0.5 * (x.size * LOG_2PI + logdets + quad)


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
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    scale = _exact_scale([pts])
    means, covs, _ = _fit_moments([_Moments.of(pts, scale)], scale, ridge)
    return GaussianModel(mean=means[0], cov=covs[0], fit_count=pts.shape[0])


def scott_bandwidth(points: np.ndarray) -> float:
    """Scott's rule bandwidth: rms per-dimension spread times ``m**(-1/(d+4))``."""
    pts = np.asarray(points, dtype=float)
    m, d = pts.shape
    if m == 0:
        raise EmptyDatasetError("bandwidth selection requires points")
    variances = pts.var(axis=0)
    spread = math.sqrt(float(variances.mean()))
    return max(spread * m ** (-1.0 / (d + 4)), _KDE_BANDWIDTH_FLOOR)


def fit_kde(points: np.ndarray, bandwidth: float | None = None) -> KernelDensityModel:
    """Gaussian KDE over the given support; Scott's rule when no bandwidth is given."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise EmptyDatasetError("kde fit requires a nonempty (m, d) array")
    if bandwidth is None:
        bandwidth = scott_bandwidth(pts)
    return KernelDensityModel(support=pts, bandwidth=bandwidth, fit_count=pts.shape[0])


def standard_normal_model(dim: int) -> GaussianModel:
    """The default ownerless baseline."""
    return GaussianModel(mean=np.zeros(dim), cov=np.eye(dim))


@dataclass(frozen=True)
class DensityOracleConfig:
    """Which family to fit per coalition, and its regularization.

    ``ridge`` applies to Gaussian fits; ``bandwidth`` to KDE fits (None means
    Scott's rule).
    """

    kind: str = "gaussian_mle"
    ridge: float = COVARIANCE_FLOOR
    bandwidth: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian_mle", "kde"):
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")


class CoalitionDensityOracle:
    """Batch utility oracle: relative log-likelihood of one event.

    :meth:`many` takes a sequence of coalitions and returns their utilities
    as an array; calling the oracle on one coalition is ``many([s])[0]``.
    Gaussian fits read each owner's exact moments, computed once here, and
    run stacked over the batch; KDE fits pool each coalition's points.

    Conditioning: when the event carries a label and a coalition has labeled
    points, the fit uses only points with that label. A nonempty coalition
    whose conditioned pool is empty falls back to its unconditioned pool and
    the coalition is recorded in ``fallback_coalitions`` rather than killing
    the run; a coalition with no points at all raises
    :class:`OracleFailureError`. Coalitions whose Gaussian fit had an
    eigenvalue raised to ``COVARIANCE_FLOOR`` are recorded in
    ``covariance_floor_coalitions``.
    """

    def __init__(
        self,
        partition: Sequence[OwnerDataset],
        baseline: DensityModel,
        event: GenerationEvent,
        config: DensityOracleConfig = DensityOracleConfig(),
    ):
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
        self.config = config
        self.baseline = baseline
        self.baseline_log = log_density(baseline, self.event.x)
        self.fallback_coalitions: set[Coalition] = set()
        self.covariance_floor_coalitions: set[Coalition] = set()
        # Per owner, index 0: the points a fit uses under the event's label;
        # index 1: all of them, the fallback.
        everything = [self.datasets[i].points for i in range(self.n)]
        labeled = [self._labeled(self.datasets[i]) for i in range(self.n)]
        self._pools = (labeled, everything)
        if config.kind == "gaussian_mle":
            self._scale = _exact_scale(everything)
            full = [_Moments.of(pts, self._scale) for pts in everything]
            self._moments = (
                [f if pts is all_pts else _Moments.of(pts, self._scale)
                 for f, pts, all_pts in zip(full, labeled, everything)],
                full,
            )

    def _labeled(self, ds: OwnerDataset) -> np.ndarray:
        if self.event.label is None or ds.labels is None:
            return ds.points
        return ds.points[[lab == self.event.label for lab in ds.labels]]

    def many(self, masks: Iterable[Coalition]) -> np.ndarray:
        """Utilities of a sequence of coalitions, as a float array of its length.

        Raises :class:`OracleFailureError` before any fit if a nonempty
        coalition holds no points; nothing is recorded then.
        """
        masks = [int(s) for s in masks]
        live = [b for b, s in enumerate(masks) if s]
        members = [coalition_members(masks[b]) for b in live]
        pools = []
        for owners in members:
            if any(len(self._pools[0][i]) for i in owners):
                pools.append(0)
            elif any(len(self._pools[1][i]) for i in owners):
                pools.append(1)
            else:
                raise OracleFailureError(f"coalition {owners} holds no training points")
        self.fallback_coalitions.update(masks[b] for b, p in zip(live, pools) if p)
        values = np.zeros(len(masks))
        if live:
            logs = self._event_log_densities([masks[b] for b in live], members, pools)
            values[live] = logs - self.baseline_log
        return values

    def __call__(self, s: Coalition) -> float:
        return float(self.many([s])[0])

    def _fit_gaussians(
        self, masks: list[Coalition], members: list[list[int]], pools: list[int]
    ) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Point counts, means and covariances of the coalitions' Gaussian fits."""
        pooled = [
            _Moments.pooled([self._moments[p][i] for i in owners])
            for owners, p in zip(members, pools)
        ]
        means, covs, floored = _fit_moments(pooled, self._scale, self.config.ridge)
        self.covariance_floor_coalitions.update(s for s, hit in zip(masks, floored) if hit)
        return [mom.count for mom in pooled], means, covs

    def _event_log_densities(
        self, masks: list[Coalition], members: list[list[int]], pools: list[int]
    ) -> np.ndarray:
        """Log density of the event under each nonempty coalition's fit;
        subclasses may replace the direct evaluation with an estimator."""
        x = self.event.x
        if self.config.kind == "kde":
            return np.array([
                log_density(
                    fit_kde(np.concatenate([self._pools[p][i] for i in owners]),
                            bandwidth=self.config.bandwidth),
                    x,
                )
                for owners, p in zip(members, pools)
            ])
        _, means, covs = self._fit_gaussians(masks, members, pools)
        chols, logdets = _cholesky_logdet(covs)
        return _gaussian_log_densities(means, chols, logdets, x)


def coalition_utility(
    partition: Sequence[OwnerDataset],
    baseline: DensityModel,
    event: GenerationEvent,
    config: DensityOracleConfig = DensityOracleConfig(),
) -> UtilityOracle:
    """Build the coalition utility oracle for one generation event."""
    return CoalitionDensityOracle(partition, baseline, event, config)


# ---------------------------------------------------------------------------
# Dataset CSV interface
#
# Columns: owner_id,label,x0,...,x{d-1}. Coordinates are written with repr,
# i.e. the shortest decimal digits (at most 17 significant) that round-trip
# the binary double exactly.
# ---------------------------------------------------------------------------


def save_owner_datasets(path: str | Path, datasets: Iterable[OwnerDataset]) -> None:
    datasets = sorted(datasets, key=lambda ds: ds.owner)
    if not datasets:
        raise EmptyDatasetError("nothing to save")
    d = datasets[0].points.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["owner_id", "label"] + [f"x{j}" for j in range(d)])
        for ds in datasets:
            labels = ds.labels if ds.labels is not None else [""] * ds.points.shape[0]
            for row, lab in zip(ds.points, labels):
                writer.writerow([ds.owner, lab] + [repr(float(v)) for v in row])


def load_owner_datasets(path: str | Path) -> list[OwnerDataset]:
    """Read the dataset CSV back into per-owner datasets.

    Owner ids must be dense 0..n-1. Labels come back as written; an owner
    whose label cells are all empty gets ``labels=None``. A NaN or infinite
    coordinate raises :class:`NonFiniteError` naming the file and line.
    """
    grouped: dict[int, list[tuple[list[float], str]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["owner_id", "label"]:
            raise DimensionMismatchError(f"{path}: expected header owner_id,label,x0,...")
        d = len(header) - 2
        for row in reader:
            if not row:
                continue
            if len(row) != d + 2:
                raise DimensionMismatchError(f"{path}: row width {len(row)} != {d + 2}")
            owner = int(row[0])
            coords = [float(v) for v in row[2:]]
            if not all(math.isfinite(v) for v in coords):
                raise NonFiniteError(
                    f"{path}: line {reader.line_num} has a non-finite coordinate"
                )
            grouped.setdefault(owner, []).append((coords, row[1]))
    if sorted(grouped) != list(range(len(grouped))):
        raise ValueError(f"{path}: owner ids must be dense 0..n-1, got {sorted(grouped)}")
    out = []
    for owner in range(len(grouped)):
        rows = grouped[owner]
        points = np.array([r[0] for r in rows])
        labels = tuple(r[1] for r in rows)
        out.append(
            OwnerDataset(
                owner=owner,
                points=points,
                labels=None if all(lab == "" for lab in labels) else labels,
            )
        )
    return out
