"""Density models over owner datasets and the coalition utility they induce.

The utility of a coalition S for a generated sample x is the relative
log-likelihood ``log p_S(x) - log p_baseline(x)`` in nats, where ``p_S`` is a
density fit on the pooled data of the owners in S and the baseline is an
ownerless reference model (standard normal by default, or a fit on a public
dataset). The empty coalition is exactly zero by construction.

Two desk-scale families are provided: Gaussian maximum likelihood fits with a
ridge and an eigenvalue floor, and a fixed-bandwidth Gaussian kernel density
estimate. Fits accumulate moments with exactly rounded sums, so owners with
identical datasets produce bit-identical models; the duplication results
downstream are exact because of this, not approximate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import solve_triangular
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
        chol = np.linalg.cholesky(cov)
        logdet = 2.0 * math.fsum(np.log(np.diag(chol)).tolist())
        object.__setattr__(self, "_chol", chol)
        object.__setattr__(self, "_logdet", logdet)

    @property
    def dim(self) -> int:
        return self.mean.size

    def log_density(self, x: np.ndarray) -> float:
        x = _check_query(x, self.dim)
        diff = x - self.mean
        w = solve_triangular(self._chol, diff, lower=True)
        quad = float(w @ w)
        return -0.5 * (self.dim * LOG_2PI + self._logdet + quad)


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


def _fsum_column(values: np.ndarray) -> float:
    return math.fsum(values.tolist())


def fit_gaussian(points: np.ndarray, ridge: float = 0.0) -> GaussianModel:
    """Maximum likelihood Gaussian fit with a diagonal ridge.

    Moments use exactly rounded sums: fitting a dataset concatenated with
    itself returns the same model bit for bit, which keeps exact-duplicate
    owners exactly symmetric downstream. After adding ``ridge`` to the
    diagonal, eigenvalues are floored at ``COVARIANCE_FLOOR``; covariances
    already above the floor are returned untouched.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise EmptyDatasetError("gaussian fit requires a nonempty (m, d) array")
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    m, d = pts.shape
    mean = np.array([_fsum_column(pts[:, j]) / m for j in range(d)])
    centered = pts - mean
    cov = np.empty((d, d), dtype=float)
    for i in range(d):
        for j in range(i, d):
            cov_ij = _fsum_column(centered[:, i] * centered[:, j]) / m
            cov[i, j] = cov_ij
            cov[j, i] = cov_ij
    cov[np.diag_indices(d)] += ridge
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals[0] < COVARIANCE_FLOOR:
        vals, vecs = np.linalg.eigh(cov)
        vals = np.maximum(vals, COVARIANCE_FLOOR)
        cov = vecs @ np.diag(vals) @ vecs.T
        cov = (cov + cov.T) / 2.0
    return GaussianModel(mean=mean, cov=cov, fit_count=m)


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
    """Callable utility oracle: relative log-likelihood of one event.

    Conditioning: when the event carries a label and a coalition has labeled
    points, the fit uses only points with that label. A nonempty coalition
    whose conditioned pool is empty falls back to its unconditioned pool and
    the coalition is recorded in ``fallback_coalitions`` rather than killing
    the run; a coalition with no points at all raises
    :class:`OracleFailureError`.
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

    def _pool(self, s: Coalition, conditioned: bool) -> np.ndarray:
        chunks = []
        for i in coalition_members(s):
            ds = self.datasets[i]
            pts = ds.points
            if conditioned and self.event.label is not None and ds.labels is not None:
                keep = [j for j, lab in enumerate(ds.labels) if lab == self.event.label]
                pts = pts[keep]
            if pts.shape[0]:
                chunks.append(pts)
        if not chunks:
            return np.empty((0, self.event.x.size))
        return np.concatenate(chunks, axis=0)

    def _fit(self, pool: np.ndarray) -> DensityModel:
        if self.config.kind == "gaussian_mle":
            return fit_gaussian(pool, ridge=self.config.ridge)
        return fit_kde(pool, bandwidth=self.config.bandwidth)

    def _event_log_density(self, pool: np.ndarray, s: Coalition) -> float:
        """Log density of the event under the coalition's fit; subclasses may
        replace the direct evaluation with an estimator."""
        return log_density(self._fit(pool), self.event.x)

    def __call__(self, s: Coalition) -> float:
        if s == 0:
            return 0.0
        pool = self._pool(s, conditioned=True)
        if pool.shape[0] == 0:
            pool = self._pool(s, conditioned=False)
            if pool.shape[0] == 0:
                raise OracleFailureError(
                    f"coalition {coalition_members(s)} holds no training points"
                )
            self.fallback_coalitions.add(s)
        return self._event_log_density(pool, s) - self.baseline_log


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
