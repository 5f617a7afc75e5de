"""A linear-Gaussian diffusion chain with an exact reverse process.

The forward process mirrors the usual denoising-diffusion construction:

    x_t = sqrt(alpha_t) * x_{t-1} + sqrt(1 - alpha_t) * eps,  eps ~ N(0, I)

For Gaussian data every marginal and every reverse conditional is Gaussian in
closed form, so the chain doubles as an analytic test bed: the implied
marginal at t = 0 equals the data model by construction, and the Monte Carlo
density estimate below can be checked against it exactly.

The estimator approximates log p(x) = log E[p(x | x_1)] by sampling reverse
trajectories down to x_1 and applying log-mean-exp over the final Gaussian
kernel, which stays stable for kernel log-densities across the full double
range. Trajectory k draws its noise from the stream derived from
``(seed, k)``; a stream is a pure function of its key, so running the
trajectories as stacked arrays, or deriving every coalition's keys in one
pass, never changes a bit. ``sample_latents`` and ``final_kernel`` are the
per-trajectory reference the stacked estimator is tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

# fit_gaussian and rng_for are not called here; they stay importable from
# this module because bench/layertrace.py wraps them under these names.
from .density import (  # noqa: F401
    CoalitionDensityOracle,
    DensityOracleConfig,
    GaussianModel,
    _check_query,
    _cholesky_logdet,
    _floor_eigenvalues,
    _gaussian_log_densities,
    fit_gaussian,
    logsumexp,
)
from .seeding import key_generators, philox_keys, rng_for  # noqa: F401

DEFAULT_NUM_TRAJECTORIES = 20

# The exact reverse covariance is singular only for an alpha = 1 step (the
# forward step adds no noise); this floor keeps the kernel a proper density.
_POSTERIOR_FLOOR = 1e-12


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step retention factors alpha_t, each in (0, 1]."""

    alphas: np.ndarray

    def __post_init__(self) -> None:
        alphas = np.atleast_1d(np.asarray(self.alphas, dtype=float))
        if alphas.size == 0:
            raise ValueError("schedule needs at least one step")
        if not np.all((alphas > 0) & (alphas <= 1)):
            raise ValueError("every alpha must lie in (0, 1]")
        object.__setattr__(self, "alphas", alphas)

    @classmethod
    def uniform(cls, steps: int, alpha: float) -> NoiseSchedule:
        return cls(np.full(steps, float(alpha)))

    @property
    def steps(self) -> int:
        return self.alphas.size


def _floor_spd(cov: np.ndarray, floor: float) -> np.ndarray:
    covs = ((cov + cov.T) / 2.0)[None]
    _floor_eigenvalues(covs, floor)
    return covs[0]


class GaussianReverseChain:
    """Closed-form reverse process for Gaussian data under a noise schedule.

    ``marginal_model(t)`` is the exact distribution of x_t (t = 0 is the data
    model). ``sample_latents`` draws one reverse trajectory (x_T, ..., x_1),
    and ``final_kernel`` maps x_1 to the Gaussian density of x_0 given x_1.
    """

    def __init__(self, data_model: GaussianModel, schedule: NoiseSchedule):
        self.data_model = data_model
        self.schedule = schedule
        d = data_model.dim
        eye = np.eye(d)
        alphas = schedule.alphas
        T = schedule.steps

        # means[t], covs[t]: marginal parameters of x_t, t = 0..T
        self._means = [np.asarray(data_model.mean, dtype=float)]
        self._covs = [np.asarray(data_model.cov, dtype=float)]
        abar = 1.0
        for t in range(1, T + 1):
            abar *= alphas[t - 1]
            self._means.append(math.sqrt(abar) * self._means[0])
            self._covs.append(abar * self._covs[0] + (1.0 - abar) * eye)

        # Reverse conditionals p(x_{t-1} | x_t) for t = 1..T: a gain matrix
        # and a covariance, from the joint Gaussian of (x_{t-1}, x_t).
        self._gains: list[np.ndarray] = [np.empty(0)]  # index 0 unused
        self._kernel_covs: list[np.ndarray] = [np.empty(0)]
        self._kernel_chols: list[np.ndarray] = [np.empty(0)]
        for t in range(1, T + 1):
            root_a = math.sqrt(alphas[t - 1])
            s_prev = self._covs[t - 1]
            s_t = self._covs[t]
            gain = root_a * np.linalg.solve(s_t.T, s_prev.T).T
            cov = _floor_spd(s_prev - root_a * gain @ s_prev, _POSTERIOR_FLOOR)
            self._gains.append(gain)
            self._kernel_covs.append(cov)
            self._kernel_chols.append(np.linalg.cholesky(cov))
        self._top_chol = np.linalg.cholesky(_floor_spd(self._covs[T], _POSTERIOR_FLOOR))

    @property
    def dim(self) -> int:
        return self.data_model.dim

    def marginal_model(self, t: int) -> GaussianModel:
        if not 0 <= t <= self.schedule.steps:
            raise ValueError(f"t must lie in [0, {self.schedule.steps}]")
        return GaussianModel(mean=self._means[t].copy(), cov=self._covs[t].copy())

    def kernel_mean(self, t: int, x_t: np.ndarray) -> np.ndarray:
        """Mean of x_{t-1} given x_t under the reverse conditional."""
        return self._means[t - 1] + self._gains[t] @ (x_t - self._means[t])

    def sample_latents(self, rng: np.random.Generator) -> list[np.ndarray]:
        """Draw one reverse trajectory and return (x_T, ..., x_1)."""
        T = self.schedule.steps
        x = self._means[T] + self._top_chol @ rng.standard_normal(self.dim)
        traj = [x]
        for t in range(T, 1, -1):
            x = self.kernel_mean(t, x) + self._kernel_chols[t] @ rng.standard_normal(self.dim)
            traj.append(x)
        return traj

    def final_kernel(self, x_1: np.ndarray) -> GaussianModel:
        """The Gaussian density of x_0 given the last latent x_1."""
        return GaussianModel(mean=self.kernel_mean(1, np.asarray(x_1, dtype=float)),
                             cov=self._kernel_covs[1].copy())


def gaussian_ddpm_chain(data_model: GaussianModel, schedule: NoiseSchedule) -> GaussianReverseChain:
    """Build the exact reverse chain for a Gaussian data model."""
    return GaussianReverseChain(data_model, schedule)


def _draw_noise(generators: Iterator[np.random.Generator], count: int, steps: int,
                dim: int) -> np.ndarray:
    """``(count, steps, dim)`` noise, one ``standard_normal((steps, dim))`` per stream.

    A stream's draw of shape ``(steps, dim)`` holds the same values as
    ``steps`` draws of size ``dim``, which is what ``sample_latents`` makes.
    """
    return np.stack([rng.standard_normal((steps, dim))
                     for rng in itertools.islice(generators, count)])


def _trajectory_log_densities(
    chain: GaussianReverseChain, x: np.ndarray, noise: np.ndarray
) -> np.ndarray:
    """log p(x | x_1^(k)) for the K trajectories driven by ``noise`` (K, T, d).

    Row k equals ``sample_latents`` on a stream drawing ``noise[k]``, then
    ``final_kernel(x_1).log_density(x)``, bit for bit: every step is the
    reference's operation on a stacked ``(d, d) @ (K, d, 1)`` matmul, and the
    final kernel's covariance, the same for every trajectory, is factored
    once.
    """
    T = chain.schedule.steps
    means, gains = chain._means, chain._gains

    def apply(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        return (matrix @ vectors[:, :, None])[:, :, 0]

    x_t = means[T] + apply(chain._top_chol, noise[:, 0])
    for step, t in enumerate(range(T, 1, -1), start=1):
        x_t = (means[t - 1] + apply(gains[t], x_t - means[t])
               + apply(chain._kernel_chols[t], noise[:, step]))
    kernel_means = means[0] + apply(gains[1], x_t - means[1])
    chols, logdets = _cholesky_logdet(chain._kernel_covs[1][None])
    return _gaussian_log_densities(kernel_means, chols, logdets, x)


def latent_mc_samples(
    chain: GaussianReverseChain,
    x: np.ndarray,
    num_samples: int = DEFAULT_NUM_TRAJECTORIES,
    seed: int = 0,
) -> np.ndarray:
    """Per-trajectory log kernel densities log p(x | x_1^(k)).

    Trajectory k uses the stream derived from ``(seed, k)``; the array is the
    raw material for the log-mean-exp estimate and its uncertainty.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be at least 1")
    x = _check_query(x, chain.dim)
    keys = philox_keys(seed, np.arange(num_samples, dtype=np.uint64))
    noise = _draw_noise(key_generators(keys), num_samples, chain.schedule.steps, chain.dim)
    return _trajectory_log_densities(chain, x, noise)


def latent_mc_log_density(
    chain: GaussianReverseChain,
    x: np.ndarray,
    num_samples: int = DEFAULT_NUM_TRAJECTORIES,
    seed: int = 0,
) -> float:
    """Monte Carlo log density: log-mean-exp of the final kernel over trajectories."""
    logs = latent_mc_samples(chain, x, num_samples, seed)
    return logsumexp(logs) - math.log(num_samples)


def latent_mc_stderr(samples: np.ndarray) -> float:
    """Delta-method standard error of the log-mean-exp estimate.

    Shift invariant in the log samples, so it is safe for kernels whose raw
    densities would under- or overflow.
    """
    if samples.size < 2:
        return float("inf")
    shift = samples.max()
    weights = np.exp(samples - shift)
    mean = weights.mean()
    sd = weights.std(ddof=1)
    return float(sd / (mean * math.sqrt(samples.size)))


class ChainDensityOracle(CoalitionDensityOracle):
    """Coalition utility evaluated through the diffusion chain estimator.

    Each coalition gets its Gaussian fit from the batched exact moments, the
    fit is pushed through the reverse chain, and the event's log density is
    estimated by ``num_samples`` latent trajectories. The trajectory seed is
    derived from ``(seed, coalition)``, so the oracle stays a deterministic
    pure function of the coalition, and its value equals
    ``latent_mc_log_density(chain, x, num_samples, derive_seed(seed, s))``.
    The baseline stays analytic.
    """

    def __init__(
        self,
        partition,
        baseline,
        event,
        schedule: NoiseSchedule,
        *,
        ridge: float = 1e-6,
        num_samples: int = DEFAULT_NUM_TRAJECTORIES,
        seed: int = 0,
    ):
        if num_samples < 1:
            raise ValueError("num_samples must be at least 1")
        super().__init__(
            partition, baseline, event, DensityOracleConfig(kind="gaussian_mle", ridge=ridge)
        )
        self.schedule = schedule
        self.num_samples = num_samples
        self.seed = seed

    def _event_log_densities(self, masks, fallback) -> np.ndarray:
        _, means, covs = self._fit_gaussians(masks, fallback)
        k = self.num_samples
        # Coalition s's root is derive_seed(seed, s); its trajectory j draws
        # from the stream (root, j). All keys of the batch come in one pass.
        roots = philox_keys(self.seed, masks)[:, 0]
        keys = philox_keys(np.repeat(roots, k),
                           np.tile(np.arange(k, dtype=np.uint64), len(masks)))
        generators = key_generators(keys)
        out = np.empty(len(masks))
        for b in range(len(masks)):
            chain = gaussian_ddpm_chain(GaussianModel(mean=means[b], cov=covs[b]), self.schedule)
            noise = _draw_noise(generators, k, self.schedule.steps, chain.dim)
            logs = _trajectory_log_densities(chain, self.event.x, noise)
            out[b] = logsumexp(logs) - math.log(k)
        return out
