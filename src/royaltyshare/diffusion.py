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
range. Trajectory k draws from a stream derived from ``(seed, k)``, so
estimates do not depend on how trajectories are batched across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# fit_gaussian is not called here; it stays importable from this module
# because bench/layertrace.py wraps it under this name.
from .density import (  # noqa: F401
    CoalitionDensityOracle,
    DensityOracleConfig,
    GaussianModel,
    fit_gaussian,
    logsumexp,
)
from .seeding import derive_seed, rng_for

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
    cov = (cov + cov.T) / 2.0
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals[0] < floor:
        vals, vecs = np.linalg.eigh(cov)
        vals = np.maximum(vals, floor)
        cov = vecs @ np.diag(vals) @ vecs.T
        cov = (cov + cov.T) / 2.0
    return cov


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
    x = np.asarray(x, dtype=float)
    logs = np.empty(num_samples, dtype=float)
    for k in range(num_samples):
        traj = chain.sample_latents(rng_for(seed, k))
        logs[k] = chain.final_kernel(traj[-1]).log_density(x)
    return logs


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
    pure function of the coalition. The baseline stays analytic.
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
        super().__init__(
            partition, baseline, event, DensityOracleConfig(kind="gaussian_mle", ridge=ridge)
        )
        self.schedule = schedule
        self.num_samples = num_samples
        self.seed = seed

    def _event_log_densities(self, masks, members, pools) -> np.ndarray:
        counts, means, covs = self._fit_gaussians(masks, members, pools)
        out = np.empty(len(masks))
        for b, s in enumerate(masks):
            model = GaussianModel(mean=means[b], cov=covs[b], fit_count=counts[b])
            out[b] = latent_mc_log_density(
                gaussian_ddpm_chain(model, self.schedule),
                self.event.x,
                self.num_samples,
                derive_seed(self.seed, s),
            )
        return out
