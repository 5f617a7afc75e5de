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
pass, never changes a bit.

The chain math lives in one place, :func:`_reverse_steps`, which builds the
reverse steps of B data models at once as ``(B, T+1, d, d)`` arrays.
:class:`GaussianReverseChain` is that function on one model, and
:class:`ChainDensityOracle` runs it, and every trajectory of every
coalition, once per sub-block of coalitions. A sub-block holds at most
``_CHAIN_ELEMENTS`` noise and step elements (or one coalition), so the
oracle's memory is bounded by that budget, not by the number of coalitions
it is asked for. Each model's chain and estimate have the same bits
whatever block it comes in. ``sample_latents`` and
``final_kernel`` are the per-trajectory reference the stacked estimator is
tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

# fit_gaussian and rng_for are not called here; they stay importable from
# this module because bench/layertrace.py wraps them under these names.
from .density import (  # noqa: F401
    CoalitionDensityOracle,
    GaussianModel,
    _check_query,
    _cholesky_logdet,
    _floor_eigenvalues,
    _gaussian_log_densities,
    _logsumexp_rows,
    fit_gaussian,
    logsumexp,
)
from .seeding import key_generators, philox_keys, rng_for  # noqa: F401

DEFAULT_NUM_TRAJECTORIES = 20

# The exact reverse covariance is singular only for an alpha = 1 step (the
# forward step adds no noise); this floor keeps the kernel a proper density.
_POSTERIOR_FLOOR = 1e-12

# A coalition's stacked chain holds K·T·d noise and a few (T+1)·d·d step
# arrays. The chain oracle runs its coalitions in sub-blocks of at most this
# many of those elements (at least one coalition), so its memory does not
# grow with the fit block.
_CHAIN_ELEMENTS = 1 << 18


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


def _floor_spd(covs: np.ndarray, floor: float) -> np.ndarray:
    """Symmetrized stacked ``(..., d, d)`` covariances, eigenvalues below ``floor`` raised."""
    d = covs.shape[-1]
    flat = ((covs + np.swapaxes(covs, -1, -2)) / 2.0).reshape(-1, d, d)
    _floor_eigenvalues(flat, floor)
    return flat.reshape(covs.shape)


class ReverseSteps(NamedTuple):
    """The reverse chains of B Gaussian data models under one schedule of T steps.

    ``means`` ``(B, T+1, d)`` and ``covs`` ``(B, T+1, d, d)`` are the exact
    marginals of x_t, t = 0..T. For t = 1..T, ``gains[:, t]`` and
    ``kernel_covs[:, t]`` give the reverse conditional p(x_{t-1} | x_t):
    mean ``means[:, t-1] + gains[:, t] @ (x_t - means[:, t])``, covariance
    ``kernel_covs[:, t]``. Index 0 of ``kernel_covs`` holds the covariance
    of x_T, where every trajectory starts; ``gains[:, 0]`` is zero. The
    kernel covariances are floored, and ``chols`` are their lower factors.
    """

    means: np.ndarray
    covs: np.ndarray
    gains: np.ndarray
    kernel_covs: np.ndarray
    chols: np.ndarray


def _reverse_steps(means: np.ndarray, covs: np.ndarray, schedule: NoiseSchedule) -> ReverseSteps:
    """The reverse chains of the data models ``N(means[b], covs[b])``, all steps at once.

    Each of ``solve``, the eigenvalue floor and ``cholesky`` runs once, over
    all B models and T steps. They factor every matrix on its own, and every
    elementwise step and matmul sees a matrix in the same memory layout
    whatever B is, so a model's chain has the same bits in any batch. The
    reverse conditional p(x_{t-1} | x_t) is that of the joint Gaussian of
    (x_{t-1}, x_t).
    """
    b, d = means.shape
    alphas = schedule.alphas
    abars = np.cumprod(np.concatenate([[1.0], alphas]))[:, None, None]
    marg_means = np.sqrt(abars[:, :, 0]) * means[:, None, :]
    marg_covs = abars * covs[:, None] + (1.0 - abars) * np.eye(d)
    marg_covs[:, 0] = covs
    s_prev, s_next = marg_covs[:, :-1], marg_covs[:, 1:]
    root_a = np.sqrt(alphas)[:, None, None]
    # A gain is the transpose of what solve returns, so each one is held
    # column-major: the matmuls below and in the trajectories then see it in
    # the layout the per-matrix form gives it, and return its bits.
    gains = np.zeros((b, alphas.size + 1, d, d)).swapaxes(2, 3)
    gains[:, 1:] = root_a * np.linalg.solve(np.swapaxes(s_next, 2, 3),
                                            np.swapaxes(s_prev, 2, 3)).swapaxes(2, 3)
    kernel_covs = np.empty_like(marg_covs)
    kernel_covs[:, 0] = marg_covs[:, -1]
    kernel_covs[:, 1:] = s_prev - (root_a * gains[:, 1:]) @ s_prev
    kernel_covs = _floor_spd(kernel_covs, _POSTERIOR_FLOOR)
    return ReverseSteps(marg_means, marg_covs, gains, kernel_covs,
                        np.linalg.cholesky(kernel_covs))


class GaussianReverseChain:
    """Closed-form reverse process for Gaussian data under a noise schedule.

    ``marginal_model(t)`` is the exact distribution of x_t (t = 0 is the data
    model). ``sample_latents`` draws one reverse trajectory (x_T, ..., x_1),
    and ``final_kernel`` maps x_1 to the Gaussian density of x_0 given x_1.
    The chain is :func:`_reverse_steps` of one model; these two methods are
    the per-trajectory reference the stacked estimator is tested against.
    """

    def __init__(self, data_model: GaussianModel, schedule: NoiseSchedule):
        self.data_model = data_model
        self.schedule = schedule
        self.steps = _reverse_steps(data_model.mean[None], data_model.cov[None], schedule)

    @property
    def dim(self) -> int:
        return self.data_model.dim

    def marginal_model(self, t: int) -> GaussianModel:
        if not 0 <= t <= self.schedule.steps:
            raise ValueError(f"t must lie in [0, {self.schedule.steps}]")
        return GaussianModel(mean=self.steps.means[0, t].copy(),
                             cov=self.steps.covs[0, t].copy())

    def kernel_mean(self, t: int, x_t: np.ndarray) -> np.ndarray:
        """Mean of x_{t-1} given x_t under the reverse conditional."""
        means = self.steps.means[0]
        return means[t - 1] + self.steps.gains[0, t] @ (x_t - means[t])

    def sample_latents(self, rng: np.random.Generator) -> list[np.ndarray]:
        """Draw one reverse trajectory and return (x_T, ..., x_1)."""
        T = self.schedule.steps
        chols = self.steps.chols[0]
        x = self.steps.means[0, T] + chols[0] @ rng.standard_normal(self.dim)
        traj = [x]
        for t in range(T, 1, -1):
            x = self.kernel_mean(t, x) + chols[t] @ rng.standard_normal(self.dim)
            traj.append(x)
        return traj

    def final_kernel(self, x_1: np.ndarray) -> GaussianModel:
        """The Gaussian density of x_0 given the last latent x_1."""
        return GaussianModel(mean=self.kernel_mean(1, np.asarray(x_1, dtype=float)),
                             cov=self.steps.kernel_covs[0, 1].copy())


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
    steps: ReverseSteps, x: np.ndarray, noise: np.ndarray
) -> np.ndarray:
    """log p(x | x_1^(b, k)) for chain b's K trajectories driven by ``noise`` (B, K, T, d).

    Entry (b, k) equals ``sample_latents`` of chain b on a stream drawing
    ``noise[b, k]``, then ``final_kernel(x_1).log_density(x)``, bit for bit:
    every step is the reference's operation on a stacked
    ``(B, 1, d, d) @ (B, K, d, 1)`` matmul, and each chain's final kernel
    covariance, the same for all its trajectories, is factored once.
    """
    T = noise.shape[2]
    means = steps.means[:, :, None, :]  # (B, T+1, 1, d), broadcast over trajectories

    def apply(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        return (matrices[:, None] @ vectors[..., None])[..., 0]

    x_t = means[:, T] + apply(steps.chols[:, 0], noise[:, :, 0])
    for step, t in enumerate(range(T, 1, -1), start=1):
        x_t = (means[:, t - 1] + apply(steps.gains[:, t], x_t - means[:, t])
               + apply(steps.chols[:, t], noise[:, :, step]))
    kernel_means = means[:, 0] + apply(steps.gains[:, 1], x_t - means[:, 1])
    chols, logdets = _cholesky_logdet(steps.kernel_covs[:, 1])
    return _gaussian_log_densities(kernel_means, chols[:, None], logdets[:, None], x)


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
    return _trajectory_log_densities(chain.steps, x, noise[None])[0]


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

    Each coalition's Gaussian fit is read from the fit table its Gaussian
    parent shares with every oracle on the same owners' data and ridge (a
    miss is fit from the batched exact moments and stored), the fit is
    pushed through the reverse chain, and the event's log density is
    estimated by ``num_samples`` latent trajectories. The chains and
    trajectories depend on the event and the seed, so they run on every
    call. The trajectory seed is derived from ``(seed, coalition)``, so the
    oracle stays a deterministic pure function of the coalition, and its
    value equals
    ``latent_mc_log_density(chain, x, num_samples, derive_seed(seed, s))``.
    The coalitions run as stacked chains, in sub-blocks bounded by
    ``_CHAIN_ELEMENTS``. The baseline stays analytic.
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
        super().__init__(partition, baseline, event, ridge=ridge)
        self.schedule = schedule
        self.num_samples = num_samples
        self.seed = seed

    def _event_log_densities(self, masks) -> np.ndarray:
        fits = self._fits(masks)
        means, covs = fits.means, fits.covs
        k, steps = self.num_samples, self.schedule.steps
        # Coalition s's root is derive_seed(seed, s); its trajectory j draws
        # from the stream (root, j). All keys of the batch come in one pass.
        roots = philox_keys(self.seed, masks)[:, 0]
        keys = philox_keys(np.repeat(roots, k),
                           np.tile(np.arange(k, dtype=np.uint64), len(masks)))
        generators = key_generators(keys)
        d = means.shape[1]
        size = max(1, _CHAIN_ELEMENTS // (k * steps * d + (steps + 1) * d * d))
        out = np.empty(len(masks))
        for start in range(0, len(masks), size):
            chains = _reverse_steps(means[start:start + size], covs[start:start + size],
                                    self.schedule)
            b = chains.means.shape[0]
            noise = _draw_noise(generators, b * k, steps, d).reshape(b, k, steps, d)
            logs = _trajectory_log_densities(chains, self.event.x, noise)
            out[start:start + b] = _logsumexp_rows(logs) - math.log(k)
        return out
