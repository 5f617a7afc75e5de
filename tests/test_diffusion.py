from __future__ import annotations

import math

import numpy as np
import pytest

from royaltyshare import (
    GaussianModel,
    GenerationEvent,
    NoiseSchedule,
    OwnerDataset,
    fit_gaussian,
    gaussian_ddpm_chain,
    latent_mc_log_density,
    standard_normal_model,
)
from royaltyshare.diffusion import ChainDensityOracle, latent_mc_samples, latent_mc_stderr
from royaltyshare.seeding import derive_seed, rng_for


def random_model(rng, dim):
    a = rng.standard_normal((dim, dim))
    return GaussianModel(mean=rng.standard_normal(dim), cov=a @ a.T + 0.2 * np.eye(dim))


def test_schedule_validation():
    with pytest.raises(ValueError):
        NoiseSchedule.uniform(0, 0.9)
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([1.1]))
    schedule = NoiseSchedule.uniform(3, 0.9)
    assert schedule.steps == 3
    np.testing.assert_array_equal(schedule.alphas, [0.9, 0.9, 0.9])


def test_marginals_follow_the_closed_form():
    rng = np.random.default_rng(2)
    for dim in (1, 3):
        model = random_model(rng, dim)
        alphas = rng.uniform(0.6, 1.0, size=4)
        chain = gaussian_ddpm_chain(model, NoiseSchedule(alphas))
        abar = 1.0
        for t in range(0, 5):
            if t > 0:
                abar *= alphas[t - 1]
            marginal = chain.marginal_model(t)
            np.testing.assert_allclose(
                marginal.mean, math.sqrt(abar) * model.mean, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                marginal.cov,
                abar * model.cov + (1 - abar) * np.eye(dim),
                rtol=0,
                atol=1e-12,
            )


def test_standard_normal_is_a_fixed_point():
    chain = gaussian_ddpm_chain(standard_normal_model(2), NoiseSchedule.uniform(3, 0.9))
    for t in range(4):
        marginal = chain.marginal_model(t)
        np.testing.assert_array_equal(marginal.mean, np.zeros(2))
        np.testing.assert_array_equal(marginal.cov, np.eye(2))


def test_marginal_matches_forward_simulation():
    rng = np.random.default_rng(5)
    model = GaussianModel(mean=np.array([1.5]), cov=np.array([[2.0]]))
    alphas = np.array([0.9, 0.8, 0.7])
    chain = gaussian_ddpm_chain(model, NoiseSchedule(alphas))
    m = 200_000
    x = model.mean + math.sqrt(model.cov[0, 0]) * rng.standard_normal((m, 1))
    for a in alphas:
        x = math.sqrt(a) * x + math.sqrt(1 - a) * rng.standard_normal((m, 1))
    marginal = chain.marginal_model(3)
    assert float(x.mean()) == pytest.approx(marginal.mean[0], abs=0.02)
    assert float(x.var()) == pytest.approx(marginal.cov[0, 0], abs=0.03)


def test_kernel_mean_matches_joint_gaussian_conditioning():
    rng = np.random.default_rng(7)
    model = random_model(rng, 2)
    alphas = np.array([0.85, 0.75])
    chain = gaussian_ddpm_chain(model, NoiseSchedule(alphas))
    for t in (1, 2):
        root_a = math.sqrt(alphas[t - 1])
        s_prev = chain.marginal_model(t - 1).cov
        s_t = chain.marginal_model(t).cov
        mu_prev = chain.marginal_model(t - 1).mean
        mu_t = chain.marginal_model(t).mean
        x = rng.standard_normal(2)
        expected = mu_prev + root_a * s_prev @ np.linalg.solve(s_t, x - mu_t)
        np.testing.assert_allclose(chain.kernel_mean(t, x), expected, rtol=0, atol=1e-10)


def test_final_kernel_covariance_matches_conditioning():
    rng = np.random.default_rng(9)
    model = random_model(rng, 2)
    alphas = np.array([0.85, 0.75])
    chain = gaussian_ddpm_chain(model, NoiseSchedule(alphas))
    s0 = model.cov
    s1 = chain.marginal_model(1).cov
    expected = s0 - alphas[0] * s0 @ np.linalg.solve(s1, s0)
    kernel = chain.final_kernel(np.zeros(2))
    np.testing.assert_allclose(kernel.cov, expected, rtol=0, atol=1e-10)


def test_latent_mixture_reproduces_the_data_marginal():
    # The reverse kernels are exact, so mixing p(x | x_1) over latents equals
    # the data density; the MC estimate must converge to it.
    chain = gaussian_ddpm_chain(standard_normal_model(1), NoiseSchedule.uniform(3, 0.9))
    x = np.zeros(1)
    analytic = standard_normal_model(1).log_density(x)
    estimate = latent_mc_log_density(chain, x, num_samples=1000, seed=0)
    assert abs(estimate - analytic) <= 0.05


def test_latent_mc_error_shrinks_with_more_trajectories():
    chain = gaussian_ddpm_chain(standard_normal_model(1), NoiseSchedule.uniform(3, 0.9))
    x = np.zeros(1)
    analytic = standard_normal_model(1).log_density(x)
    errors, stderrs = [], []
    for k in (100, 1000, 10000):
        samples = latent_mc_samples(chain, x, num_samples=k, seed=0)
        estimate = latent_mc_log_density(chain, x, num_samples=k, seed=0)
        errors.append(abs(estimate - analytic))
        stderrs.append(latent_mc_stderr(samples))
    for small, big in ((0, 1), (1, 2)):
        assert errors[big] <= errors[small] + 2 * (stderrs[small] + stderrs[big])


def test_latent_sampling_is_deterministic_per_seed():
    chain = gaussian_ddpm_chain(standard_normal_model(2), NoiseSchedule.uniform(3, 0.9))
    x = np.array([0.4, -0.2])
    a = latent_mc_samples(chain, x, num_samples=32, seed=5)
    b = latent_mc_samples(chain, x, num_samples=32, seed=5)
    np.testing.assert_array_equal(a, b)
    assert len(set(a.tolist())) > 1


def test_latent_mc_stderr_is_shift_invariant():
    # a +500 shift overflows exp unless the estimator centers the log samples
    rng = np.random.default_rng(11)
    samples = rng.standard_normal(200)
    shifted = latent_mc_stderr(samples + 500.0)
    assert math.isfinite(shifted)
    assert shifted == pytest.approx(latent_mc_stderr(samples), rel=1e-12)
    assert latent_mc_stderr(samples[:1]) == float("inf")


def test_noiseless_single_step_chain():
    model = GaussianModel(mean=np.array([1.0, -1.0]), cov=np.diag([2.0, 3.0]))
    chain = gaussian_ddpm_chain(model, NoiseSchedule.uniform(1, 1.0))
    x = np.array([0.3, 0.7])
    np.testing.assert_allclose(chain.kernel_mean(1, x), x, rtol=0, atol=1e-9)
    kernel = chain.final_kernel(x)
    np.testing.assert_allclose(kernel.cov, 1e-12 * np.eye(2), rtol=0, atol=1e-13)
    traj = chain.sample_latents(rng_for(0))
    assert len(traj) == 1


def test_marginal_model_bounds():
    chain = gaussian_ddpm_chain(standard_normal_model(1), NoiseSchedule.uniform(2, 0.9))
    with pytest.raises(ValueError):
        chain.marginal_model(3)


def test_chain_oracle_is_deterministic():
    rng = np.random.default_rng(13)
    datasets = [
        OwnerDataset(owner=0, points=rng.standard_normal((30, 1))),
        OwnerDataset(owner=1, points=rng.standard_normal((30, 1)) + 1.0),
    ]
    event = GenerationEvent(x=np.zeros(1))
    schedule = NoiseSchedule.uniform(3, 0.9)

    def build():
        return ChainDensityOracle(
            datasets, standard_normal_model(1), event, schedule, num_samples=50, seed=3
        )

    first, second = build(), build()
    assert first(0) == 0.0
    for mask in (0b01, 0b10, 0b11):
        value = first(mask)
        assert math.isfinite(value)
        assert value == second(mask)
    assert first(0b01) != first(0b10)


def reference_samples(chain, x, num_samples, seed):
    """The per-trajectory loop: one fresh stream, one reverse walk, one kernel each."""
    return np.array([
        chain.final_kernel(chain.sample_latents(rng_for(seed, k))[-1]).log_density(x)
        for k in range(num_samples)
    ])


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
@pytest.mark.parametrize("alphas", [[0.9, 0.8, 0.95], [1.0, 0.7], [0.8, 1.0, 0.9], [0.6]])
def test_stacked_trajectories_equal_the_per_trajectory_loop(dim, alphas):
    # An alpha = 1 step at t = 1 floors the final kernel's covariance, at
    # t = 2 it floors a step kernel's.
    rng = np.random.default_rng(dim)
    chain = gaussian_ddpm_chain(random_model(rng, dim), NoiseSchedule(np.array(alphas)))
    x = rng.standard_normal(dim)
    for seed in (0, 7, 2**64 - 1):
        np.testing.assert_array_equal(latent_mc_samples(chain, x, 25, seed),
                                      reference_samples(chain, x, 25, seed))


@pytest.mark.parametrize("dim", [2, 8])
def test_stacked_trajectories_equal_the_loop_on_a_floored_top_covariance(dim):
    # Every alpha = 1 keeps the data covariance at t = T; its eigenvalue of
    # 1e-14 lies below the posterior floor, so the top factor is floored.
    cov = np.eye(dim)
    cov[-1, -1] = 1e-14
    chain = gaussian_ddpm_chain(GaussianModel(mean=np.arange(dim, dtype=float), cov=cov),
                                NoiseSchedule.uniform(2, 1.0))
    x = np.full(dim, 0.5)
    np.testing.assert_array_equal(latent_mc_samples(chain, x, 30, 4),
                                  reference_samples(chain, x, 30, 4))


@pytest.mark.parametrize("dim", [1, 3])
def test_chain_oracle_equals_the_scalar_estimate_per_coalition(dim):
    rng = np.random.default_rng(40 + dim)
    datasets = [OwnerDataset(owner=i, points=rng.standard_normal((12, dim)) + i)
                for i in range(3)]
    event = GenerationEvent(x=rng.standard_normal(dim))
    schedule = NoiseSchedule(np.array([0.9, 1.0, 0.8]))
    baseline = standard_normal_model(dim)
    oracle = ChainDensityOracle(datasets, baseline, event, schedule, num_samples=15, seed=21)
    masks = list(range(1, 8))
    values = oracle.many(masks)
    for mask, value in zip(masks, values):
        points = np.concatenate([datasets[i].points for i in range(3) if mask >> i & 1])
        chain = gaussian_ddpm_chain(fit_gaussian(points, ridge=1e-6), schedule)
        expected = latent_mc_log_density(chain, event.x, 15, derive_seed(21, mask))
        assert value == expected - baseline.log_density(event.x)
