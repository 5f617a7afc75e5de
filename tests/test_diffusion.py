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
from royaltyshare import density, diffusion
from royaltyshare.cache import DigestCache
from royaltyshare.density import logsumexp
from royaltyshare.diffusion import (
    ChainDensityOracle,
    _floor_spd,
    latent_mc_samples,
    latent_mc_stderr,
)
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


@pytest.mark.parametrize("num_samples", [0, -3])
def test_chain_oracle_rejects_fewer_than_one_trajectory(num_samples):
    datasets = [OwnerDataset(owner=0, points=np.zeros((3, 1)))]
    with pytest.raises(ValueError, match="num_samples"):
        ChainDensityOracle(datasets, standard_normal_model(1), GenerationEvent(x=np.zeros(1)),
                           NoiseSchedule.uniform(3, 0.9), num_samples=num_samples)


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


def per_matrix_chain(model, alphas):
    """The reverse chain built one matrix at a time: the stacked builder's reference.

    Returns per step t the marginal means and covariances, the gains, the
    floored kernel covariances (index 0: the top, x_T) and their factors,
    in the layout ``ReverseSteps`` uses.
    """
    means, covs = [model.mean], [model.cov]
    abar = 1.0
    for alpha in alphas:
        abar *= alpha
        means.append(math.sqrt(abar) * model.mean)
        covs.append(abar * model.cov + (1.0 - abar) * np.eye(model.dim))
    gains, kernel_covs = [np.zeros_like(model.cov)], [floor_spd_reference(covs[-1], 1e-12)]
    for t, alpha in enumerate(alphas, start=1):
        root_a = math.sqrt(alpha)
        gain = root_a * np.linalg.solve(covs[t].T, covs[t - 1].T).T
        gains.append(gain)
        kernel_covs.append(floor_spd_reference(covs[t - 1] - root_a * gain @ covs[t - 1], 1e-12))
    return means, covs, gains, kernel_covs, [np.linalg.cholesky(c) for c in kernel_covs]


def per_matrix_estimate(model, alphas, x, num_samples, seed):
    """latent_mc_log_density through the per-matrix chain, one trajectory at a time."""
    means, _, gains, kernel_covs, chols = per_matrix_chain(model, alphas)
    T, logs = len(alphas), []
    for k in range(num_samples):
        rng = rng_for(seed, k)
        x_t = means[T] + chols[0] @ rng.standard_normal(x.size)
        for t in range(T, 1, -1):
            x_t = (means[t - 1] + gains[t] @ (x_t - means[t])
                   + chols[t] @ rng.standard_normal(x.size))
        kernel_mean = means[0] + gains[1] @ (x_t - means[1])
        logs.append(GaussianModel(mean=kernel_mean, cov=kernel_covs[1]).log_density(x))
    return logsumexp(np.array(logs)) - math.log(num_samples)


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("alphas", [[0.9, 1.0, 0.8], [1.0, 0.7], [1.0, 1.0]])
def test_the_chain_equals_the_per_matrix_reference(dim, alphas):
    rng = np.random.default_rng(60 + dim)
    tiny = np.eye(dim)
    tiny[-1, -1] = 1e-14  # below the posterior floor; with every alpha = 1 it floors the top
    models = [random_model(rng, dim), GaussianModel(mean=np.ones(dim), cov=tiny)]
    x = rng.standard_normal(dim)
    for model in models:
        chain = gaussian_ddpm_chain(model, NoiseSchedule(np.array(alphas)))
        reference = per_matrix_chain(model, alphas)
        for got, want in zip(chain.steps, reference):
            for t, matrix in enumerate(want):
                assert got[0, t].tobytes() == matrix.tobytes()
        assert (latent_mc_log_density(chain, x, 12, 5)
                == per_matrix_estimate(model, alphas, x, 12, 5))


@pytest.mark.parametrize("dim", [1, 3])
def test_chain_oracle_equals_the_per_matrix_reference(dim):
    rng = np.random.default_rng(70 + dim)
    datasets = [OwnerDataset(owner=i, points=rng.standard_normal((7, dim)) * (i + 1))
                for i in range(3)]
    datasets.append(OwnerDataset(owner=3, points=np.ones((2, dim))))  # floored fit
    event = GenerationEvent(x=rng.standard_normal(dim))
    alphas = [0.9, 1.0, 0.8]
    oracle = ChainDensityOracle(datasets, standard_normal_model(dim), event,
                                NoiseSchedule(np.array(alphas)), ridge=0.0, num_samples=9,
                                seed=13)
    values = oracle.many(range(1, 16))
    for mask, value in zip(range(1, 16), values):
        points = np.concatenate([datasets[i].points for i in range(4) if mask >> i & 1])
        expected = per_matrix_estimate(fit_gaussian(points), alphas, event.x, 9,
                                       derive_seed(13, mask))
        assert value == expected - standard_normal_model(dim).log_density(event.x)


def chain_partition():
    """Owner 1 has no point under label "a"; owner 2's points coincide, so its
    fit with no ridge has a zero covariance and is floored."""
    rng = np.random.default_rng(8)
    return [
        OwnerDataset(owner=0, points=rng.standard_normal((6, 2)), labels=tuple("ababab")),
        OwnerDataset(owner=1, points=rng.standard_normal((4, 2)) + 1.0, labels=tuple("bbbb")),
        OwnerDataset(owner=2, points=np.ones((3, 2)), labels=tuple("aaa")),
        OwnerDataset(owner=3, points=rng.standard_normal((5, 2)) * 2.0),
    ]


@pytest.mark.parametrize("block", [1, 3])
def test_a_chain_fill_in_blocks_equals_one_block(monkeypatch, block):
    def oracle():
        return ChainDensityOracle(chain_partition(), standard_normal_model(2),
                                  GenerationEvent(x=np.array([0.3, -0.2]), label="a"),
                                  NoiseSchedule(np.array([0.9, 1.0, 0.8])), ridge=0.0,
                                  num_samples=7, seed=4)

    whole = oracle()
    values = whole.many(range(16))
    assert whole.fallback_coalitions and whole.covariance_floor_coalitions
    monkeypatch.setattr(density, "_FIT_BLOCK", block)
    # An empty fit cache, so the blocked oracle fits in blocks instead of reading.
    monkeypatch.setattr(density, "_FITS", DigestCache(density._CACHE_SIZE))
    blocked = oracle()
    assert blocked._fit_table is not whole._fit_table
    assert blocked.many(range(16)).tobytes() == values.tobytes()
    assert blocked.fallback_coalitions == whole.fallback_coalitions
    assert blocked.covariance_floor_coalitions == whole.covariance_floor_coalitions


@pytest.mark.parametrize("budget, largest", [(1, 1), (3 * 58, 3), (3 * 58 - 1, 2)])
def test_a_chain_run_in_sub_blocks_equals_one_block(monkeypatch, budget, largest):
    # One coalition of this oracle holds 7·3·2 noise and 4·2·2 step elements: 58.
    def oracle():
        return ChainDensityOracle(chain_partition(), standard_normal_model(2),
                                  GenerationEvent(x=np.array([0.3, -0.2]), label="a"),
                                  NoiseSchedule(np.array([0.9, 1.0, 0.8])), ridge=0.0,
                                  num_samples=7, seed=4)

    sizes = []

    def recording_steps(means, covs, schedule):
        sizes.append(len(means))
        return reverse_steps(means, covs, schedule)

    reverse_steps = diffusion._reverse_steps
    monkeypatch.setattr(diffusion, "_reverse_steps", recording_steps)
    values = oracle().many(range(16))
    assert len(sizes) == 1
    fitted, sizes[:] = sizes[0], []
    monkeypatch.setattr(diffusion, "_CHAIN_ELEMENTS", budget)
    assert oracle().many(range(16)).tobytes() == values.tobytes()
    assert max(sizes) == largest and sum(sizes) == fitted


def floor_spd_reference(cov, floor):
    """The chain's eigenvalue floor as one per-matrix formula, held against the batched one."""
    cov = (cov + cov.T) / 2.0
    if np.linalg.eigvalsh(cov)[0] < floor:
        vals, vecs = np.linalg.eigh(cov)
        cov = vecs @ np.diag(np.maximum(vals, floor)) @ vecs.T
        cov = (cov + cov.T) / 2.0
    return cov


def test_shared_eigenvalue_floor_keeps_the_chain_bits():
    rng = np.random.default_rng(900)
    for _ in range(40):
        d = int(rng.integers(1, 7))
        a = rng.standard_normal((d, d))
        v = rng.standard_normal(d)
        covs = [
            a @ a.T,
            a @ a.T * 1e-13,
            a @ a.T + a * 1e-15,  # not exactly symmetric, like the reverse kernel's covariance
            np.diag(rng.standard_normal(d) ** 2 * rng.choice([0.0, 1e-14, 1.0], d)),
            np.outer(v, v) + rng.standard_normal((d, d)) * 1e-15,
            np.zeros((d, d)),
        ]
        for cov in covs:
            assert _floor_spd(cov, 1e-12).tobytes() == floor_spd_reference(cov, 1e-12).tobytes()
