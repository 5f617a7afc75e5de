from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from royaltyshare import (
    CoalitionDensityOracle,
    CoalitionGame,
    DimensionMismatchError,
    EmptyDatasetError,
    GaussianModel,
    GenerationEvent,
    KernelDensityModel,
    NoiseSchedule,
    NonFiniteError,
    OracleFailureError,
    OwnerDataset,
    exact_shapley,
    fit_gaussian,
    fit_kde,
    load_owner_datasets,
    loo_scores,
    royalty_shares,
    save_owner_datasets,
    standard_normal_model,
)
from royaltyshare.density import COVARIANCE_FLOOR, _logsumexp_rows, logsumexp, scott_bandwidth
from royaltyshare.diffusion import ChainDensityOracle

STANDARD_NORMAL_PEAK = -0.9189385332046727


def test_gaussian_log_density_matches_scipy():
    rng = np.random.default_rng(2)
    for dim in (1, 2, 4):
        a = rng.standard_normal((dim, dim))
        cov = a @ a.T + 0.1 * np.eye(dim)
        mean = rng.standard_normal(dim)
        model = GaussianModel(mean=mean, cov=cov)
        for _ in range(5):
            x = rng.standard_normal(dim)
            expected = multivariate_normal(mean=mean, cov=cov).logpdf(x)
            assert model.log_density(x) == pytest.approx(expected, abs=1e-10)


def test_standard_normal_model_peak():
    assert standard_normal_model(1).log_density(np.zeros(1)) == STANDARD_NORMAL_PEAK
    assert standard_normal_model(3).log_density(np.zeros(3)) == pytest.approx(
        3 * STANDARD_NORMAL_PEAK, abs=1e-14
    )


def test_fit_gaussian_two_point_example():
    model = fit_gaussian(np.array([[-1.0], [1.0]]))
    assert model.mean[0] == 0.0
    assert model.cov[0, 0] == 1.0


def test_fit_gaussian_floors_singular_covariance():
    model = fit_gaussian(np.array([[3.0, -2.0]]), ridge=0.0)
    np.testing.assert_array_equal(model.cov, COVARIANCE_FLOOR * np.eye(2))


def test_fit_gaussian_adds_ridge():
    model = fit_gaussian(np.array([[0.0], [2.0]]), ridge=0.5)
    assert model.cov[0, 0] == 1.5


def test_fit_gaussian_rejects_empty():
    with pytest.raises(EmptyDatasetError):
        fit_gaussian(np.empty((0, 2)))


def test_duplicated_rows_fit_identically():
    rng = np.random.default_rng(3)
    points = rng.standard_normal((40, 3))
    once = fit_gaussian(points)
    twice = fit_gaussian(np.concatenate([points, points]))
    np.testing.assert_array_equal(once.mean, twice.mean)
    np.testing.assert_array_equal(once.cov, twice.cov)


def test_scott_bandwidth_formula():
    rng = np.random.default_rng(5)
    points = rng.standard_normal((50, 2)) * 1.7
    m, d = points.shape
    spread = math.sqrt(float(points.var(axis=0).mean()))
    expected = spread * m ** (-1.0 / (d + 4))
    assert scott_bandwidth(points) == pytest.approx(expected, rel=1e-12)
    assert scott_bandwidth(np.zeros((5, 2))) == 1e-6


def test_kde_single_point_peak():
    model = fit_kde(np.array([[2.0]]), bandwidth=1.0)
    assert model.log_density(np.array([2.0])) == pytest.approx(
        STANDARD_NORMAL_PEAK, abs=1e-14
    )


def test_kde_matches_manual_mixture():
    rng = np.random.default_rng(7)
    support = rng.standard_normal((20, 2))
    model = fit_kde(support, bandwidth=0.8)
    x = np.array([0.3, -0.4])
    kernels = [
        multivariate_normal(mean=p, cov=0.64 * np.eye(2)).logpdf(x) for p in support
    ]
    shift = max(kernels)
    expected = shift + math.log(
        math.fsum(math.exp(k - shift) for k in kernels) / len(kernels)
    )
    assert model.log_density(x) == pytest.approx(expected, abs=1e-10)


# An oracle over no owners: its settings are checked before anything else.
NO_OWNERS = ([], standard_normal_model(1), GenerationEvent(x=np.zeros(1)))


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        CoalitionDensityOracle(*NO_OWNERS, kind="histogram")
    with pytest.raises(ValueError):
        CoalitionDensityOracle(*NO_OWNERS, ridge=-1.0)
    with pytest.raises(ValueError):
        CoalitionDensityOracle(*NO_OWNERS, kind="kde", bandwidth=0.0)


@pytest.mark.parametrize("ridge", [math.nan, math.inf, -1.0])
def test_fit_gaussian_rejects_a_ridge_that_is_not_a_finite_number_at_least_zero(ridge):
    with pytest.raises(ValueError, match="ridge"):
        fit_gaussian(np.array([[-1.0], [1.0]]), ridge=ridge)


@pytest.mark.parametrize("ridge", [math.nan, math.inf])
def test_oracle_config_rejects_a_ridge_that_is_not_finite(ridge):
    with pytest.raises(ValueError, match="ridge"):
        CoalitionDensityOracle(*NO_OWNERS, ridge=ridge)


@pytest.mark.parametrize("bandwidth", [math.nan, math.inf, -math.inf])
def test_oracle_config_rejects_a_bandwidth_that_is_not_finite(bandwidth):
    with pytest.raises(ValueError, match="bandwidth"):
        CoalitionDensityOracle(*NO_OWNERS, kind="kde", bandwidth=bandwidth)


def test_fit_gaussian_is_finite_up_to_2_to_the_500_and_refuses_past_it():
    bound = 2.0**500
    model = fit_gaussian(np.array([[bound, -bound], [-bound, bound], [bound, bound]]))
    assert np.all(np.isfinite(model.cov)) and np.isfinite(model._logdet)
    with pytest.raises(NonFiniteError, match=r"2\*\*500"):
        fit_gaussian(np.array([[np.nextafter(bound, np.inf), 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("kind", ["gaussian_mle", "kde", "gaussian_chain"])
def test_an_oracle_refuses_a_coordinate_past_2_to_the_500_naming_whose_it_is(kind):
    bound = 2.0**500
    past = np.nextafter(bound, np.inf)

    def oracle(points, x):
        partition = [OwnerDataset(owner=0, points=np.zeros((2, 2))),
                     OwnerDataset(owner=1, points=points)]
        event = GenerationEvent(x=x)
        if kind == "gaussian_chain":
            return ChainDensityOracle(partition, standard_normal_model(2), event,
                                      NoiseSchedule.uniform(2, 0.9))
        return CoalitionDensityOracle(partition, standard_normal_model(2), event, kind=kind)

    oracle(np.array([[bound, -bound], [0.0, 1.0]]), np.array([-bound, 0.0]))
    with pytest.raises(NonFiniteError, match=r"^owner 1 needs .*2\*\*500"):
        oracle(np.array([[past, 0.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(NonFiniteError, match=r"^the event needs .*2\*\*500"):
        oracle(np.zeros((2, 2)), np.array([0.0, -past]))


def two_owner_partition(rng):
    return [
        OwnerDataset(owner=0, points=rng.standard_normal((30, 2))),
        OwnerDataset(owner=1, points=rng.standard_normal((30, 2)) + 2.0),
    ]


def test_oracle_empty_coalition_is_exactly_zero():
    oracle = CoalitionDensityOracle(
        two_owner_partition(np.random.default_rng(11)),
        standard_normal_model(2),
        GenerationEvent(x=np.zeros(2)),
    )
    assert oracle(0) == 0.0


def test_oracle_matches_manual_fit():
    rng = np.random.default_rng(13)
    partition = two_owner_partition(rng)
    event = GenerationEvent(x=np.array([0.5, -0.5]))
    baseline = standard_normal_model(2)
    oracle = CoalitionDensityOracle(partition, baseline, event)
    pooled = np.concatenate([partition[0].points, partition[1].points])
    fitted = fit_gaussian(pooled, ridge=COVARIANCE_FLOOR)
    expected = fitted.log_density(event.x) - baseline.log_density(event.x)
    assert oracle(0b11) == expected


def test_oracle_requires_dense_owner_ids():
    rng = np.random.default_rng(17)
    datasets = [OwnerDataset(owner=2, points=rng.standard_normal((5, 2)))]
    with pytest.raises(ValueError):
        CoalitionDensityOracle(datasets, standard_normal_model(2), GenerationEvent(x=np.zeros(2)))


def test_oracle_rejects_mixed_dimensions():
    rng = np.random.default_rng(19)
    datasets = [
        OwnerDataset(owner=0, points=rng.standard_normal((5, 2))),
        OwnerDataset(owner=1, points=rng.standard_normal((5, 3))),
    ]
    with pytest.raises(DimensionMismatchError):
        CoalitionDensityOracle(datasets, standard_normal_model(2), GenerationEvent(x=np.zeros(2)))


def test_oracle_rejects_event_dimension_mismatch():
    rng = np.random.default_rng(23)
    with pytest.raises(DimensionMismatchError):
        CoalitionDensityOracle(
            two_owner_partition(rng), standard_normal_model(2), GenerationEvent(x=np.zeros(3))
        )


def test_label_conditioning_restricts_the_pool():
    rng = np.random.default_rng(29)
    pts0 = rng.standard_normal((10, 1))
    pts1 = rng.standard_normal((10, 1)) + 5.0
    datasets = [
        OwnerDataset(owner=0, points=pts0, labels=tuple(["a"] * 10)),
        OwnerDataset(owner=1, points=pts1, labels=tuple(["b"] * 10)),
    ]
    event = GenerationEvent(x=np.zeros(1), label="a")
    baseline = standard_normal_model(1)
    oracle = CoalitionDensityOracle(datasets, baseline, event)
    conditioned = fit_gaussian(pts0, ridge=COVARIANCE_FLOOR).log_density(
        event.x
    ) - baseline.log_density(event.x)
    assert oracle(0b11) == conditioned
    assert not oracle.fallback_coalitions


def test_conditioning_fallback_is_recorded_not_fatal():
    rng = np.random.default_rng(31)
    pts = rng.standard_normal((10, 1))
    datasets = [OwnerDataset(owner=0, points=pts, labels=tuple(["b"] * 10))]
    event = GenerationEvent(x=np.zeros(1), label="a")
    baseline = standard_normal_model(1)
    oracle = CoalitionDensityOracle(datasets, baseline, event)
    expected = fit_gaussian(pts, ridge=COVARIANCE_FLOOR).log_density(
        event.x
    ) - baseline.log_density(event.x)
    assert oracle(0b1) == expected
    assert oracle.fallback_coalitions == {0b1}


def test_duplication_pathology_shares_and_loo():
    rng = np.random.default_rng(37)
    points = rng.standard_normal((25, 2))
    datasets = [
        OwnerDataset(owner=0, points=points.copy()),
        OwnerDataset(owner=1, points=points.copy()),
    ]
    oracle = CoalitionDensityOracle(
        datasets, standard_normal_model(2), GenerationEvent(x=np.zeros(2))
    )
    game = CoalitionGame(2, oracle)
    np.testing.assert_array_equal(loo_scores(game), [0.0, 0.0])
    shares = royalty_shares(exact_shapley(game))
    np.testing.assert_allclose(shares.shares, [0.5, 0.5], rtol=0, atol=1e-12)


def test_dataset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    datasets = [
        OwnerDataset(owner=0, points=np.array([[math.pi, 1.0 / 3.0], [1e-17, -2.5]])),
        OwnerDataset(
            owner=1, points=rng.standard_normal((4, 2)), labels=("a", "b", "a", "b")
        ),
    ]
    path = tmp_path / "owners.csv"
    save_owner_datasets(path, datasets)
    loaded = load_owner_datasets(path)
    assert [ds.owner for ds in loaded] == [0, 1]
    np.testing.assert_array_equal(loaded[0].points, datasets[0].points)
    np.testing.assert_array_equal(loaded[1].points, datasets[1].points)
    assert loaded[0].labels is None
    assert loaded[1].labels == ("a", "b", "a", "b")


def test_load_rejects_sparse_owner_ids(tmp_path):
    path = tmp_path / "owners.csv"
    path.write_text("owner_id,label,x0\n0,,1.0\n2,,2.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_owner_datasets(path)


def test_owner_dataset_validation():
    with pytest.raises(DimensionMismatchError):
        OwnerDataset(owner=0, points=np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        OwnerDataset(owner=0, points=np.zeros((3, 1)), labels=("a",))


def test_oracle_raises_when_a_coalition_has_no_points():
    datasets = [
        OwnerDataset(owner=0, points=np.empty((0, 1))),
        OwnerDataset(owner=1, points=np.array([[1.0], [2.0]])),
    ]
    oracle = CoalitionDensityOracle(
        datasets, standard_normal_model(1), GenerationEvent(x=np.zeros(1))
    )
    with pytest.raises(OracleFailureError):
        oracle(0b01)
    assert math.isfinite(oracle(0b10))


def test_logsumexp_matches_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(17)
    cases = [np.array(v) for v in ([-np.inf, -np.inf], [np.inf, 1.0], [-np.inf, 0.5], [3.0])]
    for k in range(2000):
        a = rng.normal(size=int(rng.integers(1, 200))) * 10.0 ** rng.uniform(-3, 4)
        if k % 3 == 1:  # rounded entries tie and repeat
            a = np.round(a, int(rng.integers(0, 3)))
        if k % 3 == 2:  # several entries share the maximum
            a[rng.integers(0, a.size, size=1 + a.size // 3)] = a.max()
        cases.append(a)
    for a in cases:
        ours, reference = logsumexp(a), float(special.logsumexp(a))
        assert np.float64(ours).tobytes() == np.float64(reference).tobytes(), a


def test_row_logsumexp_matches_scipy_on_each_row_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(19)
    a = rng.normal(size=(12, 300)) * 50.0
    a[1] = -np.inf
    a[2, 7] = np.inf
    a[3] = np.round(a[3])
    a[4, ::3] = a[4].max()
    a[5, :150] = -np.inf
    rows = _logsumexp_rows(a)
    for row, value in zip(a, rows):
        assert value.tobytes() == np.float64(special.logsumexp(row)).tobytes(), row
