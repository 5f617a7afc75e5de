"""The batched Gaussian coalition oracle and its exact per-owner moments."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from royaltyshare import (
    CoalitionDensityOracle,
    CoalitionGame,
    DensityOracleConfig,
    GenerationEvent,
    NoiseSchedule,
    NonFiniteError,
    OracleFailureError,
    OwnerDataset,
    fit_gaussian,
    save_owner_datasets,
    standard_normal_model,
)
from royaltyshare.cli import main
from royaltyshare.diffusion import ChainDensityOracle


def spread_points(rng, m, d):
    """Coordinates of magnitude 1e-12 to 1e6, both signs, some rows repeated."""
    points = np.exp(rng.uniform(np.log(1e-12), np.log(1e6), (m, d)))
    points *= rng.choice([-1.0, 1.0], (m, d))
    return np.concatenate([points, points[rng.integers(m, size=m // 3)]])


def fraction_reference(points):
    """Mean ``fsum / m``; covariance the exact moment about that mean, rounded once, / m."""
    m, d = points.shape
    rows = [[Fraction(v) for v in row] for row in points.tolist()]
    mean = [float(sum(row[j] for row in rows)) / m for j in range(d)]
    exact_mean = [Fraction(v) for v in mean]
    cov = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            moment = sum((r[i] - exact_mean[i]) * (r[j] - exact_mean[j]) for r in rows)
            cov[i, j] = float(moment) / m
    return np.array(mean), cov


@pytest.mark.parametrize("seed", range(6))
def test_fit_gaussian_moments_equal_the_fraction_reference(seed):
    rng = np.random.default_rng(seed)
    points = spread_points(rng, int(rng.integers(2, 30)), int(rng.integers(1, 5)))
    mean, cov = fraction_reference(points)
    model = fit_gaussian(points, ridge=0.0)
    np.testing.assert_array_equal(model.mean, mean)
    np.testing.assert_array_equal(model.cov, cov)
    np.testing.assert_array_equal(model.mean, [math.fsum(col) / len(col) for col in points.T])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_gaussian_rejects_non_finite_coordinates(bad):
    with pytest.raises(NonFiniteError):
        fit_gaussian(np.array([[0.0, 1.0], [bad, 2.0]]))


def labeled_partition():
    """Owner 1 has no point under label "a"; owner 2 has one; owner 3 is unlabeled."""
    rng = np.random.default_rng(5)
    return [
        OwnerDataset(owner=0, points=rng.standard_normal((8, 2)), labels=tuple("abababab")),
        OwnerDataset(owner=1, points=rng.standard_normal((5, 2)) + 1.0, labels=tuple("bbbbb")),
        OwnerDataset(owner=2, points=rng.standard_normal((3, 2)) - 1.0, labels=tuple("abb")),
        OwnerDataset(owner=3, points=rng.standard_normal((6, 2)) * 2.0),
    ]


ORACLES = {
    "gaussian": lambda p, b, e: CoalitionDensityOracle(p, b, e, DensityOracleConfig(ridge=0.0)),
    "kde": lambda p, b, e: CoalitionDensityOracle(p, b, e, DensityOracleConfig(kind="kde")),
    "chain": lambda p, b, e: ChainDensityOracle(
        p, b, e, NoiseSchedule.uniform(2, 0.9), ridge=0.0, num_samples=4, seed=3
    ),
}


@pytest.mark.parametrize("kind", sorted(ORACLES))
def test_many_equals_per_coalition_calls_bitwise(kind):
    make = ORACLES[kind]
    args = (labeled_partition(), standard_normal_model(2),
            GenerationEvent(x=np.array([0.3, -0.2]), label="a"))
    batched, single = make(*args), make(*args)
    masks = list(range(16))
    values = batched.many(masks)
    assert values.dtype == np.float64 and values.shape == (16,)
    assert values.tobytes() == np.array([single(s) for s in masks]).tobytes()
    shuffled = [9, 0, 15, 2, 4, 6]
    assert batched.many(shuffled).tobytes() == values[shuffled].tobytes()
    assert batched.fallback_coalitions == single.fallback_coalitions == {0b0010}
    assert batched.covariance_floor_coalitions == single.covariance_floor_coalitions
    expected_floor = {0b0100, 0b0110} if kind != "kde" else set()
    assert batched.covariance_floor_coalitions == expected_floor


def test_many_raises_for_a_coalition_without_points_and_records_nothing():
    partition = [
        OwnerDataset(owner=0, points=np.empty((0, 1))),
        OwnerDataset(owner=1, points=np.array([[1.0], [2.0]]), labels=("b", "b")),
    ]
    oracle = CoalitionDensityOracle(
        partition, standard_normal_model(1), GenerationEvent(x=np.zeros(1), label="a")
    )
    with pytest.raises(OracleFailureError):
        oracle.many([0b10, 0b01])
    assert not oracle.fallback_coalitions
    assert oracle.many([0b10, 0b11]).tobytes() == np.array([oracle(0b10)] * 2).tobytes()
    assert oracle.fallback_coalitions == {0b10, 0b11}


class BatchOracle:
    """Utility s / 2; records each batch and fails any batch holding ``fail_on``."""

    def __init__(self, fail_on=None):
        self.fail_on = fail_on
        self.batches = []

    def __call__(self, s):
        return float(self.many([s])[0])

    def many(self, masks):
        masks = list(masks)
        self.batches.append(masks)
        if self.fail_on in masks:
            raise OracleFailureError(f"coalition {self.fail_on} fails")
        return np.array(masks, dtype=float) / 2.0


def test_evaluate_many_sends_only_missing_coalitions_in_one_batch():
    oracle = BatchOracle()
    game = CoalitionGame(3, oracle)
    assert game.evaluate(1) == 0.5
    values = game.evaluate_many(np.array([[1, 2], [3, 2], [0, 3]]))
    np.testing.assert_array_equal(values, [[0.5, 1.0], [1.5, 1.0], [0.0, 1.5]])
    assert oracle.batches == [[1], [2, 3, 0]]
    assert game.eval_count == 4
    assert game.cache == {0: 0.0, 1: 0.5, 2: 1.0, 3: 1.5}
    game.evaluate_many([3, 0, 1])
    assert len(oracle.batches) == 2 and game.eval_count == 4


def test_evaluate_many_caches_nothing_from_a_failing_batch():
    oracle = BatchOracle(fail_on=5)
    game = CoalitionGame(3, oracle)
    game.evaluate_many([1])
    with pytest.raises(OracleFailureError):
        game.evaluate_many([1, 4, 5, 6])
    assert oracle.batches[-1] == [4, 5, 6]
    assert game.cache == {1: 0.5} and game.eval_count == 1


def test_evaluate_many_without_memoization_sends_every_entry():
    oracle = BatchOracle()
    game = CoalitionGame(2, oracle, memoize=False)
    np.testing.assert_array_equal(game.evaluate_many([3, 3, 1]), [1.5, 1.5, 0.5])
    assert oracle.batches == [[3, 3, 1]] and game.eval_count == 3


def test_cli_duplicate_owners_get_bit_identical_phi_and_zero_loo(tmp_path):
    rng = np.random.default_rng(17)
    points = rng.standard_normal((30, 3)) * [1.0, 1e-3, 40.0]
    dataset = tmp_path / "owners.csv"
    save_owner_datasets(dataset, [
        OwnerDataset(owner=0, points=points),
        OwnerDataset(owner=1, points=points[rng.permutation(30)]),
    ])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": str(dataset)}), encoding="utf-8")
    out = tmp_path / "reports"
    code = main(["attribute", "--config", str(config), "--out", str(out),
                 "--event=0.4,0.0,-3.0"])
    assert code == 0
    lines = (out / "attribution.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert rows[0]["phi"] == rows[1]["phi"]
    assert [float(r["loo"]) for r in rows] == [0.0, 0.0]
