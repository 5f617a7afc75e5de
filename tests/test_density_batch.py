"""The batched Gaussian coalition oracle and its exact per-owner moments."""

from __future__ import annotations

import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from royaltyshare import (
    CoalitionDensityOracle,
    CoalitionGame,
    GenerationEvent,
    NoiseSchedule,
    NonFiniteError,
    OracleFailureError,
    OwnerDataset,
    fit_gaussian,
    load_owner_datasets,
    save_owner_datasets,
    standard_normal_model,
)
from royaltyshare import density
from royaltyshare.cache import DigestCache
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


@pytest.mark.parametrize("owners", [3, 4])
@pytest.mark.parametrize("coordinates", ["spread", "small integers"])
@pytest.mark.parametrize("seed", range(2))
def test_pooled_batch_fits_equal_the_fraction_reference(owners, coordinates, seed):
    rng = np.random.default_rng(40 + seed)
    d = int(rng.integers(1, 4))
    partition = []
    for i in range(owners):
        m = int(rng.integers(2, 7))
        # Small integers need no scale, so their means need more bits than the data.
        points = (spread_points(rng, m, d) if coordinates == "spread"
                  else rng.integers(-9, 10, (m, d)).astype(float))
        # Owner 0 has nothing under the label, so the coalition {0} falls back.
        labels = tuple("b" * len(points)) if i == 0 else tuple(rng.choice(["a", "b"], len(points)))
        partition.append(OwnerDataset(owner=i, points=points, labels=labels))
    oracle = CoalitionDensityOracle(partition, standard_normal_model(d),
                                    GenerationEvent(x=np.zeros(d), label="a"),
                                    ridge=0.0)
    masks = np.arange(1, 1 << owners, dtype=np.uint64)
    pools, fallback = [], []
    for s in masks.tolist():
        owned = [partition[i] for i in range(owners) if s >> i & 1]
        labeled = [ds.points[np.array(ds.labels) == "a"] for ds in owned]
        fallback.append(not any(len(p) for p in labeled))
        pools.append(np.concatenate([ds.points for ds in owned] if fallback[-1] else labeled))
    means, covs = oracle._fits(masks)[:2]
    assert fallback[0]
    floored = []
    for b, pooled in enumerate(pools):
        mean, cov = fraction_reference(pooled)
        np.testing.assert_array_equal(means[b], mean)
        # Small pools can be rank deficient: the fit floors those as the reference would.
        cov = cov[None]
        floored.append(bool(density._floor_eigenvalues(cov, density.COVARIANCE_FLOOR)[0]))
        np.testing.assert_array_equal(covs[b], cov[0])
    assert {int(masks[b]) for b in np.flatnonzero(floored)} == oracle.covariance_floor_coalitions
    assert not all(floored)


def test_a_fill_in_blocks_equals_one_block(monkeypatch):
    args = (labeled_partition(), standard_normal_model(2),
            GenerationEvent(x=np.array([0.3, -0.2]), label="a"))
    whole = CoalitionDensityOracle(*args, ridge=0.0)
    values = whole.many(range(16))
    monkeypatch.setattr(density, "_FIT_BLOCK", 3)
    # An empty fit cache, so the blocked oracle fits in blocks instead of reading.
    monkeypatch.setattr(density, "_FITS", DigestCache(density._CACHE_SIZE))
    blocked = CoalitionDensityOracle(*args, ridge=0.0)
    assert blocked._fit_table is not whole._fit_table
    assert blocked.many(range(16)).tobytes() == values.tobytes()
    assert blocked.fallback_coalitions == whole.fallback_coalitions
    assert blocked.covariance_floor_coalitions == whole.covariance_floor_coalitions


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
    "gaussian": lambda p, b, e: CoalitionDensityOracle(p, b, e, ridge=0.0),
    "kde": lambda p, b, e: CoalitionDensityOracle(p, b, e, kind="kde"),
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


@pytest.mark.parametrize("kind", ["gaussian", "chain"])
def test_oracles_from_equal_content_share_moments_but_not_records(kind):
    make = ORACLES[kind]
    event = GenerationEvent(x=np.array([0.3, -0.2]), label="a")
    first = make(labeled_partition(), standard_normal_model(2), event)
    values = first.many(range(16))
    assert first.fallback_coalitions and first.covariance_floor_coalitions
    second = make(labeled_partition(), standard_normal_model(2), event)
    assert second._limbs is first._limbs and not second._limbs.flags.writeable
    assert not second.fallback_coalitions and not second.covariance_floor_coalitions
    assert second.many(range(16)).tobytes() == values.tobytes()
    assert second.fallback_coalitions == first.fallback_coalitions
    assert second.covariance_floor_coalitions == first.covariance_floor_coalitions


def test_cached_moments_depend_on_how_the_points_split_into_owners_and_labels(monkeypatch):
    points = np.array([[0.0, 1.0], [2.0, 0.5], [-1.0, 3.0]])
    splits = [
        [OwnerDataset(owner=0, points=points[:2]), OwnerDataset(owner=1, points=points[2:])],
        [OwnerDataset(owner=0, points=points[:1]), OwnerDataset(owner=1, points=points[1:])],
        [OwnerDataset(owner=0, points=points[:2], labels=("a", "b")),
         OwnerDataset(owner=1, points=points[2:])],
        [OwnerDataset(owner=0, points=points[:2], labels=("b", "a")),
         OwnerDataset(owner=1, points=points[2:])],
    ]
    args = (standard_normal_model(2), GenerationEvent(x=np.zeros(2), label="a"))
    cached = [CoalitionDensityOracle(split, *args, ridge=0.0).many(range(4)).tobytes()
              for split in splits]
    monkeypatch.setattr(density, "_FITS", DigestCache(density._CACHE_SIZE))
    assert cached == [CoalitionDensityOracle(split, *args, ridge=0.0).many(range(4)).tobytes()
                      for split in splits]
    assert len(set(cached)) == len(splits)


def test_threads_load_and_fit_one_file_alike_and_the_caches_stay_bounded(tmp_path, monkeypatch):
    # Empty caches, so the threads race on the first misses.
    for name in ("_DATASETS", "_FITS"):
        monkeypatch.setattr(density, name, DigestCache(density._CACHE_SIZE))
    path = tmp_path / "owners.csv"
    save_owner_datasets(path, labeled_partition())
    event = GenerationEvent(x=np.array([0.3, -0.2]), label="a")

    def attribute(_):
        partition = load_owner_datasets(path)
        oracle = CoalitionDensityOracle(partition, standard_normal_model(2), event)
        return ([(ds.points.tobytes(), ds.labels) for ds in partition],
                oracle.many(range(16)).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            results = list(pool.map(attribute, range(32), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(result == results[0] for result in results)
    for k in range(density._CACHE_SIZE + 3):
        other = tmp_path / f"owners{k}.csv"
        save_owner_datasets(other, [OwnerDataset(owner=0, points=[[float(k)], [k + 0.5]])])
        CoalitionDensityOracle(load_owner_datasets(other), standard_normal_model(1),
                               GenerationEvent(x=np.zeros(1)))
    assert len(density._DATASETS._entries) == density._CACHE_SIZE
    assert len(density._FITS._entries) == density._CACHE_SIZE


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
    np.testing.assert_array_equal(game.evaluate_many([0, 1, 2, 3]), [0.0, 0.5, 1.0, 1.5])
    assert len(oracle.batches) == 2 and game.eval_count == 4
    game.evaluate_many([3, 0, 1])
    assert len(oracle.batches) == 2 and game.eval_count == 4


def test_evaluate_many_caches_nothing_from_a_failing_batch():
    oracle = BatchOracle(fail_on=5)
    game = CoalitionGame(3, oracle)
    game.evaluate_many([1])
    with pytest.raises(OracleFailureError):
        game.evaluate_many([1, 4, 5, 6])
    assert oracle.batches[-1] == [4, 5, 6] and game.eval_count == 1
    np.testing.assert_array_equal(game.evaluate_many([1]), [0.5])
    assert len(oracle.batches) == 2 and game.eval_count == 1


@pytest.mark.parametrize("resize", [lambda v: v[:-1], lambda v: np.append(v, 9.0)],
                         ids=["short", "long"])
def test_evaluate_many_rejects_a_batch_result_of_the_wrong_length(resize):
    oracle = BatchOracle()
    many = oracle.many
    oracle.many = lambda masks: resize(many(masks))
    game = CoalitionGame(3, oracle)
    with pytest.raises(OracleFailureError, match="for 3 coalitions"):
        game.evaluate_many([1, 2, 3])
    assert game.eval_count == 0
    oracle.many = many
    np.testing.assert_array_equal(game.evaluate_many([1, 2, 3]), [0.5, 1.0, 1.5])
    assert oracle.batches == [[1, 2, 3], [1, 2, 3]] and game.eval_count == 3


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


@pytest.fixture
def empty_caches(monkeypatch):
    for name in ("_DATASETS", "_FITS"):
        monkeypatch.setattr(density, name, DigestCache(density._CACHE_SIZE))


EVENT = GenerationEvent(x=np.array([0.3, -0.2]), label="a")


def cold_values(monkeypatch, make, masks=range(16)):
    """``make().many(masks)`` with every fit made anew: empty caches and a table budget of 0."""
    with monkeypatch.context() as patch:
        for name in ("_DATASETS", "_FITS"):
            patch.setattr(density, name, DigestCache(density._CACHE_SIZE))
        patch.setattr(density, "_FIT_TABLE_ELEMENTS", 0)
        oracle = make()
        values = oracle.many(masks)
        assert not oracle._fit_table._keys.size
        return values, oracle


def table_keys(oracle):
    return oracle._fit_table._keys.tolist()


@pytest.mark.parametrize("batches", [
    [range(16)],
    [[5, 3], range(16)],
    [[15, 2, 2, 9, 2, 0], range(15, -1, -1)],
    [[1], [3, 1], [2], [0, 2, 3], range(16)],
], ids=["whole", "partial-then-full", "duplicates-then-reversed", "one-at-a-time"])
@pytest.mark.parametrize("block", [1, 3, 1024])
@pytest.mark.parametrize("kind", ["gaussian", "chain"])
def test_warm_and_cold_fits_are_bit_equal(empty_caches, monkeypatch, kind, block, batches):
    def make():
        return ORACLES[kind](labeled_partition(), standard_normal_model(2), EVENT)

    monkeypatch.setattr(density, "_FIT_BLOCK", block)
    reference, cold = cold_values(monkeypatch, make)
    seen = set()
    cold_first = make()
    for batch in batches:
        masks = list(batch)
        assert cold_first.many(masks).tobytes() == reference[masks].tobytes()
        seen.update(s for s in masks if s)
        assert table_keys(cold_first) == sorted(seen)
    assert cold_first.fallback_coalitions == cold.fallback_coalitions == {0b0010}
    assert cold_first.covariance_floor_coalitions == cold.covariance_floor_coalitions
    warm = make()
    assert warm._fit_table is cold_first._fit_table
    masks = np.arange(1, 16, dtype=np.uint64)
    rows = warm._fits(masks).rows()
    assert rows.tobytes() == cold._fit_rows(masks).tobytes()
    for batch in batches:
        masks = list(batch)
        assert warm.many(masks).tobytes() == reference[masks].tobytes()
    assert warm.covariance_floor_coalitions == cold.covariance_floor_coalitions


def test_oracles_that_differ_in_ridge_label_or_bytes_never_share_fits(empty_caches, monkeypatch):
    def make(partition=labeled_partition, event=EVENT, ridge=0.0):
        return lambda: CoalitionDensityOracle(partition(), standard_normal_model(2), event,
                                              ridge=ridge)

    def nudged():
        partition = labeled_partition()
        points = partition[3].points.copy()
        points[0, 0] = np.nextafter(points[0, 0], np.inf)
        return [*partition[:3], OwnerDataset(owner=3, points=points)]

    base = make()()
    base.many(range(16))
    variants = [make(ridge=1e-3), make(ridge=5e-324), make(event=GenerationEvent(EVENT.x, "b")),
                make(event=GenerationEvent(EVENT.x)), make(partition=nudged)]
    tables = {id(base._fit_table)}
    for variant in variants:
        oracle = variant()
        tables.add(id(oracle._fit_table))
        assert oracle.many(range(16)).tobytes() == cold_values(monkeypatch, variant)[0].tobytes()
    assert len(tables) == 1 + len(variants)
    assert make()()._fit_table is base._fit_table
    chain = ChainDensityOracle(labeled_partition(), standard_normal_model(2), EVENT,
                               NoiseSchedule.uniform(2, 0.9), ridge=0.0)
    assert chain._fit_table is base._fit_table


def test_writing_to_returned_fits_does_not_change_the_next_call(empty_caches):
    oracle = ORACLES["gaussian"](labeled_partition(), standard_normal_model(2), EVENT)
    masks = np.arange(1, 16, dtype=np.uint64)
    expected = None
    for _ in range(2):  # a cold call, then a warm one
        means, covs = oracle._fits(masks)[:2]
        values = oracle.many(range(16))
        assert expected is None or values.tobytes() == expected.tobytes()
        expected = values
        fits = oracle._fits(masks)
        for array in (means, covs, *fits):
            array[...] = 0
    assert oracle.many(range(16)).tobytes() == expected.tobytes()


def test_a_lowered_budget_stops_the_table_growing_and_values_stay_correct(
        empty_caches, monkeypatch):
    def make():
        return ORACLES["gaussian"](labeled_partition(), standard_normal_model(2), EVENT)

    reference = cold_values(monkeypatch, make)[0]
    monkeypatch.setattr(density, "_FIT_TABLE_ELEMENTS", 6 * density._fit_cuts(2)[-1] - 1)
    oracle = make()
    assert oracle.many([7, 3, 1]).tobytes() == reference[[7, 3, 1]].tobytes()
    assert table_keys(oracle) == [1, 3, 7]
    for _ in range(2):
        assert oracle.many(range(16)).tobytes() == reference.tobytes()
        assert table_keys(oracle) == [1, 2, 3, 4, 7]


def test_a_fill_that_raises_leaves_the_table_unchanged(empty_caches, monkeypatch):
    oracle = ORACLES["gaussian"](labeled_partition(), standard_normal_model(2), EVENT)
    oracle.many([1, 3])
    table = oracle._fit_table._keys, oracle._fit_table._values

    def reject(covs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    with monkeypatch.context() as patch:
        patch.setattr(density, "_cholesky_logdet", reject)
        with pytest.raises(np.linalg.LinAlgError):
            oracle.many(range(16))
    assert oracle._fit_table._keys is table[0] and oracle._fit_table._values is table[1]
    assert oracle.many([3, 1]).tobytes() == oracle.many([3, 1]).tobytes()
    empty = CoalitionDensityOracle(
        [OwnerDataset(owner=0, points=np.empty((0, 1))),
         OwnerDataset(owner=1, points=np.array([[1.0], [2.0]]))],
        standard_normal_model(1), GenerationEvent(x=np.zeros(1)))
    with pytest.raises(OracleFailureError):
        empty.many([0b10, 0b01])
    assert table_keys(empty) == []


def test_threads_over_one_content_fit_bit_identically(empty_caches, monkeypatch):
    def make():
        return ORACLES["gaussian"](labeled_partition(), standard_normal_model(2), EVENT)

    reference = cold_values(monkeypatch, make)[0]

    def attribute(seed):
        masks = np.random.default_rng(seed).integers(0, 16, 24).tolist()
        oracle = make()
        return masks, oracle.many(masks).tobytes(), oracle.many(range(16)).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            results = list(pool.map(attribute, range(32), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for masks, values, whole in results:
        assert values == reference[masks].tobytes() and whole == reference.tobytes()
    assert table_keys(make()) == list(range(1, 16))


def test_threads_on_one_fit_table_fit_each_coalition_once(empty_caches, monkeypatch):
    fit_rows, fitted = CoalitionDensityOracle._fit_rows, []

    def recording_fit_rows(self, masks):
        fitted.extend(masks.tolist())
        return fit_rows(self, masks)

    monkeypatch.setattr(CoalitionDensityOracle, "_fit_rows", recording_fit_rows)
    reference = cold_values(monkeypatch, lambda: ORACLES["gaussian"](
        labeled_partition(), standard_normal_model(2), EVENT))[0]
    fitted.clear()
    rng = np.random.default_rng(11)
    orders = [rng.permutation(16) for _ in range(8)]
    results, start = {}, threading.Barrier(8)

    def attribute(k):
        oracle = ORACLES["gaussian"](labeled_partition(), standard_normal_model(2), EVENT)
        start.wait(timeout=60)
        results[k] = [oracle.many(orders[k][start:start + 3]) for start in range(0, 16, 3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            list(pool.map(attribute, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(fitted) == list(range(1, 16))
    for k, order in enumerate(orders):
        assert np.concatenate(results[k]).tobytes() == reference[order].tobytes()
