"""The shared subset-sum kernel against Python ints, and the additive batch
oracle against ``math.fsum``, bit for bit, with its CLI errors."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from royaltyshare import CoalitionBoundsError, CoalitionGame, NonFiniteError, OracleFailureError
from royaltyshare.cli import main
from royaltyshare.games import (
    AdditiveOracle,
    coalition_members,
    integer_limbs,
    limb_integers,
    scaled_floats,
    subset_sums,
)
from royaltyshare.exact import loo_scores
from royaltyshare.montecarlo import _prefix_masks


def fsum_of(weights, s):
    return math.fsum(weights[i] for i in coalition_members(int(s)))


def assert_bits_equal(values, expected):
    assert [float(v).hex() for v in values] == [float(v).hex() for v in expected]


def assert_matches_fsum(weights, masks):
    values = AdditiveOracle(weights).many(masks)
    assert_bits_equal(values, [fsum_of(weights, s) for s in masks])


# Weights anywhere in the float range, subnormals and signed zeros included.
any_weight = st.floats(allow_nan=False, allow_infinity=False)
# Magnitudes spread over the whole exponent range at random.
spread_weight = st.builds(
    lambda mantissa, exponent: math.ldexp(mantissa, exponent),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=-1074, max_value=1000),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(any_weight, spread_weight), min_size=1, max_size=64), st.data())
def test_many_matches_fsum_bitwise(weights, data):
    n = len(weights)
    masks = data.draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=40))
    try:
        expected = [fsum_of(weights, s) for s in masks]
    except OverflowError:  # fsum's own intermediate overflow
        assume(False)
    try:
        values = AdditiveOracle(weights).many(masks)
    except OracleFailureError:  # the exact sum of some coalition is beyond the float range
        assume(False)
    assert_bits_equal(values, expected)


@pytest.mark.parametrize(
    "weights",
    [
        [1e-300, 1e300, -1e300, 3.0, -2.5e-310, 7e-200],  # wide exponent range
        [5e-324, 5e-324, -1e-323, 2.2250738585072014e-308, -2.225073858507201e-308],  # subnormal
        [0.1, 0.2, 0.3, -0.1, -0.2, -0.3, 1e-17],  # rounded decimals that cancel exactly
        [2.0**-1074 * 3, -(2.0**-1074), 2.0**-1022, -(2.0**-1023)],  # subnormal results
        [1.0, 2.0**-53, 2.0**-53, 2.0**-106, -(2.0**-106)],  # ties to even
        [1e308, -1e308, 0.7e308, -0.5e308],  # large and cancelling, every sum a float
        [4503599627370497.0, 0.5, 0.5, -0.25],  # ulp-sized parts of a 2**52 number
    ],
)
def test_fixed_cases_match_fsum(weights):
    assert_matches_fsum(weights, range(1 << len(weights)))


def test_signed_zero_weights_sum_like_fsum():
    weights = [-0.0, -0.0, 0.0, 1.5, -1.5]
    masks = range(1 << len(weights))
    assert_matches_fsum(weights, masks)
    values = AdditiveOracle(weights).many([0b00001, 0b00011, 0b11000])
    assert all(math.copysign(1.0, v) == 1.0 for v in values)  # as math.fsum gives


big_int = st.one_of(st.integers(-(2**400), 2**400), st.integers(-3, 3))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_subset_sums_rebuild_the_members_python_sums(data):
    n = data.draw(st.one_of(st.just(64), st.integers(1, 64)))
    channels = data.draw(st.integers(1, 3))
    ints = data.draw(st.lists(st.lists(big_int, min_size=channels, max_size=channels),
                              min_size=n, max_size=n))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=30))
    masks += [0, (1 << n) - 1, 1 << (n - 1)]  # with n = 64, bit 63 is set
    limbs = integer_limbs(np.array(ints, dtype=object))
    totals = limb_integers(subset_sums(limbs, np.array(masks, dtype=np.uint64)))
    assert totals.tolist() == [
        [sum(ints[i][c] for i in coalition_members(s)) for c in range(channels)] for s in masks
    ]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(big_int, st.builds(lambda m, e: m << e, st.integers(-(2**60), 2**60),
                                               st.integers(0, 1100))), min_size=1, max_size=8),
       st.integers(0, 2200))
# An int beyond the float range with a quotient inside it; subnormal quotients
# that rounding the int to 53 bits first would round a second time; quotients
# that round up to the smallest normal or underflow to zero.
@example([2**1100 + 1, -(2**1030)], 200)
@example([139867267593726468051223], 1099)
@example([-355755585930018538, 3100049003929404554 << 2], 1083)
@example([2**53 - 1, -(2**53 - 1)], 1075)
@example([1, -1, 2**40], 2200)
def test_scaled_floats_round_once_like_integer_division(ints, scale):
    try:
        expected = [v / (1 << scale) for v in ints]
    except OverflowError:
        with pytest.raises(OverflowError):
            scaled_floats(np.array(ints, dtype=object), scale)
        return
    assert_bits_equal(scaled_floats(np.array(ints, dtype=object), scale), expected)


def test_n64_prefix_masks_with_bit_63_set():
    rng = np.random.default_rng(64)
    weights = [float(w) for w in rng.normal(0.0, 1.0, 64) * 10.0 ** rng.integers(-30, 30, 64)]
    orderings = np.array([rng.permutation(64) for _ in range(8)], dtype=np.int64)
    masks = _prefix_masks(orderings).ravel()
    assert masks.dtype == np.uint64 and any(int(s) >> 63 for s in masks)
    assert_matches_fsum(weights, masks)


def test_loo_scores_at_64_players():
    weights = [float(k) for k in range(64)]
    game = CoalitionGame(64, AdditiveOracle(weights))
    np.testing.assert_array_equal(loo_scores(game), weights)
    assert game.eval_count == 65


def test_many_equals_per_coalition_calls():
    rng = np.random.default_rng(5)
    weights = [float(w) for w in rng.normal(0.3, 1.0, 20)]
    oracle = AdditiveOracle(weights)
    masks = [int(s) for s in rng.integers(0, 1 << 20, 300)]
    assert_bits_equal(oracle.many(masks), [oracle(s) for s in masks])
    assert oracle.many([]).shape == (0,)


def test_evaluate_many_counts_each_new_coalition_once():
    weights = [0.75, -0.5, 2.25, 1.0, 0.125]
    masks = [3, 5, 3, 0, 31, 5, 7]
    game = CoalitionGame(5, AdditiveOracle(weights))
    reference = CoalitionGame(5, lambda s: fsum_of(weights, s))
    assert_bits_equal(game.evaluate_many(masks), reference.evaluate_many(masks))
    assert game.eval_count == reference.eval_count == 5
    game.evaluate_many(range(32))
    assert game.eval_count == 32


@pytest.mark.parametrize("n", [3, 64])
def test_negative_coalitions_raise_naming_the_value(n):
    oracle = AdditiveOracle([1.0] * n)
    with pytest.raises(CoalitionBoundsError, match="coalition -1 is negative"):
        oracle.many(np.array([-1]))
    game = CoalitionGame(n, oracle)
    with pytest.raises(CoalitionBoundsError, match="coalition -3 is negative"):
        game.evaluate_many(np.array([[1, -3], [2, 0]]))
    assert game.eval_count == 0


def test_coalition_lists_on_both_sides_of_2_63_are_read_exactly():
    game = CoalitionGame(64, AdditiveOracle([1.0] * 64))
    assert game.evaluate_many([5, 2**63]).tolist() == [2.0, 1.0]
    assert AdditiveOracle([1.0] * 64).many([2**64 - 1, 1]).tolist() == [64.0, 1.0]
    with pytest.raises(CoalitionBoundsError, match="coalition -1 is negative"):
        game.evaluate_many([2**63, -1])
    with pytest.raises(CoalitionBoundsError):
        game.evaluate_many([2**63, 2**64])
    with pytest.raises(CoalitionBoundsError):
        game.evaluate_many([2**63, 0.5])


def test_bad_weights_and_coalitions_raise():
    with pytest.raises(NonFiniteError):
        AdditiveOracle([1.0, math.inf])
    with pytest.raises(CoalitionBoundsError):
        AdditiveOracle([1.0, 2.0]).many([0b100])
    with pytest.raises(OracleFailureError):
        AdditiveOracle([1e308, 1.0, 1e308]).many([0b001, 0b101])


@pytest.mark.parametrize("weights", ["[Infinity, 1.0]", "[1.0, NaN]", "[true, 2.0]", "2.0"])
def test_cli_rejects_bad_additive_weights_with_exit_2(tmp_path, capsys, weights):
    config = tmp_path / "config.json"
    config.write_text('{"oracle": {"kind": "additive", "weights": %s}}' % weights)
    assert main(["attribute", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_sum_beyond_the_float_range_is_exit_3(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"oracle": {"kind": "additive", "weights": [1e308, 1e308]}}))
    assert main(["attribute", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    assert "oracle failure" in capsys.readouterr().err
