"""Acceptance suite: one test per shipped guarantee, at the advertised tolerance.

Each test is self-contained and seeded; a failure here means a public promise
of the package broke, not an implementation detail.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from royaltyshare import (
    CoalitionGame,
    DensityOracleConfig,
    GaussianModel,
    GenerationEvent,
    OwnerDataset,
    PermissionGame,
    coalition_utility,
    developer_split,
    exact_shapley,
    exact_shapley_by_permutations,
    loo_scores,
    royalty_shares,
    standard_normal_model,
)
from royaltyshare.cli import main
from royaltyshare.diffusion import (
    GaussianReverseChain,
    NoiseSchedule,
    latent_mc_log_density,
    latent_mc_samples,
    latent_mc_stderr,
)
from royaltyshare.ledger import LedgerStore, settle_full, settle_subsampled
from royaltyshare.montecarlo import EstimatorConfig, permutation_sample
from royaltyshare.synthetic import (
    make_colocated_clusters,
    make_graded_clusters,
    populate_synthetic_ledger,
    sample_cluster_event,
    sample_far_event,
)

from conftest import GLOVE_EXACT, GLOVE_TABLE, random_table, table_game

EFFICIENCY_TOL = 1e-9
EXACT_TOL = 1e-12


def symmetrized(table, n):
    """Make players 0 and 1 interchangeable by averaging over the swap."""
    out = np.array(table, dtype=float)
    for mask in range(out.size):
        b0, b1 = mask & 1, (mask >> 1) & 1
        swapped = (mask & ~0b11) | (b1 << 0) | (b0 << 1)
        out[mask] = 0.5 * (table[mask] + table[swapped])
    return out


def with_dummy(table, n, marginal):
    """Append a player whose marginal contribution is the same in every coalition."""
    out = np.empty(2 << n, dtype=float)
    for mask in range(out.size):
        base = mask & ((1 << n) - 1)
        out[mask] = table[base] + (marginal if mask >> n & 1 else 0.0)
    return out


def test_criterion_01_shapley_axioms(game_corpus):
    start = time.perf_counter()
    lin_rng = np.random.default_rng(77)
    for n, table in game_corpus:
        phi = exact_shapley(table_game(table, n)).values
        assert abs(math.fsum(phi.tolist()) - table[-1]) <= EFFICIENCY_TOL

        sym = exact_shapley(table_game(symmetrized(table, n), n)).values
        assert abs(sym[0] - sym[1]) <= EXACT_TOL

        dummy = exact_shapley(table_game(with_dummy(table, n, 0.5), n + 1)).values
        assert abs(dummy[n] - 0.5) <= EXACT_TOL

        if n <= 6:
            other = random_table(lin_rng, n)
            combo = 0.7 * table + 1.3 * other
            phi_other = exact_shapley(table_game(other, n)).values
            phi_combo = exact_shapley(table_game(combo, n)).values
            assert np.max(np.abs(phi_combo - (0.7 * phi + 1.3 * phi_other))) <= 1e-9
    assert time.perf_counter() - start < 10.0


def test_criterion_02_stratified_matches_permutation_enumeration(game_corpus):
    for n, table in game_corpus:
        strat = exact_shapley(table_game(table, n)).values
        perm = exact_shapley_by_permutations(table_game(table, n)).values
        assert np.max(np.abs(strat - perm)) <= 1e-9


def test_criterion_03_glove_game(glove_game):
    start = time.perf_counter()
    phi = exact_shapley(glove_game).values
    assert np.max(np.abs(phi - GLOVE_EXACT)) <= EXACT_TOL
    brute = exact_shapley_by_permutations(table_game(GLOVE_TABLE)).values
    assert np.max(np.abs(phi - brute)) <= EXACT_TOL

    report = permutation_sample(
        table_game(GLOVE_TABLE), EstimatorConfig(num_permutations=10000, seed=0)
    )
    assert np.max(np.abs(report.estimate.values - GLOVE_EXACT)) <= 0.02
    assert time.perf_counter() - start < 5.0


def test_criterion_04_duplicate_owners_split_evenly_where_loo_vanishes():
    points = np.random.default_rng(41).standard_normal((30, 2))
    partition = [
        OwnerDataset(owner=0, points=points.copy()),
        OwnerDataset(owner=1, points=points.copy()),
    ]
    event = GenerationEvent(x=np.array([0.3, -0.2]))
    game = CoalitionGame(2, coalition_utility(partition, standard_normal_model(2), event))

    loo = loo_scores(game)
    assert loo[0] == 0.0 and loo[1] == 0.0

    shares = royalty_shares(exact_shapley(game)).shares
    assert abs(shares[0] - 0.5) <= EXACT_TOL
    assert abs(shares[1] - 0.5) <= EXACT_TOL


# four owners at graded distances from the target cluster at the origin
def graded_distance_game(seed):
    datasets = make_graded_clusters(
        num_owners=4, points_per_owner=60, spacing=4.0, cluster_std=1.0, dim=2, seed=seed
    )
    event = sample_cluster_event(seed, np.zeros(2), 1.0, trial=0)
    baseline = GaussianModel(mean=np.zeros(2), cov=(1e18**2) * np.eye(2))
    oracle = coalition_utility(
        datasets, baseline, event, DensityOracleConfig(kind="gaussian_mle", ridge=1e-3)
    )
    return CoalitionGame(4, oracle)


def test_criterion_05_shares_follow_cluster_distance_ordering():
    start = time.perf_counter()
    ordered = 0
    for seed in range(100, 120):
        s = royalty_shares(exact_shapley(graded_distance_game(seed))).shares
        if s[0] > s[1] > s[2] > s[3]:
            ordered += 1
    assert ordered >= 18
    assert time.perf_counter() - start < 60.0


def test_criterion_06_far_targets_get_near_uniform_shares():
    spreads = []
    flags = []
    for seed in range(500, 520):
        datasets = make_colocated_clusters(
            num_owners=4, points_per_owner=200, cluster_std=2.0, offset=0.5, dim=2, seed=seed
        )
        # 20 units = 10 cluster standard deviations from every cluster
        event = sample_far_event(seed, 20.0, 2, trial=0)
        baseline = GaussianModel(mean=np.zeros(2), cov=(1e30**2) * np.eye(2))
        oracle = coalition_utility(
            datasets, baseline, event, DensityOracleConfig(kind="gaussian_mle", ridge=1e-3)
        )
        shares = royalty_shares(exact_shapley(CoalitionGame(4, oracle)))
        spreads.append(float(shares.shares.max() - shares.shares.min()))
        flags.append(shares.degenerate)
    assert np.mean(spreads) <= 0.15 or all(flags)


def test_criterion_07_developer_outranks_every_owner():
    dominated = 0
    for seed in range(100, 120):
        split = developer_split(PermissionGame(graded_distance_game(seed)))
        if all(split.developer_share > f for f in split.owner_payout_fractions):
            dominated += 1
    assert dominated >= 18

    def additive(s):
        return math.fsum(w for i, w in enumerate((2.0, 4.0)) if s >> i & 1)

    pg = PermissionGame(CoalitionGame(2, additive))
    split = developer_split(pg)
    brute = royalty_shares(exact_shapley_by_permutations(pg.augmented))
    assert abs(split.developer_share - 0.5) <= EXACT_TOL
    assert abs(split.developer_share - brute.shares[pg.developer]) <= EXACT_TOL


def test_criterion_08_latent_density_estimate_converges():
    start = time.perf_counter()
    chain = GaussianReverseChain(standard_normal_model(1), NoiseSchedule.uniform(3, 0.9))
    x = np.zeros(1)
    # exact reverse kernels make the latent mixture equal the data marginal
    analytic = standard_normal_model(1).log_density(x)

    errors = {}
    stderrs = {}
    for k in (100, 1000, 10000):
        errors[k] = abs(latent_mc_log_density(chain, x, num_samples=k, seed=0) - analytic)
        stderrs[k] = latent_mc_stderr(latent_mc_samples(chain, x, k, 0))
    assert errors[1000] <= 0.05
    assert errors[1000] <= errors[100] + 2.0 * (stderrs[100] + stderrs[1000])
    assert errors[10000] <= errors[1000] + 2.0 * (stderrs[1000] + stderrs[10000])
    assert time.perf_counter() - start < 10.0


def test_criterion_09_subsampled_settlement_is_unbiased(tmp_path):
    store = LedgerStore(tmp_path / "ledger", create=True)
    populate_synthetic_ledger(
        store,
        num_transactions=10000,
        num_owners=4,
        price=1.0,
        dirichlet_alpha=(160.0, 120.0, 80.0, 40.0),
        seed=13,
    )
    beta = 0.7
    full = settle_full(store, beta, apply=False)
    assert full.conservation_error <= 1e-9

    fixed = settle_subsampled(store, beta, sample_size=1000, seed=0, apply=False)
    assert fixed.conservation_error <= 1e-9
    rel = np.abs(fixed.owner_payouts - full.owner_payouts) / full.owner_payouts
    assert np.max(rel) <= 0.02

    estimates = []
    for seed in range(200):
        rep = settle_subsampled(store, beta, sample_size=1000, seed=seed, apply=False)
        assert rep.conservation_error <= 1e-9
        estimates.append(rep.owner_payouts)
    est = np.array(estimates)
    stderr = est.std(axis=0, ddof=1) / math.sqrt(est.shape[0])
    assert np.all(np.abs(est.mean(axis=0) - full.owner_payouts) <= 3.0 * stderr)


def run_all_cli_commands(root, monkeypatch, workers):
    """Run every subcommand with fixed seeds inside root; return produced files."""
    root.mkdir()
    monkeypatch.chdir(root)
    configs = {
        "config.json": {"solver": {"kind": "mc", "permutations": 300}},
        "chain.json": {"oracle": {"kind": "gaussian_chain"}},
        "kde.json": {"oracle": {"kind": "kde"}},
    }
    for name, config in configs.items():
        (root / name).write_text(json.dumps({"dataset": "owners.csv", "seed": 17, **config}),
                                 encoding="utf-8")
    commands = [
        ["simulate", "--kind", "clusters", "--layout", "graded", "--owners", "3",
         "--points", "25", "--spacing", "2.0", "--seed", "17", "--out", "owners.csv"],
        ["attribute", "--config", "config.json", "--event", "0.5,0.5",
         "--out", "reports", "--workers", workers],
        ["developer-share", "--config", "config.json", "--event", "0.5,0.5",
         "--solver", "exact", "--out", "reports"],
        ["compare-loo", "--config", "config.json", "--event", "0.5,0.5",
         "--solver", "exact", "--out", "reports"],
        ["attribute", "--config", "chain.json", "--event", "0.5,0.5",
         "--solver", "exact", "--out", "reports_chain"],
        ["attribute", "--config", "kde.json", "--event", "0.5,0.5",
         "--solver", "exact", "--out", "reports_kde"],
        ["simulate", "--kind", "ledger", "--transactions", "80", "--seed", "17",
         "--out", "ledger"],
        ["simulate", "--kind", "ledger", "--transactions", "80", "--seed", "17",
         "--out", "ledger2"],
        ["settle", "--ledger", "ledger", "--mode", "full", "--beta", "0.7",
         "--seed", "17", "--out", "reports_full"],
        ["settle", "--ledger", "ledger2", "--mode", "sample", "--sample-size", "20",
         "--beta", "0.7", "--seed", "17", "--out", "reports_sample"],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    produced = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name not in configs:
            produced[str(path.relative_to(root))] = path.read_bytes()
    return produced


def test_criterion_10_seeded_cli_runs_are_byte_identical(tmp_path, monkeypatch):
    first = run_all_cli_commands(tmp_path / "run1", monkeypatch, workers="1")
    rerun = run_all_cli_commands(tmp_path / "run2", monkeypatch, workers="1")
    many = run_all_cli_commands(tmp_path / "run3", monkeypatch, workers="4")
    assert sorted(first) == sorted(rerun) == sorted(many)
    for name in first:
        assert first[name] == rerun[name], name
        assert first[name] == many[name], name
