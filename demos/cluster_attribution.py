"""Royalty shares track how close each owner's data sits to the generation.

Four owners hold 2-D Gaussian clusters at graded distances from the origin.
A sample generated near the origin should pay the nearest owner the most and
the farthest owner the least.
"""

from __future__ import annotations

import numpy as np

from royaltyshare import (
    CoalitionDensityOracle,
    CoalitionGame,
    GaussianModel,
    exact_shapley,
    loo_scores,
    royalty_shares,
)
from royaltyshare.synthetic import make_graded_clusters, sample_cluster_event


def main() -> None:
    seed = 104
    datasets = make_graded_clusters(
        num_owners=4, points_per_owner=60, spacing=4.0, cluster_std=1.0, dim=2, seed=seed
    )
    event = sample_cluster_event(seed, np.zeros(2), 1.0)
    # near-flat baseline: a fixed reference density, not a fitted model
    baseline = GaussianModel(mean=np.zeros(2), cov=(1e18**2) * np.eye(2))
    oracle = CoalitionDensityOracle(datasets, baseline, event, ridge=1e-3)
    game = CoalitionGame(4, oracle)

    phi = exact_shapley(game)
    shares = royalty_shares(phi)
    loo = loo_scores(game)

    print(f"generated sample: {np.array2string(event.x, precision=3)}")
    print()
    print(f"{'owner':>5}  {'center':>12}  {'shapley':>9}  {'share':>7}  {'loo':>9}")
    for ds in datasets:
        center = ds.points.mean(axis=0)
        i = ds.owner
        print(
            f"{i:>5}  ({center[0]:>4.1f}, {center[1]:>4.1f})"
            f"  {phi[i]:>9.3f}  {shares.shares[i]:>7.4f}  {loo[i]:>9.3f}"
        )
    print()
    print("Owner 0 sits on top of the sample and takes most of the royalty;")
    print("shares fall off with distance, matching the expected ordering.")


if __name__ == "__main__":
    main()
