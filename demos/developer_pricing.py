"""Pricing the developer's cut with a permission structure.

No coalition of data owners produces value without the developer: the model
is the gate through which data becomes revenue. Adding the developer as a
veto player to the owners' game and taking Shapley values of that augmented
game prices the gate. The developer's royalty share is 1 - beta_data.
"""

from __future__ import annotations

import numpy as np

from royaltyshare import (
    CoalitionDensityOracle,
    CoalitionGame,
    GaussianModel,
    PermissionGame,
    developer_split,
)
from royaltyshare.synthetic import make_graded_clusters, sample_cluster_event


def main() -> None:
    seed = 104
    datasets = make_graded_clusters(
        num_owners=4, points_per_owner=60, spacing=4.0, cluster_std=1.0, dim=2, seed=seed
    )
    event = sample_cluster_event(seed, np.zeros(2), 1.0)
    baseline = GaussianModel(mean=np.zeros(2), cov=(1e18**2) * np.eye(2))
    oracle = CoalitionDensityOracle(datasets, baseline, event, ridge=1e-3)
    game = CoalitionGame(4, oracle)

    split = developer_split(PermissionGame(game))

    print("permission game over 4 owners plus the developer as veto player")
    print()
    print(f"  developer share:  {split.developer_share:.4f}")
    print(f"  beta_data:        {split.beta_data:.4f}  (owners' collective fraction)")
    for i, fraction in enumerate(split.owner_payout_fractions):
        print(f"  owner {i} fraction: {fraction:.4f}")
    total = split.developer_share + float(np.sum(split.owner_payout_fractions))
    print(f"  sum of fractions: {total:.12f}")
    print()
    print("The developer participates in every value-producing coalition, so the")
    print("veto position alone earns more than any single owner's data does.")


if __name__ == "__main__":
    main()
