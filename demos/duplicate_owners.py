"""Two owners contribute the same dataset; leave-one-out pays neither.

Removing one copy of duplicated data changes nothing, so both LOO scores are
exactly zero. The Shapley value splits the joint contribution evenly instead.
"""

from __future__ import annotations

import numpy as np

from royaltyshare import (
    CoalitionDensityOracle,
    CoalitionGame,
    GenerationEvent,
    OwnerDataset,
    exact_shapley,
    full_coalition,
    loo_scores,
    royalty_shares,
    standard_normal_model,
)


def main() -> None:
    points = np.random.default_rng(7).standard_normal((40, 2)) * 0.8
    partition = [
        OwnerDataset(owner=0, points=points.copy()),
        OwnerDataset(owner=1, points=points.copy()),
    ]
    event = GenerationEvent(x=np.array([0.25, -0.1]))
    oracle = CoalitionDensityOracle(partition, standard_normal_model(2), event)
    game = CoalitionGame(2, oracle)

    loo = loo_scores(game)
    phi = exact_shapley(game)
    shares = royalty_shares(phi)

    print("two owners, identical training data, one generated sample")
    print(f"  grand coalition utility: {game.evaluate(full_coalition(game.n)):+.4f} nats")
    print(f"  leave-one-out scores:    {loo[0]:+.4f}  {loo[1]:+.4f}")
    print(f"  shapley values:          {phi[0]:+.4f}  {phi[1]:+.4f}")
    print(f"  royalty shares:          {shares.shares[0]:.4f}  {shares.shares[1]:.4f}")
    print()
    print("LOO credits neither owner because each copy is individually redundant.")
    print("The Shapley split pays both, since together they carry the value.")


if __name__ == "__main__":
    main()
