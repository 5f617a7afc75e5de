"""Seeded synthetic fixtures: cluster datasets and transaction ledgers.

Two cluster layouts cover the qualitative regimes the attribution engine is
judged on. The graded layout places owner clusters at increasing distances
from the first owner's cluster, which doubles as the target cluster; targets
drawn from it should rank owners by proximity. The co-located layout packs
all owners into overlapping broad clusters near the origin, so a target far
away from everything has no owner with a direct tie and shares should come
out near uniform.
"""

from __future__ import annotations

import math

import numpy as np

from .density import GenerationEvent, OwnerDataset
from .ledger import LedgerStore, Transaction
from .royalty import ShareVector
from .seeding import rng_for


def make_graded_clusters(
    num_owners: int = 4,
    points_per_owner: int = 40,
    spacing: float = 1.0,
    cluster_std: float = 1.0,
    dim: int = 2,
    seed: int = 0,
) -> list[OwnerDataset]:
    """Owner j's cluster sits at distance ``j * spacing`` from the target center."""
    datasets = []
    for j in range(num_owners):
        center = np.zeros(dim)
        center[0] = j * spacing
        rng = rng_for(seed, j)
        points = center + cluster_std * rng.standard_normal((points_per_owner, dim))
        datasets.append(OwnerDataset(owner=j, points=points))
    return datasets


def make_colocated_clusters(
    num_owners: int = 4,
    points_per_owner: int = 100,
    cluster_std: float = 2.0,
    offset: float = 0.5,
    dim: int = 2,
    seed: int = 0,
) -> list[OwnerDataset]:
    """Owners share one broad region, centers nudged on a small circle."""
    datasets = []
    for j in range(num_owners):
        angle = 2.0 * math.pi * j / num_owners
        center = np.zeros(dim)
        center[0] = offset * math.cos(angle)
        center[1 if dim > 1 else 0] = offset * math.sin(angle)
        rng = rng_for(seed, j)
        points = center + cluster_std * rng.standard_normal((points_per_owner, dim))
        datasets.append(OwnerDataset(owner=j, points=points))
    return datasets


def sample_cluster_event(
    seed: int, center: np.ndarray, cluster_std: float, trial: int = 0
) -> GenerationEvent:
    """Draw one target from a cluster, as if generated in that cluster's style."""
    center = np.asarray(center, dtype=float)
    rng = rng_for(seed, 1000, trial)
    return GenerationEvent(x=center + cluster_std * rng.standard_normal(center.size))


def sample_far_event(seed: int, distance: float, dim: int, trial: int = 0) -> GenerationEvent:
    """Draw one target at a fixed distance from the origin, random direction."""
    rng = rng_for(seed, 2000, trial)
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    return GenerationEvent(x=distance * direction)


def populate_synthetic_ledger(
    store: LedgerStore,
    num_transactions: int,
    num_owners: int = 4,
    price: float = 1.0,
    dirichlet_alpha: tuple[float, ...] | None = None,
    seed: int = 0,
) -> None:
    """Record constant-price transactions with synthetic share rows attached.

    The whole fixture is one ``record_many`` batch: one write and one fsync.

    Share rows are Dirichlet draws, independent of the (constant) price, so
    the subsampled settlement estimator is unbiased on this fixture by
    construction. Events are small random vectors; they exist so every
    transaction round-trips through the log format.
    """
    if dirichlet_alpha is None:
        dirichlet_alpha = tuple(4.0 * (num_owners - j) for j in range(num_owners))
    if len(dirichlet_alpha) != num_owners:
        raise ValueError("dirichlet_alpha length must equal num_owners")
    alpha = np.asarray(dirichlet_alpha, dtype=float)
    width = len(str(max(num_transactions - 1, 0)))
    txs = []
    for t in range(num_transactions):
        rng = rng_for(seed, t)
        shares = rng.dirichlet(alpha)
        event = GenerationEvent(x=rng.standard_normal(2))
        txs.append(
            Transaction(
                id=f"tx-{t:0{width}d}",
                price=price,
                event=event,
                srs=ShareVector(shares=shares, degenerate=False),
            )
        )
    store.record_many(txs)
