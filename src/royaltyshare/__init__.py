"""Royalty attribution for generative models trained on licensed data.

The pipeline: owner datasets induce a coalition game whose utility is the
relative log-likelihood of a generated sample; Shapley values of that game,
clamped and normalized, are the owners' royalty shares; a permission game
prices the developer's cut; and the ledger settles recorded revenue
accordingly.
"""

from __future__ import annotations

from .density import (
    CoalitionDensityOracle,
    GaussianModel,
    GenerationEvent,
    KernelDensityModel,
    OwnerDataset,
    fit_gaussian,
    fit_kde,
    load_owner_datasets,
    log_density,
    save_owner_datasets,
    standard_normal_model,
)
from .diffusion import (
    GaussianReverseChain,
    NoiseSchedule,
    gaussian_ddpm_chain,
    latent_mc_log_density,
)
from .errors import (
    CoalitionBoundsError,
    ConfigError,
    DimensionMismatchError,
    DuplicateIdError,
    EmptyDatasetError,
    NonFiniteError,
    OracleFailureError,
    RoyaltyShareError,
    StorageFailureError,
    TooManyPlayersError,
)
from .exact import (
    exact_shapley,
    exact_shapley_by_permutations,
    loo_scores,
)
from .games import (
    CoalitionGame,
    coalition_members,
    full_coalition,
)
from .ledger import (
    LedgerStore,
    SettlementReport,
    Transaction,
    settle_full,
    settle_subsampled,
    write_settlement_csv,
)
from .montecarlo import (
    EstimateReport,
    EstimatorConfig,
    permutation_sample,
    truncated_walk,
)
from .royalty import (
    DeveloperSplit,
    PermissionGame,
    ShareVector,
    developer_split,
    fixed_split,
    permission_shapley,
    royalty_shares,
)

__version__ = "0.1.0"

__all__ = [
    "CoalitionBoundsError",
    "CoalitionDensityOracle",
    "CoalitionGame",
    "ConfigError",
    "DeveloperSplit",
    "DimensionMismatchError",
    "DuplicateIdError",
    "EmptyDatasetError",
    "EstimateReport",
    "EstimatorConfig",
    "GaussianModel",
    "GaussianReverseChain",
    "GenerationEvent",
    "KernelDensityModel",
    "LedgerStore",
    "NoiseSchedule",
    "NonFiniteError",
    "OracleFailureError",
    "OwnerDataset",
    "PermissionGame",
    "RoyaltyShareError",
    "SettlementReport",
    "ShareVector",
    "StorageFailureError",
    "TooManyPlayersError",
    "Transaction",
    "coalition_members",
    "developer_split",
    "exact_shapley",
    "exact_shapley_by_permutations",
    "fit_gaussian",
    "fit_kde",
    "fixed_split",
    "full_coalition",
    "gaussian_ddpm_chain",
    "latent_mc_log_density",
    "load_owner_datasets",
    "log_density",
    "loo_scores",
    "permission_shapley",
    "permutation_sample",
    "royalty_shares",
    "save_owner_datasets",
    "settle_full",
    "settle_subsampled",
    "standard_normal_model",
    "truncated_walk",
    "write_settlement_csv",
]
