"""Command line interface.

Subcommands: ``attribute`` (per-owner scores and royalty shares for one
generated sample), ``developer-share`` (the developer/data split),
``compare-loo`` (Shapley against leave-one-out), ``settle`` (distribute
recorded revenue from a ledger), and ``simulate`` (generate the synthetic
fixtures the acceptance suite runs on).

Every run is driven by a JSON config plus flag overrides, and every report
file is accompanied by a ``.meta.json`` sidecar echoing the fully resolved
configuration, so a report is reproducible from its own metadata. All
randomness derives from the single root seed, stream-split per subsystem.
Given the same seed, report files are byte-identical across runs. The
``--workers`` flag is still accepted and has no effect.

Exit codes: 0 success, 2 config error, 3 oracle failure (a covariance that
linear algebra rejects included), 4 storage failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import Any

import numpy as np

from .density import (
    DensityOracleConfig,
    GenerationEvent,
    coalition_utility,
    fit_gaussian,
    load_owner_datasets,
    save_owner_datasets,
    standard_normal_model,
)
from .diffusion import ChainDensityOracle, NoiseSchedule
from .errors import (
    ConfigError,
    DimensionMismatchError,
    DuplicateIdError,
    EmptyDatasetError,
    NonFiniteError,
    OracleFailureError,
    RoyaltyShareError,
    StorageFailureError,
)
from .exact import exact_shapley, loo_scores
from .games import CoalitionGame, coalition_members
from .ledger import LedgerStore, settle_full, settle_subsampled, write_settlement_csv
from .montecarlo import EstimatorConfig, permutation_sample
from .royalty import (
    PermissionGame,
    developer_split,
    fixed_split,
    royalty_shares,
)
from .seeding import derive_seed
from .synthetic import (
    make_colocated_clusters,
    make_graded_clusters,
    populate_synthetic_ledger,
)

# Substream indices under the root seed, one per subsystem.
_STREAM_SOLVER = 1
_STREAM_DENSITY = 2
_STREAM_SETTLE = 3

_DEFAULT_CONFIG: dict[str, Any] = {
    "dataset": None,
    "baseline": {"kind": "standard_normal"},
    "oracle": {"kind": "gaussian_mle", "ridge": 1e-6},
    "solver": {"kind": "exact"},
    "seed": 0,
    "beta": "permission",
    "density_mc_samples": 20,
    "out": "reports",
}

_MC_SOLVER_DEFAULTS = {"permutations": 2000, "truncation": 0.0}
_CHAIN_ORACLE_DEFAULTS = {"steps": 3, "alpha": 0.9}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _load_config(args: argparse.Namespace) -> dict[str, Any]:
    """Read the config file, apply flag overrides, validate, and resolve defaults."""
    config = dict(_DEFAULT_CONFIG)
    config_dir = Path.cwd()
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(loaded) - set(_DEFAULT_CONFIG)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config = _merge(config, loaded)
        config_dir = path.parent
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    if getattr(args, "solver", None) is not None:
        config["solver"] = _merge(config["solver"], {"kind": args.solver})
    if getattr(args, "permutations", None) is not None:
        config["solver"] = _merge(config["solver"], {"permutations": args.permutations})
    if getattr(args, "beta", None) is not None:
        config["beta"] = args.beta
    if getattr(args, "out", None) is not None:
        config["out"] = args.out
    config["_dir"] = config_dir
    _validate_config(config)
    return config


def _validate_config(config: dict[str, Any]) -> None:
    seed = config["seed"]
    if not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed!r}")

    solver = config["solver"]
    kind = solver.get("kind")
    if kind not in ("exact", "mc"):
        raise ConfigError(f"solver.kind must be 'exact' or 'mc', got {kind!r}")
    if kind == "mc":
        config["solver"] = _merge(_MC_SOLVER_DEFAULTS, solver)
        if config["solver"]["permutations"] < 1:
            raise ConfigError("solver.permutations must be at least 1")
        if config["solver"]["truncation"] < 0:
            raise ConfigError("solver.truncation must be nonnegative")

    oracle = config["oracle"]
    okind = oracle.get("kind")
    if okind not in ("gaussian_mle", "kde", "additive", "gaussian_chain"):
        raise ConfigError(f"unknown oracle.kind {okind!r}")
    if okind == "additive":
        weights = oracle.get("weights")
        if not weights or not all(isinstance(w, (int, float)) for w in weights):
            raise ConfigError("additive oracle needs a nonempty numeric 'weights' list")
    if okind == "gaussian_chain":
        config["oracle"] = _merge(_CHAIN_ORACLE_DEFAULTS, oracle)
        if not 0 < config["oracle"]["alpha"] <= 1:
            raise ConfigError("oracle.alpha must lie in (0, 1]")
        if config["oracle"]["steps"] < 1:
            raise ConfigError("oracle.steps must be at least 1")
    if oracle.get("ridge", 0) < 0:
        raise ConfigError("oracle.ridge must be nonnegative")
    if okind == "kde" and oracle.get("bandwidth") is not None and oracle["bandwidth"] <= 0:
        raise ConfigError("oracle.bandwidth must be positive")

    beta = config["beta"]
    if beta != "permission":
        if not isinstance(beta, (int, float)) or not 0 <= float(beta) <= 1:
            raise ConfigError(f"beta must be 'permission' or a number in [0, 1], got {beta!r}")

    baseline = config["baseline"]
    if baseline.get("kind") not in ("standard_normal", "dataset"):
        raise ConfigError(f"baseline.kind must be 'standard_normal' or 'dataset'")
    if baseline["kind"] == "dataset" and not baseline.get("path"):
        raise ConfigError("baseline.kind 'dataset' needs a 'path'")

    if not isinstance(config["density_mc_samples"], int) or config["density_mc_samples"] < 1:
        raise ConfigError("density_mc_samples must be a positive integer")


def _echoed(config: dict[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in config.items() if not k.startswith("_")}


def _resolve_path(config: dict[str, Any], value: str) -> Path:
    path = Path(value)
    return path if path.is_absolute() else config["_dir"] / path


def _parse_event(args: argparse.Namespace, config: dict[str, Any]) -> GenerationEvent | None:
    text = getattr(args, "event", None)
    if text is None:
        return None
    try:
        x = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"--event must be comma-separated numbers: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise ConfigError("--event coordinates must be finite")
    return GenerationEvent(x=x, label=getattr(args, "event_label", None))


def _build_game(config: dict[str, Any], event: GenerationEvent | None):
    """Return (game, oracle_or_none, weights_or_none) for the configured oracle."""
    oracle_cfg = config["oracle"]
    kind = oracle_cfg["kind"]
    if kind == "additive":
        weights = [float(w) for w in oracle_cfg["weights"]]

        def additive(s: int) -> float:
            return math.fsum(weights[i] for i in coalition_members(s))

        return CoalitionGame(len(weights), additive), None, weights

    if not config["dataset"]:
        raise ConfigError(f"oracle.kind {kind!r} requires a 'dataset' path in the config")
    dataset_path = _resolve_path(config, config["dataset"])
    if not dataset_path.is_file():
        raise ConfigError(f"dataset not found: {dataset_path}")
    partition = load_owner_datasets(dataset_path)
    dim = partition[0].points.shape[1]

    baseline_cfg = config["baseline"]
    if baseline_cfg["kind"] == "standard_normal":
        baseline = standard_normal_model(dim)
    else:
        baseline_path = _resolve_path(config, baseline_cfg["path"])
        if not baseline_path.is_file():
            raise ConfigError(f"baseline dataset not found: {baseline_path}")
        pooled = np.concatenate([ds.points for ds in load_owner_datasets(baseline_path)])
        baseline = fit_gaussian(pooled, ridge=float(baseline_cfg.get("ridge", 1e-6)))

    if event is None:
        raise ConfigError("this command needs --event for dataset-driven oracles")
    if event.x.size != dim:
        raise ConfigError(f"--event has {event.x.size} coordinates, dataset is {dim}-dimensional")

    if kind == "gaussian_chain":
        oracle = ChainDensityOracle(
            partition,
            baseline,
            event,
            NoiseSchedule.uniform(int(oracle_cfg["steps"]), float(oracle_cfg["alpha"])),
            ridge=float(oracle_cfg.get("ridge", 1e-6)),
            num_samples=config["density_mc_samples"],
            seed=derive_seed(config["seed"], _STREAM_DENSITY),
        )
    else:
        oracle = coalition_utility(
            partition,
            baseline,
            event,
            DensityOracleConfig(
                kind=kind,
                ridge=float(oracle_cfg.get("ridge", 1e-6)),
                bandwidth=oracle_cfg.get("bandwidth"),
            ),
        )
    return CoalitionGame(len(partition), oracle), oracle, None


def _solve(game: CoalitionGame, config: dict[str, Any]):
    """Run the configured solver; returns (phi, stderr_or_none, solver_info)."""
    solver_cfg = config["solver"]
    if solver_cfg["kind"] == "exact":
        phi = exact_shapley(game)
        return phi, None, {"kind": "exact"}
    estimator = EstimatorConfig(
        num_permutations=int(solver_cfg["permutations"]),
        seed=derive_seed(config["seed"], _STREAM_SOLVER),
        truncation_tolerance=float(solver_cfg["truncation"]),
    )
    report = permutation_sample(game, estimator)
    info = {
        "kind": "mc",
        "permutations_used": report.permutations_used,
        "oracle_calls": report.oracle_calls,
    }
    return report.estimate, report.stderr, info


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def _write_meta(path: Path, payload: dict[str, Any]) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _out_dir(config: dict[str, Any]) -> Path:
    return Path(config["out"])


def _oracle_meta(oracle) -> dict[str, Any]:
    if oracle is None or not hasattr(oracle, "fallback_coalitions"):
        return {}
    return {
        "conditioning_fallbacks": sorted(
            coalition_members(s) for s in oracle.fallback_coalitions
        ),
        "covariance_floor_coalitions": sorted(
            coalition_members(s) for s in oracle.covariance_floor_coalitions
        ),
    }


def _fmt(value: float) -> str:
    return repr(float(value))


def cmd_attribute(args: argparse.Namespace) -> int:
    config = _load_config(args)
    event = _parse_event(args, config)
    game, oracle, _ = _build_game(config, event)
    phi, stderr, solver_info = _solve(game, config)
    loo = loo_scores(game)
    shares = royalty_shares(phi)

    rows = ["owner_id,phi,stderr,loo,srs\n"]
    for i in range(game.n):
        err = "" if stderr is None else _fmt(stderr[i])
        rows.append(
            f"{i},{_fmt(phi.values[i])},{err},{_fmt(loo[i])},{_fmt(shares.shares[i])}\n"
        )
    out = _out_dir(config)
    report_path = out / "attribution.csv"
    _write_text(report_path, "".join(rows))
    meta = {
        "command": "attribute",
        "config": _echoed(config),
        "event": [float(v) for v in event.x] if event else None,
        "event_label": event.label if event else None,
        "solver": solver_info,
        "degenerate": shares.degenerate,
        "oracle_evaluations": game.eval_count,
        **_oracle_meta(oracle),
    }
    _write_meta(out / "attribution.meta.json", meta)
    print(f"wrote {report_path}")
    if shares.degenerate:
        print("note: all Shapley values clamped to zero; shares fell back to uniform")
    return 0


def cmd_developer_share(args: argparse.Namespace) -> int:
    config = _load_config(args)
    event = _parse_event(args, config)
    game, oracle, _ = _build_game(config, event)
    beta = config["beta"]
    rows = ["player_id,srs,payout_fraction\n"]
    if beta == "permission":
        # The exact split needs no solver: it reads the owners' utility table.
        solver = None if config["solver"]["kind"] == "exact" else lambda g: _solve(g, config)[0]
        split = developer_split(PermissionGame(game), solver)
        for i, fraction in enumerate(split.owner_payout_fractions):
            rows.append(f"{i},{_fmt(fraction)},{_fmt(fraction)}\n")
        rows.append(f"developer,{_fmt(split.developer_share)},{_fmt(split.developer_share)}\n")
    else:
        shares = royalty_shares(_solve(game, config)[0])
        split = fixed_split(float(beta), shares)
        for i in range(game.n):
            rows.append(
                f"{i},{_fmt(shares.shares[i])},{_fmt(split.owner_payout_fractions[i])}\n"
            )
        rows.append(f"developer,,{_fmt(split.developer_share)}\n")
    out = _out_dir(config)
    report_path = out / "developer_share.csv"
    _write_text(report_path, "".join(rows))
    meta = {
        "command": "developer-share",
        "config": _echoed(config),
        "event": [float(v) for v in event.x] if event else None,
        "event_label": event.label if event else None,
        "beta_data": split.beta_data,
        "developer_share": split.developer_share,
        "degenerate": split.degenerate,
        **_oracle_meta(oracle),
    }
    _write_meta(out / "developer_share.meta.json", meta)
    print(f"wrote {report_path}")
    print(f"beta_data={split.beta_data!r} developer_share={split.developer_share!r}")
    return 0


def cmd_compare_loo(args: argparse.Namespace) -> int:
    config = _load_config(args)
    event = _parse_event(args, config)
    game, oracle, _ = _build_game(config, event)
    phi, _, solver_info = _solve(game, config)
    loo = loo_scores(game)
    shares = royalty_shares(phi)
    rows = ["owner_id,phi,loo,srs\n"]
    for i in range(game.n):
        rows.append(f"{i},{_fmt(phi.values[i])},{_fmt(loo[i])},{_fmt(shares.shares[i])}\n")
    out = _out_dir(config)
    report_path = out / "compare_loo.csv"
    _write_text(report_path, "".join(rows))
    meta = {
        "command": "compare-loo",
        "config": _echoed(config),
        "event": [float(v) for v in event.x] if event else None,
        "event_label": event.label if event else None,
        "solver": solver_info,
        "degenerate": shares.degenerate,
        **_oracle_meta(oracle),
    }
    _write_meta(out / "compare_loo.meta.json", meta)
    print(f"wrote {report_path}")
    return 0


def cmd_settle(args: argparse.Namespace) -> int:
    config = _load_config(args)
    beta = config["beta"]
    if beta == "permission":
        raise ConfigError(
            "settle needs a numeric beta (config 'beta' or --beta FLOAT); "
            "use developer-share to compute one from the permission game"
        )
    ledger_path = Path(args.ledger)
    if not ledger_path.is_dir():
        raise StorageFailureError(f"ledger directory not found: {ledger_path}")
    store = LedgerStore(ledger_path, create=False)
    root_seed = config["seed"]
    if args.mode == "full":
        report = settle_full(store, float(beta), seed=root_seed)
    else:
        if args.sample_size is None:
            raise ConfigError("settle --mode sample needs --sample-size")
        report = settle_subsampled(
            store,
            float(beta),
            sample_size=args.sample_size,
            seed=derive_seed(root_seed, _STREAM_SETTLE),
        )
        report = dataclasses.replace(report, seed=root_seed)
    out = _out_dir(config)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "settlement.csv"
    write_settlement_csv(report, report_path)
    meta = {
        "command": "settle",
        "config": _echoed(config),
        "ledger": str(args.ledger),
        "mode": args.mode,
        "sample_size": args.sample_size,
        "estimator": report.estimator,
        "total_income": report.total_income,
        "sampled_fraction": report.sampled_fraction,
        "failed_ids": list(report.failed_ids),
        "correlated_warning": report.correlated_warning,
        "conservation_error": report.conservation_error,
    }
    _write_meta(out / "settlement.meta.json", meta)
    print(f"wrote {report_path}")
    print(
        f"settled {report.total_income!r} income, conservation_error="
        f"{report.conservation_error!r}"
    )
    if report.failed_ids:
        print(f"quarantined {len(report.failed_ids)} transactions for retry", file=sys.stderr)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    seed = config["seed"]
    if not args.out:
        raise ConfigError("simulate needs --out (dataset CSV path or ledger directory)")
    out_path = Path(args.out)
    if args.kind == "clusters":
        if args.layout == "graded":
            datasets = make_graded_clusters(
                num_owners=args.owners,
                points_per_owner=args.points,
                spacing=args.spacing,
                cluster_std=args.cluster_std,
                dim=args.dim,
                seed=seed,
            )
        else:
            datasets = make_colocated_clusters(
                num_owners=args.owners,
                points_per_owner=args.points,
                cluster_std=args.cluster_std,
                offset=args.offset,
                dim=args.dim,
                seed=seed,
            )
        out_path.parent.mkdir(parents=True, exist_ok=True)
        save_owner_datasets(out_path, datasets)
        meta = {
            "command": "simulate",
            "kind": "clusters",
            "layout": args.layout,
            "owners": args.owners,
            "points_per_owner": args.points,
            "spacing": args.spacing,
            "cluster_std": args.cluster_std,
            "offset": args.offset,
            "dim": args.dim,
            "seed": seed,
        }
    else:
        store = LedgerStore(out_path, create=True)
        if store.transactions():
            raise StorageFailureError(f"{out_path} already holds transactions")
        alpha = None
        if args.alpha:
            alpha = tuple(float(v) for v in args.alpha.split(","))
        populate_synthetic_ledger(
            store,
            num_transactions=args.transactions,
            num_owners=args.owners,
            price=args.price,
            dirichlet_alpha=alpha,
            seed=seed,
        )
        meta = {
            "command": "simulate",
            "kind": "ledger",
            "transactions": args.transactions,
            "owners": args.owners,
            "price": args.price,
            "dirichlet_alpha": list(alpha) if alpha else None,
            "seed": seed,
        }
    _write_meta(Path(str(out_path) + ".meta.json"), meta)
    print(f"wrote {out_path}")
    return 0


def _add_common_flags(sub: argparse.ArgumentParser, *, config_required: bool) -> None:
    sub.add_argument("--config", required=config_required, help="JSON run configuration")
    sub.add_argument("--seed", type=int, default=None, help="root seed (overrides config)")
    sub.add_argument("--out", default=None, help="output directory (overrides config)")


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--solver", choices=["exact", "mc"], default=None)
    sub.add_argument("--permutations", type=int, default=None)
    sub.add_argument("--workers", type=int, default=1,
                     help="accepted for compatibility; has no effect")


def _add_event_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--event", default=None, help="generated sample, comma-separated numbers")
    sub.add_argument("--event-label", default=None, help="conditioning label of the event")


def _parse_beta(text: str):
    if text == "permission":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("beta must be 'permission' or a float")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="royaltyshare",
        description="Shapley-based royalty attribution for generative models",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("attribute", help="per-owner attribution for one generated sample")
    _add_common_flags(p, config_required=True)
    _add_solver_flags(p)
    _add_event_flags(p)
    p.add_argument("--beta", type=_parse_beta, default=None)
    p.set_defaults(func=cmd_attribute)

    p = subs.add_parser("developer-share", help="developer versus data-owner revenue split")
    _add_common_flags(p, config_required=True)
    _add_solver_flags(p)
    _add_event_flags(p)
    p.add_argument("--beta", type=_parse_beta, default=None)
    p.set_defaults(func=cmd_developer_share)

    p = subs.add_parser("compare-loo", help="Shapley attribution against leave-one-out")
    _add_common_flags(p, config_required=True)
    _add_solver_flags(p)
    _add_event_flags(p)
    p.add_argument("--beta", type=_parse_beta, default=None)
    p.set_defaults(func=cmd_compare_loo)

    p = subs.add_parser("settle", help="distribute recorded revenue from a ledger")
    _add_common_flags(p, config_required=False)
    p.add_argument("--ledger", required=True, help="ledger directory")
    p.add_argument("--mode", choices=["full", "sample"], default="full")
    p.add_argument("--sample-size", type=int, default=None)
    p.add_argument("--beta", type=_parse_beta, default=None)
    p.set_defaults(func=cmd_settle)

    p = subs.add_parser("simulate", help="generate synthetic fixtures")
    _add_common_flags(p, config_required=False)
    p.add_argument("--kind", choices=["clusters", "ledger"], required=True)
    p.add_argument("--layout", choices=["graded", "colocated"], default="graded")
    p.add_argument("--owners", type=int, default=4)
    p.add_argument("--points", type=int, default=40)
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--cluster-std", type=float, default=1.0)
    p.add_argument("--offset", type=float, default=0.5)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--transactions", type=int, default=1000)
    p.add_argument("--price", type=float, default=1.0)
    p.add_argument("--alpha", default=None, help="comma-separated Dirichlet parameters")
    p.set_defaults(func=cmd_simulate)

    return parser


def _bind_event_values(argv: list[str]) -> list[str]:
    """Join ``--event VALUE`` into ``--event=VALUE`` when VALUE is a negative number.

    argparse reads a token such as ``-0.1,0.2`` (a negative first coordinate)
    as an unknown option, not as the value of ``--event``.
    """
    out: list[str] = []
    pending = False
    for token in argv:
        if pending and re.match(r"-\.?\d", token):
            out[-1] = f"--event={token}"
        else:
            out.append(token)
        pending = token == "--event"
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_bind_event_values(argv))
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        OracleFailureError,
        EmptyDatasetError,
        DimensionMismatchError,
        NonFiniteError,
        np.linalg.LinAlgError,  # a ValueError, so caught ahead of the catch-all below
    ) as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return 3
    except (StorageFailureError, DuplicateIdError) as exc:
        print(f"storage failure: {exc}", file=sys.stderr)
        return 4
    except RoyaltyShareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
