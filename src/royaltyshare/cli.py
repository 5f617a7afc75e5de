"""Command line interface.

Subcommands: ``attribute`` (per-owner scores and royalty shares for one
generated sample), ``developer-share`` (the developer/data split),
``compare-loo`` (Shapley against leave-one-out), ``settle`` (distribute
recorded revenue from a ledger), and ``simulate`` (generate the synthetic
fixtures the acceptance suite runs on).

Every run is driven by a JSON config plus flag overrides, and every report
file is accompanied by a ``.meta.json`` sidecar echoing the fully resolved
configuration, so a report is reproducible from its own metadata. One table,
``_SCHEMA``, gives each config key's check, default and the kinds that read
it. All randomness derives from the single root seed, stream-split per
subsystem. Given the same seed, report files are byte-identical across runs. The
``--workers`` flag is still accepted and has no effect; ``--beta`` is taken
only by the two commands that read it, ``developer-share`` and ``settle``.

The three event commands (``attribute``, ``developer-share``,
``compare-loo``) run one pipeline: config, event, game, then the report CSV
and its sidecar. Each supplies only its file stem, its columns and its own
sidecar keys; ``compare-loo`` reports the attribute columns without
``stderr``.

Every report and sidecar replaces its file whole, through
:func:`~royaltyshare.files.replace_file`, so a crash of the process leaves
the old file or the new one, never a torn one. Only ``settle`` fsyncs its
report: the event commands' and ``simulate``'s outputs are pure functions
of what their sidecars echo, so a rerun rebuilds them, but a settlement is
committed to the ledger before its report is written and cannot be settled
again. A settle whose report cannot be written exits 4 with a line saying
that the settlement was committed, how many transactions it settled and
their income.

Exit codes: 0 success, 2 config error (an unknown key at any level, and any
present value that fails its key's check, included), 3 oracle failure (a
covariance that linear algebra rejects, and an additive coalition sum beyond
the float range, included), 4 storage failure. ``settle`` reports a torn
ledger tail that opening the ledger dropped as one line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .density import (
    CoalitionDensityOracle,
    GenerationEvent,
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
from .files import replace_file
from .games import AdditiveOracle, CoalitionGame, coalition_members
from .ledger import (
    LedgerStore,
    _SampleSizeError,
    settle_full,
    settle_subsampled,
    write_settlement_csv,
)
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

_REQUIRED = object()  # no default: the kinds that read the key must be given it
_UNSET = object()  # no default: an absent key stays absent


class _Key(NamedTuple):
    """A config key: the kinds of its section that read it (None: every kind),
    the test a present value must pass, what the test asks (or a function of
    the failing value that says it), and its default."""

    kinds: tuple[str, ...] | None
    test: Callable[[Any], bool]
    need: str | Callable[[Any], str]
    default: Any = _UNSET


def _finite_number(value: Any) -> bool:
    """True for a JSON number that is not a boolean and is a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _one_of(*choices: str) -> tuple[Callable[[Any], bool], str]:
    return lambda v: v in choices, " or ".join(map(repr, choices))


# A count of 2**31 needs at least 16 GiB of arrays or objects, or 2**31
# fsync'd ledger records, so counts stop below it.
_MAX_COUNT = 2**31 - 1
_COUNT = (lambda v: type(v) is int and 1 <= v <= _MAX_COUNT,  # bool is not int
          lambda v: f"at most {_MAX_COUNT}" if type(v) is int and v > _MAX_COUNT
          else "an integer >= 1")
_NONNEGATIVE = (lambda v: _finite_number(v) and v >= 0, "a finite number >= 0")
_FINITE = (_finite_number, "a finite number")
_POSITIVE = (lambda v: _finite_number(v) and v > 0, "a finite number > 0")

# Every config key. Each section (solver, oracle, baseline) is a JSON object
# whose kind comes first; a default is filled in only for the kinds that
# read the key, so a resolved config echoes what the run used.
_SCHEMA = {
    "seed": _Key(None, lambda v: type(v) is int and 0 <= v < 2**64, "an integer in [0, 2^64)", 0),
    "beta": _Key(None, lambda v: v == "permission" or (_finite_number(v) and 0 <= v <= 1),
                 "'permission' or a number in [0, 1]", "permission"),
    "density_mc_samples": _Key(None, *_COUNT, 20),
    "dataset": _Key(None, lambda v: v is None or isinstance(v, str), "a path or null", None),
    "out": _Key(None, lambda v: isinstance(v, str), "a path", "reports"),
    "solver.kind": _Key(None, *_one_of("exact", "mc"), "exact"),
    "solver.permutations": _Key(("mc",), *_COUNT, 2000),
    "solver.truncation": _Key(("mc",), *_NONNEGATIVE, 0.0),
    "oracle.kind": _Key(None, *_one_of("gaussian_mle", "kde", "additive", "gaussian_chain"),
                        "gaussian_mle"),
    "oracle.ridge": _Key(None, *_NONNEGATIVE, 1e-6),  # echoed, not read, by additive
    "oracle.bandwidth": _Key(("kde",), lambda v: v is None or (_finite_number(v) and v > 0),
                             "a positive number or null"),
    "oracle.weights": _Key(("additive",), lambda v: isinstance(v, list) and len(v) > 0
                           and all(map(_finite_number, v)),
                           "a nonempty list of finite numbers (no booleans)", _REQUIRED),
    "oracle.steps": _Key(("gaussian_chain",), *_COUNT, 3),
    "oracle.alpha": _Key(("gaussian_chain",), lambda v: _finite_number(v) and 0 < v <= 1,
                         "a number in (0, 1]", 0.9),
    "baseline.kind": _Key(None, *_one_of("standard_normal", "dataset"), "standard_normal"),
    "baseline.path": _Key(("dataset",), lambda v: isinstance(v, str) and v != "",
                          "a nonempty path", _REQUIRED),
    "baseline.ridge": _Key(("dataset",), *_NONNEGATIVE, 1e-6),
}
_SECTIONS = ("solver", "oracle", "baseline")
# The flags that override a config key, by argparse destination.
_FLAG_KEYS = {"seed": "seed", "solver": "solver.kind", "permutations": "solver.permutations",
              "beta": "beta", "out": "out"}


def _resolve(loaded: dict[str, Any], overrides: dict[str, Any]) -> dict[str, Any]:
    """``loaded`` with the flag overrides applied, checked, and its defaults filled in.

    Unknown keys are rejected at every level, and every present value is
    checked, even one that its section's kind does not read.
    """
    flat: dict[str, Any] = {}
    for key, value in loaded.items():
        if key not in _SECTIONS:
            flat[key] = value
        elif isinstance(value, dict):
            flat.update((f"{key}.{field}", v) for field, v in value.items())
        else:
            raise ConfigError(f"{key} must be a JSON object, got {value!r}")
    # A dotted key at the top level is not a section's key.
    unknown = sorted(p for p in flat if p not in _SCHEMA or (p in loaded and "." in p))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    flat.update(overrides)
    for path, key in _SCHEMA.items():
        kind = flat.get(path.partition(".")[0] + ".kind")
        if path in flat:
            value = flat[path]
            if not key.test(value):
                need = key.need(value) if callable(key.need) else key.need
                raise ConfigError(f"{path} must be {need}, got {value!r}")
        elif key.default is _REQUIRED and kind in key.kinds:
            raise ConfigError(f"{path} is required when the kind is {kind!r}")
        elif key.default is not _UNSET and (key.kinds is None or kind in key.kinds):
            flat[path] = key.default
    config: dict[str, Any] = {section: {} for section in _SECTIONS}
    for path, value in flat.items():
        section, _, field = path.rpartition(".")
        (config[section] if section else config)[field] = value
    return config


def _load_config(args: argparse.Namespace) -> dict[str, Any]:
    """Read the config file, apply flag overrides, check it, and resolve defaults."""
    loaded: dict[str, Any] = {}
    config_dir = Path.cwd()
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config is not valid UTF-8 JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config root must be a JSON object")
        config_dir = path.parent
    overrides = {path: getattr(args, flag) for flag, path in _FLAG_KEYS.items()
                 if getattr(args, flag, None) is not None}
    config = _resolve(loaded, overrides)
    config["_dir"] = config_dir
    return config


def _checked_flag(check: tuple[Callable[[Any], bool], str | Callable[[Any], str]],
                  convert: Callable[[str], Any]) -> Callable[[str], Any]:
    """An argparse ``type=`` that applies a config check at parse time."""
    test, need = check

    def parse(text: str) -> Any:
        try:
            value = convert(text)
        except ValueError:
            value = text
        if not test(value):
            raise argparse.ArgumentTypeError(
                f"must be {need(value) if callable(need) else need}, got {text!r}")
        return value

    return parse


_count_flag = _checked_flag(_COUNT, int)
_finite_flag = _checked_flag(_FINITE, float)
_positive_flag = _checked_flag(_POSITIVE, float)
_nonnegative_flag = _checked_flag(_NONNEGATIVE, float)


def _alpha_flag(text: str) -> tuple[float, ...]:
    """Comma-separated Dirichlet parameters, each a finite number > 0."""
    return tuple(map(_positive_flag, text.split(",")))


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
    """Return (game, oracle) for the configured oracle."""
    oracle_cfg = config["oracle"]
    kind = oracle_cfg["kind"]
    if kind == "additive":
        oracle = AdditiveOracle(oracle_cfg["weights"])
        return CoalitionGame(oracle.n, oracle), oracle

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
        baseline = fit_gaussian(pooled, ridge=baseline_cfg["ridge"])

    if event is None:
        raise ConfigError("this command needs --event for dataset-driven oracles")
    if event.x.size != dim:
        raise ConfigError(f"--event has {event.x.size} coordinates, dataset is {dim}-dimensional")

    if kind == "gaussian_chain":
        oracle = ChainDensityOracle(
            partition,
            baseline,
            event,
            NoiseSchedule.uniform(oracle_cfg["steps"], oracle_cfg["alpha"]),
            ridge=oracle_cfg["ridge"],
            num_samples=config["density_mc_samples"],
            seed=derive_seed(config["seed"], _STREAM_DENSITY),
        )
    else:
        oracle = CoalitionDensityOracle(partition, baseline, event, kind=kind,
                                        ridge=oracle_cfg["ridge"],
                                        bandwidth=oracle_cfg.get("bandwidth"))
    return CoalitionGame(len(partition), oracle), oracle


def _solve(game: CoalitionGame, config: dict[str, Any]):
    """Run the configured solver; returns (phi, stderr_or_none, solver_info)."""
    solver_cfg = config["solver"]
    if solver_cfg["kind"] == "exact":
        phi = exact_shapley(game)
        return phi, None, {"kind": "exact"}
    estimator = EstimatorConfig(
        num_permutations=solver_cfg["permutations"],
        seed=derive_seed(config["seed"], _STREAM_SOLVER),
        truncation_tolerance=solver_cfg["truncation"],
    )
    report = permutation_sample(game, estimator)
    info = {
        "kind": "mc",
        "permutations_used": report.permutations_used,
        "oracle_calls": report.oracle_calls,
    }
    return report.estimate, report.stderr, info


def _write_meta(path: Path, payload: dict[str, Any], *, durable: bool) -> None:
    replace_file(path, json.dumps(payload, sort_keys=True, indent=2) + "\n", durable=durable)


def _out_dir(config: dict[str, Any]) -> Path:
    return Path(config["out"])


def _oracle_meta(oracle) -> dict[str, Any]:
    if not hasattr(oracle, "fallback_coalitions"):
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


def _cells(values) -> list[str]:
    return [_fmt(v) for v in values]


def _run_event_command(args: argparse.Namespace, stem: str, report) -> dict[str, Any]:
    """The pipeline of the event commands: config, event and game, then the report.

    ``report(game, config)`` solves what the command needs and returns the
    report's columns (header to cells) and the sidecar keys of its own. This
    writes ``<stem>.csv`` and ``<stem>.meta.json`` under the output directory
    and returns the sidecar.
    """
    config = _load_config(args)
    event = _parse_event(args, config)
    game, oracle = _build_game(config, event)
    columns, own_meta = report(game, config)
    out = _out_dir(config)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / f"{stem}.csv"
    rows = [",".join(columns), *(",".join(row) for row in zip(*columns.values()))]
    replace_file(report_path, "".join(row + "\n" for row in rows), durable=False)
    meta = {
        "command": args.command,
        "config": _echoed(config),
        "event": [float(v) for v in event.x] if event else None,
        "event_label": event.label if event else None,
        **own_meta,
        **_oracle_meta(oracle),
    }
    _write_meta(out / f"{stem}.meta.json", meta, durable=False)
    print(f"wrote {report_path}")
    return meta


def _attribution(game: CoalitionGame, config: dict[str, Any]):
    """Shapley values, their stderr, LOO scores and shares: the attribute report."""
    phi, stderr, solver_info = _solve(game, config)
    loo = loo_scores(game)
    shares = royalty_shares(phi)
    columns = {
        "owner_id": [str(i) for i in range(game.n)],
        "phi": _cells(phi),
        "stderr": [""] * game.n if stderr is None else _cells(stderr),
        "loo": _cells(loo),
        "srs": _cells(shares.shares),
    }
    return columns, {"solver": solver_info, "degenerate": shares.degenerate}


def _attribute_report(game: CoalitionGame, config: dict[str, Any]):
    columns, meta = _attribution(game, config)
    return columns, {**meta, "oracle_evaluations": game.eval_count}


def _compare_loo_report(game: CoalitionGame, config: dict[str, Any]):
    columns, meta = _attribution(game, config)
    del columns["stderr"]
    return columns, meta


def _developer_share_report(game: CoalitionGame, config: dict[str, Any]):
    beta = config["beta"]
    if beta == "permission":
        # The exact split needs no solver: it reads the owners' utility table.
        solver = None if config["solver"]["kind"] == "exact" else lambda g: _solve(g, config)[0]
        split = developer_split(PermissionGame(game), solver)
        srs = _cells([*split.owner_payout_fractions, split.developer_share])
    else:
        shares = royalty_shares(_solve(game, config)[0])
        split = fixed_split(float(beta), shares)  # the sidecar echoes a JSON 1 as 1.0
        srs = [*_cells(shares.shares), ""]
    columns = {
        "player_id": [*(str(i) for i in range(game.n)), "developer"],
        "srs": srs,
        "payout_fraction": _cells([*split.owner_payout_fractions, split.developer_share]),
    }
    meta = {
        "beta_data": split.beta_data,
        "developer_share": split.developer_share,
        "degenerate": split.degenerate,
    }
    return columns, meta


def cmd_attribute(args: argparse.Namespace) -> int:
    meta = _run_event_command(args, "attribution", _attribute_report)
    if meta["degenerate"]:
        print("note: all Shapley values clamped to zero; shares fell back to uniform")
    return 0


def cmd_developer_share(args: argparse.Namespace) -> int:
    meta = _run_event_command(args, "developer_share", _developer_share_report)
    print(f"beta_data={meta['beta_data']!r} developer_share={meta['developer_share']!r}")
    return 0


def cmd_compare_loo(args: argparse.Namespace) -> int:
    _run_event_command(args, "compare_loo", _compare_loo_report)
    return 0


def _sample_size_error(sample_size: int, pool_size: int) -> ConfigError:
    return ConfigError(
        f"--sample-size must lie in [1, {pool_size}], the unsettled pool, got {sample_size}"
    )


def cmd_settle(args: argparse.Namespace) -> int:
    config = _load_config(args)
    beta = config["beta"]
    if beta == "permission":
        raise ConfigError(
            "settle needs a numeric beta (config 'beta' or --beta FLOAT); "
            "use developer-share to compute one from the permission game"
        )
    if args.mode == "sample" and args.sample_size is None:
        raise ConfigError("settle --mode sample needs --sample-size")
    if args.mode == "full" and args.sample_size is not None:
        raise ConfigError("settle --sample-size needs --mode sample")
    store = LedgerStore(args.ledger, create=False)
    if store.dropped_bytes:
        print(f"ledger: dropped a torn tail of {store.dropped_bytes} bytes", file=sys.stderr)
    root_seed = config["seed"]
    if args.mode == "sample":
        pool_size = store._pool_size()
        if not 1 <= args.sample_size <= pool_size:
            raise _sample_size_error(args.sample_size, pool_size)
    out = _out_dir(config)
    out.mkdir(parents=True, exist_ok=True)  # before the commit, so a bad --out commits nothing
    if args.mode == "full":
        report = settle_full(store, beta)
    else:
        try:
            report = settle_subsampled(
                store,
                beta,
                sample_size=args.sample_size,
                seed=derive_seed(root_seed, _STREAM_SETTLE),
            )
        except _SampleSizeError as exc:  # another store settled since the check above
            raise _sample_size_error(args.sample_size, exc.pool_size) from exc
    # The report echoes the root seed, not the sampler's derived stream.
    report = dataclasses.replace(report, seed=root_seed)
    report_path = out / "settlement.csv"
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
        "failed_reasons": report.failed_reasons,
        "correlated_warning": report.correlated_warning,
        "conservation_error": report.conservation_error,
    }
    # The ledger holds the settlement now, but not its quarantine, estimator
    # or sampled fraction: only this report does, so it is written durably.
    try:
        write_settlement_csv(report, report_path)
        _write_meta(out / "settlement.meta.json", meta, durable=True)
    except OSError as exc:
        raise StorageFailureError(
            f"the settlement of {report.settled_count} transactions "
            f"({report.total_income!r} income) is committed to the ledger, but its "
            f"report was not written in full: {exc}"
        ) from exc
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
        alpha = args.alpha
        if alpha is not None and len(alpha) != args.owners:
            raise ConfigError(f"--alpha has {len(alpha)} values for {args.owners} owners")
        store = LedgerStore(out_path, create=True)
        if not store._is_empty():
            raise StorageFailureError(f"{out_path} already holds transactions")
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
    _write_meta(Path(str(out_path) + ".meta.json"), meta, durable=False)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="royaltyshare",
        description="Shapley-based royalty attribution for generative models",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("attribute", help="per-owner attribution for one generated sample")
    _add_common_flags(p, config_required=True)
    _add_solver_flags(p)
    _add_event_flags(p)
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
    p.add_argument("--owners", type=_count_flag, default=4)
    p.add_argument("--points", type=_count_flag, default=40)
    p.add_argument("--spacing", type=_finite_flag, default=1.0)
    p.add_argument("--cluster-std", type=_positive_flag, default=1.0)
    p.add_argument("--offset", type=_finite_flag, default=0.5)
    p.add_argument("--dim", type=_count_flag, default=2)
    p.add_argument("--transactions", type=_count_flag, default=1000)
    p.add_argument("--price", type=_nonnegative_flag, default=1.0)
    p.add_argument("--alpha", type=_alpha_flag, default=None,
                   help="comma-separated Dirichlet parameters, one per owner")
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
        np.linalg.LinAlgError,
    ) as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return 3
    except (StorageFailureError, DuplicateIdError, OSError) as exc:
        print(f"storage failure: {exc}", file=sys.stderr)
        return 4
    except RoyaltyShareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
