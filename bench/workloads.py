"""The benchmark's workloads: seeded inputs, one request, and its output checks.

Requests reach the program only through its stable entry points:
``royaltyshare.cli.main(argv)`` in-process for ``simulate``, ``attribute``,
``developer-share`` and ``settle``, and ``LedgerStore.record`` for sales,
which have no CLI command. README.md says why each workload exists.

Events are passed as ``--event=<csv>``: ``--event -0.3,0.2`` is rejected by
argparse as a missing value, because the value starts with a dash.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

TOL = 1e-9


class CheckFailed(Exception):
    """A request returned, but its output broke a property it must have."""


@dataclass
class Stats:
    """What the requests of one run did."""

    latencies: list[float] = field(default_factory=list)  # seconds, per completed request
    attempted: int = 0
    failed: int = 0
    first_failure: str | None = None
    settled_tx: int = 0
    settle_s: float = 0.0
    hash_reports: bool = False
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    tracer: object | None = None

    def attempt(self, fn, *args) -> None:
        """Run one checked operation; a failure is counted and the run goes on."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request = self.attempted
        try:
            fn(*args)
        except Exception:  # the run must outlive any failing request
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = traceback.format_exc(limit=4)

    def report(self, *blobs: bytes) -> None:
        if self.hash_reports:
            for blob in blobs:
                self.digest.update(blob)


class Cli:
    """Calls ``royaltyshare.cli.main`` in-process with its output captured."""

    def __init__(self, module) -> None:
        self.module = module
        self.sink = io.StringIO()

    def call(self, argv: list[str]) -> float:
        """Run one command; returns its wall time and raises if it failed."""
        self.sink.seek(0)
        self.sink.truncate()
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            start = perf_counter()
            try:
                code = self.module.main(argv)
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code
            elapsed = perf_counter() - start
        if code != 0:
            raise CheckFailed(f"{argv[0]} exited {code}: {self.sink.getvalue().strip()[-400:]}")
        return elapsed


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _csv_rows(path: Path) -> tuple[bytes, list[dict[str, str]]]:
    blob = path.read_bytes()
    return blob, list(csv.DictReader(io.StringIO(blob.decode("utf-8"))))


def _check_simplex(values: list[float], what: str) -> None:
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        raise CheckFailed(f"{what}: negative or non-finite share in {values}")
    if abs(math.fsum(values) - 1.0) > TOL:
        raise CheckFailed(f"{what}: shares sum to {math.fsum(values)!r}, not 1")


def _check_attribution(rows: list[dict[str, str]], owners: int) -> None:
    if len(rows) != owners:
        raise CheckFailed(f"attribution has {len(rows)} rows for {owners} owners")
    _check_simplex([float(r["srs"]) for r in rows], "attribution srs")


def _check_developer_share(rows: list[dict[str, str]], owners: int) -> None:
    if len(rows) != owners + 1 or rows[-1]["player_id"] != "developer":
        raise CheckFailed("developer-share must list every owner, then the developer")
    _check_simplex([float(r["payout_fraction"]) for r in rows], "owner and developer payouts")


def _event_flag(x: np.ndarray) -> str:
    return "--event=" + ",".join(repr(float(v)) for v in x)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")


class Workload:
    """One workload; ``unit(i)`` runs request ``i`` of its seeded stream.

    ``pass_units`` requests make the fixed pass that traced runs repeat.
    """

    pass_units = 4

    def __init__(self, cli: Cli, work: Path, seed: int) -> None:
        self.cli = cli
        self.work = work
        self.seed = seed
        self.out = work / "reports"

    def setup(self) -> None:
        """Generate the fixtures."""

    def warmup(self, stats: Stats) -> None:
        """One untimed request, checked like the others."""
        self.unit(-1, stats)

    def unit(self, index: int, stats: Stats) -> None:
        raise NotImplementedError


class SalesLedger:
    """Records each sale durably; ``settle`` pays out what is unsettled.

    The ledger starts empty at the first request of a run or pass and grows
    from there, so a settle replays every line written before it.
    """

    owners_share = "0.7"  # --beta: the owners' collective fraction of revenue

    def __init__(self, cli: Cli, api, path: Path, out: Path) -> None:
        self.cli = cli
        self.api = api
        self.path = path
        self.out = out
        self.store = None
        self.unsettled: list[float] = []
        self.settles = 0

    def reset(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        self.store = self.api.LedgerStore(self.path, create=True)
        self.unsettled, self.settles = [], 0

    def record(self, tx_id: str, price: float, event: np.ndarray, shares: list[float]) -> float:
        """Record one sale; returns the wall time of ``LedgerStore.record``."""
        tx = self.api.Transaction(
            id=tx_id, price=price, event=self.api.GenerationEvent(x=event),
            srs=self.api.ShareVector(shares=np.array(shares), degenerate=False))
        start = perf_counter()
        self.store.record(tx)
        elapsed = perf_counter() - start
        self.unsettled.append(price)
        return elapsed

    def settle(self, seed: int, stats: Stats) -> None:
        """CLI ``settle`` of every unsettled sale, full and sampled in turn."""
        prices, self.unsettled = self.unsettled, []
        argv = ["settle", "--ledger", str(self.path), "--beta", self.owners_share,
                "--seed", str(seed), "--out", str(self.out)]
        if self.settles % 2:
            argv += ["--mode", "sample", "--sample-size", str(max(1, len(prices) // 2))]
        else:
            argv += ["--mode", "full"]
        self.settles += 1
        elapsed = self.cli.call(argv)
        meta = json.loads((self.out / "settlement.meta.json").read_text(encoding="utf-8"))
        if meta["conservation_error"] > TOL:
            raise CheckFailed(f"conservation error {meta['conservation_error']!r}")
        if meta["failed_ids"]:
            raise CheckFailed(f"quarantined transactions {meta['failed_ids'][:5]}")
        if meta["total_income"] != math.fsum(prices):
            raise CheckFailed(f"settled {meta['total_income']!r}, "
                              f"recorded {math.fsum(prices)!r} since the last settle")
        stats.settle_s += elapsed
        stats.settled_tx += len(prices)
        stats.report((self.out / "settlement.csv").read_bytes())


def _simulate_clusters(cli: Cli, out: Path, owners: int, points: int, seed: int) -> None:
    cli.call(["simulate", "--kind", "clusters", "--layout", "graded",
              "--owners", str(owners), "--points", str(points), "--dim", "2",
              "--seed", str(seed), "--out", str(out)])


def _cluster_event(rng: np.random.Generator, owners: int) -> np.ndarray:
    # Graded clusters sit at (j, 0) with unit spread; draw near one of them.
    return np.array([float(rng.integers(owners)), 0.0]) + rng.standard_normal(2)


class AttributeGauss(Workload):
    """Price one generated sample and record its sale; settle now and then.

    A request is ``attribute`` plus ``developer-share`` (permission game) with
    the ``gaussian_mle`` oracle on 8 owners, then ``LedgerStore.record`` of the
    sale with the owners' royalty shares. Every ``periodic`` requests, outside
    the request but inside the timed wall, the ledger is settled through the
    CLI and one more sample is attributed through the ``gaussian_chain``
    oracle on a 4-owner fixture; that keeps the sales ledger and the
    diffusion layer working without their jitter in the request latency.
    """

    periodic = Workload.pass_units  # so each traced pass holds one of each periodic operation

    def __init__(self, cli, work, seed, tiny, *, api) -> None:
        super().__init__(cli, work, seed)
        self.owners = 3 if tiny else 8
        self.chain_owners = 2 if tiny else 4
        self.points = 10 if tiny else 40
        self.config = work / "gauss.json"
        self.chain_config = work / "chain.json"
        self.sales = SalesLedger(cli, api, work / "ledger", self.out)

    def setup(self) -> None:
        _simulate_clusters(self.cli, self.work / "gauss.csv", self.owners, self.points, self.seed)
        _simulate_clusters(self.cli, self.work / "chain.csv", self.chain_owners, self.points,
                           self.seed)
        for config, kind, dataset in ((self.config, "gaussian_mle", "gauss.csv"),
                                      (self.chain_config, "gaussian_chain", "chain.csv")):
            _write_json(config, {"dataset": dataset, "oracle": {"kind": kind},
                                 "solver": {"kind": "exact"}, "beta": "permission"})

    def unit(self, index: int, stats: Stats) -> None:
        rng = _rng(self.seed, 1, index + 1)
        event = _cluster_event(rng, self.owners)
        seed = int(rng.integers(2**63))
        price = round(float(rng.uniform(0.5, 5.0)), 2)
        args = ["--config", str(self.config), _event_flag(event),
                "--seed", str(seed), "--out", str(self.out)]
        if index <= 0:
            self.sales.reset()
        stats.attempt(self._request, args, f"sale-{index}", price, event, stats)
        if index < 0 or (index + 1) % self.periodic == 0:
            stats.attempt(self.sales.settle, seed, stats)
            stats.attempt(self._chain_attribution, _cluster_event(rng, self.chain_owners),
                          seed, stats)

    def _request(self, args: list[str], tx_id: str, price: float, event: np.ndarray,
                 stats: Stats) -> None:
        elapsed = self.cli.call(["attribute", *args])
        attribution, rows = _csv_rows(self.out / "attribution.csv")
        _check_attribution(rows, self.owners)
        shares = [float(r["srs"]) for r in rows]
        elapsed += self.cli.call(["developer-share", *args])
        split, rows = _csv_rows(self.out / "developer_share.csv")
        _check_developer_share(rows, self.owners)
        elapsed += self.sales.record(tx_id, price, event, shares)
        stats.latencies.append(elapsed)
        stats.report(attribution, split)

    def _chain_attribution(self, event: np.ndarray, seed: int, stats: Stats) -> None:
        self.cli.call(["attribute", "--config", str(self.chain_config), _event_flag(event),
                       "--seed", str(seed), "--out", str(self.out)])
        attribution, rows = _csv_rows(self.out / "attribution.csv")
        _check_attribution(rows, self.chain_owners)
        stats.report(attribution)


class AttributeAdditive(Workload):
    """Exact and Monte Carlo solves of fresh additive games."""

    def __init__(self, cli, work, seed, tiny, *, workers: int) -> None:
        super().__init__(cli, work, seed)
        self.exact_owners = 5 if tiny else 12
        self.mc_owners = 8 if tiny else 24
        self.permutations = 20 if tiny else 200
        self.workers = workers

    @staticmethod
    def _weights(rng: np.random.Generator, n: int) -> list[float]:
        weights = rng.normal(0.3, 1.0, n)
        k = int(rng.integers(n))
        weights[k] = -abs(weights[k])  # at least one negative score to clamp
        return [float(w) for w in weights]

    def unit(self, index: int, stats: Stats) -> None:
        rng = _rng(self.seed, 2, index + 1)
        exact_w = self._weights(rng, self.exact_owners)
        mc_w = self._weights(rng, self.mc_owners)
        seed = str(int(rng.integers(2**63)))
        exact_cfg, mc_cfg = self.work / "exact.json", self.work / "mc.json"
        _write_json(exact_cfg, {"oracle": {"kind": "additive", "weights": exact_w},
                                "solver": {"kind": "exact"}, "beta": "permission"})
        _write_json(mc_cfg, {"oracle": {"kind": "additive", "weights": mc_w}})
        stats.attempt(self._request, exact_cfg, exact_w, mc_cfg, mc_w, seed, stats)

    def _request(self, exact_cfg, exact_w, mc_cfg, mc_w, seed, stats: Stats) -> None:
        common = ["--seed", seed, "--out", str(self.out)]
        elapsed = self.cli.call(["attribute", "--config", str(exact_cfg), *common])
        exact, rows = _csv_rows(self.out / "attribution.csv")
        _check_attribution(rows, len(exact_w))
        for row, w in zip(rows, exact_w):
            if abs(float(row["phi"]) - w) > TOL or abs(float(row["loo"]) - w) > TOL:
                raise CheckFailed(f"additive owner {row['owner_id']}: phi/loo != weight {w!r}")
        elapsed += self.cli.call(["developer-share", "--config", str(exact_cfg), *common])
        split, rows = _csv_rows(self.out / "developer_share.csv")
        _check_developer_share(rows, len(exact_w))
        elapsed += self.cli.call([
            "attribute", "--config", str(mc_cfg), *common, "--solver", "mc",
            "--permutations", str(self.permutations), "--workers", str(self.workers),
        ])
        sampled, rows = _csv_rows(self.out / "attribution.csv")
        _check_attribution(rows, len(mc_w))
        for row, w in zip(rows, mc_w):
            if abs(float(row["phi"]) - w) > float(row["stderr"]) + TOL:
                raise CheckFailed(f"MC owner {row['owner_id']}: {row['phi']} vs weight {w!r} "
                                  f"beyond stderr {row['stderr']}")
        stats.latencies.append(elapsed)
        stats.report(exact, split, sampled)


WORKLOADS = ("attribute-gauss", "attribute-additive")


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def make(name: str, cli: Cli, work: Path, seed: int, tiny: bool, api) -> Workload:
    if name == "attribute-gauss":
        return AttributeGauss(cli, work, seed, tiny, api=api)
    if name == "attribute-additive":
        return AttributeAdditive(cli, work, seed, tiny, workers=nproc())
    raise ValueError(f"unknown workload {name!r}")
