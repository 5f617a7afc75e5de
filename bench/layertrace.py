"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of ``royaltyshare`` at the names their
callers look up (``cli`` binds ``exact_shapley`` and others by
``from ... import``, so those are wrapped on ``cli``), from the benchmark's
own files; the package is not edited. A wrap target that a later version of
the package no longer has is listed in ``missing`` and every metric that
needs it is left out of the report; the run goes on.

A span carries its name, start, end, the id of the span that caused it and
the id of the request it belongs to. Stored spans stay in ``spans`` until
the run ends. ``games.evaluate`` and the oracle callables are aggregated
instead of stored: a request makes up to ~10^5 of them. A span's self time is
its duration minus the part of it that its child spans cover. Children run
on the same thread one after another, except Monte Carlo walks, which run on
pool threads; a span opened on another thread with nothing open there is
parented to the innermost open span of the request thread, and the union of
such intervals is what the parent loses to them.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import types
from pathlib import Path
from time import perf_counter

# Exact counters: identical across passes over the same requests, and
# checked to be so by every traced run.
EXACT_COUNTERS = (
    "games.oracle_evals",
    "density.fit_calls",
    "diffusion.trajectories",
    "ledger.fsyncs",
    "ledger.lines_replayed",
    "ledger.bytes_appended",
)


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    covered = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


class Tracer:
    """Spans and counters recorded at the package's layer boundaries."""

    def __init__(self) -> None:
        # (span id, name, start, end, parent span id, request id)
        self.spans: list[tuple] = []
        self.request: int | None = None
        self.missing: list[str] = []
        self.maxima: dict[str, int] = {}
        self._local = threading.local()
        self._aggs: list[dict[str, list]] = []
        self._aggs_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []
        self._root: list | None = None
        self._root_thread: int | None = None
        self._games: list[tuple[object, bool]] = []
        self._opens: list[tuple[Path, int]] = []  # (ledger log, its size at the open)
        self._logs: dict[Path, int] = {}  # ledger log -> size when last counted

    # -- per-thread state -------------------------------------------------

    def _state(self) -> tuple[list, dict]:
        local = self._local
        try:
            return local.stack, local.agg
        except AttributeError:
            local.stack, local.agg = [], {}
            with self._aggs_lock:
                self._aggs.append(local.agg)
            return local.stack, local.agg

    def _parent(self, stack: list) -> tuple[list | None, bool]:
        """The frame a new span nests in, and whether it is on another thread."""
        if stack:
            return stack[-1], False
        root = self._root
        if root and threading.get_ident() != self._root_thread:
            return root[-1], True
        return None, False

    def count(self, name: str, k: int = 1) -> None:
        agg = self._state()[1]
        entry = agg.get(name)
        if entry is None:
            entry = agg[name] = [0, 0.0, 0.0]
        entry[0] += k

    def layer(self) -> str:
        """Layer of the innermost open span on this thread (or its request)."""
        frame, _ = self._parent(self._state()[0])
        return frame[0].partition(".")[0] if frame else "none"

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Merged ``name -> (count, total seconds, self seconds)`` so far."""
        out: dict[str, list] = {}
        with self._aggs_lock:
            aggs = list(self._aggs)
        for agg in aggs:
            for name, (n, total, self_s) in list(agg.items()):
                entry = out.setdefault(name, [0, 0.0, 0.0])
                entry[0] += n
                entry[1] += total
                entry[2] += self_s
        return {k: tuple(v) for k, v in out.items()}

    # -- spans ------------------------------------------------------------

    def span(self, name: str, fn, *, hot: bool = False):
        """Wrap ``fn`` so each call records a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, agg = tracer._state()
            parent, foreign = tracer._parent(stack)
            parent_sid = parent[3] if parent else None
            sid = parent_sid if hot else next(tracer._ids)
            frame = [name, 0.0, [], sid]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                covered = frame[1]
                if frame[2]:
                    covered += _union(frame[2], start, end)
                if parent is not None:
                    if foreign:
                        parent[2].append((start, end))
                    else:
                        parent[1] += dur
                entry = agg.get(name)
                if entry is None:
                    entry = agg[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - covered
                if not hot:
                    tracer.spans.append((sid, name, start, end, parent_sid, tracer.request))

        return wrapper

    # -- installing the wraps ----------------------------------------------

    def _patch(self, key: str, owner, attr: str, make) -> bool:
        if owner is None:
            self.missing.append(key)
            return False
        if isinstance(owner, type):
            original = vars(owner).get(attr)
        else:
            original = getattr(owner, attr, None)
        if not callable(original):
            self.missing.append(key)
            return False
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))
        return True

    def install(self, pkg: dict[str, types.ModuleType]) -> None:
        """Wrap the package's layer boundaries; ``pkg`` maps module name to module."""
        self._root = self._state()[0]
        self._root_thread = threading.get_ident()
        cli, density, diffusion = pkg["cli"], pkg["density"], pkg["diffusion"]
        games, montecarlo, royalty, ledger = (
            pkg["games"], pkg["montecarlo"], pkg["royalty"], pkg["ledger"])
        game_cls = getattr(games, "CoalitionGame", None)
        oracle_cls = getattr(density, "CoalitionDensityOracle", None)
        pg_cls = getattr(royalty, "PermissionGame", None)
        store_cls = getattr(ledger, "LedgerStore", None)
        span = self.span

        def named(name, hot=False):
            return lambda fn: span(name, fn, hot=hot)

        def cli_main(fn):
            traced = span("cli.main", fn)

            def main(*args, **kwargs):
                try:
                    return traced(*args, **kwargs)
                finally:
                    self._harvest_games()

            return functools.wraps(fn)(main)

        def fit(fn):
            traced = span("density.fit", fn)

            def fit_gaussian(points, *args, **kwargs):
                self.count("density.fit_points", len(points))
                return traced(points, *args, **kwargs)

            return functools.wraps(fn)(fit_gaussian)

        def game_init(fn):
            def __init__(game, n, oracle, *args, **kwargs):
                stack = self._state()[0]
                augmented = bool(stack) and stack[-1][0] == "royalty.permission_game"
                # Plain functions (the additive oracle, the permission game's
                # augmented utility) get a span here; the density oracle's
                # class-level __call__ is wrapped on its own.
                if isinstance(oracle, types.FunctionType):
                    name = "royalty.augmented_oracle" if augmented else "games.oracle"
                    oracle = span(name, oracle, hot=True)
                fn(game, n, oracle, *args, **kwargs)
                self._games.append((game, augmented))

            return functools.wraps(fn)(__init__)

        def mc_sample(fn):
            traced = span("montecarlo.sample", fn)

            def permutation_sample(game, *args, **kwargs):
                before = game.eval_count
                workers = int(kwargs.get("workers", 1))
                self.maxima["montecarlo.workers"] = max(
                    workers, self.maxima.get("montecarlo.workers", 0))
                try:
                    return traced(game, *args, **kwargs)
                finally:
                    self.count("montecarlo.evals", game.eval_count - before)

            return functools.wraps(fn)(permutation_sample)

        def counted(name):
            def make(fn):
                def wrapper(*args, **kwargs):
                    self.count(name)
                    return fn(*args, **kwargs)

                return functools.wraps(fn)(wrapper)

            return make

        log_name = getattr(ledger, "LOG_NAME", None)

        def store_init(fn):
            traced = span("ledger.open", fn)

            def __init__(store, path, *args, **kwargs):
                if log_name is not None:
                    log = Path(path) / log_name
                    size = log.stat().st_size if log.exists() else 0
                    if size < self._logs.get(log, 0):  # the ledger was recreated
                        self._logs[log] = size
                    self._logs.setdefault(log, size)
                    self._opens.append((log, size))
                return traced(store, path, *args, **kwargs)

            return functools.wraps(fn)(__init__)

        def fsync(fn):
            def wrapper(fd):
                self.count(f"fsync.{self.layer()}")
                return fn(fd)

            return functools.wraps(fn)(wrapper)

        if log_name is None:
            self.missing.append("ledger.LOG_NAME")
        targets = [
            ("cli.main", cli, "main", cli_main),
            ("cli.load_owner_datasets", cli, "load_owner_datasets", named("density.load")),
            ("density.fit_gaussian", density, "fit_gaussian", fit),
            ("diffusion.fit_gaussian", diffusion, "fit_gaussian", fit),
            ("cli.fit_gaussian", cli, "fit_gaussian", fit),
            ("density.log_density", density, "log_density", named("density.log_density")),
            ("density.CoalitionDensityOracle.__call__", oracle_cls, "__call__",
             named("density.oracle", hot=True)),
            ("games.CoalitionGame.__init__", game_cls, "__init__", game_init),
            ("games.CoalitionGame.evaluate", game_cls, "evaluate",
             named("games.evaluate", hot=True)),
            ("cli.exact_shapley", cli, "exact_shapley", named("exact.shapley")),
            ("cli.loo_scores", cli, "loo_scores", named("exact.loo")),
            ("cli.permutation_sample", cli, "permutation_sample", mc_sample),
            ("montecarlo.truncated_walk", montecarlo, "truncated_walk",
             named("montecarlo.walk")),
            ("montecarlo.sampled_ordering", montecarlo, "sampled_ordering",
             named("montecarlo.ordering")),
            ("cli.developer_split", cli, "developer_split", named("royalty.split")),
            ("cli.royalty_shares", cli, "royalty_shares", named("royalty.shares")),
            ("royalty.royalty_shares", royalty, "royalty_shares", named("royalty.shares")),
            ("royalty.PermissionGame.__init__", pg_cls, "__init__",
             named("royalty.permission_game")),
            ("diffusion.latent_mc_log_density", diffusion, "latent_mc_log_density",
             named("diffusion.estimate")),
            ("diffusion.gaussian_ddpm_chain", diffusion, "gaussian_ddpm_chain",
             named("diffusion.chain_build")),
            ("diffusion.rng_for", diffusion, "rng_for", counted("diffusion.trajectories")),
            ("ledger.LedgerStore.__init__", store_cls, "__init__", store_init),
            ("ledger.LedgerStore.record", store_cls, "record", named("ledger.record")),
            ("cli.settle_full", cli, "settle_full", named("ledger.settle")),
            ("cli.settle_subsampled", cli, "settle_subsampled", named("ledger.settle")),
            ("cli.write_settlement_csv", cli, "write_settlement_csv", named("ledger.report")),
            ("os.fsync", os, "fsync", fsync),
        ]
        for key, owner, attr, make in targets:
            self._patch(key, owner, attr, make)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._root = None

    # -- counters read outside spans -----------------------------------------

    def _harvest_games(self) -> None:
        for game, augmented in self._games:
            evals = getattr(game, "eval_count", None)
            if evals is None:
                continue
            self.count("games.oracle_evals", evals)
            if augmented:
                self.count("royalty.augmented_evals", evals)
        self._games.clear()

    def flush(self) -> None:
        """Count what the ledger opens replayed and what the ledger appended.

        Call it between requests while the ledger files still exist. The log
        is append-only, so the lines a store replayed are the lines in the
        prefix the log had when the store opened.
        """
        for log, size in self._opens:
            if size:
                with open(log, "rb") as fh:
                    self.count("ledger.lines_replayed", fh.read(size).count(b"\n"))
        self._opens.clear()
        for log, counted in list(self._logs.items()):
            if not log.exists():
                del self._logs[log]
                continue
            size = log.stat().st_size
            self.count("ledger.bytes_appended", size - counted)
            self._logs[log] = size


def layer_metrics(
    tracer: Tracer,
    first_pass: dict[str, tuple[int, float, float]],
    traced: dict[str, tuple[int, float, float]],
    requests: int,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``.

    Counts come from ``first_pass``, the totals of one pass over the fixed
    requests, so they repeat exactly. Times come from ``traced``, all traced
    passes, in milliseconds per request. A metric whose wrap target is
    missing is left out.
    """

    def n(name: str) -> int:
        return first_pass.get(name, (0, 0.0, 0.0))[0]

    def total_ms(name: str) -> float:
        return 1000.0 * traced.get(name, (0, 0.0, 0.0))[1] / requests

    def self_ms(name: str) -> float:
        return 1000.0 * traced.get(name, (0, 0.0, 0.0))[2] / requests

    evaluate = ("games.CoalitionGame.evaluate",)
    oracles = ("games.CoalitionGame.__init__", "density.CoalitionDensityOracle.__call__")
    per_req = "ms/request"
    spec = [
        ("cli.calls", "count", ("cli.main",), lambda: n("cli.main")),
        ("cli.self_ms", per_req, ("cli.main",), lambda: self_ms("cli.main")),
        ("cli.fsyncs", "count", ("cli.main", "os.fsync"), lambda: n("fsync.cli")),
        ("density.load_ms", per_req, ("cli.load_owner_datasets",),
         lambda: total_ms("density.load")),
        ("density.oracle_calls", "count", ("density.CoalitionDensityOracle.__call__",),
         lambda: n("density.oracle")),
        ("density.oracle_ms", per_req, ("density.CoalitionDensityOracle.__call__",),
         lambda: total_ms("density.oracle")),
        ("density.fit_calls", "count", ("density.fit_gaussian",), lambda: n("density.fit")),
        ("density.fit_ms", per_req, ("density.fit_gaussian",), lambda: total_ms("density.fit")),
        ("density.fit_points", "rows", ("density.fit_gaussian",),
         lambda: n("density.fit_points")),
        ("density.log_density_ms", per_req, ("density.log_density",),
         lambda: total_ms("density.log_density")),
        ("games.evaluate_calls", "count", evaluate, lambda: n("games.evaluate")),
        ("games.oracle_evals", "count", ("games.CoalitionGame.__init__", "cli.main"),
         lambda: n("games.oracle_evals")),
        ("games.cache_hit_ratio", "ratio",
         evaluate + ("games.CoalitionGame.__init__", "cli.main"),
         lambda: 1.0 - n("games.oracle_evals") / n("games.evaluate")
         if n("games.evaluate") else 0.0),
        ("games.self_ms", per_req, evaluate + oracles, lambda: self_ms("games.evaluate")),
        ("exact.shapley_calls", "count", ("cli.exact_shapley",), lambda: n("exact.shapley")),
        ("exact.shapley_self_ms", per_req, ("cli.exact_shapley",) + evaluate,
         lambda: self_ms("exact.shapley")),
        ("exact.loo_ms", per_req, ("cli.loo_scores",), lambda: total_ms("exact.loo")),
        ("montecarlo.walks", "count", ("montecarlo.truncated_walk",),
         lambda: n("montecarlo.walk")),
        ("montecarlo.self_ms", per_req,
         ("cli.permutation_sample", "montecarlo.truncated_walk",
          "montecarlo.sampled_ordering") + evaluate,
         lambda: self_ms("montecarlo.sample") + self_ms("montecarlo.walk")),
        ("montecarlo.ordering_ms", per_req, ("montecarlo.sampled_ordering",),
         lambda: total_ms("montecarlo.ordering")),
        ("montecarlo.evals_per_walk", "evals/walk",
         ("cli.permutation_sample", "montecarlo.truncated_walk"),
         lambda: n("montecarlo.evals") / n("montecarlo.walk") if n("montecarlo.walk") else 0.0),
        ("montecarlo.workers", "threads", ("cli.permutation_sample",),
         lambda: tracer.maxima.get("montecarlo.workers", 0)),
        ("royalty.split_self_ms", per_req,
         ("cli.developer_split", "royalty.PermissionGame.__init__", "royalty.royalty_shares",
          "cli.exact_shapley", "cli.permutation_sample") + evaluate,
         lambda: self_ms("royalty.split")),
        ("royalty.augmented_evals", "count",
         ("royalty.PermissionGame.__init__", "games.CoalitionGame.__init__", "cli.main"),
         lambda: n("royalty.augmented_evals")),
        ("royalty.shares_ms", per_req, ("cli.royalty_shares", "royalty.royalty_shares"),
         lambda: total_ms("royalty.shares")),
        ("diffusion.estimates", "count", ("diffusion.latent_mc_log_density",),
         lambda: n("diffusion.estimate")),
        ("diffusion.trajectories", "count", ("diffusion.rng_for",),
         lambda: n("diffusion.trajectories")),
        ("diffusion.estimate_ms", per_req, ("diffusion.latent_mc_log_density",),
         lambda: total_ms("diffusion.estimate")),
        ("diffusion.chain_build_ms", per_req, ("diffusion.gaussian_ddpm_chain",),
         lambda: total_ms("diffusion.chain_build")),
        ("ledger.record_calls", "count", ("ledger.LedgerStore.record",),
         lambda: n("ledger.record")),
        ("ledger.record_ms", per_req, ("ledger.LedgerStore.record",),
         lambda: total_ms("ledger.record")),
        ("ledger.fsyncs", "count",
         ("os.fsync", "ledger.LedgerStore.record", "cli.settle_full", "cli.settle_subsampled",
          "cli.write_settlement_csv"),
         lambda: n("fsync.ledger")),
        ("ledger.bytes_appended", "bytes", ("ledger.LedgerStore.__init__", "ledger.LOG_NAME"),
         lambda: n("ledger.bytes_appended")),
        ("ledger.open_ms", per_req, ("ledger.LedgerStore.__init__",),
         lambda: total_ms("ledger.open")),
        ("ledger.lines_replayed", "lines", ("ledger.LedgerStore.__init__", "ledger.LOG_NAME"),
         lambda: n("ledger.lines_replayed")),
        ("ledger.settle_ms", per_req, ("cli.settle_full", "cli.settle_subsampled"),
         lambda: total_ms("ledger.settle")),
        ("ledger.report_ms", per_req, ("cli.write_settlement_csv",),
         lambda: total_ms("ledger.report")),
    ]
    missing = set(tracer.missing)
    return {
        name: (value(), unit)
        for name, unit, needs, value in spec
        if not missing.intersection(needs)
    }
