"""royaltyshare benchmark: one closed-loop client, one process.

Usage (from the repository root):

    python3 bench/run.py --workload attribute-gauss --seed 1 --seconds 40 --trace 0

Each request is sent when the previous one returns. The only extra threads
are the Monte Carlo walk pool on ``attribute-additive``, one per CPU. The
program is imported from ``src/`` of the checkout this file sits in and sees
only the fixtures, configs and events generated from ``--seed``.

``--trace 0`` times a stream of fresh requests for ``--seconds`` (and at
least ``MIN_SAMPLES`` requests, so that ten lie above the 90th percentile)
and reports the end-to-end metrics. ``--trace 1`` repeats a fixed pass of
requests, untraced for the first half of ``--seconds`` and traced for the
second, and reports per-layer metrics (see layertrace.py) and the tracing
overhead; it fails the run if an exact counter differs between two traced
passes. Every request's output is checked in both modes.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``. The
line before it is ``{"info": {...}}``: the machine, a reference loop timed
before and after, the sha256 of the report bytes of the first pass, and
counts that explain the result. Exit status is 0 when a result was printed.
"""

from __future__ import annotations

from time import perf_counter

_START = perf_counter()  # set-up time counts from here: imports come next

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / "_work"

MIN_SAMPLES = 100
SETUP_PROBES = 4  # set-ups repeated in fresh processes; setup_s is the median
HARD_STOP_S = 150.0  # a run never times past this, whatever it still lacks


def _fs_type(path: Path) -> str:
    """Filesystem type of ``path``, from the mount table."""
    best, fs = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1].replace("\\040", " ")
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fs = mount, parts[2]
    except OSError:
        pass
    return fs


def reference_loop_ms() -> float:
    """Median time of a fixed pure-Python loop; tells machine drift from code change."""
    times = []
    for _ in range(5):
        start = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(1000.0 * (perf_counter() - start))
    return statistics.median(times)


def _p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile: the ``ceil(0.9 n)``-th smallest value."""
    ordered = sorted(values)
    return ordered[(9 * len(ordered) + 9) // 10 - 1]


def _import_package():
    sys.path.insert(0, str(SRC))
    import royaltyshare
    from royaltyshare import cli, density, diffusion, games, ledger, montecarlo, royalty

    if Path(royaltyshare.__file__).resolve().parent != SRC / "royaltyshare":
        raise ImportError(f"royaltyshare came from {royaltyshare.__file__}, not {SRC}")
    return royaltyshare, {
        "cli": cli, "density": density, "diffusion": diffusion, "games": games,
        "ledger": ledger, "montecarlo": montecarlo, "royalty": royalty,
    }


def _set_up(args, work: Path):
    """Imports, fixtures and the warm-up request.

    Returns the workload, its stats, the set-up seconds and the package modules.
    """
    import workloads

    api, pkg = _import_package()
    cli = workloads.Cli(pkg["cli"])
    workload = workloads.make(args.workload, cli, work, args.seed, args.size == "tiny", api)
    workload.setup()
    stats = workloads.Stats()
    workload.warmup(stats)
    return workload, stats, perf_counter() - _START, pkg


def _probe_setup(args) -> float:
    """Set-up time of the same workload in a fresh process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _time_stream(workload, stats, seconds: float) -> float:
    """Closed loop over fresh units until time is up; returns the wall time."""
    start = perf_counter()
    index = 0
    while True:
        elapsed = perf_counter() - start
        enough = elapsed >= seconds and len(stats.latencies) >= MIN_SAMPLES
        if enough or elapsed >= HARD_STOP_S:
            return elapsed
        stats.hash_reports = index < workload.pass_units
        workload.unit(index, stats)
        index += 1


def _run_pass(workload, stats, tracer=None) -> None:
    for index in range(workload.pass_units):
        workload.unit(index, stats)
        if tracer is not None:
            tracer.flush()


def end_to_end(args, workload, stats, setup_s: float) -> tuple[dict, dict]:
    setups = [setup_s] + [_probe_setup(args) for _ in range(SETUP_PROBES)]
    stats.latencies.clear()
    wall = _time_stream(workload, stats, args.seconds)
    lat_ms = [1000.0 * s for s in stats.latencies]
    metrics = {
        "request_p50_ms": (statistics.median(lat_ms), "ms"),
        "request_p90_ms": (_p90(lat_ms), "ms"),
        "requests_per_s": (len(lat_ms) / wall, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "samples": len(lat_ms),
        "timed_wall_s": wall,
        "setup_samples_s": setups,
        "error_rate": stats.failed / stats.attempted,
    }
    if stats.settle_s:
        info["settle_tx_per_s"] = stats.settled_tx / stats.settle_s
    return metrics, info


def traced(args, workload, stats, pkg) -> tuple[dict, dict]:
    import layertrace

    half = args.seconds / 2.0
    stats.latencies.clear()
    start, passes = perf_counter(), 0
    while passes < 1 or perf_counter() - start < half:
        _run_pass(workload, stats)
        passes += 1
    untraced_per_req = (perf_counter() - start) / len(stats.latencies)

    tracer = layertrace.Tracer()
    stats.tracer = tracer
    stats.latencies.clear()
    stats.settled_tx, stats.settle_s = 0, 0.0
    tracer.install(pkg)
    try:
        start, pass_counts, before = perf_counter(), [], {}
        while len(pass_counts) < 2 or perf_counter() - start < half:
            stats.hash_reports = not pass_counts
            _run_pass(workload, stats, tracer)
            after = tracer.totals()
            pass_counts.append({k: v[0] - before.get(k, (0,))[0] for k, v in after.items()})
            before = after
        traced_wall = perf_counter() - start
    finally:
        tracer.uninstall()
        stats.tracer = None

    requests = len(stats.latencies)
    first = {k: (n, 0.0, 0.0) for k, n in pass_counts[0].items()}
    metrics = layertrace.layer_metrics(tracer, first, tracer.totals(), requests)
    exact = {k: metrics[k][0] for k in layertrace.EXACT_COUNTERS if k in metrics}
    repeat = []
    for counts in pass_counts[1:]:
        again = layertrace.layer_metrics(
            tracer, {k: (n, 0.0, 0.0) for k, n in counts.items()}, {}, 1)
        repeat.append({k: again[k][0] for k in exact} == exact)
    metrics["ledger.settle_tx_per_s"] = (
        stats.settled_tx / stats.settle_s if stats.settle_s else 0.0, "tx/s")
    metrics["trace.overhead_ratio"] = ((traced_wall / requests) / untraced_per_req, "ratio")
    info = {
        "traced_passes": len(pass_counts),
        "requests_per_pass": requests // len(pass_counts),
        "untraced_passes": passes,
        "spans_kept": len(tracer.spans),
        "missing_wrap_targets": tracer.missing,
        "exact_counters": exact,
        "exact_counters_repeat": all(repeat),
    }
    return metrics, info


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["attribute-gauss", "attribute-additive"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: small inputs, for the benchmark's self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "royaltyshare" / "__init__.py").is_file():
        print(f"no royaltyshare package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        workload, stats, setup_s, pkg = _set_up(args, work)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        fs = _fs_type(work.resolve())
        if fs == "tmpfs":
            print("warning: the ledger directory is on tmpfs; fsync costs nothing there",
                  file=sys.stderr)
        import numpy
        import scipy
        import workloads

        machine = {
            "nproc": workloads.nproc(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "ledger_fs": fs,
            "platform": platform.platform(),
        }
        ref_before = reference_loop_ms()
        if args.trace:
            metrics, info = traced(args, workload, stats, pkg)
        else:
            metrics, info = end_to_end(args, workload, stats, setup_s)
        ref_after = reference_loop_ms()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "machine": machine,
        "reference_loop_ms": {"before": ref_before, "after": ref_after},
        "report_sha256": stats.digest.hexdigest(),
        "first_failure": stats.first_failure,
    })
    correct = stats.failed == 0 and info.get("exact_counters_repeat", True)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
