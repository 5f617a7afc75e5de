"""Self-test of the benchmark: every workload at tiny size, all output checks on.

Run from the repository root (takes about a minute):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
from layertrace import EXACT_COUNTERS, Tracer, layer_metrics  # noqa: E402

# Layers that do work on each workload; their metrics must read above zero.
WORKING_LAYERS = {
    "attribute-gauss": {"cli", "density", "games", "exact", "royalty", "diffusion", "ledger",
                        "trace"},
    "attribute-additive": {"cli", "games", "exact", "montecarlo", "royalty", "trace"},
}


def _run(workload: str, trace: int, seconds: int, cwd: Path = ROOT) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode == 0, done.stderr
    *_, info_line, result_line = done.stdout.splitlines()
    return json.loads(info_line)["info"], json.loads(result_line)


def _check_result(result: dict, expected: list[dict]) -> dict[str, float]:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_workload_names_match_the_benchmark():
    assert WORKLOADS == list(WORKING_LAYERS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    info, result = _run(workload, trace=0, seconds=1)
    values = _check_result(result, SPEC["end_to_end"])
    assert all(v > 0 for v in values.values()), values
    assert info["samples"] >= 100
    assert len(info["report_sha256"]) == 64
    assert {"nproc", "python", "numpy", "scipy", "ledger_fs"} <= set(info["machine"])
    assert set(info["reference_loop_ms"]) == {"before", "after"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_repeats_exact_counters(workload):
    first_info, first = _run(workload, trace=1, seconds=2)
    second_info, second = _run(workload, trace=1, seconds=2)
    values = _check_result(first, SPEC["per_layer"])
    _check_result(second, SPEC["per_layer"])
    assert first_info["missing_wrap_targets"] == []
    assert first_info["exact_counters_repeat"] and second_info["exact_counters_repeat"]
    working = WORKING_LAYERS[workload]
    idle = {k: v for k, v in values.items()
            if k.partition(".")[0] in working and not v > 0}
    assert not idle, f"layers that work on {workload} read zero: {idle}"
    for name in EXACT_COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first_info["report_sha256"] == second_info["report_sha256"]


def test_refuses_to_run_without_the_package():
    (BENCH / "_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=BENCH / "_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170, check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_missing_wrap_target_drops_only_the_metrics_that_need_it():
    sys.path.insert(0, str(ROOT / "src"))
    from royaltyshare import cli, density, diffusion, games, ledger, montecarlo, royalty

    # A royalty module that no longer has PermissionGame, as after a rename.
    renamed = types.SimpleNamespace(royalty_shares=royalty.royalty_shares)
    main, evaluate = cli.main, games.CoalitionGame.evaluate
    tracer = Tracer()
    tracer.install({"cli": cli, "density": density, "diffusion": diffusion, "games": games,
                    "ledger": ledger, "montecarlo": montecarlo, "royalty": renamed})
    tracer.uninstall()
    assert tracer.missing == ["royalty.PermissionGame.__init__"]
    assert cli.main is main and games.CoalitionGame.evaluate is evaluate  # wraps undone
    metrics = layer_metrics(tracer, {}, {}, 1)
    assert "royalty.augmented_evals" not in metrics
    assert "royalty.split_self_ms" not in metrics
    expected = {m["name"] for m in SPEC["per_layer"]} - {
        "royalty.augmented_evals", "royalty.split_self_ms",
        "ledger.settle_tx_per_s", "trace.overhead_ratio"}
    assert set(metrics) == expected
