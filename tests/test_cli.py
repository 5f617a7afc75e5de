from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import royaltyshare
from royaltyshare import OwnerDataset, save_owner_datasets
from royaltyshare.cache import DigestCache
from royaltyshare.cli import main


def write_config(path, **overrides):
    path.write_text(json.dumps(overrides), encoding="utf-8")
    return str(path)


def additive_config(tmp_path, weights=(2.0, 4.0), **extra):
    return write_config(
        tmp_path / "config.json", oracle={"kind": "additive", "weights": list(weights)}, **extra
    )


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_attribute_additive_report(tmp_path):
    config = additive_config(tmp_path)
    out = tmp_path / "reports"
    assert main(["attribute", "--config", config, "--out", str(out)]) == 0
    rows = read_rows(out / "attribution.csv")
    assert [r["owner_id"] for r in rows] == ["0", "1"]
    assert float(rows[0]["phi"]) == 2.0 and float(rows[1]["phi"]) == 4.0
    assert float(rows[0]["loo"]) == 2.0 and float(rows[1]["loo"]) == 4.0
    assert abs(float(rows[0]["srs"]) - 1.0 / 3.0) <= 1e-12
    assert rows[0]["stderr"] == ""
    meta = json.loads((out / "attribution.meta.json").read_text(encoding="utf-8"))
    assert meta["command"] == "attribute"
    assert meta["solver"] == {"kind": "exact"}
    assert meta["degenerate"] is False
    assert meta["oracle_evaluations"] == 4
    assert "workers" not in json.dumps(meta)


def test_attribute_seed_override_is_echoed(tmp_path):
    config = additive_config(tmp_path)
    out = tmp_path / "reports"
    assert main(["attribute", "--config", config, "--out", str(out), "--seed", "42"]) == 0
    meta = json.loads((out / "attribution.meta.json").read_text(encoding="utf-8"))
    assert meta["config"]["seed"] == 42


def test_attribute_is_reproducible_across_workers(tmp_path):
    config = additive_config(
        tmp_path, solver={"kind": "mc", "permutations": 400}, seed=11
    )
    reports = []
    metas = []
    for name, workers in (("a", "1"), ("b", "4"), ("c", "1")):
        out = tmp_path / name
        code = main(
            ["attribute", "--config", config, "--out", str(out), "--workers", workers]
        )
        assert code == 0
        reports.append((out / "attribution.csv").read_bytes())
        meta = json.loads((out / "attribution.meta.json").read_text(encoding="utf-8"))
        # the output directory is the only part allowed to differ
        meta["config"].pop("out")
        metas.append(meta)
    assert reports[0] == reports[1] == reports[2]
    assert metas[0] == metas[1] == metas[2]


def test_compare_loo_on_duplicate_datasets(tmp_path):
    rng = np.random.default_rng(3)
    points = rng.standard_normal((25, 2))
    dataset = tmp_path / "owners.csv"
    save_owner_datasets(
        dataset,
        [OwnerDataset(owner=0, points=points.copy()), OwnerDataset(owner=1, points=points.copy())],
    )
    config = write_config(tmp_path / "config.json", dataset=str(dataset))
    out = tmp_path / "reports"
    code = main(["compare-loo", "--config", config, "--out", str(out), "--event", "0,0"])
    assert code == 0
    rows = read_rows(out / "compare_loo.csv")
    assert [float(r["loo"]) for r in rows] == [0.0, 0.0]
    for row in rows:
        assert abs(float(row["srs"]) - 0.5) <= 1e-12


def test_developer_share_permission_additive(tmp_path):
    config = additive_config(tmp_path)
    out = tmp_path / "reports"
    assert main(["developer-share", "--config", config, "--out", str(out)]) == 0
    rows = read_rows(out / "developer_share.csv")
    assert rows[-1]["player_id"] == "developer"
    assert abs(float(rows[-1]["srs"]) - 0.5) <= 1e-12
    assert abs(float(rows[0]["payout_fraction"]) - 1.0 / 6.0) <= 1e-12
    meta = json.loads((out / "developer_share.meta.json").read_text(encoding="utf-8"))
    assert abs(meta["beta_data"] - 0.5) <= 1e-12


def test_developer_share_permission_with_the_mc_solver(tmp_path):
    config = additive_config(tmp_path, weights=(2.0, 4.0, 1.0),
                             solver={"kind": "mc", "permutations": 200})
    out = tmp_path / "reports"
    assert main(["developer-share", "--config", config, "--out", str(out)]) == 0
    fractions = [float(r["payout_fraction"]) for r in read_rows(out / "developer_share.csv")]
    assert len(fractions) == 4 and min(fractions) >= 0.0
    assert abs(math.fsum(fractions) - 1.0) <= 1e-12


def test_developer_share_beta_permission_flag_overrides_a_numeric_config_beta(tmp_path):
    reports = []
    for name, beta, flags in (("config", "permission", []),
                              ("flag", 0.6, ["--beta", "permission"])):
        (tmp_path / name).mkdir()
        config = additive_config(tmp_path / name, beta=beta)
        out = tmp_path / name / "reports"
        assert main(["developer-share", "--config", config, "--out", str(out), *flags]) == 0
        meta = json.loads((out / "developer_share.meta.json").read_text(encoding="utf-8"))
        assert meta["config"]["beta"] == "permission"
        assert abs(meta["beta_data"] - 0.5) <= 1e-12
        reports.append((out / "developer_share.csv").read_bytes())
    assert reports[0] == reports[1]


def test_attribute_notes_when_every_shapley_value_is_clamped(tmp_path, capsys):
    config = additive_config(tmp_path, weights=(-1.0, -2.0))
    out = tmp_path / "reports"
    assert main(["attribute", "--config", config, "--out", str(out)]) == 0
    assert ("note: all Shapley values clamped to zero; shares fell back to uniform\n"
            in capsys.readouterr().out)
    assert [float(r["srs"]) for r in read_rows(out / "attribution.csv")] == [0.5, 0.5]
    meta = json.loads((out / "attribution.meta.json").read_text(encoding="utf-8"))
    assert meta["degenerate"] is True


def test_an_exact_solve_of_21_owners_is_exit_2(tmp_path, capsys):
    config = additive_config(tmp_path, weights=[1.0] * 21)
    out = tmp_path / "reports"
    assert main(["attribute", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: 21 players exceeds exact enumeration limit 20\n")
    assert not out.exists()


def test_developer_share_fixed_beta(tmp_path):
    config = additive_config(tmp_path)
    out = tmp_path / "reports"
    code = main(
        ["developer-share", "--config", config, "--out", str(out), "--beta", "0.6"]
    )
    assert code == 0
    rows = read_rows(out / "developer_share.csv")
    assert float(rows[-1]["payout_fraction"]) == pytest.approx(0.4, abs=1e-15)
    assert float(rows[0]["payout_fraction"]) == pytest.approx(0.6 / 3.0, abs=1e-12)
    assert rows[-1]["srs"] == ""


def test_simulate_clusters_then_attribute(tmp_path):
    dataset = tmp_path / "clusters.csv"
    code = main(
        [
            "simulate", "--kind", "clusters", "--layout", "graded",
            "--owners", "3", "--points", "30", "--spacing", "2.0",
            "--seed", "5", "--out", str(dataset),
        ]
    )
    assert code == 0
    assert dataset.is_file()
    meta = json.loads((tmp_path / "clusters.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["layout"] == "graded" and meta["seed"] == 5

    config = write_config(tmp_path / "config.json", dataset=str(dataset))
    out = tmp_path / "reports"
    code = main(["attribute", "--config", config, "--out", str(out), "--event", "0.2,0.1"])
    assert code == 0
    rows = read_rows(out / "attribution.csv")
    assert len(rows) == 3
    total = math.fsum(float(r["srs"]) for r in rows)
    assert abs(total - 1.0) <= 1e-9


def test_simulate_colocated_clusters_writes_that_layout(tmp_path):
    from royaltyshare.synthetic import make_colocated_clusters

    dataset, expected = tmp_path / "clusters.csv", tmp_path / "expected.csv"
    assert main(["simulate", "--kind", "clusters", "--layout", "colocated", "--owners", "3",
                 "--points", "20", "--cluster-std", "0.5", "--offset", "0.25", "--seed", "4",
                 "--out", str(dataset)]) == 0
    save_owner_datasets(expected, make_colocated_clusters(
        num_owners=3, points_per_owner=20, cluster_std=0.5, offset=0.25, dim=2, seed=4))
    assert dataset.read_bytes() == expected.read_bytes()
    meta = json.loads((tmp_path / "clusters.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["layout"] == "colocated" and meta["offset"] == 0.25


def test_simulate_ledger_then_settle(tmp_path):
    ledger = tmp_path / "ledger"
    code = main(
        ["simulate", "--kind", "ledger", "--transactions", "120", "--seed", "9",
         "--out", str(ledger)]
    )
    assert code == 0
    out = tmp_path / "reports"
    code = main(
        ["settle", "--ledger", str(ledger), "--mode", "full", "--beta", "0.7",
         "--out", str(out)]
    )
    assert code == 0
    meta = json.loads((out / "settlement.meta.json").read_text(encoding="utf-8"))
    assert meta["estimator"] == "full"
    assert meta["conservation_error"] <= 1e-9
    assert meta["failed_ids"] == []
    first = (out / "settlement.csv").read_text(encoding="utf-8")
    assert first.startswith("# total_income=120.0 estimator=full")


def test_settle_sample_mode(tmp_path):
    ledger = tmp_path / "ledger"
    assert main(["simulate", "--kind", "ledger", "--transactions", "100",
                 "--seed", "2", "--out", str(ledger)]) == 0
    out = tmp_path / "reports"
    code = main(
        ["settle", "--ledger", str(ledger), "--mode", "sample", "--sample-size", "25",
         "--beta", "0.5", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    meta = json.loads((out / "settlement.meta.json").read_text(encoding="utf-8"))
    assert meta["estimator"] == "subsampled"
    assert meta["sampled_fraction"] == 0.25
    assert meta["conservation_error"] <= 1e-9
    # the report echoes the root seed, not the derived stream seed
    assert "seed=3" in (out / "settlement.csv").read_text(encoding="utf-8").splitlines()[0]


def test_unknown_config_key_is_exit_2(tmp_path):
    config = write_config(tmp_path / "config.json", tyop=True)
    assert main(["attribute", "--config", config]) == 2


def test_settle_requires_numeric_beta(tmp_path, capsys):
    ledger = tmp_path / "ledger"
    assert main(["simulate", "--kind", "ledger", "--transactions", "10",
                 "--out", str(ledger)]) == 0
    assert main(["settle", "--ledger", str(ledger)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: settle needs a numeric beta (config 'beta' or --beta FLOAT); ")


def test_settle_sample_requires_sample_size(tmp_path, capsys):
    ledger = tmp_path / "ledger"
    assert main(["simulate", "--kind", "ledger", "--transactions", "10",
                 "--out", str(ledger)]) == 0
    assert main(["settle", "--ledger", str(ledger), "--mode", "sample",
                 "--beta", "0.5"]) == 2
    assert capsys.readouterr().err == "config error: settle --mode sample needs --sample-size\n"


def test_settle_sample_size_without_sample_mode_is_exit_2_before_the_ledger_opens(
    tmp_path, capsys
):
    ledger, out = tmp_path / "ledger", tmp_path / "out"
    assert main(["simulate", "--kind", "ledger", "--transactions", "10",
                 "--out", str(ledger)]) == 0
    files = {p.name: p.read_bytes() for p in ledger.iterdir()}
    for path, mode in ((ledger, []), (ledger, ["--mode", "full"]), (tmp_path / "absent", [])):
        assert main(["settle", "--ledger", str(path), *mode, "--sample-size", "5",
                     "--beta", "0.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: settle --sample-size needs --mode sample\n")
    assert not out.exists()
    assert {p.name: p.read_bytes() for p in ledger.iterdir()} == files


def test_settle_missing_ledger_is_exit_4(tmp_path):
    assert main(["settle", "--ledger", str(tmp_path / "absent"), "--beta", "0.5"]) == 4


def test_ledger_holding_a_balance_snapshot_is_exit_4(tmp_path, capsys):
    ledger = tmp_path / "ledger"
    assert main(["simulate", "--kind", "ledger", "--transactions", "10",
                 "--out", str(ledger)]) == 0
    # Report sidecars written into the ledger directory are not snapshots.
    for _ in range(2):
        assert main(["settle", "--ledger", str(ledger), "--beta", "0.5",
                     "--out", str(ledger)]) == 0
    (ledger / "state.json").write_text('{"balances": {}}', encoding="utf-8")
    assert main(["settle", "--ledger", str(ledger), "--beta", "0.5",
                 "--out", str(tmp_path / "out")]) == 4
    assert "state.json" in capsys.readouterr().err


def test_settle_drops_a_torn_tail_and_says_so(tmp_path, capsys):
    ledger, out = tmp_path / "ledger", tmp_path / "out"
    assert main(["simulate", "--kind", "ledger", "--transactions", "50",
                 "--out", str(ledger)]) == 0
    log = ledger / "transactions.log"
    sales = log.read_bytes()
    settle = ["settle", "--ledger", str(ledger), "--beta", "0.7", "--out", str(out)]
    assert main(settle) == 0
    data = log.read_bytes()
    log.write_bytes(data[:-30])  # a crash inside the settlement's append
    capsys.readouterr()
    assert main(settle) == 0
    dropped = len(data) - 30 - len(sales)
    assert capsys.readouterr().err == f"ledger: dropped a torn tail of {dropped} bytes\n"
    assert log.read_bytes().startswith(sales)
    meta = json.loads((out / "settlement.meta.json").read_text(encoding="utf-8"))
    assert meta["total_income"] == 50.0 and meta["conservation_error"] <= 1e-9


def hand_built_ledger(path, *lines):
    path.mkdir()
    (path / "transactions.log").write_text("".join(f"{line}\n" for line in lines),
                                           encoding="utf-8")
    return str(path)


def test_settle_with_share_rows_of_different_lengths_is_exit_4(tmp_path, capsys):
    ledger = hand_built_ledger(tmp_path / "ledger", "tx-1|1.0|0.0,0.0|0.5,0.5|0",
                               "tx-2|1.0|0.0,0.0|0.25,0.25,0.5|0")
    assert main(["settle", "--ledger", ledger, "--beta", "0.5",
                 "--out", str(tmp_path / "out")]) == 4
    assert "storage failure: share rows disagree on owner count" in capsys.readouterr().err


def test_settle_sample_with_share_rows_of_different_lengths_is_exit_4(tmp_path, capsys):
    ledger = hand_built_ledger(tmp_path / "ledger", "a|1.0|0.0,0.0|0.5,0.5|0",
                               "b|1.0|0.0,0.0|0.25,0.25,0.5|0")
    log = (tmp_path / "ledger" / "transactions.log").read_bytes()
    out = tmp_path / "out"
    assert main(["settle", "--ledger", ledger, "--mode", "sample", "--sample-size", "1",
                 "--beta", "0.5", "--out", str(out)]) == 4
    assert ("storage failure: share rows disagree on owner count: [2, 3]"
            in capsys.readouterr().err)
    assert (tmp_path / "ledger" / "transactions.log").read_bytes() == log
    assert not (out / "settlement.csv").exists()


def test_a_settled_line_is_its_sale_line_with_only_the_flag_changed(tmp_path):
    # Not the canonical encoding, which would write "tx-1|1.0|0.0,0.0|1.0|0".
    ledger = hand_built_ledger(tmp_path / "ledger", "tx-1|1|0,0|1|0")
    assert main(["settle", "--ledger", ledger, "--mode", "full", "--beta", "0.5",
                 "--out", str(tmp_path / "out")]) == 0
    log = tmp_path / "ledger" / "transactions.log"
    assert log.read_text(encoding="utf-8") == "tx-1|1|0,0|1|0\ntx-1|1|0,0|1|1\n|1|0.5|0.5\n"
    for checkpointed in (True, False):
        if not checkpointed:
            (tmp_path / "ledger" / "transactions.ckpt").unlink()
        reopened = royaltyshare.LedgerStore(ledger, create=False)
        assert reopened.balances == {0: 0.5} and reopened.developer_balance == 0.5
        assert reopened.is_settled("tx-1")


def test_settle_sample_that_fails_attribution_throughout_is_exit_4(tmp_path, capsys):
    ledger = hand_built_ledger(tmp_path / "ledger", "tx-1|1.0|0.0,0.0||0")
    assert main(["settle", "--ledger", ledger, "--mode", "sample", "--sample-size", "1",
                 "--beta", "0.5", "--out", str(tmp_path / "out")]) == 4
    assert ("storage failure: every sampled transaction failed attribution"
            in capsys.readouterr().err)


@pytest.mark.parametrize("line", ["tx-1|1.0|0.0,0.0|nan,1.0|0", "tx-1|1.0|nan,0.0|1.0|0"])
def test_settle_on_a_non_finite_ledger_line_is_exit_4(tmp_path, capsys, line):
    ledger = hand_built_ledger(tmp_path / "ledger", "tx-0|1.0|0.0,0.0|1.0|0", line)
    assert main(["settle", "--ledger", ledger, "--beta", "0.5",
                 "--out", str(tmp_path / "out")]) == 4
    assert "storage failure: malformed ledger line 2" in capsys.readouterr().err


def test_settle_writes_why_each_quarantined_sale_failed(tmp_path):
    ledger = hand_built_ledger(tmp_path / "ledger", "tx-1|1.0|0.0,0.0|1.0|0",
                               "tx-2|2.0|0.0,0.0||0")
    out = tmp_path / "out"
    assert main(["settle", "--ledger", ledger, "--beta", "0.5", "--out", str(out)]) == 0
    meta = json.loads((out / "settlement.meta.json").read_text(encoding="utf-8"))
    assert meta["failed_ids"] == ["tx-2"]
    assert meta["failed_reasons"] == {"tx-2": "no shares and no attributor"}


def test_report_under_a_regular_file_is_exit_4(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    config = additive_config(tmp_path)
    assert main(["attribute", "--config", config, "--out", str(blocker / "reports")]) == 4
    assert capsys.readouterr().err.startswith("storage failure: ")


def test_simulated_dataset_onto_a_directory_is_exit_4(tmp_path, capsys):
    assert main(["simulate", "--kind", "clusters", "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err.startswith("storage failure: ")


_INTEGER_KEYS = ["seed", "solver.permutations", "oracle.steps", "density_mc_samples"]
_NUMBER_KEYS = ["beta", "solver.truncation", "oracle.ridge", "baseline.ridge", "oracle.alpha",
                "oracle.bandwidth"]


@pytest.mark.parametrize(
    "key,value",
    [(key, value) for key in _INTEGER_KEYS for value in ("many", True, 2.5, math.nan)]
    + [(key, value) for key in _NUMBER_KEYS for value in ("many", True, math.nan)],
)
def test_config_value_of_the_wrong_type_is_exit_2(tmp_path, capsys, key, value):
    kind = {"oracle.steps": "gaussian_chain", "oracle.alpha": "gaussian_chain",
            "oracle.bandwidth": "kde"}.get(key, "additive")
    config = {"oracle": {"kind": kind, "weights": [2.0, 4.0]}, "solver": {"kind": "mc"}}
    head, _, field = key.partition(".")
    if field:
        config.setdefault(head, {})[field] = value
    else:
        config[head] = value
    path = write_config(tmp_path / "config.json", **config)
    assert main(["attribute", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [10**23, 2**40])
@pytest.mark.parametrize("key", ["solver.permutations", "oracle.steps", "density_mc_samples"])
def test_config_count_beyond_the_bound_is_exit_2(tmp_path, capsys, key, value):
    kind = "gaussian_chain" if key == "oracle.steps" else "additive"
    config = {"oracle": {"kind": kind, "weights": [2.0, 4.0]}, "solver": {"kind": "mc"}}
    head, _, field = key.partition(".")
    if field:
        config[head][field] = value
    else:
        config[head] = value
    path = write_config(tmp_path / "config.json", **config)
    assert main(["attribute", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"{key} must be at most 2147483647, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_count_flag_beyond_the_bound_is_an_argparse_error(tmp_path, capsys):
    value = "100000000000000000000000"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--kind", "ledger", "--transactions", value,
              "--out", str(tmp_path / "ledger")])
    assert exc.value.code == 2
    assert f"--transactions: must be at most 2147483647, got '{value}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_ECHO_BASE = {"baseline": {"kind": "standard_normal"}, "beta": "permission",
              "dataset": "owners.csv", "density_mc_samples": 20, "out": "out", "seed": 0,
              "solver": {"kind": "exact"}}
_ECHO_WEIGHTS = [2.0, 4.0]


@pytest.mark.parametrize("given, echoed", [
    ({"dataset": None, "oracle": {"kind": "additive", "weights": _ECHO_WEIGHTS}},
     {"dataset": None, "oracle": {"kind": "additive", "ridge": 1e-6, "weights": _ECHO_WEIGHTS}}),
    ({"dataset": None, "oracle": {"kind": "additive", "weights": _ECHO_WEIGHTS},
      "solver": {"kind": "mc"}},
     {"dataset": None, "oracle": {"kind": "additive", "ridge": 1e-6, "weights": _ECHO_WEIGHTS},
      "solver": {"kind": "mc", "permutations": 2000, "truncation": 0.0}}),
    ({"dataset": None, "oracle": {"kind": "additive", "weights": _ECHO_WEIGHTS},
      "solver": {"kind": "mc", "permutations": 30, "truncation": 0.5}},
     {"dataset": None, "oracle": {"kind": "additive", "ridge": 1e-6, "weights": _ECHO_WEIGHTS},
      "solver": {"kind": "mc", "permutations": 30, "truncation": 0.5}}),
    ({}, {"oracle": {"kind": "gaussian_mle", "ridge": 1e-6}}),
    ({"oracle": {"kind": "kde"}}, {"oracle": {"kind": "kde", "ridge": 1e-6}}),
    ({"oracle": {"kind": "kde", "bandwidth": 0.3}},
     {"oracle": {"kind": "kde", "bandwidth": 0.3, "ridge": 1e-6}}),
    ({"oracle": {"kind": "gaussian_chain"}, "density_mc_samples": 2},
     {"oracle": {"kind": "gaussian_chain", "alpha": 0.9, "ridge": 1e-6, "steps": 3},
      "density_mc_samples": 2}),
    ({"oracle": {"kind": "gaussian_chain", "steps": 1, "alpha": 0.5}, "density_mc_samples": 2},
     {"oracle": {"kind": "gaussian_chain", "alpha": 0.5, "ridge": 1e-6, "steps": 1},
      "density_mc_samples": 2}),
    ({"baseline": {"kind": "dataset", "path": "owners.csv"}},
     {"baseline": {"kind": "dataset", "path": "owners.csv", "ridge": 1e-6},
      "oracle": {"kind": "gaussian_mle", "ridge": 1e-6}}),
    ({"baseline": {"kind": "dataset", "path": "owners.csv", "ridge": 0.01}},
     {"baseline": {"kind": "dataset", "path": "owners.csv", "ridge": 0.01},
      "oracle": {"kind": "gaussian_mle", "ridge": 1e-6}}),
])
def test_resolved_config_is_echoed(tmp_path, monkeypatch, given, echoed):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(12)
    save_owner_datasets(
        tmp_path / "owners.csv",
        [OwnerDataset(owner=i, points=rng.standard_normal((8, 2))) for i in range(2)],
    )
    config = write_config(tmp_path / "config.json", **{"dataset": "owners.csv", **given})
    assert main(["attribute", "--config", config, "--out", "out", "--event", "0.1,0.2"]) == 0
    meta = json.loads((tmp_path / "out" / "attribution.meta.json").read_text(encoding="utf-8"))
    assert meta["config"] == {**_ECHO_BASE, **echoed}


@pytest.mark.parametrize("config, key", [
    ({"oracle": {"kind": "additive", "weights": [1.0]}, "solver": "exact"}, "solver"),
    ({"dataset": 5}, "dataset"),
    ({"dataset": "owners.csv", "oracle": {"kind": "gaussian_mle", "bandwidth": "x"}},
     "oracle.bandwidth"),
    ({"dataset": "owners.csv", "oracle": {"kind": "kde", "bandwith": 0.3}}, "oracle.bandwith"),
])
def test_malformed_config_is_exit_2_naming_the_key(tmp_path, capsys, config, key):
    save_owner_datasets(tmp_path / "owners.csv",
                        [OwnerDataset(owner=0, points=np.eye(3, 2))])
    path = write_config(tmp_path / "config.json", **config)
    code = main(["attribute", "--config", path, "--out", str(tmp_path / "out"),
                 "--event", "0,0"])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_size_flags_must_be_positive_integers(tmp_path, capsys):
    out = tmp_path / "clusters.csv"
    for flag, value in (("--dim", "0"), ("--owners", "0"), ("--points", "-3"),
                        ("--dim", "2.5"), ("--owners", "x")):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--kind", "clusters", flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert f"{flag}: must be an integer >= 1, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, need", [
    (["--kind", "clusters", "--spacing", "nan"], "a finite number"),
    (["--kind", "clusters", "--spacing", "inf"], "a finite number"),
    (["--kind", "clusters", "--cluster-std", "-1"], "a finite number > 0"),
    (["--kind", "clusters", "--cluster-std", "0"], "a finite number > 0"),
    (["--kind", "clusters", "--cluster-std", "inf"], "a finite number > 0"),
    (["--kind", "clusters", "--layout", "colocated", "--offset", "inf"], "a finite number"),
    (["--kind", "ledger", "--transactions", "-5"], "an integer >= 1"),
    (["--kind", "ledger", "--transactions", "0"], "an integer >= 1"),
    (["--kind", "ledger", "--transactions", "2.5"], "an integer >= 1"),
    (["--kind", "ledger", "--price", "-1"], "a finite number >= 0"),
    (["--kind", "ledger", "--price", "nan"], "a finite number >= 0"),
    (["--kind", "ledger", "--alpha", "abc"], "a finite number > 0"),
    (["--kind", "ledger", "--alpha", "nan"], "a finite number > 0"),
    (["--kind", "ledger", "--alpha", "-1"], "a finite number > 0"),
])
def test_simulate_rejects_bad_shape_flags_at_parse_time(tmp_path, capsys, args, need):
    out = tmp_path / "fixture"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", *args, "--out", str(out)])
    assert exc.value.code == 2
    assert f"{args[-2]}: must be {need}, got '{args[-1]}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_ledger_twice_is_exit_4(tmp_path):
    ledger = tmp_path / "ledger"
    args = ["simulate", "--kind", "ledger", "--transactions", "5", "--out", str(ledger)]
    assert main(args) == 0
    assert main(args) == 4


def test_simulate_refuses_a_ledger_with_transactions_without_decoding_it(
    tmp_path, capsys, monkeypatch
):
    from royaltyshare import ledger as ledger_module

    ledger = tmp_path / "ledger"
    args = ["simulate", "--kind", "ledger", "--transactions", "50", "--out", str(ledger)]
    assert main(args) == 0
    assert main(["settle", "--ledger", str(ledger), "--beta", "0.5",
                 "--out", str(tmp_path / "out")]) == 0
    log = (ledger / "transactions.log").read_bytes()
    real, decoded = ledger_module._decode_line, []
    monkeypatch.setattr(ledger_module, "_decode_line",
                        lambda line: decoded.append(line) or real(line))
    assert main(args) == 4
    assert f"storage failure: {ledger} already holds transactions" in capsys.readouterr().err
    assert decoded == []
    assert (ledger / "transactions.log").read_bytes() == log


def test_simulate_accepts_a_ledger_whose_only_record_is_an_empty_settlement(tmp_path):
    ledger = tmp_path / "ledger"
    # The record that earlier versions appended for a settlement of nothing.
    ledger.mkdir()
    (ledger / "transactions.log").write_text("|0||0.0\n", encoding="utf-8")
    assert main(["simulate", "--kind", "ledger", "--transactions", "5", "--out", str(ledger)]) == 0
    assert len(royaltyshare.LedgerStore(ledger, create=False).unsettled()) == 5


def test_simulate_alpha_needs_one_value_per_owner(tmp_path, capsys):
    ledger = tmp_path / "ledger"
    assert main(["simulate", "--kind", "ledger", "--owners", "3", "--alpha", "1,2",
                 "--out", str(ledger)]) == 2
    assert "config error: --alpha has 2 values for 3 owners" in capsys.readouterr().err
    assert not ledger.exists()


def test_settle_sample_size_outside_the_pool_is_exit_2(tmp_path, capsys):
    ledger, out = tmp_path / "ledger", tmp_path / "out"
    assert main(["simulate", "--kind", "ledger", "--transactions", "10",
                 "--out", str(ledger)]) == 0
    log = (ledger / "transactions.log").read_bytes()
    for size in ("0", "11"):
        assert main(["settle", "--ledger", str(ledger), "--mode", "sample", "--sample-size", size,
                     "--beta", "0.5", "--out", str(out)]) == 2
        assert (f"config error: --sample-size must lie in [1, 10], the unsettled pool, got {size}"
                in capsys.readouterr().err)
    assert not out.exists() and (ledger / "transactions.log").read_bytes() == log


def test_settle_sample_size_is_checked_again_against_the_pool_under_the_lock(
    tmp_path, capsys, monkeypatch
):
    from royaltyshare import cli

    ledger, out = tmp_path / "ledger", tmp_path / "out"
    assert main(["simulate", "--kind", "ledger", "--transactions", "10",
                 "--out", str(ledger)]) == 0
    real_settle, logs = cli.settle_subsampled, []

    def settled_elsewhere_first(store, *args, **kwargs):
        royaltyshare.settle_full(royaltyshare.LedgerStore(ledger, create=False), 0.5)
        logs.append((ledger / "transactions.log").read_bytes())
        return real_settle(store, *args, **kwargs)

    monkeypatch.setattr(cli, "settle_subsampled", settled_elsewhere_first)
    assert main(["settle", "--ledger", str(ledger), "--mode", "sample", "--sample-size", "2",
                 "--beta", "0.5", "--out", str(out)]) == 2
    assert ("config error: --sample-size must lie in [1, 0], the unsettled pool, got 2"
            in capsys.readouterr().err)
    assert logs == [(ledger / "transactions.log").read_bytes()]  # it committed nothing
    assert royaltyshare.LedgerStore(ledger, create=False).settlement_count == 1


def test_config_that_is_not_utf8_is_exit_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"seed": "\xff"}')
    assert main(["attribute", "--config", str(config)]) == 2
    assert "config error: config is not valid UTF-8 JSON" in capsys.readouterr().err


def test_simulate_requires_out(tmp_path):
    assert main(["simulate", "--kind", "clusters"]) == 2


@pytest.mark.parametrize("config, event, message", [
    (None, "0,0", "config file not found: "),
    ([1, 2], "0,0", "config root must be a JSON object"),
    ({"dataset": "owners.csv"}, "0,zero", "--event must be comma-separated numbers: "),
    ({"dataset": "owners.csv"}, "nan,0", "--event coordinates must be finite"),
    ({"dataset": "absent.csv"}, "0,0", "dataset not found: "),
    ({"dataset": "owners.csv", "baseline": {"kind": "dataset", "path": "absent.csv"}}, "0,0",
     "baseline dataset not found: "),
    ({}, "0,0", "oracle.kind 'gaussian_mle' requires a 'dataset' path"),
    ({"oracle": {"kind": "additive"}}, "0,0",
     "oracle.weights is required when the kind is 'additive'"),
    # An integer beyond the float range, which math.isfinite cannot convert.
    ({"beta": 10**400}, "0,0",
     "beta must be 'permission' or a number in [0, 1], got 1" + "0" * 400),
])
def test_input_errors_are_exit_2_with_their_message(tmp_path, capsys, config, event, message):
    save_owner_datasets(tmp_path / "owners.csv", [OwnerDataset(owner=0, points=np.eye(2))])
    path = tmp_path / "config.json"
    if config is not None:
        path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "reports"
    assert main(["attribute", "--config", str(path), "--event", event, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1
    if message.endswith("not found: "):
        assert err.endswith(f"{tmp_path / ('config.json' if config is None else 'absent.csv')}\n")
    assert not out.exists()


def test_missing_dataset_is_exit_2(tmp_path):
    config = write_config(tmp_path / "config.json", dataset="nowhere.csv")
    assert main(["attribute", "--config", config, "--event", "0,0"]) == 2


def test_dataset_oracle_requires_event(tmp_path):
    dataset = tmp_path / "owners.csv"
    save_owner_datasets(dataset, [OwnerDataset(owner=0, points=np.zeros((3, 2)))])
    config = write_config(tmp_path / "config.json", dataset=str(dataset))
    assert main(["attribute", "--config", config]) == 2


def test_event_dimension_mismatch_is_exit_2(tmp_path):
    dataset = tmp_path / "owners.csv"
    save_owner_datasets(dataset, [OwnerDataset(owner=0, points=np.zeros((3, 2)))])
    config = write_config(tmp_path / "config.json", dataset=str(dataset))
    assert main(["attribute", "--config", config, "--event", "1,2,3"]) == 2


@pytest.mark.parametrize(
    "command, report",
    [("attribute", "attribution"), ("developer-share", "developer_share"),
     ("compare-loo", "compare_loo")],
)
def test_event_with_negative_first_coordinate(tmp_path, command, report):
    dataset = tmp_path / "owners.csv"
    rng = np.random.default_rng(8)
    save_owner_datasets(
        dataset,
        [OwnerDataset(owner=i, points=rng.standard_normal((10, 2))) for i in range(2)],
    )
    config = write_config(tmp_path / "config.json", dataset=str(dataset))
    out = tmp_path / "reports"
    code = main([command, "--config", config, "--out", str(out), "--event", "-0.1,0.2"])
    assert code == 0
    meta = json.loads((out / f"{report}.meta.json").read_text(encoding="utf-8"))
    assert meta["event"] == [-0.1, 0.2]


def test_non_finite_dataset_coordinate_is_exit_3(tmp_path, capsys):
    dataset = tmp_path / "owners.csv"
    dataset.write_text(
        "owner_id,label,x0,x1\n0,,0.5,1.0\n0,,nan,2.0\n1,,0.0,0.0\n", encoding="utf-8"
    )
    config = write_config(tmp_path / "config.json", dataset=str(dataset))
    assert main(["attribute", "--config", config, "--event", "0,0"]) == 3
    err = capsys.readouterr().err
    assert "oracle failure" in err and f"{dataset}: line 3" in err


# Owners, dimension, each owner's scale exponent and the event's: coordinates
# are uniform in ±10**k, so they are finite for every k from -320 to 308.
SCALES = [
    (1, 1, [-320], -320),
    (2, 2, [-300, 0], 0),
    (3, 3, [-150, -150, -150], 150),
    (2, 1, [0, 0], 308),
    (3, 2, [100, 100, 100], 100),
    (4, 3, [150, 0, -10, 150], 150),
    (1, 2, [154], 0),
    (2, 3, [200, 200], 200),
    (4, 2, [308, 0, 0, 0], -1),
    (3, 1, [-320, 10, 150], -320),
    (2, 2, [0, 0], -320),
    (4, 3, [-10, -1, 0, 1], 1),
]


@pytest.mark.parametrize("command", ["attribute", "developer-share"])
@pytest.mark.parametrize("solver", [{"kind": "exact"}, {"kind": "mc", "permutations": 3}])
@pytest.mark.parametrize("kind", ["gaussian_mle", "kde", "gaussian_chain"])
def test_finite_data_at_any_scale_exits_0_2_or_3_and_reports_only_finite_numbers(
        tmp_path, kind, solver, command):
    config = write_config(tmp_path / "config.json", dataset="owners.csv", oracle={"kind": kind},
                          solver=solver, density_mc_samples=2)
    stem, column = (("attribution", "srs") if command == "attribute"
                    else ("developer_share", "payout_fraction"))
    rng = np.random.default_rng(5)
    codes = []
    for n, d, owner_exponents, event_exponent in SCALES:
        save_owner_datasets(tmp_path / "owners.csv", [
            OwnerDataset(owner=i, points=rng.uniform(-1.0, 1.0, (3, d)) * 10.0**k)
            for i, k in enumerate(owner_exponents)])
        event = ",".join(map(repr, (rng.uniform(-1.0, 1.0, d) * 10.0**event_exponent).tolist()))
        out = tmp_path / f"out{len(codes)}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([command, "--config", config, f"--event={event}", "--out", str(out)])
        assert code in (0, 2, 3), (n, d, owner_exponents, event_exponent)
        codes.append(code)
        if code == 0:
            rows = read_rows(out / f"{stem}.csv")
            cells = [v for row in rows for key, v in row.items()
                     if key not in ("owner_id", "player_id") and v]
            assert all(math.isfinite(float(v)) for v in cells), rows
            assert abs(math.fsum(float(row[column]) for row in rows) - 1.0) <= 1e-9, rows
    assert 0 in codes and 3 in codes


@pytest.mark.parametrize("rows, message", [
    ("0,,0.5,1.0\n2,,0.0,0.0\n0,,1.0,1.0\n", "line 3: owner ids must be dense"),
    ("0,,0.5,1.0\nzero,,0.0,0.0\n", "line 3: owner id 'zero' is not an integer"),
])
def test_bad_dataset_owner_ids_are_exit_3(tmp_path, capsys, rows, message):
    dataset = tmp_path / "owners.csv"
    dataset.write_text("owner_id,label,x0,x1\n" + rows, encoding="utf-8")
    config = write_config(tmp_path / "config.json", dataset=str(dataset))
    assert main(["attribute", "--config", config, "--event", "0,0"]) == 3
    err = capsys.readouterr().err
    assert "oracle failure" in err and f"{dataset}: {message}" in err


@pytest.mark.parametrize("content, message", [
    (b"owner_id,label,x0,x1\n0,,0.5,1.0\n0,,abc,2.0\n", "line 3: a coordinate is not a number"),
    (b"owner_id,label,x0,x1\n0,\xff,0.5,1.0\n", "not UTF-8 text"),
])
def test_dataset_that_does_not_parse_is_exit_3(tmp_path, capsys, content, message):
    dataset = tmp_path / "owners.csv"
    dataset.write_bytes(content)
    config = write_config(tmp_path / "config.json", dataset=str(dataset))
    assert main(["attribute", "--config", config, "--event", "0,0"]) == 3
    err = capsys.readouterr().err
    assert "oracle failure" in err and f"{dataset}: {message}" in err


@pytest.mark.parametrize("bad", ["dataset", "baseline"])
def test_dataset_not_utf8_past_its_first_rows_is_exit_3(tmp_path, capsys, bad):
    # The invalid byte stands after many whole rows, well past any read buffer.
    rows = "".join(f"{k % 2},,{k}.5,1.0\n" for k in range(10000))
    content = ("owner_id,label,x0,x1\n" + rows).encode("utf-8") + b"0,\xe9,0.5,1.0\n"
    good, broken = tmp_path / "good.csv", tmp_path / "broken.csv"
    good.write_text("owner_id,label,x0,x1\n0,,0.5,1.0\n1,,1.5,2.0\n", encoding="utf-8")
    broken.write_bytes(content)
    if bad == "dataset":
        config = write_config(tmp_path / "config.json", dataset=str(broken))
    else:
        config = write_config(tmp_path / "config.json", dataset=str(good),
                              baseline={"kind": "dataset", "path": str(broken)})
    assert main(["attribute", "--config", config, "--event", "0,0"]) == 3
    err = capsys.readouterr().err
    assert "oracle failure" in err and f"{broken}: not UTF-8 text" in err


@pytest.mark.parametrize("content, message", [
    ("owner_id,label,x0,x1\n0,,0.5,1.0\n\n0,,1.0\n", "line 4: row width 3 != 4"),
    ("owner_id,label\n0,a\n", "the header names no coordinate column"),
])
def test_dataset_of_the_wrong_shape_is_exit_3(tmp_path, capsys, content, message):
    dataset = tmp_path / "owners.csv"
    dataset.write_text(content, encoding="utf-8")
    config = write_config(tmp_path / "config.json", dataset=str(dataset))
    assert main(["attribute", "--config", config, "--event", "0,0"]) == 3
    err = capsys.readouterr().err
    assert "oracle failure" in err and f"{dataset}: {message}" in err


@pytest.mark.parametrize("empty", ["dataset", "baseline"])
def test_dataset_csv_without_rows_is_exit_3(tmp_path, capsys, empty):
    header_only = tmp_path / "empty.csv"
    header_only.write_text("owner_id,label,x0,x1\n", encoding="utf-8")
    dataset = tmp_path / "owners.csv"
    save_owner_datasets(dataset, [OwnerDataset(owner=0, points=np.eye(2))])
    if empty == "dataset":
        config = write_config(tmp_path / "config.json", dataset=str(header_only))
    else:
        config = write_config(tmp_path / "config.json", dataset=str(dataset),
                              baseline={"kind": "dataset", "path": str(header_only)})
    assert main(["attribute", "--config", config, "--event", "0,0"]) == 3
    err = capsys.readouterr().err
    assert "oracle failure" in err and f"{header_only}: the dataset has a header but no rows" in err


def test_cli_path_imports_no_test_only_package(tmp_path):
    script = """
import json, sys
sys.modules["scipy"] = sys.modules["hypothesis"] = None
from royaltyshare.cli import main
runs = [
    ["simulate", "--kind", "clusters", "--owners", "3", "--points", "12", "--out", "owners.csv"],
    ["attribute", "--config", "mle.json", "--out", "mle", "--event", "0.2,0.1"],
    ["attribute", "--config", "chain.json", "--out", "chain", "--event", "0.2,0.1"],
    ["developer-share", "--config", "mle.json", "--out", "dev", "--event", "0.2,0.1"],
    ["simulate", "--kind", "ledger", "--transactions", "20", "--out", "ledger"],
    ["settle", "--ledger", "ledger", "--beta", "0.7", "--out", "settled"],
]
json.dump({"dataset": "owners.csv"}, open("mle.json", "w"))
json.dump({"dataset": "owners.csv", "oracle": {"kind": "gaussian_chain"}}, open("chain.json", "w"))
print(json.dumps([main(argv) for argv in runs]))
"""
    # The child runs in tmp_path, so give it this package's location as an absolute path.
    package_root = str(Path(royaltyshare.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [package_root, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * 6


def test_invalid_beta_flag_is_an_argparse_error(tmp_path):
    config = additive_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["developer-share", "--config", config, "--beta", "half"])
    assert exc.value.code == 2


def test_console_module_entry_point(tmp_path):
    config = additive_config(tmp_path)
    out = tmp_path / "reports"
    proc = subprocess.run(
        [sys.executable, "-m", "royaltyshare.cli", "attribute",
         "--config", config, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "attribution.csv").is_file()
    assert "wrote" in proc.stdout


def test_linear_algebra_failure_in_the_fit_is_exit_3(tmp_path, monkeypatch, capsys):
    from royaltyshare import density

    factor, fits_rejected = density._cholesky_logdet, []

    def reject(covs):
        # The baseline model factors its covariance too; only the coalition fit fails.
        if sys._getframe(1).f_code.co_name != "_fit_rows":
            return factor(covs)
        fits_rejected.append(len(covs))
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    # Empty caches, so the fit runs whatever test filled them first.
    for name in ("_DATASETS", "_FITS"):
        monkeypatch.setattr(density, name, DigestCache(density._CACHE_SIZE))
    monkeypatch.setattr(density, "_cholesky_logdet", reject)
    dataset = tmp_path / "owners.csv"
    rng = np.random.default_rng(4)
    save_owner_datasets(
        dataset,
        [OwnerDataset(owner=i, points=rng.standard_normal((6, 2))) for i in range(2)],
    )
    config = write_config(tmp_path / "config.json", dataset=str(dataset))
    assert main(["attribute", "--config", config, "--event", "0,0"]) == 3
    assert "oracle failure: Matrix is not positive definite" in capsys.readouterr().err
    assert fits_rejected == [3]


def test_covariance_floor_coalitions_are_echoed_in_sidecars(tmp_path):
    dataset = tmp_path / "owners.csv"
    rng = np.random.default_rng(6)
    save_owner_datasets(
        dataset,
        [OwnerDataset(owner=0, points=np.array([[0.5, -1.0]]))]
        + [OwnerDataset(owner=i, points=rng.standard_normal((6, 2))) for i in (1, 2)],
    )
    config = write_config(
        tmp_path / "config.json", dataset=str(dataset),
        oracle={"kind": "gaussian_mle", "ridge": 0.0},
    )
    runs = []
    for command, report in (("attribute", "attribution"), ("developer-share", "developer_share"),
                            ("compare-loo", "compare_loo"), ("attribute", "attribution")):
        out = tmp_path / f"run{len(runs)}"
        args = [command, "--config", config, "--out", str(out), "--event", "0.1,0.2",
                "--seed", "7"]
        assert main(args) == 0
        meta = (out / f"{report}.meta.json").read_text(encoding="utf-8")
        assert json.loads(meta)["covariance_floor_coalitions"] == [[0]]
        assert json.loads(meta)["conditioning_fallbacks"] == []
        runs.append(((out / f"{report}.csv").read_bytes(), meta.replace(str(out), "OUT")))
    assert runs[0] == runs[3]


# sha256 of every file each run leaves under --out, sidecars included. A change
# to any report byte changes them. The additive oracle sums with fsum, so these
# bytes do not depend on the platform's arithmetic.
GOLDEN_REPORT_DIGESTS = {
    "attribute_exact/attribution.csv":
        "bae796671c1a5d248cae0f00f81aebb8596ae57075de94c7e3a45f2db7684a55",
    "attribute_exact/attribution.meta.json":
        "b8da6147cd5ee1f237b00de296c3e79c7d9f00efd0d86fcfbc8c35e75893cb59",
    "attribute_mc/attribution.csv":
        "60325eafeacc697b20311ec2702d9d7125d4fdaac1c1bd31ee12613c2d3a488e",
    "attribute_mc/attribution.meta.json":
        "6dae4988b5237b271de069ae87e767d081aba0e5a4b9ff130e26cb80d2293b77",
    "compare_loo/compare_loo.csv":
        "c95560ec5d4d5a00f731e8ff0f7722b8b8cac9cc4afc06103ac3849550a85303",
    "compare_loo/compare_loo.meta.json":
        "9bbd3019994439a002b139ddd15498e9974220529307284e190716425e63536b",
    "developer_fixed/developer_share.csv":
        "bb6f310b2b01972f4540ac7daf6face20dff889694331b9392e55202200bae37",
    "developer_fixed/developer_share.meta.json":
        "ba914b8160f75f37b79af2c1b606c9b97abd43ca9ba2fa9d0c439826bfcd7816",
    "developer_permission/developer_share.csv":
        "8d26b689696284fb57f5cb90a9b9bc8a2e9caa176c56bb2a4de3d326841d1409",
    "developer_permission/developer_share.meta.json":
        "e9f35303857e6a43a4498142c9cc84ce68761632be13c0dd992c3c40f9478e63",
    "settle_full/settlement.csv":
        "0e5515f19f8d1284d284f6d11d2fee752efa0ea859a4f6c89318a338ca1aec46",
    "settle_full/settlement.meta.json":
        "9a5918fc88f7a49704001f2704b68391bc332f60066e41e62d2c75c492106b53",
    "settle_sample/settlement.csv":
        "3557908753d19b3eb63107ae49f340b48f1caa46801db48c48627013e9304c6e",
    "settle_sample/settlement.meta.json":
        "c18c94edc5aff06bca071e4d156c4a2450f667b6f82d8acbcef5ccc101e2a615",
}


_GOLDEN_CONFIG = ["--config", "config.json"]
GOLDEN_RUNS = {
    "attribute_exact": ["attribute", *_GOLDEN_CONFIG, "--solver", "exact"],
    "attribute_mc": ["attribute", *_GOLDEN_CONFIG, "--solver", "mc", "--permutations", "200"],
    "developer_permission": ["developer-share", *_GOLDEN_CONFIG],
    "developer_fixed": ["developer-share", *_GOLDEN_CONFIG, "--beta", "0.6"],
    "compare_loo": ["compare-loo", *_GOLDEN_CONFIG],
    "settle_full": ["settle", "--ledger", "ledger_full", "--mode", "full", "--beta", "0.7"],
    "settle_sample": ["settle", "--ledger", "ledger_sample", "--mode", "sample",
                      "--sample-size", "15", "--beta", "0.7"],
}


def test_reports_match_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_config(
        tmp_path / "config.json",
        oracle={"kind": "additive", "weights": [0.75, -0.5, 2.25, 1.0, 0.125]}, seed=23,
    )
    for ledger in ("ledger_full", "ledger_sample"):
        assert main(["simulate", "--kind", "ledger", "--transactions", "40", "--owners", "3",
                     "--seed", "23", "--out", ledger]) == 0
    digests = {}
    for name, argv in GOLDEN_RUNS.items():
        assert main([*argv, "--seed", "23", "--out", f"out_{name}"]) == 0, name
        for path in sorted((tmp_path / f"out_{name}").rglob("*")):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == GOLDEN_REPORT_DIGESTS
