from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from royaltyshare import OwnerDataset, save_owner_datasets
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


def test_settle_requires_numeric_beta(tmp_path):
    ledger = tmp_path / "ledger"
    assert main(["simulate", "--kind", "ledger", "--transactions", "10",
                 "--out", str(ledger)]) == 0
    assert main(["settle", "--ledger", str(ledger)]) == 2


def test_settle_sample_requires_sample_size(tmp_path):
    ledger = tmp_path / "ledger"
    assert main(["simulate", "--kind", "ledger", "--transactions", "10",
                 "--out", str(ledger)]) == 0
    assert main(["settle", "--ledger", str(ledger), "--mode", "sample",
                 "--beta", "0.5"]) == 2


def test_settle_missing_ledger_is_exit_4(tmp_path):
    assert main(["settle", "--ledger", str(tmp_path / "absent"), "--beta", "0.5"]) == 4


def test_simulate_ledger_twice_is_exit_4(tmp_path):
    ledger = tmp_path / "ledger"
    args = ["simulate", "--kind", "ledger", "--transactions", "5", "--out", str(ledger)]
    assert main(args) == 0
    assert main(args) == 4


def test_simulate_requires_out(tmp_path):
    assert main(["simulate", "--kind", "clusters"]) == 2


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


def test_invalid_beta_flag_is_an_argparse_error(tmp_path):
    config = additive_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["attribute", "--config", config, "--beta", "half"])
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

    def reject(covs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

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
