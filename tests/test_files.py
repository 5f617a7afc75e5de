"""Whole-file replacement of reports, sidecars, dataset CSVs and the ledger checkpoint."""

from __future__ import annotations

import dataclasses
import errno
import json
import os

import numpy as np
import pytest

from royaltyshare import (
    GenerationEvent,
    LedgerStore,
    OwnerDataset,
    Transaction,
    files,
    save_owner_datasets,
)
from royaltyshare.cli import main
from royaltyshare.ledger import CHECKPOINT_NAME, LOG_NAME


def write_config(path, **entries):
    path.write_text(json.dumps(entries), encoding="utf-8")
    return str(path)


def contents(directory):
    """Every file in ``directory``, dotfiles included, by name."""
    return {name: (directory / name).read_bytes() for name in os.listdir(directory)}


class FullDisk:
    """A file whose write stores half of the data, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def fail_at(stage, monkeypatch):
    if stage == "write":
        monkeypatch.setattr(files, "open", lambda path, mode: FullDisk(open(path, mode)),
                            raising=False)
    else:
        def replace(src, dst):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "replace", replace)


def _attribute(tmp_path, weights):
    config = write_config(tmp_path / "config.json",
                          oracle={"kind": "additive", "weights": weights})
    return main(["attribute", "--config", config, "--out", str(tmp_path / "out")])


def _settle(tmp_path):
    ledger = tmp_path / "ledger"
    if not ledger.exists():
        assert main(["simulate", "--kind", "ledger", "--transactions", "10",
                     "--out", str(ledger)]) == 0
    # The second settle finds an empty pool, so its report differs from the first's.
    return main(["settle", "--ledger", str(ledger), "--beta", "0.7",
                 "--out", str(tmp_path / "out")])


def _save(tmp_path, points):
    (tmp_path / "out").mkdir(exist_ok=True)
    save_owner_datasets(tmp_path / "out" / "owners.csv",
                        [OwnerDataset(owner=0, points=np.array(points))])
    return 0


WRITERS = {
    "attribute": (lambda p: _attribute(p, [2.0, 4.0]), lambda p: _attribute(p, [1.0, 3.0])),
    "settle": (_settle, _settle),
    "dataset": (lambda p: _save(p, [[0.0, 1.0]] * 4), lambda p: _save(p, [[2.0, 3.0]] * 8)),
}


@pytest.mark.parametrize("stage", ["write", "replace"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path, monkeypatch,
                                                             writer, stage):
    first, second = WRITERS[writer]
    assert first(tmp_path) == 0
    before = contents(tmp_path / "out")
    fail_at(stage, monkeypatch)
    if writer == "dataset":
        with pytest.raises(OSError):
            second(tmp_path)
    else:
        assert second(tmp_path) == 4
    assert contents(tmp_path / "out") == before


def test_a_failed_first_write_leaves_no_file(tmp_path, monkeypatch):
    target = tmp_path / "report.csv"
    for stage in ("write", "replace"):
        with monkeypatch.context() as m:
            fail_at(stage, m)
            with pytest.raises(OSError):
                files.replace_file(target, "a,b\n", durable=False)
        assert os.listdir(tmp_path) == []


def test_each_command_leaves_exactly_its_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--kind", "clusters", "--owners", "3", "--points", "6",
                 "--out", "data/owners.csv"]) == 0
    assert sorted(os.listdir("data")) == ["owners.csv", "owners.csv.meta.json"]
    config = write_config(tmp_path / "config.json", dataset="data/owners.csv")
    for command, stem in (("attribute", "attribution"), ("developer-share", "developer_share"),
                          ("compare-loo", "compare_loo")):
        for _ in range(2):  # a new report, then one that replaces it
            assert main([command, "--config", config, "--out", command,
                         "--event", "0.5,0.5"]) == 0
        assert sorted(os.listdir(command)) == [f"{stem}.csv", f"{stem}.meta.json"]
    assert main(["simulate", "--kind", "ledger", "--transactions", "10",
                 "--out", "ledger"]) == 0
    assert sorted(os.listdir("ledger")) == [LOG_NAME]
    for _ in range(2):
        assert main(["settle", "--ledger", "ledger", "--beta", "0.7", "--out", "settled"]) == 0
    assert sorted(os.listdir("settled")) == ["settlement.csv", "settlement.meta.json"]
    assert sorted(os.listdir("ledger")) == sorted([LOG_NAME, CHECKPOINT_NAME])
    assert sorted(os.listdir()) == ["attribute", "compare-loo", "config.json", "data",
                                    "developer-share", "ledger", "ledger.meta.json", "settled"]


def test_a_new_report_takes_its_mode_from_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        with open(tmp_path / "probe", "w"):
            pass
        assert _attribute(tmp_path, [2.0, 4.0]) == 0
        assert _settle(tmp_path) == 0
    finally:
        os.umask(old)
    expected = (tmp_path / "probe").stat().st_mode & 0o777
    assert expected == 0o640
    for name in ("attribution.csv", "attribution.meta.json",
                 "settlement.csv", "settlement.meta.json"):
        assert (tmp_path / "out" / name).stat().st_mode & 0o777 == expected, name


def test_a_temp_name_is_hidden_beside_its_target_and_never_json(tmp_path, monkeypatch):
    moves = []
    real_replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: (moves.append((src, dst)),
                                                         real_replace(src, dst))[1])
    ledger = tmp_path / "ledger"
    assert main(["simulate", "--kind", "ledger", "--transactions", "10",
                 "--out", str(ledger)]) == 0
    # A settle whose reports go into the ledger directory, then one that opens it again.
    for _ in range(2):
        assert main(["settle", "--ledger", str(ledger), "--beta", "0.7",
                     "--out", str(ledger)]) == 0
    targets = sorted({os.path.basename(dst) for _, dst in moves})
    assert targets == sorted([CHECKPOINT_NAME, "ledger.meta.json", "settlement.csv",
                              "settlement.meta.json"])
    for src, dst in moves:
        assert os.path.dirname(src) == os.path.dirname(dst)
        name = os.path.basename(src)
        assert name.startswith(f".{os.path.basename(dst)}.") and name.endswith(".tmp")
        assert not name.endswith(".json")
    assert len({src for src, _ in moves}) == len(moves)
    # What a crash between a temp file's write and its rename leaves does not
    # stop the ledger from opening.
    for src, _ in moves:
        if os.path.dirname(src) == str(ledger):
            with open(src, "w", encoding="utf-8") as fh:
                fh.write("{}")
    assert LedgerStore(ledger, create=False).settlement_count == 1  # the second settles nothing


def _counted_fsyncs(monkeypatch):
    """The (device, inode) of each file or directory that ``os.fsync`` is called on."""
    synced = []
    real_fsync = os.fsync

    def fsync(fd):
        stat = os.fstat(fd)
        synced.append((stat.st_dev, stat.st_ino))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return synced


def _identity(path):
    stat = os.stat(path)
    return stat.st_dev, stat.st_ino


def test_only_settle_and_ledger_appends_fsync(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    synced = _counted_fsyncs(monkeypatch)
    assert main(["simulate", "--kind", "clusters", "--owners", "3", "--points", "6",
                 "--out", "owners.csv"]) == 0
    config = write_config(tmp_path / "config.json", dataset="owners.csv")
    for command in ("attribute", "developer-share", "compare-loo"):
        for _ in range(2):
            assert main([command, "--config", config, "--out", "out", "--event", "0,0"]) == 0
    assert synced == []
    assert main(["simulate", "--kind", "ledger", "--transactions", "10", "--out", "ledger"]) == 0
    # The new ledger directory's name, the one append, and the new log's name.
    assert synced == [_identity("."), _identity("ledger/transactions.log"), _identity("ledger")]
    synced.clear()
    for settles in (True, False):  # the second settle finds nothing to settle
        assert main(["settle", "--ledger", "ledger", "--beta", "0.7", "--out", "settled"]) == 0
        directory = _identity("settled")
        assert synced == [
            *[_identity("ledger/transactions.log")] * settles,  # the settlement's append
            _identity("settled/settlement.csv"), directory,
            _identity("settled/settlement.meta.json"), directory,
        ]
        synced.clear()


def test_a_new_ledger_fsyncs_the_directory_entries_it_makes(tmp_path, monkeypatch):
    synced = _counted_fsyncs(monkeypatch)
    path = tmp_path / "ledger"
    store = LedgerStore(path)
    LedgerStore(path)  # a directory made already adds no name
    assert synced == [_identity(tmp_path)]  # the parent, which holds the new directory's name
    synced.clear()
    sales = [Transaction(id=f"t{k}", price=1.0, event=GenerationEvent(x=np.zeros(2)))
             for k in range(2)]
    store.record(sales[0])
    assert synced == [_identity(path / LOG_NAME), _identity(path)]  # the append, the log's name
    synced.clear()
    store.record(sales[1])
    assert synced == [_identity(path / LOG_NAME)]


def test_a_settle_whose_report_fails_says_the_settlement_is_committed(tmp_path, monkeypatch,
                                                                      capsys):
    ledger = tmp_path / "ledger"
    assert main(["simulate", "--kind", "ledger", "--transactions", "10", "--price", "1.5",
                 "--out", str(ledger)]) == 0
    settle = ["settle", "--ledger", str(ledger), "--beta", "0.7", "--out", str(tmp_path / "out")]
    with monkeypatch.context() as m:
        fail_at("replace", m)
        assert main(settle) == 4
    err = capsys.readouterr().err
    assert err.startswith("storage failure: the settlement of 10 transactions (15.0 income) "
                          "is committed to the ledger, but its report was not written in full:")
    assert os.listdir(tmp_path / "out") == []
    store = LedgerStore(ledger, create=False)
    assert store.unsettled() == [] and store.settlement_count == 1
    assert store.developer_balance == pytest.approx(0.3 * 15.0)
    # A retry settles what is left: nothing.
    assert main(settle) == 0
    assert (tmp_path / "out" / "settlement.csv").read_text(encoding="utf-8").startswith(
        "# total_income=0.0 estimator=full")


def test_a_failed_report_counts_the_sales_recorded_elsewhere_right_before_the_settle(
    tmp_path, monkeypatch, capsys
):
    from royaltyshare import cli

    ledger = tmp_path / "ledger"
    assert main(["simulate", "--kind", "ledger", "--transactions", "10", "--price", "1.5",
                 "--out", str(ledger)]) == 0
    real_settle = cli.settle_full

    def recorded_elsewhere_first(store, *args, **kwargs):
        other = LedgerStore(ledger, create=False)
        sale = other.unsettled()[0]
        other.record_many(dataclasses.replace(sale, id=f"late-{k}") for k in range(3))
        return real_settle(store, *args, **kwargs)

    monkeypatch.setattr(cli, "settle_full", recorded_elsewhere_first)
    fail_at("replace", monkeypatch)
    assert main(["settle", "--ledger", str(ledger), "--beta", "0.7",
                 "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err.startswith(
        "storage failure: the settlement of 13 transactions (19.5 income) is committed")
    assert LedgerStore(ledger, create=False).unsettled() == []


def test_a_settle_whose_out_cannot_be_made_commits_nothing(tmp_path):
    ledger = tmp_path / "ledger"
    assert main(["simulate", "--kind", "ledger", "--transactions", "10",
                 "--out", str(ledger)]) == 0
    (tmp_path / "file").write_text("", encoding="utf-8")
    assert main(["settle", "--ledger", str(ledger), "--beta", "0.7",
                 "--out", str(tmp_path / "file" / "out")]) == 4
    assert len(LedgerStore(ledger, create=False).unsettled()) == 10


def test_a_symlinked_report_is_replaced_not_written_through(tmp_path):
    target = tmp_path / "elsewhere.csv"
    target.write_text("kept\n", encoding="utf-8")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "attribution.csv").symlink_to(target)
    assert _attribute(tmp_path, [2.0, 4.0]) == 0
    report = tmp_path / "out" / "attribution.csv"
    assert not report.is_symlink()
    assert report.read_text(encoding="utf-8").startswith("owner_id,phi,stderr,loo,srs\n")
    assert target.read_text(encoding="utf-8") == "kept\n"
