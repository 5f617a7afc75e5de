"""The dataset CSV: round trips, row order, odd numbers and the lines errors name."""

from __future__ import annotations

import csv
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from royaltyshare import (
    DimensionMismatchError,
    NonFiniteError,
    OwnerDataset,
    load_owner_datasets,
    save_owner_datasets,
)

EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]

coordinates = st.one_of(st.sampled_from(EDGE_VALUES),
                        st.floats(allow_nan=False, allow_infinity=False))
# Commas, quotes and newlines make csv quote a label; "" stands for no label.
labels = st.one_of(st.just(""), st.text(alphabet=st.sampled_from(list('ab ,"\n\'é')),
                                        min_size=1, max_size=5))


@st.composite
def owner_rows(draw):
    """Rows ``(owner, label, point)`` of 1-4 owners with 1-5 points each, in shuffled order."""
    d = draw(st.integers(1, 3))
    rows = []
    for owner in range(draw(st.integers(1, 4))):
        labeled = draw(st.booleans())
        for _ in range(draw(st.integers(1, 5))):
            rows.append((owner, draw(labels) if labeled else "",
                         draw(st.lists(coordinates, min_size=d, max_size=d))))
    return d, draw(st.permutations(rows))


def write_rows(path: Path, d: int, rows) -> None:
    """The CSV ``save_owner_datasets`` writes, with its rows in the given order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["owner_id", "label"] + [f"x{j}" for j in range(d)])
        for owner, label, point in rows:
            writer.writerow([owner, label] + [repr(v) for v in point])


def expected_datasets(rows) -> list[OwnerDataset]:
    """Each owner's rows in file order; all-empty labels read back as None."""
    out = []
    for owner in range(1 + max(row[0] for row in rows)):
        mine = [row for row in rows if row[0] == owner]
        owner_labels = tuple(row[1] for row in mine)
        out.append(OwnerDataset(owner=owner, points=np.array([row[2] for row in mine]),
                                labels=owner_labels if any(owner_labels) else None))
    return out


def assert_same_datasets(loaded, expected) -> None:
    assert [ds.owner for ds in loaded] == [ds.owner for ds in expected]
    for got, want in zip(loaded, expected):
        assert got.points.dtype == np.float64 and got.points.shape == want.points.shape
        assert got.points.tobytes() == want.points.tobytes()
        assert got.labels == want.labels


@settings(max_examples=150, deadline=None)
@given(owner_rows())
def test_datasets_round_trip_bit_for_bit_in_any_row_order(data):
    d, rows = data
    expected = expected_datasets(rows)
    with tempfile.TemporaryDirectory() as tmp:
        shuffled, saved = Path(tmp) / "shuffled.csv", Path(tmp) / "saved.csv"
        write_rows(shuffled, d, rows)
        assert_same_datasets(load_owner_datasets(shuffled), expected)
        save_owner_datasets(saved, expected)
        assert_same_datasets(load_owner_datasets(saved), expected)


@pytest.mark.parametrize("text", ["1_0", " 1.5", "infinity", "0x1p3", "", "-0", "1e400"])
def test_a_coordinate_parses_exactly_as_float_does(tmp_path, text):
    path = tmp_path / "owners.csv"
    path.write_text(f"owner_id,label,x0,x1\n0,,0.5,1.0\n0,a,{text},2.0\n", encoding="utf-8")
    try:
        value = float(text)
    except ValueError:
        with pytest.raises(DimensionMismatchError, match="line 3: a coordinate is not a number"):
            load_owner_datasets(path)
        return
    if not np.isfinite(value):
        with pytest.raises(NonFiniteError, match="line 3 has a non-finite coordinate"):
            load_owner_datasets(path)
        return
    (ds,) = load_owner_datasets(path)
    assert ds.points.tobytes() == np.array([[0.5, 1.0], [value, 2.0]]).tobytes()


# Line 3 is blank and the label of the row on lines 4-5 spans both, so the
# row after it ends on line 6; a bad row there is named by line 6.
PREFIX = 'owner_id,label,x0,x1\n0,a,0.5,1.0\n\n1,"two\nlines",2.0,3.0\n'


@pytest.mark.parametrize("row, error, message", [
    ("1,b,0.0\n", DimensionMismatchError, "line 6: row width 3 != 4"),
    ("one,b,0.0,1.0\n", DimensionMismatchError, "line 6: owner id 'one' is not an integer"),
    ("1,b,0.0,x\n", DimensionMismatchError, "line 6: a coordinate is not a number"),
    ("1,b,0.0,nan\n", NonFiniteError, "line 6 has a non-finite coordinate"),
    ("3,b,0.0,1.0\n", DimensionMismatchError, "line 6: owner ids must be dense"),
    ("1,\"x\ny\",0.0,-inf\n", NonFiniteError, "line 7 has a non-finite coordinate"),
])
def test_errors_name_the_line_across_blank_lines_and_quoted_labels(tmp_path, row, error, message):
    path = tmp_path / "owners.csv"
    path.write_text(PREFIX + row + "\n1,c,4.0,5.0\n", encoding="utf-8")
    with pytest.raises(error, match=f"{re.escape(str(path))}: {message}"):
        load_owner_datasets(path)
    path.write_text(PREFIX + "1,c,4.0,5.0\n", encoding="utf-8")
    loaded = load_owner_datasets(path)
    assert loaded[1].labels == ("two\nlines", "c")


@pytest.mark.parametrize("rows, error, message", [
    # The first bad row is named, whatever the kinds of the faults.
    ("0,,nan,1.0\n0,,1.0\n", NonFiniteError, "line 2 has"),
    ("0,,1.0\nzero,,nan,1.0\n", DimensionMismatchError, "line 2: row width"),
    ("0,,x,1.0\nzero,,1.0,1.0\n", DimensionMismatchError, "line 2: a coordinate"),
    ("zero,,x,1.0\n0,,nan,1.0\n", DimensionMismatchError, "line 2: owner id 'zero'"),
    # Within a row, width comes before the id, the id before the coordinates.
    ("zero,,x\n", DimensionMismatchError, "line 2: row width"),
    ("zero,,x,nan\n", DimensionMismatchError, "line 2: owner id"),
    ("0,,x,nan\n", DimensionMismatchError, "line 2: a coordinate"),
    # A bad row anywhere comes before ids that are not dense.
    ("5,,1.0,1.0\n0,,1.0,inf\n", NonFiniteError, "line 3 has"),
])
def test_the_first_bad_row_is_named(tmp_path, rows, error, message):
    path = tmp_path / "owners.csv"
    path.write_text("owner_id,label,x0,x1\n" + rows, encoding="utf-8")
    with pytest.raises(error, match=f"{re.escape(str(path))}: {message}"):
        load_owner_datasets(path)


def test_an_owner_id_beyond_int64_is_not_dense(tmp_path):
    path = tmp_path / "owners.csv"
    path.write_text("owner_id,label,x0\n0,,1.0\n99999999999999999999999,,2.0\n",
                    encoding="utf-8")
    message = "line 3: owner ids must be dense 0..n-1, got [0, 99999999999999999999999]"
    with pytest.raises(DimensionMismatchError, match=re.escape(f"{path}: {message}")):
        load_owner_datasets(path)


def test_a_header_without_coordinates_is_rejected(tmp_path):
    path = tmp_path / "owners.csv"
    path.write_text("owner_id,label\n0,a\n", encoding="utf-8")
    with pytest.raises(DimensionMismatchError,
                       match=f"{re.escape(str(path))}: the header names no coordinate column"):
        load_owner_datasets(path)


def test_a_file_rewritten_with_one_digit_changed_loads_the_new_points(tmp_path):
    path = tmp_path / "owners.csv"
    path.write_text("owner_id,label,x0\n0,,1.25\n1,,2.5\n", encoding="utf-8")
    assert load_owner_datasets(path)[1].points.tolist() == [[2.5]]
    size = path.stat().st_size
    path.write_text("owner_id,label,x0\n0,,1.25\n1,,2.7\n", encoding="utf-8")
    assert path.stat().st_size == size
    assert load_owner_datasets(path)[1].points.tolist() == [[2.7]]


@pytest.mark.parametrize("content, error, message", [
    (b"owner_id,label,x0\n0,,1.0\n0,,x\n", DimensionMismatchError,
     "line 3: a coordinate is not a number"),
    (b"owner_id,label,x0\n0,,1.0\n0,\xff,2.0\n", DimensionMismatchError, "not UTF-8 text"),
])
def test_a_bad_file_fails_on_every_call_until_it_is_fixed(tmp_path, content, error, message):
    path = tmp_path / "owners.csv"
    path.write_bytes(content)
    for _ in range(3):
        with pytest.raises(error, match=f"{re.escape(str(path))}: {message}"):
            load_owner_datasets(path)
    path.write_bytes(b"owner_id,label,x0\n0,,1.0\n0,a,2.0\n")
    (ds,) = load_owner_datasets(path)
    assert ds.points.tolist() == [[1.0], [2.0]] and ds.labels == ("", "a")


def test_writing_into_returned_points_does_not_change_the_next_load(tmp_path):
    path = tmp_path / "owners.csv"
    path.write_text("owner_id,label,x0,x1\n1,,3.0,4.0\n0,,1.0,2.0\n", encoding="utf-8")
    first = load_owner_datasets(path)
    for ds in first:
        ds.points[:] = -1.0
    assert [ds.points.tolist() for ds in load_owner_datasets(path)] == [[[1.0, 2.0]],
                                                                        [[3.0, 4.0]]]
