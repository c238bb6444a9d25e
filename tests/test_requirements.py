"""Requirement dataset loading and chunking."""

import csv
import io
import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from safereq import Requirement, chunk, load_gold_pairs, load_requirements
from safereq.orchestrator import _classified_from_file, _load_gold_labels
from safereq.requirements import read_csv, read_keyed_csv
from safereq.errors import (
    BlankReqIdError,
    DuplicateReqIdError,
    EmptyDatasetError,
    EmptyRequirementTextError,
    InvalidChunkSizeError,
    MalformedCsvError,
    MissingColumnError,
)


def write_csv(tmp_path, body, name="reqs.csv"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def test_load_single_column_keeps_text_verbatim(tmp_path):
    path = write_csv(
        tmp_path,
        "ReqID,Requirements\n"
        "10,The system shall stop.\n"
        '11,"Quoted, with comma."\n',
    )
    rows = load_requirements(path, "ReqID", ["Requirements"])
    assert [r.req_id for r in rows] == ["10", "11"]
    assert rows[0].text == "The system shall stop."
    assert rows[1].text == "Quoted, with comma."


def test_load_multi_column_joins_as_labeled_lines(tmp_path):
    path = write_csv(
        tmp_path,
        "ReqID,Title,Body\n"
        "1,Braking,The system shall brake.\n",
    )
    (row,) = load_requirements(path, "ReqID", ["Title", "Body"])
    assert row.text == "Title: Braking\nBody: The system shall brake."


def test_load_preserves_extra_columns(tmp_path):
    path = write_csv(
        tmp_path,
        "ReqID,Requirements,Source\n"
        "1,The system shall brake.,workshop\n",
    )
    (row,) = load_requirements(path, "ReqID", ["Requirements"])
    assert row.extra["Source"] == "workshop"
    assert row.extra["Requirements"] == "The system shall brake."


def test_load_tolerates_bom_and_embedded_newlines(tmp_path):
    path = write_csv(
        tmp_path,
        '﻿ReqID,Requirements\n1,"line one\nline two"\n',
    )
    (row,) = load_requirements(path, "ReqID", ["Requirements"])
    assert row.text == "line one\nline two"


def test_load_missing_column_names_all_missing(tmp_path):
    path = write_csv(tmp_path, "Id,Text\n1,x\n")
    with pytest.raises(MissingColumnError) as exc:
        load_requirements(path, "ReqID", ["Requirements"])
    assert "ReqID" in str(exc.value)
    assert "Requirements" in str(exc.value)


def test_load_duplicate_id_raises(tmp_path):
    path = write_csv(tmp_path, "ReqID,Requirements\n1,a\n1,b\n")
    with pytest.raises(DuplicateReqIdError):
        load_requirements(path, "ReqID", ["Requirements"])


def test_load_blank_text_raises(tmp_path):
    path = write_csv(tmp_path, "ReqID,Requirements\n1,\n")
    with pytest.raises(EmptyRequirementTextError):
        load_requirements(path, "ReqID", ["Requirements"])


def test_load_blank_id_raises_naming_its_lines(tmp_path):
    path = write_csv(tmp_path, "ReqID,Requirements\n1,a\n ,b\n2,c\n,d\n")
    with pytest.raises(BlankReqIdError, match="blank req_id at rows: 3, 5") as exc:
        load_requirements(path, "ReqID", ["Requirements"])
    assert exc.value.rows == [3, 5]


def test_load_header_only_raises(tmp_path):
    path = write_csv(tmp_path, "ReqID,Requirements\n")
    with pytest.raises(EmptyDatasetError):
        load_requirements(path, "ReqID", ["Requirements"])


# Cells the CSV dialect quotes or splits on, and names a header may repeat.
csv_cells = st.lists(
    st.sampled_from(["a", "b", ",", '"', "\n", "\r\n", " ", "é", "\ufeff", ""]), max_size=4
).map("".join)
csv_names = st.sampled_from(["ReqID", "Text", "Type", "x", ""])


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    header=st.lists(csv_names, max_size=4),
    rows=st.lists(st.lists(csv_cells, max_size=5), max_size=6),
    columns=st.none() | st.lists(csv_names | st.just("absent"), max_size=4),
    bom=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
)
@example(
    header=["x", "Type", "x"],
    rows=[["1", "2", "3"], [], ["4", "5"]],
    columns=["x"],
    bom=True,
    newline="\n",
)
def test_read_csv_reads_as_dict_reader_does(tmp_path, header, rows, columns, bom, newline):
    """Blank rows skipped, short rows read None, a repeated name its last cell."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator=newline)
    writer.writerow(header)
    writer.writerows(rows)  # an empty row is a blank line
    path = tmp_path / "table.csv"
    path.write_text(("\ufeff" if bom else "") + buffer.getvalue(), encoding="utf-8", newline="")

    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.DictReader(handle)
        expected = [(reader.line_num, record) for record in reader]
        names = reader.fieldnames or []
    with read_csv(path, columns) as (got_header, rows):
        got = list(rows)
    assert got_header == names
    assert [line for line, _ in got] == [line for line, _ in expected]
    for (_, cells), (_, record) in zip(got, expected):
        if columns is None:
            named = {k: v for k, v in record.items() if k is not None}
            assert dict(zip(got_header, cells)) == named
        else:
            assert cells == [record.get(name) for name in columns]


# Every reader of a CSV file, each given the columns it needs.
CSV_READERS = {
    "requirements": lambda path: load_requirements(path, "ReqID", ["Text"]),
    "gold pairs": lambda path: load_gold_pairs(path, "duplicate"),
    "classified rows": lambda path: _classified_from_file(path, "ReqID"),
    "gold labels": _load_gold_labels,
}
CSV_HEADER = "ReqID,Text,Function,Type,req_a,req_b\n"
CSV_ROW = "{n},The system shall stop.,NAV,FUNC,{n},0\n"


@pytest.mark.parametrize("read", CSV_READERS.values(), ids=CSV_READERS.keys())
def test_a_field_over_the_csv_limit_names_the_file_and_line(tmp_path, read):
    path = write_csv(tmp_path, CSV_HEADER + CSV_ROW.format(n=1) + '2,"' + "x" * 131_073 + '",NAV,FUNC,1,2\n')
    with pytest.raises(MalformedCsvError) as exc:
        read(path)
    assert str(exc.value) == f"{path}, line 3: field larger than field limit (131072)"


@pytest.mark.parametrize("read", CSV_READERS.values(), ids=CSV_READERS.keys())
@pytest.mark.parametrize("at", [1, 3, 400])
def test_bytes_that_are_not_utf8_name_the_file_and_line(tmp_path, read, at):
    lines = [CSV_HEADER.encode()] + [CSV_ROW.format(n=n).encode() for n in range(1, 400)]
    lines[at - 1] = lines[at - 1].replace(b"stop", b"st\xffop").replace(b"Text", b"T\xffext")
    path = tmp_path / "reqs.csv"
    path.write_bytes(b"".join(lines))
    with pytest.raises(MalformedCsvError) as exc:
        read(path)
    assert str(exc.value) == f"{path}, line {at}: not UTF-8 (invalid start byte)"


# Every reader of a CSV file keyed by ReqID; each needs Function and Type or Text.
KEYED_READERS = {
    name: CSV_READERS[name] for name in ("requirements", "classified rows", "gold labels")
}
KEYED_HEADER = "ReqID,Text,Function,Type\n"


@pytest.mark.parametrize("read", KEYED_READERS.values(), ids=KEYED_READERS.keys())
def test_every_keyed_reader_refuses_a_repeated_id_naming_both_rows(tmp_path, read):
    path = write_csv(tmp_path, KEYED_HEADER + "1,a,NAV,FUNC\n2,b,EN,PROB\n 1 ,c,EN,FUNC\n")
    with pytest.raises(DuplicateReqIdError, match="duplicate req_id '1' at rows 2 and 4"):
        read(path)


@pytest.mark.parametrize("read", KEYED_READERS.values(), ids=KEYED_READERS.keys())
def test_every_keyed_reader_refuses_blank_ids_naming_their_lines(tmp_path, read):
    path = write_csv(tmp_path, KEYED_HEADER + "1,a,NAV,FUNC\n ,b,EN,PROB\n,c,EN,FUNC\n")
    with pytest.raises(BlankReqIdError) as exc:
        read(path)
    assert exc.value.rows == [3, 4]


@pytest.mark.parametrize("read", KEYED_READERS.values(), ids=KEYED_READERS.keys())
def test_every_keyed_reader_refuses_a_file_without_data_rows(tmp_path, read):
    with pytest.raises(EmptyDatasetError):
        read(write_csv(tmp_path, KEYED_HEADER + "\n"))


@pytest.mark.parametrize(
    "name, missing",
    [
        ("requirements", "ReqID, Text"),
        ("classified rows", "ReqID, Function, Type"),
        ("gold labels", "ReqID, Function, Type"),
    ],
)
def test_every_keyed_reader_names_all_its_missing_columns(tmp_path, name, missing):
    path = write_csv(tmp_path, "Id,Kind\n1,a\n")
    with pytest.raises(MissingColumnError) as exc:
        KEYED_READERS[name](path)
    assert str(exc.value) == f"columns missing from {path}: {missing}"


def test_gold_labels_need_a_type_column_and_distinct_ids(tmp_path):
    path = write_csv(tmp_path, "ReqID,Function,Kind\n1,EN,x\n1,NAV,y\n2,NAV,z\n")
    with pytest.raises(MissingColumnError, match="columns missing from .*: Type$"):
        _load_gold_labels(path)
    path.write_text("ReqID,Function,Type\n1,EN,FUNC\n1,NAV,PROB\n2,NAV,FUNC\n")
    with pytest.raises(DuplicateReqIdError, match="rows 2 and 3"):
        _load_gold_labels(path)


def test_a_joined_csv_is_read_for_the_columns_asked_for_only(tmp_path):
    path = write_csv(
        tmp_path,
        "ReqID,Function,Type,Confidence,System Requirement,Flags\n"
        "1, NAV ,FUNC,95,The drone shall hover.,LowConfidence\n",
    )
    (coverage,) = _classified_from_file(path, "ReqID")
    (pair,) = _classified_from_file(path, "ReqID", ("Function", "System Requirement"))
    assert (coverage.function, coverage.rtype, coverage.system_requirement) == ("NAV", "FUNC", "")
    assert (pair.function, pair.rtype, pair.system_requirement) == (
        "NAV", "", "The drone shall hover."
    )
    assert (pair.confidence, pair.flags, pair.function_explanation) == (0, (), "")
    path.write_text("ReqID,Function,Type\n1,NAV,FUNC\n")
    with pytest.raises(MissingColumnError, match="System Requirement"):
        _classified_from_file(path, "ReqID", ("Function", "System Requirement"))


def test_read_keyed_csv_gives_stripped_cells_by_column_with_the_id_first(tmp_path):
    path = write_csv(tmp_path, "x,ReqID,x,Text\n1, a ,2,t\n\n3,b\n")
    lines, table = read_keyed_csv(path, "ReqID", ["Text"])
    assert lines == [2, 4]
    # A repeated name reads its last cell; a short row's missing cells read blank.
    assert table == {"ReqID": ["a", "b"], "x": ["2", ""], "Text": ["t", ""]}
    assert list(table) == ["ReqID", "x", "Text"]


# ---------------------------------------------------------------------------
# Chunking
# ---------------------------------------------------------------------------


def make_rows(n):
    return [Requirement(req_id=str(i), text=f"req {i}") for i in range(n)]


def test_chunk_counts_match_ceiling_arithmetic():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(0, 60)
        size = rng.randint(1, 12)
        chunks = chunk(make_rows(n), size)
        assert len(chunks) == math.ceil(n / size)
        assert [c.index for c in chunks] == list(range(len(chunks)))
        assert all(len(c.rows) == size for c in chunks[:-1])
        rejoined = [r for c in chunks for r in c.rows]
        assert rejoined == make_rows(n)


def test_chunk_110_rows_at_10_gives_11_chunks():
    chunks = chunk(make_rows(110), 10)
    assert len(chunks) == 11
    assert all(len(c.rows) == 10 for c in chunks)


def test_chunk_max_items_truncates_first():
    chunks = chunk(make_rows(25), 10, max_items=15)
    assert [len(c.rows) for c in chunks] == [10, 5]
    assert chunks[1].rows[-1].req_id == "14"


def test_chunk_max_items_zero_yields_nothing():
    assert chunk(make_rows(5), 10, max_items=0) == []


def test_chunk_invalid_sizes_raise():
    with pytest.raises(InvalidChunkSizeError):
        chunk(make_rows(3), 0)
    with pytest.raises(InvalidChunkSizeError):
        chunk(make_rows(3), True)
    with pytest.raises(InvalidChunkSizeError):
        chunk(make_rows(3), 10, max_items=-2)
