"""CSV-backed requirement datasets and prompt-sized chunking."""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Sequence

from .errors import (
    BlankReqIdError,
    DuplicateReqIdError,
    EmptyDatasetError,
    EmptyRequirementTextError,
    InvalidChunkSizeError,
    MalformedCsvError,
    MissingColumnError,
)


@dataclass
class Requirement:
    """One stakeholder requirement row."""

    req_id: str
    text: str
    extra: dict[str, str] = field(default_factory=dict)


@dataclass
class RequirementChunk:
    index: int
    rows: tuple[Requirement, ...]


@contextmanager
def read_csv(
    path: str | Path, columns: Sequence[str] | None = None
) -> Iterator[tuple[list[str], Iterator[tuple[int, list[str | None]]]]]:
    """Read an RFC-4180 CSV file as csv.DictReader does, without a dict per row.

    Gives the header and an iterator over the data rows, each as the line
    it ends on (the reader's line_num) and its cells under columns, or
    under the whole header when columns is None. As with DictReader, blank
    rows are skipped, a name the header repeats reads its last cell, and a
    cell past a short row's end, or under a name the header lacks, reads
    None. A UTF-8 BOM and quoted embedded newlines are tolerated. Rows are
    read as they are iterated, and the file closes with the with block.

    Raises:
        MalformedCsvError: as it is read, a line that is not UTF-8 or that
            the csv module rejects (a field over its size limit, say); the
            message names the file and the line.
    """
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        checked = _checked(reader, path)
        header = next(checked, [])
        width = len(header)
        last = {name: i for i, name in enumerate(header)}
        at = None if columns is None else [last.get(name, width) for name in columns]

        def rows() -> Iterator[tuple[int, list[str | None]]]:
            for row in checked:
                if not row:
                    continue
                if len(row) != width:
                    row = row[:width] + [None] * (width - len(row))
                if at is not None:
                    row.append(None)  # the cell of any name the header lacks
                    row = [row[i] for i in at]
                yield reader.line_num, row

        yield header, rows()


def _checked(reader: Iterator[list[str]], path: str | Path) -> Iterator[list[str]]:
    """reader's rows, with its csv and decoding errors as MalformedCsvError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise MalformedCsvError(f"{path}, line {reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # The file is decoded in blocks, so find the line in its bytes.
        data = Path(path).read_bytes()
        start = exc.start  # the offset in one block, until the whole file is decoded
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as first:
            start = first.start
        line = data.count(b"\n", 0, start) + 1
        raise MalformedCsvError(f"{path}, line {line}: not UTF-8 ({exc.reason})") from exc


def require_columns(path: str | Path, header: Sequence[str], names: Sequence[str]) -> None:
    """Raise MissingColumnError naming every one of names that header lacks."""
    missing = [name for name in names if name not in header]
    if missing:
        raise MissingColumnError(f"columns missing from {path}: " + ", ".join(missing))


def read_keyed_csv(
    path: str | Path, id_column: str, columns: Sequence[str]
) -> tuple[list[int], dict[str, list[str]]]:
    """Read a CSV file keyed by id_column by the one set of rules for such files.

    Gives the line each data row ends on and the rows' stripped cells by
    column: id_column's, then every other header name's, in header order.
    Rows are read as read_csv reads them, the whole file before any id.

    Raises:
        MissingColumnError: id_column or columns absent from the header, all named.
        MalformedCsvError: a line that is not UTF-8 or not readable CSV.
        DuplicateReqIdError: the same id on two rows (the first two named).
        BlankReqIdError: rows whose id is blank.
        EmptyDatasetError: a header but no data rows.
    """
    with read_csv(path) as (header, table):
        require_columns(path, header, [id_column, *columns])
        body = list(table)
    if not body:
        raise EmptyDatasetError(f"no data rows in {path}")
    lines = list(map(itemgetter(0), body))
    rows = list(map(itemgetter(1), body))
    last = {name: i for i, name in enumerate(header)}
    cells: dict[str, list[str]] = {}
    for name in dict.fromkeys([id_column, *header]):
        column = list(map(itemgetter(last[name]), rows))
        if None in column:  # the cells past a short row's end
            column = [cell or "" for cell in column]
        cells[name] = list(map(str.strip, column))

    ids = cells[id_column]
    if len(set(ids)) < len(ids) or "" in ids:
        first_row_of: dict[str, int] = {}
        for line, req_id in zip(lines, ids):
            if req_id and req_id in first_row_of:
                raise DuplicateReqIdError(req_id, first_row_of[req_id], line)
            first_row_of[req_id] = line
        raise BlankReqIdError([line for line, req_id in zip(lines, ids) if not req_id])
    return lines, cells


def load_requirements(
    path: str | Path, id_column: str, data_columns: list[str]
) -> list[Requirement]:
    """Load one Requirement per data row, in order, by read_keyed_csv's rules.

    A single data column becomes the text verbatim; several are joined as
    "column: value" lines, which is also how prompts will render them.
    Every column but the id lands in extra.

    Raises:
        the errors of read_keyed_csv, then
        EmptyRequirementTextError: rows whose data columns are all blank.
    """
    lines, table = read_keyed_csv(path, id_column, data_columns)
    rows: list[Requirement] = []
    blank_rows: list[int] = []
    for line, cells in zip(lines, zip(*table.values())):
        row = dict(zip(table, cells))
        values = [(col, row[col]) for col in data_columns]
        if not any(v for _, v in values):
            blank_rows.append(line)
            continue
        if len(values) == 1:
            text = values[0][1]
        else:
            text = "\n".join(f"{col}: {v}" for col, v in values)
        req_id = row.pop(id_column)
        rows.append(Requirement(req_id=req_id, text=text, extra=row))
    if blank_rows:
        raise EmptyRequirementTextError(blank_rows)
    return rows


def chunk(
    requirements: list[Requirement], chunk_size: int, max_items: int = -1
) -> list[RequirementChunk]:
    """Split requirements into order-preserving chunks of chunk_size.

    max_items truncates the input first; -1 means no limit. The final
    chunk may be short. Concatenating all chunks reproduces the
    (truncated) input exactly.
    """
    if not isinstance(chunk_size, int) or isinstance(chunk_size, bool) or chunk_size < 1:
        raise InvalidChunkSizeError(f"chunk_size must be a positive integer, got {chunk_size!r}")
    if not isinstance(max_items, int) or isinstance(max_items, bool) or max_items < -1:
        raise InvalidChunkSizeError(f"max_items must be -1 or >= 0, got {max_items!r}")
    selected = requirements if max_items == -1 else requirements[:max_items]
    return [
        RequirementChunk(index=i, rows=tuple(selected[start : start + chunk_size]))
        for i, start in enumerate(range(0, len(selected), chunk_size))
    ]
