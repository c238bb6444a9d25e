"""Report-set emission: the four analysis reports plus summary and metrics.

All writers are deterministic: emitting the same artifacts with the same
version tag twice produces byte-identical files. Nothing here embeds
wall-clock time; the version tag is the only run identifier.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Sequence, TextIO

from . import __version__
from .catalog import CATCH_ALL_ALIAS, FunctionCatalog
from .classify import (
    CLASSIFIED_COLUMNS,
    ClassifiedRequirement,
    classified_table,
)
from .coverage import COVERAGE_COLUMNS, CoverageMatrix, coverage_cells, gap_ranking
from .errors import SafereqError
from .pairwise import PAIR_COLUMNS, PairFinding, finding_cells

DEFAULT_THRESHOLDS = {
    "subsystem_identification": 90.0,
    "classification": 80.0,
    "duplicates": 80.0,
    "contradictions": 80.0,
    "stability": 80.0,
}

_NOT_RUN = "_Not run._"


@dataclass
class MetricRow:
    metric: str
    value: float
    threshold: float
    passed: bool


@dataclass
class ReportInputs:
    """Everything emit_report_set may render.

    None, or no scores, marks a part as not run.
    """

    classified: Sequence[ClassifiedRequirement] | None = None
    catalog: FunctionCatalog | None = None
    coverage: CoverageMatrix | None = None
    duplicates: Sequence[PairFinding] | None = None
    contradictions: Sequence[PairFinding] | None = None
    scores: dict[str, float] = field(default_factory=dict)
    thresholds: dict[str, float] | None = None


@dataclass
class ReportSet:
    files: dict[str, Path] = field(default_factory=dict)
    # Each file's sha256 by report name, as it was written; empty for a kept set.
    digests: dict[str, str] = field(default_factory=dict, compare=False)
    # True when the files on disk were kept, not written.
    reused: bool = field(default=False, compare=False)

    @property
    def summary_path(self) -> Path | None:
        return self.files.get("summary")


# ---------------------------------------------------------------------------
# Low-level writers
# ---------------------------------------------------------------------------


class _Hashing(io.RawIOBase):
    """A file's raw stream that hashes every byte as it goes to the file."""

    def __init__(self, raw: io.RawIOBase):
        super().__init__()
        self.raw, self.digest = raw, hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        written = self.raw.write(data)
        self.digest.update(memoryview(data)[:written])
        return written

    def fileno(self) -> int:
        return self.raw.fileno()

    def close(self) -> None:
        super().close()
        self.raw.close()


def _replacing(path: Path, write: Callable[[TextIO], object], newline: str | None = None) -> str:
    """Have write fill path through a temp file beside it, moved into place on success.

    Returns the sha256 of the bytes written, taken as they went to the
    file, so no record of the file reads it back. A write that raises, or
    a process that dies, midway leaves the old file, if any, untouched. An
    exception also removes the temp file; a killed process leaves it,
    under a dot name no reader looks for. The temp file reaches the disk
    before the move, so a power loss cannot leave an empty file under
    path either.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    raw = _Hashing(io.FileIO(temp, "w"))
    try:
        with io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8", newline=newline) as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        raw.close()
        temp.unlink(missing_ok=True)
        raise
    return raw.digest.hexdigest()


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> str:
    def write(handle: TextIO) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    return _replacing(path, write, newline="")


def _write_text(path: Path, text: str) -> str:
    return _replacing(path, lambda handle: handle.write(text))


# Any indent sends json.dumps through the pure-Python encoder; a flat list
# takes the C one. With "\n" between items the output splits back into
# one token per leaf, as every newline inside a string is escaped.
_CELL_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=("\n", ": "))
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def _write_json(path: Path, payload) -> str:
    """Write payload as json.dumps(payload, indent=2, ensure_ascii=False) + "\n".

    Byte for byte, at a fraction of the cost: every leaf goes through one
    C encoder call and lands in a template laid out once per container
    shape, so no value meets the pure-Python indent encoder.

    Raises:
        TypeError: a value or a key json.dumps cannot encode.
    """
    leaves: list = []
    return _write_document(path, _layout(payload, "\n", leaves), leaves)


def _write_table_json(path: Path, header: list[str], table: list[list]) -> str:
    """Write table as _write_json writes a list of one {header: cell} dict per row.

    Every cell is a leaf, so the rows share one object template, and no
    per-row dict is built.

    Raises:
        TypeError: a cell is not a str, int, float, bool or None.
        ValueError: a row is not as wide as the header.
    """
    cells = list(chain.from_iterable(table))
    scalars = tuple(_SCALAR_TYPES)
    odd = [t for t in set(map(type, cells)) if not issubclass(t, scalars)]
    if odd:
        raise TypeError(f"table JSON cells must be scalars, not {odd}")
    if set(map(len, table)) - {len(header)}:
        raise ValueError("every table row must be as wide as the header")
    row = _object_template(_heads(header, "\n  "), "\n  ")
    template = "[\n  " + ",\n  ".join([row] * len(table)) + "\n]" if table else "[]"
    return _write_document(path, template, cells)


def _write_document(path: Path, template: str, leaves: list) -> str:
    """Write template, each %s slot filled by its leaf's JSON, and a newline.

    The leaves take one C encoder call. The newline is written on its own,
    so no copy of the whole document is made to append it.
    """
    text = template % tuple(_encoded_items(leaves))
    return _replacing(path, lambda handle: handle.writelines((text, "\n")))


def _encoded_items(items: list) -> list[str]:
    if not items:
        return []
    # Split first and trim the brackets off the end tokens: slicing the
    # text would copy all of it.
    tokens = _CELL_ENCODER.encode(items).split("\n")
    tokens[0] = tokens[0][1:]
    tokens[-1] = tokens[-1][:-1]
    return tokens


def _are_leaves(values: Iterable) -> bool:
    """Whether the C encoder writes each of values as json.dumps(indent=2) does.

    It does for every scalar, and for every falsy value: None, False,
    zero, "" and the empty containers, which both write as "[]" or "{}".
    What neither can encode raises the same TypeError in both.
    """
    return set(map(type, filter(None, values))) <= _SCALAR_TYPES


def _key_text(key) -> str:
    """A dict key as json.dumps turns it into a str."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:  # bool is an int
        return _CELL_ENCODER.encode(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _layout(value, indent: str, leaves: list) -> str:
    """The % template of value's indented JSON, its lines joined by indent.

    Appends the values its %s slots stand for to leaves, in order.
    """
    if isinstance(value, dict):
        return _objects_layout(tuple(value), [value.values()], indent, leaves) if value else "{}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        items = list(value)
        if set(map(type, items)) == {dict} and len(set(map(tuple, items))) == 1:
            body = _objects_layout(tuple(items[0]), list(map(dict.values, items)), inner, leaves)
        elif _are_leaves(items):
            leaves.extend(items)
            body = ("," + inner).join(["%s"] * len(items))
        else:
            body = ("," + inner).join([_layout(item, inner, leaves) for item in items])
        return "[" + inner + body + indent + "]"
    leaves.append(value)
    return "%s"


def _objects_layout(keys: tuple, rows: list, indent: str, leaves: list) -> str:
    """Template of one {key: cell} object per row of cells, joined by "," + indent.

    Rows whose cells are all leaves share one object template.
    """
    heads = _heads(keys, indent)
    shared = _object_template(heads, indent)
    if _are_leaves(chain.from_iterable(rows)):
        leaves.extend(chain.from_iterable(rows))
        return ("," + indent).join([shared] * len(rows))
    templates = []
    inner = indent + "  "
    for row in map(list, rows):
        if _are_leaves(row):
            leaves.extend(row)
            templates.append(shared)
        else:
            cells = [head + _layout(cell, inner, leaves) for head, cell in zip(heads, row)]
            templates.append("{" + ",".join(cells) + indent + "}")
    return ("," + indent).join(templates)


def _heads(keys, indent: str) -> list[str]:
    """How each key's line starts in an object at indent: the key and ": "."""
    inner = indent + "  "
    encoded = _encoded_items([_key_text(key) for key in keys])
    return [f"{inner}{key.replace('%', '%%')}: " for key in encoded]


def _object_template(heads: list[str], indent: str) -> str:
    """The template of an object at indent with a %s after each head."""
    return "{" + ",".join([head + "%s" for head in heads]) + indent + "}" if heads else "{}"


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def metrics_summary(
    scores: dict[str, float], thresholds: dict[str, float] | None = None
) -> list[MetricRow]:
    """Judge each score against its acceptance threshold (strictly greater).

    Raises:
        ValueError: no scores given.
        SafereqError: a score has no configured threshold.
    """
    if not scores:
        raise ValueError("metrics_summary needs at least one score")
    limits = {**DEFAULT_THRESHOLDS, **(thresholds or {})}
    rows = []
    for metric, value in scores.items():
        if metric not in limits:
            raise SafereqError(f"no threshold configured for metric {metric!r}")
        threshold = limits[metric]
        rows.append(
            MetricRow(
                metric=metric,
                value=value,
                threshold=threshold,
                passed=value > threshold,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Markdown summary and full report set
# ---------------------------------------------------------------------------


def _md_table(header: list[str], rows: list[list]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join(lines)


def _section(title: str, header: list[str], rows: list[list] | None, empty: str) -> str:
    """A summary section: rows as a table, empty if there are none, not run if None."""
    if rows is None:
        body = _NOT_RUN
    elif not rows:
        body = empty
    else:
        body = _md_table(header, rows)
    return f"## {title}\n{body}"


def render_summary(inputs: ReportInputs, tag: str) -> str:
    """Markdown summary; absent artifacts render as not run."""
    matrix = inputs.coverage
    coverage = gaps = triage = metrics = None
    if matrix is not None:
        coverage = [[r.alias, r.n_func, r.n_prob, r.n_other, r.verdict] for r in matrix.rows]
        coverage.append(["TOTAL", *matrix.totals, ""])
        gaps = [[r.alias, s, r.n_func, r.n_prob] for r, s in gap_ranking(matrix)]
    if inputs.classified is not None:
        triage = [
            [r.req_id, r.function, r.rtype, r.confidence, "|".join(r.flags)]
            for r in inputs.classified
            if r.function == CATCH_ALL_ALIAS or r.flags
        ]
    if inputs.scores:
        metrics = [
            [m.metric, f"{m.value:.2f}", f"{m.threshold:.2f}", "pass" if m.passed else "fail"]
            for m in metrics_summary(inputs.scores, inputs.thresholds)
        ]
    duplicates, contradictions = (
        None if found is None else [[f.req_a, f.req_b, f.kind, f.function] for f in found]
        for found in (inputs.duplicates, inputs.contradictions)
    )
    pair_header = ["ReqID A", "ReqID B", "Relation", "Function"]
    sections = [
        f"# Requirement Analysis Summary ({tag})",
        _section("Coverage", ["Function", "FUNC", "PROB", "OTHER", "Verdict"], coverage, ""),
        _section(
            "Coverage Gaps",
            ["Function", "Shortfall", "FUNC", "PROB"],
            gaps,
            "All functions have complete coverage.",
        ),
        _section("Duplicate Requirements", pair_header, duplicates, "None found."),
        _section("Contradicting Requirements", pair_header, contradictions, "None found."),
        _section(
            "Triage",
            ["ReqID", "Function", "Type", "Confidence", "Flags"],
            triage,
            "Nothing to triage.",
        ),
        _section("Metrics", ["Metric", "Value", "Threshold", "Result"], metrics, ""),
    ]
    return "\n\n".join(sections) + "\n"


def emit_report_set(inputs: ReportInputs, out_dir: str | Path, version_tag: str) -> ReportSet:
    """Write every available report plus the Markdown summary.

    Each table goes to <stem>_<tag>.csv and the same cells to
    <stem>_<tag>.json; coverage is CSV only, metrics JSON only. Returns a
    ReportSet mapping report names to the files written. Parts with no
    artifact are only mentioned (as not run) in the summary.
    """
    out = Path(out_dir)
    files: dict[str, Path] = {}
    digests: dict[str, str] = {}

    def table(stem: str, header: list[str], rows: list) -> None:
        files[stem] = out / f"{stem}_{version_tag}.csv"
        files[f"{stem}_json"] = out / f"{stem}_{version_tag}.json"
        digests[stem] = _write_csv(files[stem], header, rows)
        digests[f"{stem}_json"] = _write_table_json(files[f"{stem}_json"], header, rows)

    # Each table is written before the next is built, so one is held at a time.
    if inputs.classified is not None:
        table("classification", list(CLASSIFIED_COLUMNS), list(classified_table(inputs.classified)))
        lineages = inputs.catalog.alias_map() if inputs.catalog is not None else {}
        table(
            "allocation",
            ["ReqID", "Function", "Lineage", "System Requirement"],
            [
                [r.req_id, r.function, lineages.get(r.function, ""), r.system_requirement]
                for r in inputs.classified
            ],
        )
    for stem in ("duplicates", "contradictions"):
        findings = getattr(inputs, stem)
        if findings is not None:
            table(stem, list(PAIR_COLUMNS), list(map(finding_cells, findings)))
    if inputs.coverage is not None:
        rows = [list(coverage_cells(r)) for r in inputs.coverage.rows]
        for cells in rows:
            cells[-1] = "yes" if cells[-1] else ""  # Triage is the last column
        rows.append(["TOTAL", "", *inputs.coverage.totals, "", ""])
        files["coverage"] = out / f"coverage_{version_tag}.csv"
        digests["coverage"] = _write_csv(files["coverage"], list(COVERAGE_COLUMNS), rows)
    if inputs.scores:
        # MetricRow's field order is the key order.
        metrics = [asdict(m) for m in metrics_summary(inputs.scores, inputs.thresholds)]
        files["metrics"] = out / f"metrics_{version_tag}.json"
        digests["metrics"] = _write_json(files["metrics"], {"metrics": metrics})
    files["summary"] = out / f"summary_{version_tag}.md"
    digests["summary"] = _write_text(files["summary"], render_summary(inputs, version_tag))
    return ReportSet(files, digests)


# ---------------------------------------------------------------------------
# The key of a report set
# ---------------------------------------------------------------------------


def report_key(
    inputs: ReportInputs, version_tag: str, published: Iterable[tuple[str, str, str]]
) -> str:
    """sha256 over what emit_report_set writes from, the tag and the package version.

    published holds (task, ReportInputs field, sha256 of its raw file) for
    each task that published a part, in run order: a part enters by the
    digest of the raw file it came from, which determines it. The catalog,
    scores and thresholds enter as they are.
    """
    catalog = None if inputs.catalog is None else inputs.catalog.alias_map()
    body = [version_tag, __version__, inputs.thresholds, inputs.scores, catalog, list(published)]
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()  # dicts in their order
