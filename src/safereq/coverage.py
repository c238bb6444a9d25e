"""Coverage sufficiency over a classified requirement set.

A function's requirement coverage is Complete when it has at least three
functional (FUNC) requirements and at least one probabilistic (PROB)
requirement; _OT_ rows never contribute. The catch-all _OF_ appears in
the matrix as a triage bucket, not a real function.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .catalog import CATCH_ALL_ALIAS, FunctionCatalog
from .classify import ClassifiedRequirement
from .errors import AliasClosureViolationError

MIN_FUNCTIONAL = 3
MIN_PROBABILISTIC = 1

VERDICT_COMPLETE = "Complete"
VERDICT_MISSING = "Missing"


@dataclass
class CoverageRow:
    alias: str
    lineage: str
    n_func: int
    n_prob: int
    n_other: int
    verdict: str
    is_triage_bucket: bool = False


# Each CoverageRow field's column name, in field order: the raw file's rows
# and the coverage report take their column names and order from here.
COVERAGE_COLUMNS = {
    "Function": "alias",
    "Lineage": "lineage",
    "N_FUNC": "n_func",
    "N_PROB": "n_prob",
    "N_OTHER": "n_other",
    "Verdict": "verdict",
    "Triage": "is_triage_bucket",
}
coverage_cells = attrgetter(*COVERAGE_COLUMNS.values())


@dataclass
class CoverageMatrix:
    rows: list[CoverageRow]
    totals: tuple[int, int, int]  # (n_func, n_prob, n_other)


def verdict(n_func: int, n_prob: int) -> str:
    """Complete iff n_func >= 3 and n_prob >= 1."""
    if n_func >= MIN_FUNCTIONAL and n_prob >= MIN_PROBABILISTIC:
        return VERDICT_COMPLETE
    return VERDICT_MISSING


def shortfall(row: CoverageRow) -> int:
    """How many requirements short of Complete this function is."""
    return max(0, MIN_FUNCTIONAL - row.n_func) + max(0, MIN_PROBABILISTIC - row.n_prob)


def build_matrix(
    classified: list[ClassifiedRequirement], catalog: FunctionCatalog
) -> CoverageMatrix:
    """One row per catalog entry, in catalog order, zero-filled.

    Raises:
        AliasClosureViolationError: a row names an alias outside the catalog.
    """
    counts: dict[str, list[int]] = {alias: [0, 0, 0] for alias in catalog.aliases}
    for row in classified:
        if row.function not in counts:
            raise AliasClosureViolationError(
                f"classified requirement {row.req_id} names unknown alias "
                f"{row.function!r}"
            )
        bucket = {"FUNC": 0, "PROB": 1}.get(row.rtype, 2)
        counts[row.function][bucket] += 1

    rows = []
    for entry in catalog.entries:
        n_func, n_prob, n_other = counts[entry.alias]
        rows.append(
            CoverageRow(
                alias=entry.alias,
                lineage=entry.lineage,
                n_func=n_func,
                n_prob=n_prob,
                n_other=n_other,
                verdict=verdict(n_func, n_prob),
                is_triage_bucket=entry.alias == CATCH_ALL_ALIAS,
            )
        )
    return matrix_of(rows)


def matrix_of(rows: list[CoverageRow]) -> CoverageMatrix:
    """The matrix of rows, totalled."""
    totals = (
        sum(r.n_func for r in rows),
        sum(r.n_prob for r in rows),
        sum(r.n_other for r in rows),
    )
    return CoverageMatrix(rows=rows, totals=totals)


def gap_ranking(matrix: CoverageMatrix) -> list[tuple[CoverageRow, int]]:
    """Missing functions ranked by shortfall, largest first.

    The triage bucket is excluded; it is not a function to cover. Ties
    keep catalog order.
    """
    missing = [
        (row, shortfall(row))
        for row in matrix.rows
        if row.verdict == VERDICT_MISSING and not row.is_triage_bucket
    ]
    return sorted(missing, key=lambda pair: -pair[1])
