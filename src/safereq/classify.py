"""Requirement classification against a function catalog.

Each requirement is assigned a function alias from the catalog and a
safety type (FUNC, PROB, or the _OT_ placeholder), with a confidence
score and explanations. Validation guarantees join totality: every input
requirement appears exactly once in the output, whatever the backend
returned.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator

from .catalog import CATCH_ALL_ALIAS, FunctionCatalog
from .errors import MismatchedIdSetsError
from .gateway import (
    Backend,
    LlmRequestParams,
    PromptEnvelope,
    PromptResource,
    RecordSchema,
    ask_many,
    encode_row,
)
from .requirements import Requirement, RequirementChunk
from .rounding import percentage

OTHER_TYPE = "_OT_"
TYPE_VALUES = ("FUNC", "PROB", OTHER_TYPE)

FLAG_REMAPPED = "RemappedToOF"
FLAG_UNRETURNED = "Unreturned"
FLAG_LOW_CONFIDENCE = "LowConfidence"

LOW_CONFIDENCE_THRESHOLD = 80

SAFETY_TYPE_DEFINITIONS = {
    "FUNC": (
        "Functional safety requirement: mandates a safety behavior, "
        "capability, interlock, or constraint the system shall implement."
    ),
    "PROB": (
        "Probabilistic safety requirement: bounds a failure rate, "
        "probability, availability, or quantitative reliability target."
    ),
    OTHER_TYPE: (
        "Other type: the requirement fits neither definition with at "
        "least 80% confidence."
    ),
}

CLASSIFICATION_RESULT_SCHEMA = RecordSchema(
    required=("ReqID",), int_fields=("Confidence",)
)


@dataclass
class ClassifiedRequirement:
    req_id: str
    function: str  # catalog alias, _OF_ when unknown
    rtype: str  # FUNC | PROB | _OT_
    confidence: int  # 0..100
    system_requirement: str = ""
    function_explanation: str = ""
    type_explanation: str = ""
    flags: tuple[str, ...] = ()


# Each ClassifiedRequirement field's column name, in field order. The raw
# file's rows, the joined CSV's result columns and the classification
# report all take their column names and order from here.
CLASSIFIED_COLUMNS = {
    "ReqID": "req_id",
    "Function": "function",
    "Type": "rtype",
    "Confidence": "confidence",
    "System Requirement": "system_requirement",
    "Function_Explanation": "function_explanation",
    "Type_Explanation": "type_explanation",
    "Flags": "flags",
}
classified_cells = attrgetter(*CLASSIFIED_COLUMNS.values())


def classified_record(row: ClassifiedRequirement) -> dict:
    """row keyed by CLASSIFIED_COLUMNS, as the raw file stores it: Flags unjoined."""
    return dict(zip(CLASSIFIED_COLUMNS, classified_cells(row)))


def classified_table(
    rows: Iterable[ClassifiedRequirement], columns: Iterable[str] | None = None
) -> Iterator[list]:
    """Each row's cells under CLASSIFIED_COLUMNS, or under columns, a selection of them.

    Flags joins with "|". Each row's cells are made as the result is read.
    """
    at = None if columns is None else [list(CLASSIFIED_COLUMNS).index(c) for c in columns]
    for row in rows:
        cells = list(classified_cells(row))
        cells[-1] = "|".join(row.flags)  # Flags is the last column
        yield cells if at is None else [cells[i] for i in at]


def clamp_confidence(value) -> int:
    """A confidence as an int in 0..100; 0 for a non-numeric or non-finite value."""
    try:
        number = float(str(value))
    except (TypeError, ValueError):
        return 0
    return max(0, min(100, int(number))) if math.isfinite(number) else 0


@dataclass
class ClassifyOutcome:
    rows: list[ClassifiedRequirement]
    quarantined: list[tuple[dict, str]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Prompt construction
# ---------------------------------------------------------------------------


def build_classification_prompt(
    catalog: FunctionCatalog,
    instructions_text: str,
    dataset_name: str = "Requirements",
) -> PromptEnvelope:
    """Row-less template with the catalog and type definitions as tagged resources."""
    return PromptEnvelope(
        instructions=instructions_text,
        resources=(
            PromptResource(tag="ARCHITECTURE", body=catalog.alias_map()),
            PromptResource(tag="safety_function_type", body=SAFETY_TYPE_DEFINITIONS),
        ),
        dataset_name=dataset_name,
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _text(value) -> str:
    """A record's field as stripped text; a missing or null one reads as empty."""
    return "" if value is None else str(value).strip()


def validate_records(
    records: list[dict],
    inputs: list[Requirement],
    catalog: FunctionCatalog,
) -> ClassifyOutcome:
    """Turn raw result records into one validated row per input requirement.

    Aliases outside the catalog are remapped to _OF_ (flag RemappedToOF);
    ids the backend never returned get placeholder rows (flag Unreturned,
    function _OF_, type _OT_); records with unknown or repeated ids are
    quarantined; a confidence that is not a finite number counts as 0, and
    confidence below the threshold flags LowConfidence. A missing or null
    field reads as empty text, but a blank system requirement falls back to
    the requirement's own text, as an unreturned row's does.
    """
    known = {req.req_id: req for req in inputs}
    aliases = set(catalog.aliases)
    returned: dict[str, dict] = {}
    quarantined: list[tuple[dict, str]] = []

    for record in records:
        rid = str(record.get("ReqID", "")).strip()
        if rid not in known:
            quarantined.append((record, f"unknown ReqID {rid!r}"))
        elif rid in returned:
            quarantined.append((record, f"repeated ReqID {rid!r}; first record kept"))
        else:
            returned[rid] = record

    rows: list[ClassifiedRequirement] = []
    for req in inputs:
        record = returned.get(req.req_id)
        if record is None:
            rows.append(
                ClassifiedRequirement(
                    req_id=req.req_id,
                    function=CATCH_ALL_ALIAS,
                    rtype=OTHER_TYPE,
                    confidence=0,
                    system_requirement=req.text,
                    function_explanation="not returned by the backend",
                    type_explanation="not returned by the backend",
                    flags=(FLAG_LOW_CONFIDENCE, FLAG_UNRETURNED),
                )
            )
            continue

        flags: list[str] = []
        function = _text(record.get("Function"))
        if function not in aliases:
            function = CATCH_ALL_ALIAS
            flags.append(FLAG_REMAPPED)

        rtype = _text(record.get("Type")).upper()
        if rtype not in TYPE_VALUES:
            rtype = OTHER_TYPE

        confidence = clamp_confidence(record.get("Confidence"))
        if confidence < LOW_CONFIDENCE_THRESHOLD:
            flags.append(FLAG_LOW_CONFIDENCE)

        system_requirement = _text(
            record.get("System_Requirement", record.get("System Requirement"))
        )
        rows.append(
            ClassifiedRequirement(
                req_id=req.req_id,
                function=function,
                rtype=rtype,
                confidence=confidence,
                system_requirement=system_requirement or req.text,
                function_explanation=_text(record.get("Function_Explanation")),
                type_explanation=_text(record.get("Type_Explanation")),
                flags=tuple(sorted(flags)),
            )
        )
    return ClassifyOutcome(rows=rows, quarantined=quarantined)


# ---------------------------------------------------------------------------
# End-to-end classification
# ---------------------------------------------------------------------------


def classify(
    chunks: list[RequirementChunk],
    template: PromptEnvelope,
    catalog: FunctionCatalog,
    params: LlmRequestParams,
    backend: Backend,
) -> ClassifyOutcome:
    """Classify every chunk through the backend and validate the union.

    template is a row-less envelope (build_classification_prompt, or a
    task's own instructions and resources); each chunk's prompt is the
    template with the chunk's rows. Records the schema rejects are
    quarantined ahead of those validate_records quarantines.
    """
    batches = (
        (template.dataset_name, [encode_row(req.req_id, req.text) for req in chunk.rows])
        for chunk in chunks
    )
    records: list[dict] = []
    quarantined: list[tuple[dict, str]] = []
    # closing: an error in this loop still shuts the worker threads down.
    with closing(
        ask_many(template, batches, CLASSIFICATION_RESULT_SCHEMA, params, backend)
    ) as answers:
        for parsed in answers:
            records.extend(parsed.records)
            quarantined.extend(parsed.rejected)

    inputs = [req for chunk in chunks for req in chunk.rows]
    outcome = validate_records(records, inputs, catalog)
    outcome.quarantined = quarantined + outcome.quarantined
    return outcome


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _label(row: ClassifiedRequirement, strict: bool) -> tuple[str, ...]:
    return (row.function, row.rtype) if strict else (row.function,)


def consistency(
    runs: list[list[ClassifiedRequirement]],
    reference: list[ClassifiedRequirement] | None = None,
    strict: bool = False,
) -> float:
    """Percentage of requirements labeled identically across runs.

    Compares function labels (and types too when strict) either mutually
    across all runs or against a reference labeling when one is given.
    Rounded half-up to 2 decimals.

    Raises:
        MismatchedIdSetsError: the runs do not cover the same ids.
        ValueError: fewer than two labelings to compare.
    """
    tables = list(runs) + ([reference] if reference is not None else [])
    if len(tables) < 2:
        raise ValueError("consistency needs two runs, or one run and a reference")
    maps = [{row.req_id: _label(row, strict) for row in table} for table in tables]
    ids = set(maps[0])
    for m in maps[1:]:
        if set(m) != ids:
            raise MismatchedIdSetsError(
                "runs cover different requirement ids; cannot compare"
            )
    if not ids:
        raise MismatchedIdSetsError("no requirements to compare")
    matches = sum(
        1 for rid in ids if all(m[rid] == maps[0][rid] for m in maps[1:])
    )
    return percentage(matches, len(ids))


def accuracy(
    rows: list[ClassifiedRequirement],
    gold: dict[str, tuple[str, str]],
    include_type: bool = True,
) -> float:
    """Percentage of rows matching a gold (function, type) labeling."""
    if not gold:
        raise ValueError("gold labeling is empty")
    ids = {row.req_id for row in rows}
    if set(gold) != ids:
        raise MismatchedIdSetsError("gold labeling covers different ids than the rows")
    matches = 0
    for row in rows:
        want_func, want_type = gold[row.req_id]
        ok = row.function == want_func and (not include_type or row.rtype == want_type)
        matches += 1 if ok else 0
    return percentage(matches, len(rows))
