"""Pairwise requirement analysis: duplicates, contradictions, scoring.

Requirements are grouped by classified function and each group is
submitted to the backend in one call. Finding kinds are mutually
exclusive per pair. Contradiction detection runs over a duplicate-free
consolidated list so duplicate groups are argued once.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field, replace
from itertools import tee
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator

from .catalog import CATCH_ALL_ALIAS, FunctionCatalog
from .classify import ClassifiedRequirement
from .errors import (
    AliasClosureViolationError,
    BlankReqIdError,
    EmptyGoldError,
    FindingConflictError,
    SelfPairError,
)
from .gateway import (
    Backend,
    LlmRequestParams,
    PromptEnvelope,
    RecordSchema,
    ask_many,
    encode_row,
)
from .requirements import read_csv, require_columns
from .rounding import percentage

KIND_DUPLICATE = "Duplicate"
KIND_COMPLEMENTARY = "Complementary"
KIND_REFINEMENT = "Refinement"
KIND_CONTRADICTION = "Contradiction"

_RESULT_SHAPE_NOTE = (
    'Answer with a single JSON document of the form {"results": [{"ReqID_A": "...", '
    '"ReqID_B": "...", "Relation": "...", "Rationale": "..."}, ...]} and nothing else. '
    'Use an empty list when there is nothing to report.'
)

DUPLICATE_PROMPTS = {
    "V1": (
        "For all the requirements in the list, mark the duplicate requirements.\n"
        'Set "Relation" to "Duplicate" for each duplicate pair.\n' + _RESULT_SHAPE_NOTE
    ),
    "V2": (
        "For all the requirements in the list, mark the duplicate requirements.\n"
        "If two requirements are similar but refer to two different functions it is "
        "not considered duplicate.\n"
        'Set "Relation" to "Duplicate" for each duplicate pair.\n' + _RESULT_SHAPE_NOTE
    ),
    "V3": (
        "For all the requirements in the list, mark the duplicate requirements.\n"
        "If two requirements are similar and refer to the same function it means that "
        "they are duplicate.\n"
        "If two requirements are similar but refer to two different functions it means "
        "that they are complementary.\n"
        'If one of the requirements refers to the function "_OF_" (Other Function), it '
        "could mean that the requirement refers to a system-level functionality or to "
        "each one of the functions; in that case the specific function's requirement "
        "might be a refinement of the top-level requirement.\n"
        'Set "Relation" to "Duplicate", "Complementary", or "Refinement" accordingly.\n'
        + _RESULT_SHAPE_NOTE
    ),
}

CONTRADICTION_PROMPT = (
    "For all the requirements in the list, mark the contradicting requirements.\n"
    'Set "Relation" to "Contradiction" for each contradicting pair.\n'
    + _RESULT_SHAPE_NOTE
)

_PAIR_SCHEMA = RecordSchema(required=("ReqID_A", "ReqID_B"))


@dataclass(frozen=True)
class PairFinding:
    """One finding about a requirement pair, canonically ordered."""

    req_a: str
    req_b: str
    kind: str
    function: str = ""
    rationale: str = ""

    def __post_init__(self):
        if self.req_b < self.req_a:
            a, b = self.req_a, self.req_b
            object.__setattr__(self, "req_a", b)
            object.__setattr__(self, "req_b", a)

    @property
    def pair(self) -> tuple[str, str]:
        return (self.req_a, self.req_b)


# Each PairFinding field's column name, in field order: the raw file's
# findings and the pair reports take their column names and order from here.
PAIR_COLUMNS = {
    "ReqID_A": "req_a",
    "ReqID_B": "req_b",
    "Relation": "kind",
    "Function": "function",
    "Rationale": "rationale",
}
finding_cells = attrgetter(*PAIR_COLUMNS.values())


def finding_record(finding: PairFinding) -> dict:
    """finding keyed by PAIR_COLUMNS, as the raw file stores it."""
    return dict(zip(PAIR_COLUMNS, finding_cells(finding)))


@dataclass
class GoldPairs:
    kind: str
    pairs: frozenset[tuple[str, str]]


@dataclass
class PairScore:
    detected_true: int
    gold_total: int
    false_positive: int
    rate: float
    meets_target: bool


@dataclass
class DetectionResult:
    findings: list[PairFinding]
    notes: list[str] = field(default_factory=list)
    rejected: list[tuple[dict, str]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------


def cluster_by_function(
    classified: list[ClassifiedRequirement],
    catalog: FunctionCatalog | None = None,
) -> dict[str, list[ClassifiedRequirement]]:
    """Group rows by function alias; catalog order, then req_id order.

    Every requirement lands in exactly one cluster. Empty clusters are
    omitted. Without a catalog, clusters keep first-seen alias order.
    """
    known = set(catalog.aliases) if catalog is not None else None
    grouped: dict[str, list[ClassifiedRequirement]] = {}
    for row in classified:
        if known is not None and row.function not in known:
            raise AliasClosureViolationError(
                f"requirement {row.req_id} names unknown alias {row.function!r}"
            )
        grouped.setdefault(row.function, []).append(row)

    order = catalog.aliases if catalog is not None else list(grouped)
    clusters: dict[str, list[ClassifiedRequirement]] = {}
    for alias in order:
        if alias in grouped:
            clusters[alias] = sorted(grouped[alias], key=lambda r: r.req_id)
    return clusters


def _row_text(row: ClassifiedRequirement) -> str:
    return f"[Function: {row.function}] {row.system_requirement}"


def _lines(rows: list[ClassifiedRequirement]) -> list[str]:
    """rows as a prompt's dataset lines."""
    return [encode_row(row.req_id, _row_text(row)) for row in rows]


# A pair job: the cluster alias, the dataset lines its prompt submits, and their ids.
_Job = tuple[str, list[str], set[str]]


# ---------------------------------------------------------------------------
# Duplicate detection
# ---------------------------------------------------------------------------


def detect_duplicates(
    clusters: dict[str, list[ClassifiedRequirement]],
    params: LlmRequestParams,
    backend: Backend,
    prompt_version: str = "V3",
) -> DetectionResult:
    """Submit each function cluster and collect duplicate-family findings.

    V1 sends the bare instruction; V2 adds the different-functions rule;
    V3 adds the complementary and _OF_ refinement rules and co-submits
    the _OF_ cluster with every function cluster. The validator
    canonicalizes pairs, drops unknown ids, de-duplicates, downgrades
    cross-function duplicates to complementary under V2/V3, and raises
    FindingConflictError when one pair carries two kinds.
    """
    if prompt_version not in DUPLICATE_PROMPTS:
        raise ValueError(f"unknown prompt version {prompt_version!r}")
    instructions = DUPLICATE_PROMPTS[prompt_version]
    allowed = (
        {KIND_DUPLICATE, KIND_COMPLEMENTARY, KIND_REFINEMENT}
        if prompt_version == "V3"
        else {KIND_DUPLICATE}
    )

    function_of = (
        {row.req_id: alias for alias, rows in clusters.items() for row in rows}
        if prompt_version in ("V2", "V3")
        else None
    )
    return _detect(
        _duplicate_jobs(clusters, prompt_version),
        instructions,
        allowed,
        params,
        backend,
        function_of=function_of,
    )


def _duplicate_jobs(
    clusters: dict[str, list[ClassifiedRequirement]], prompt_version: str
) -> Iterator[_Job]:
    """One job per cluster call: its lines, then the _OF_ ride-along lines.

    Under V3 the _OF_ rows ride along in every prompt, so their lines are
    encoded once, here, and appended whole.
    """
    of_rows = clusters.get(CATCH_ALL_ALIAS, []) if prompt_version == "V3" else []
    ride_along = _lines(of_rows)
    ride_along_ids = {row.req_id for row in of_rows}
    for alias, rows in clusters.items():
        if prompt_version == "V3" and alias == CATCH_ALL_ALIAS:
            continue  # rides along with every function cluster instead
        own_ids = {row.req_id for row in rows}
        extra = (
            ride_along
            if own_ids.isdisjoint(ride_along_ids)
            else [line for row, line in zip(of_rows, ride_along) if row.req_id not in own_ids]
        )
        if len(rows) + len(extra) >= 2:
            yield alias, _lines(rows) + extra, own_ids | ride_along_ids


def _record_to_finding(
    record: dict,
    submitted_ids: set[str],
    allowed: set[str],
    alias: str,
    notes: list[str],
) -> PairFinding | None:
    a = str(record.get("ReqID_A", "")).strip()
    b = str(record.get("ReqID_B", "")).strip()
    kind = str(record.get("Relation", KIND_DUPLICATE)).strip().title() or KIND_DUPLICATE
    if a == b or a not in submitted_ids or b not in submitted_ids:
        notes.append(f"dropped finding with unknown or degenerate pair ({a!r}, {b!r})")
        return None
    if kind not in allowed:
        notes.append(f"dropped finding ({a}, {b}) with disallowed relation {kind!r}")
        return None
    return PairFinding(
        req_a=a,
        req_b=b,
        kind=kind,
        function=alias,
        rationale=str(record.get("Rationale", "")).strip(),
    )


def _detect(
    jobs: Iterable[_Job],
    instructions: str,
    allowed: set[str],
    params: LlmRequestParams,
    backend: Backend,
    function_of: dict[str, str] | None = None,
) -> DetectionResult:
    """Send one prompt per job and fold the findings in job order.

    Each response is parsed once. A pair keeps its first finding, and two
    kinds for one pair raise FindingConflictError. With function_of (req_id
    to cluster alias), a duplicate across two clusters becomes complementary.
    """
    # Each job's lines are built when its prompt is, and tee keeps them
    # only until its result is folded.
    jobs, to_send = tee(jobs)
    result = DetectionResult(findings=[])
    seen: dict[tuple[str, str], str] = {}
    conflicts: list[tuple[str, str]] = []
    # closing: an error in this loop still shuts the worker threads down.
    with closing(
        ask_many(
            PromptEnvelope(instructions),
            ((f"{alias} Requirements", lines) for alias, lines, _ in to_send),
            _PAIR_SCHEMA,
            params,
            backend,
        )
    ) as answers:
        for parsed, (alias, _, submitted_ids) in zip(answers, jobs):
            result.rejected.extend(parsed.rejected)
            for record in parsed.records:
                finding = _record_to_finding(record, submitted_ids, allowed, alias, result.notes)
                if finding is None:
                    continue
                if function_of is not None and finding.kind == KIND_DUPLICATE:
                    fa = function_of.get(finding.req_a, "")
                    fb = function_of.get(finding.req_b, "")
                    if fa != fb:
                        result.notes.append(
                            f"downgraded cross-function duplicate ({finding.req_a}, "
                            f"{finding.req_b}): {fa} vs {fb}"
                        )
                        finding = replace(finding, kind=KIND_COMPLEMENTARY)
                previous = seen.get(finding.pair)
                if previous is None:
                    seen[finding.pair] = finding.kind
                    result.findings.append(finding)
                elif previous != finding.kind:
                    conflicts.append(finding.pair)

    if conflicts:
        raise FindingConflictError(sorted(set(conflicts)))
    return result


# ---------------------------------------------------------------------------
# Contradiction detection
# ---------------------------------------------------------------------------


def consolidate(
    clusters: dict[str, list[ClassifiedRequirement]],
    duplicates: list[PairFinding],
) -> dict[str, list[ClassifiedRequirement]]:
    """Drop all but one representative per duplicate group.

    Union-find over Duplicate findings; the lexicographically smallest
    req_id represents each group.
    """
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for finding in duplicates:
        if finding.kind != KIND_DUPLICATE:
            continue
        ra, rb = find(finding.req_a), find(finding.req_b)
        if ra != rb:
            keep, drop = min(ra, rb), max(ra, rb)
            parent[drop] = keep

    survivors: dict[str, list[ClassifiedRequirement]] = {}
    for alias, rows in clusters.items():
        kept = [row for row in rows if find(row.req_id) == row.req_id]
        if kept:
            survivors[alias] = kept
    return survivors


def detect_contradictions(
    clusters: dict[str, list[ClassifiedRequirement]],
    params: LlmRequestParams,
    backend: Backend,
    duplicates: list[PairFinding] = (),
) -> DetectionResult:
    """Find contradicting pairs within each function's consolidated list."""
    consolidated = consolidate(clusters, list(duplicates))
    jobs = (
        (alias, _lines(rows), {row.req_id for row in rows})
        for alias, rows in consolidated.items()
        if len(rows) >= 2
    )
    return _detect(jobs, CONTRADICTION_PROMPT, {KIND_CONTRADICTION}, params, backend)


# ---------------------------------------------------------------------------
# Gold pairs and scoring
# ---------------------------------------------------------------------------


def load_gold_pairs(path: str | Path, kind: str) -> GoldPairs:
    """Load a two-column CSV (req_a, req_b) of gold pairs for one kind.

    Raises:
        MissingColumnError: req_a or req_b absent from the header, all named.
        MalformedCsvError: a line that is not UTF-8 or not readable CSV.
        BlankReqIdError: rows with a blank side.
        SelfPairError: rows whose two sides are one requirement, which no
            finding can pair.
        EmptyGoldError: a header but no pairs.
    """
    pairs: set[tuple[str, str]] = set()
    blank_rows: list[int] = []
    self_rows: list[int] = []
    with read_csv(path, ("req_a", "req_b")) as (header, table):
        require_columns(path, header, ("req_a", "req_b"))
        for line, (a, b) in table:
            a, b = (a or "").strip(), (b or "").strip()
            if not (a and b):
                blank_rows.append(line)
            elif a == b:
                self_rows.append(line)
            else:
                pairs.add((min(a, b), max(a, b)))
    if blank_rows:
        raise BlankReqIdError(blank_rows)
    if self_rows:
        raise SelfPairError(self_rows)
    if not pairs:
        raise EmptyGoldError(f"no gold pairs in {path}")
    return GoldPairs(kind=kind, pairs=frozenset(pairs))


def score(
    findings: list[PairFinding], gold: GoldPairs, threshold: float = 80.0
) -> PairScore:
    """Detection rate of findings of the gold kind against the gold pairs.

    rate = 100 * detected_true / gold_total, rounded half-up to 2
    decimals; meets_target uses a strictly-greater comparison.
    """
    if not gold.pairs:
        raise EmptyGoldError("gold pair set is empty")
    relevant = {f.pair for f in findings if f.kind == gold.kind}
    detected_true = len(relevant & gold.pairs)
    rate = percentage(detected_true, len(gold.pairs))
    return PairScore(
        detected_true=detected_true,
        gold_total=len(gold.pairs),
        false_positive=len(relevant - gold.pairs),
        rate=rate,
        meets_target=rate > threshold,
    )
