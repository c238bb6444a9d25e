"""Config-driven task pipeline.

A pipeline config is a JSON object whose top-level keys are task names;
the keys "defaults", "llm" and "thresholds" are reserved. "defaults"
holds field values merged under every task, "llm" configures the backend
and request parameters, and "thresholds" overrides metric acceptance
thresholds. Paths inside a task resolve against its project_dir, which
itself resolves against the directory holding the config file.

ANALYSES holds one Analysis per analysis function: its body, its raw
file's reader, the ReportInputs field it publishes, its gold pair kind,
the task keys it reads besides COMMON_KEYS, the joined-CSV columns it
reads and the other tasks' parts it takes. An analysis that reads no
delta is local: it calls no backend. A key set in a task's own block
that its analysis does not read fails load_config. A task whose
input_file is an earlier task's joined CSV takes that task's rows as
published in the same run, else reads the file; naming the joined CSV
of a task that runs later fails load_config.

A task body only computes; run_task alone writes a task's files, those
_task_files names, after the body has returned, scoring included: a
classification's joined CSV, the quarantine file of the records a task
could not use (removed when a task that knows them has none) and, last,
the primary output <output_path>/raw/<task>_<version tag>.json. When a
backend task executes, or a local analysis computes, run_task records
each file it wrote with its sha256, and the count and score, under
<config_dir>/.safereq/ (see store), keyed by _task_key. A delta task is
skipped (zero backend calls) only while store.verify finds that record
for its current key, listing the raw file and no other file but those
of _task_files, each still hashing as recorded. Its items are published
unparsed, its score kept while the gold file is the same; _raw_text
reads the file again, checked against the sha256 verified, only if
something parses them. A local analysis follows the same rule under
force alone: a reuse reads the coverage matrix back from its own raw
file, writes nothing and reports Succeeded with the detail it reported
when it computed. So an unchanged rerun reads no raw file of a backend
task. Rows taken from an upstream enter a key as its raw sha256, the one
it published or recorded beside the joined CSV read instead. So an
upstream that executes into the same raw file leaves its readers reused
(early cutoff), and a run of one task, a run after a failed upstream and
a dry run (which publishes what a reuse would, and says would reuse) key
a task as a full rerun does. execute false parses the file through
_raw_text too, and never records it. run_task publishes what a body
returns as the last step of a task that has succeeded: a failed task
writes and publishes nothing but a .partial file; the next success
removes it. Every file is written to a temp file, synced and moved into
place, so no crash leaves a truncated file a run trusts.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from collections import Counter
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field
from datetime import date
from itertools import chain, zip_longest
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, get_type_hints

from .catalog import (
    FunctionCatalog,
    catalog_from_alias_map,
    catalog_from_mapping,
)
from .classify import (
    CLASSIFIED_COLUMNS,
    ClassifiedRequirement,
    accuracy,
    classified_record,
    classified_table,
    classify,
)
from .coverage import (
    COVERAGE_COLUMNS,
    CoverageRow,
    build_matrix,
    coverage_cells,
    gap_ranking,
    matrix_of,
)
from .errors import (
    InvalidConfigError,
    MalformedJsonError,
    MalformedRawFileError,
    MismatchedIdSetsError,
    SafereqError,
    UnknownAnalysisFunctionError,
)
from .gateway import (
    Backend,
    CountingBackend,
    HttpBackend,
    LlmRequestParams,
    MockBackend,
    PromptEnvelope,
    PromptResource,
    check_encodable,
    read_utf8,
)
from .pairwise import (
    DUPLICATE_PROMPTS,
    KIND_CONTRADICTION,
    KIND_DUPLICATE,
    DetectionResult,
    PairFinding,
    PairScore,
    cluster_by_function,
    detect_contradictions,
    detect_duplicates,
    finding_record,
    load_gold_pairs,
    score,
)
from .reporting import (
    DEFAULT_THRESHOLDS,
    ReportInputs,
    ReportSet,
    _write_csv,
    _write_json,
    emit_report_set,
    report_key,
)
from .store import file_sha256, record, verify
from .store import load as load_record
from .requirements import Requirement, load_requirements, read_keyed_csv
from .requirements import chunk as chunk_requirements

TASK_TYPE = "GENERATIVE_ANALYSIS_TASK"
RESERVED_KEYS = ("defaults", "llm", "thresholds")

ANALYSIS_COMPLETENESS = "analyze_requirement_completeness"
ANALYSIS_COVERAGE = "analyze_coverage_gaps"
ANALYSIS_DUPLICATES = "analyze_duplicate_requirements"
ANALYSIS_CONTRADICTIONS = "analyze_contradicting_requirements"

STATUS_SUCCEEDED = "Succeeded"
STATUS_SKIPPED = "Skipped"
STATUS_FAILED = "Failed"
STATUS_PLANNED = "Planned"  # dry runs only


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class TaskConfig:
    """A task block over the defaults; every field but name is a key it may set, typed."""

    name: str
    type: str = TASK_TYPE
    run: bool = True
    delta: bool = False
    project_dir: str = "."
    input_file: str = ""
    dataset_name: str = "Requirements"
    dataset_id_column: str = "ReqID"
    dataset_columns: list[str] = field(default_factory=list)
    result_columns: list[str] = field(default_factory=list)
    instructions: str = ""
    resources: str = ""
    output_path: str = "results"
    chunk_size: int = 10
    max_items: int = -1
    execute: bool = True
    analyze: bool = True
    analysis_function: str = ANALYSIS_COMPLETENESS
    verbose: bool = False
    gold_file: str = ""  # labels or pairs to score the task against
    metric: str = ""  # the score's name; empty means the analysis' own
    prompt_version: str = "V3"  # a DUPLICATE_PROMPTS key
    gold_include_type: bool = True  # classification accuracy also checks Type


@dataclass
class PipelineConfig:
    tasks: list[TaskConfig]
    llm: dict
    thresholds: dict[str, float]
    config_dir: Path
    # Each task whose input_file is an earlier task's joined CSV, and that task.
    upstream: dict[str, str] = field(default_factory=dict)
    # Each task's project_dir, resolved against config_dir once.
    project_dirs: dict[str, Path] = field(default_factory=dict)

    def task(self, name: str) -> TaskConfig:
        for task in self.tasks:
            if task.name == name:
                return task
        raise KeyError(name)


Problem = tuple[str, str, str]  # (task or block, key, message)


# What a config value admits, by the annotation of the key it sets, and the
# message for a value it refuses. Numbers test type(), as JSON true and false
# are Python ints.
_ADMITS: dict[object, tuple[Callable[[object], bool], str]] = {
    str: (lambda v: isinstance(v, str), "must be a string"),
    bool: (lambda v: isinstance(v, bool), "must be true or false"),
    int: (lambda v: type(v) is int, "must be an integer"),
    float: (
        lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
        "must be a finite number",
    ),
    list[str]: (
        lambda v: isinstance(v, list) and all(isinstance(i, str) and i for i in v),
        "must be a list of non-empty names",
    ),
}

_TASK_TYPES = {k: t for k, t in get_type_hints(TaskConfig).items() if k != "name"}
# The keys every task reads; Analysis.reads names the rest.
COMMON_KEYS = frozenset(
    "type run project_dir input_file dataset_id_column output_path execute analyze"
    " analysis_function verbose".split()
)
_BACKEND_KEYS = ("backend", "fixture_dir", "endpoint_url", "api_key_file", "api_key_env")
_LLM_TYPES = {**get_type_hints(LlmRequestParams), **dict.fromkeys(_BACKEND_KEYS, str)}

# The llm rules a type cannot state.
_LLM_RANGES = {
    "max_concurrency": (lambda n: n >= 1, "must be a positive integer"),
    "max_retries": (lambda n: n >= 0, "must not be negative"),
    "backoff_start": (lambda n: n >= 0, "must not be negative"),
    "timeout": (lambda n: n > 0, "must be positive"),
}


def _typed(owner: str, body: dict, types: dict) -> tuple[dict, list[Problem]]:
    """Split body into the entries types names and admits, and a problem per other entry."""
    unknown = "unknown key; expected one of " + ", ".join(sorted(types))
    admitted, problems = {}, []
    for key, value in body.items():
        if key not in types:
            problems.append((owner, key, unknown))
        elif _ADMITS[types[key]][0](value):
            admitted[key] = value
        else:
            problems.append((owner, key, _ADMITS[types[key]][1]))
    return admitted, problems


def _validate_task(t: TaskConfig, thresholds: dict, refused: set[str]) -> list[Problem]:
    """The task rules a type cannot state.

    The keys in refused failed their type check and hold their defaults,
    so no rule reports them again.
    """
    problems: list[Problem] = []

    def need(condition: bool, field_name: str, message: str) -> None:
        if not condition and field_name not in refused:
            problems.append((t.name, field_name, message))

    need(t.type == TASK_TYPE, "type", f"must be {TASK_TYPE!r}")
    for key in ("input_file", "output_path", "dataset_id_column"):
        need(bool(getattr(t, key)), key, "required")
    paths = ("project_dir", "input_file", "instructions", "resources", "output_path", "gold_file")
    for key in paths:
        need("\0" not in getattr(t, key), key, "a path must not hold a NUL character")
    need(t.chunk_size >= 1, "chunk_size", "must be a positive integer")
    need(t.max_items >= -1, "max_items", "must be an integer >= -1 (-1 means no limit)")
    for key, known in (
        ("analysis_function", ANALYSES),
        ("prompt_version", DUPLICATE_PROMPTS),
    ):
        expected = "unknown; expected one of " + ", ".join(sorted(known))
        need(getattr(t, key) in known, key, expected)
    metrics = {**DEFAULT_THRESHOLDS, **thresholds}
    need(not t.metric or t.metric in metrics, "metric", f"no threshold configured for {t.metric!r}")

    analysis = ANALYSES.get(t.analysis_function)
    reads = analysis.reads if analysis else frozenset()
    if "dataset_columns" in reads:
        need(bool(t.dataset_columns), "dataset_columns", "must name at least one column")
    if "result_columns" in reads:
        # The id column leads every joined row already.
        unknown = [c for c in t.result_columns if c == "ReqID" or c not in CLASSIFIED_COLUMNS]
        need(not unknown, "result_columns", "unknown result columns: " + ", ".join(unknown))
    if "instructions" in reads and t.execute:
        need(bool(t.instructions), "instructions", "required when execute is true")
    if analysis and analysis.local:
        need(not t.execute, "execute", "analysis is local; must be false")
    need(t.execute or t.analyze or not t.run, "analyze", "task neither executes nor analyzes")
    return problems


def _link_upstream(config: PipelineConfig) -> list[Problem]:
    """Fill config.upstream; a problem for each task reading a joined CSV not written before it."""
    # Normalized spellings, so "results/../results/joined/x.csv" names x.csv too.
    joined = {
        os.path.normpath(_joined_path(config, t)): at
        for at, t in enumerate(config.tasks)
        if ANALYSES[t.analysis_function].slot == "classified"
    }
    problems: list[Problem] = []
    for at, t in enumerate(config.tasks):
        producer = joined.get(os.path.normpath(_resolve(config, t, t.input_file)))
        if producer is None:
            continue
        name = config.tasks[producer].name
        if producer < at:
            config.upstream[t.name] = name
        else:
            problems.append((t.name, "input_file", f"{name}'s joined CSV, not written before it"))
    return problems


def _read_json(path: Path):
    """The JSON value in a config or resources file, read strictly.

    Text that is not UTF-8 or not JSON, a string that holds a lone
    surrogate (a "\\ud800" escape), and an object that repeats a key
    (which plain json.loads would settle by keeping the last), raise
    MalformedJsonError naming the file. An unreadable path raises its
    OSError.
    """

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
            raise MalformedJsonError(f"repeated key {key!r} in {path}")
        return obj

    try:
        text = path.read_text(encoding="utf-8")
        value = json.loads(text, object_pairs_hook=unique_keys)
        check_encodable(value, text)
        return value
    except (UnicodeError, json.JSONDecodeError) as exc:
        raise MalformedJsonError(f"not valid JSON in {path}: {exc}") from exc


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and validate a pipeline config file.

    Raises:
        InvalidConfigError: carrying every (task, field, problem) found,
            not just the first.
    """
    config_path = Path(path)
    try:
        raw = _read_json(config_path)
    except FileNotFoundError:
        raise InvalidConfigError([("", "config", f"file not found: {config_path}")])
    except (OSError, MalformedJsonError) as exc:
        raise InvalidConfigError([("", "config", str(exc))])
    if not isinstance(raw, dict):
        raise InvalidConfigError([("", "config", "root must be a JSON object")])

    problems: list[Problem] = []
    blocks = {}
    for key in RESERVED_KEYS:
        blocks[key] = raw.get(key, {})
        if not isinstance(blocks[key], dict):
            problems.append((key, "", "must be a JSON object"))
            blocks[key] = {}
    llm, found = _typed("llm", blocks["llm"], _LLM_TYPES)
    problems += found
    problems += [
        ("llm", key, message)
        for key, (holds, message) in _LLM_RANGES.items()
        if key in llm and not holds(llm[key])
    ]
    numbers = dict.fromkeys(blocks["thresholds"], float)  # any metric name
    thresholds, found = _typed("thresholds", blocks["thresholds"], numbers)
    problems += found
    thresholds = {key: float(value) for key, value in thresholds.items()}

    tasks: list[TaskConfig] = []
    for name, body in raw.items():
        if name in RESERVED_KEYS:
            continue
        if not isinstance(body, dict):
            problems.append((name, "", "task must be a JSON object"))
            continue
        fields, found = _typed(name, {**blocks["defaults"], **body}, _TASK_TYPES)
        task = TaskConfig(name=name, **fields)
        refused = {key for _, key, _ in found}
        problems += found
        problems += _validate_task(task, thresholds, refused)
        # Only keys its analysis reads may be set in a task's own block.
        analysis = ANALYSES.get(task.analysis_function)
        if analysis and "analysis_function" not in refused:
            read = COMMON_KEYS | analysis.reads
            unread = f"not read by {task.analysis_function}"
            problems += [(name, k, unread) for k in body if k in _TASK_TYPES and k not in read]
        tasks.append(task)

    if not tasks and not problems:
        problems.append(("", "config", "no tasks defined"))
    config = PipelineConfig(
        tasks=tasks, llm=llm, thresholds=thresholds, config_dir=config_path.parent.resolve()
    )
    if not problems:  # a path that holds a NUL cannot be resolved
        config.project_dirs = {t.name: (config.config_dir / t.project_dir).resolve() for t in tasks}
        problems += _link_upstream(config)
    if problems:
        raise InvalidConfigError(problems)
    return config


def params_from_llm_config(llm: dict) -> LlmRequestParams:
    return LlmRequestParams(**{k: v for k, v in llm.items() if k not in _BACKEND_KEYS})


def build_backend(llm: dict, config_dir: Path, kind: str | None = None) -> Backend:
    """Construct the backend the llm config (or the override) names."""
    kind = kind or llm.get("backend", "mock")
    if kind == "mock":
        fixture_dir = config_dir / llm.get("fixture_dir", "fixtures")
        return MockBackend(fixture_dir)
    if kind == "http":
        endpoint = llm.get("endpoint_url", "")
        if not endpoint:
            raise InvalidConfigError([("llm", "endpoint_url", "required for the http backend")])
        key_file = llm.get("api_key_file")
        return HttpBackend(
            endpoint,
            api_key_file=config_dir / key_file if key_file else None,
            api_key_env=llm.get("api_key_env", "OPENAI_API_KEY"),
        )
    raise InvalidConfigError([("llm", "backend", f"unknown backend {kind!r}")])


# ---------------------------------------------------------------------------
# Pipeline state and results
# ---------------------------------------------------------------------------


@dataclass
class PipelineContext:
    """Artifacts shared across the tasks of one pipeline run."""

    config: PipelineConfig
    backend: Backend
    params: LlmRequestParams
    version_tag: str
    force: bool = False
    verbose: bool = False
    # What the tasks publish: the catalog, their results and their scores.
    reports: ReportInputs = field(default_factory=ReportInputs)
    # By task name, what each task published: its ReportInputs field, the
    # part and the sha256 of the raw file it was read from or written to.
    published: dict[str, tuple[str, object, str]] = field(default_factory=dict)

    def __post_init__(self):
        # Counted here, so TaskResult.backend_calls holds for any Backend.
        if not isinstance(self.backend, CountingBackend):
            self.backend = CountingBackend(self.backend)


@dataclass
class TaskResult:
    name: str
    status: str
    detail: str = ""
    files: list[Path] = field(default_factory=list)
    backend_calls: int = 0


@dataclass
class RunReport:
    results: list[TaskResult]
    report_set: ReportSet | None = None

    @property
    def failed(self) -> list[TaskResult]:
        return [r for r in self.results if r.status == STATUS_FAILED]


# ---------------------------------------------------------------------------
# Path helpers
# ---------------------------------------------------------------------------


def _resolve(cfg: PipelineConfig, task: TaskConfig, relative: str) -> Path:
    return cfg.project_dirs[task.name] / relative


def _out_dir(cfg: PipelineConfig, task: TaskConfig) -> Path:
    return _resolve(cfg, task, task.output_path)


def _joined_path(cfg: PipelineConfig, task: TaskConfig) -> Path:
    return _out_dir(cfg, task) / "joined" / f"{task.name}_joined.csv"


def _task_files(ctx: PipelineContext, task: TaskConfig) -> dict[str, Path]:
    """The files run_task writes for a task, under the labels its record lists."""
    out, tag = _out_dir(ctx.config, task), ctx.version_tag
    return {
        "raw": out / "raw" / f"{task.name}_{tag}.json",
        "joined": _joined_path(ctx.config, task),
        "quarantine": out / "quarantine" / f"{task.name}_{tag}.json",
    }


def _record_path(cfg: PipelineConfig, name: str) -> Path:
    return cfg.config_dir / ".safereq" / f"{name}.json"


def _raw_record_path(cfg: PipelineConfig, name: str, tag: str) -> Path:
    return _record_path(cfg, f"raw_{name}_{tag}")


# ---------------------------------------------------------------------------
# Shared task ingredients
# ---------------------------------------------------------------------------


def _read_instructions(ctx: PipelineContext, task: TaskConfig) -> str:
    path = _resolve(ctx.config, task, task.instructions)
    if not path.exists():
        raise SafereqError(f"instructions file not found: {path}")
    return read_utf8(path)


def _resources_payload(ctx: PipelineContext, task: TaskConfig) -> dict:
    if not task.resources:
        return {}
    path = _resolve(ctx.config, task, task.resources)
    if not path.exists():
        raise SafereqError(f"resources file not found: {path}")
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise SafereqError(f"resources file must hold a JSON object: {path}")
    return payload


def _catalog_for(resources: dict) -> FunctionCatalog | None:
    """Catalog from a task's ARCHITECTURE resource, if its resources hold one.

    Accepts the nested {system: {alias: lineage}} shape as well as the
    flat {alias: lineage} shape.
    """
    architecture = resources.get("ARCHITECTURE")
    if architecture is None:
        return None
    if not isinstance(architecture, dict):
        raise SafereqError("ARCHITECTURE resource must be a JSON object")
    if architecture and all(isinstance(v, str) for v in architecture.values()):
        return catalog_from_alias_map(architecture)
    return catalog_from_mapping(architecture)


def _catalog(
    ctx: PipelineContext, task: TaskConfig, resources: dict | None = None
) -> FunctionCatalog | None:
    """The run's catalog, else one built from resources, read from the task's file if None."""
    return ctx.reports.catalog or _catalog_for(
        _resources_payload(ctx, task) if resources is None else resources
    )


def _require_catalog(
    ctx: PipelineContext, task: TaskConfig, resources: dict | None = None
) -> FunctionCatalog:
    catalog = _catalog(ctx, task, resources)
    if catalog is None:
        raise SafereqError("no ARCHITECTURE resource configured; cannot build the function catalog")
    return catalog


def _classified_from_file(
    path: Path, id_column: str, columns: Sequence[str] = ("Function", "Type")
) -> list[ClassifiedRequirement]:
    """Classified rows of a joined CSV: only columns are read, other fields empty, confidence 0."""
    _, table = read_keyed_csv(path, id_column, columns)
    fields = ["req_id", *(CLASSIFIED_COLUMNS[name] for name in columns)]
    unread = {"function": "", "rtype": "", "confidence": 0}
    return [
        ClassifiedRequirement(**{**unread, **dict(zip(fields, row))})
        for row in zip(table[id_column], *(table[name] for name in columns))
    ]


def _classified_for(
    ctx: PipelineContext, task: TaskConfig, columns: Sequence[str]
) -> Sequence[ClassifiedRequirement]:
    """The rows the task's upstream published in this run, else columns of input_file."""
    producer = ctx.config.upstream.get(task.name)
    if producer in ctx.published:
        return ctx.published[producer][1]
    path = _resolve(ctx.config, task, task.input_file)
    if not path.exists():
        if producer is not None:
            raise SafereqError(f"missing upstream output: {path}")
        raise SafereqError(f"input file not found: {path}")
    return _classified_from_file(path, task.dataset_id_column, columns)


@contextmanager
def _raw_errors(path: Path) -> Iterator[None]:
    """Raise MalformedRawFileError for what the raw file at path trips in the with block."""
    try:
        yield
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise MalformedRawFileError(f"malformed raw file {path}: {exc!r}") from exc


def _raw_text(path: Path, sha: str | None = None) -> str:
    """The text of the raw file at path; given sha, the sha256 verify took
    of it, bytes that are gone or hash otherwise raise
    MalformedRawFileError, so a parse reads only the bytes verified."""
    with _raw_errors(path):
        try:
            data = path.read_bytes()
        except OSError as exc:
            if sha is None:
                raise
            raise ValueError(f"gone since it was verified: {exc}") from exc
        if sha not in (None, hashlib.sha256(data).hexdigest()):
            raise ValueError(f"changed since it was verified as sha256 {sha}")
        return data.decode("utf-8")


@contextmanager
def _raw_payload(path: Path, text: str) -> Iterator[dict]:
    """The JSON object in text, read from the raw file at path.

    A payload of another shape, met here or in the with block as it is
    read, and a string that holds a lone surrogate raise
    MalformedRawFileError instead of whatever they tripped.
    """
    with _raw_errors(path):
        payload = json.loads(text)
        check_encodable(payload, text)
        if not isinstance(payload, dict):
            raise TypeError(f"the root is a JSON {type(payload).__name__}, not an object")
        yield payload


_ROW_TEXT = ("function", "rtype", "system_requirement", "function_explanation", "type_explanation")
_FINDING_TEXT = ("kind", "function", "rationale")


def _require_text(values: Iterable, what: str) -> None:
    """Raise TypeError unless every value is a str; one column at a time stays in C."""
    if not {str}.issuperset(map(type, values)):
        raise TypeError(f"a {what} value is not a string")


def _rows_from_raw(
    path: Path, text: str
) -> tuple[list[ClassifiedRequirement], list[tuple[dict, str]]]:
    with _raw_payload(path, text) as payload:
        rows = [  # the fields in order: positional arguments bind faster
            ClassifiedRequirement(
                str(r["ReqID"]), r["Function"], r["Type"], int(r["Confidence"]),
                r.get("System Requirement", ""), r.get("Function_Explanation", ""),
                r.get("Type_Explanation", ""), tuple(r.get("Flags", ())),
            )
            for r in payload.get("rows", [])
        ]
        # Later tasks and the reports read these as text, after the task has ended.
        for name in _ROW_TEXT:
            _require_text(map(attrgetter(name), rows), name)
        _require_text(chain.from_iterable(map(attrgetter("flags"), rows)), "flags")
        quarantined = [(rec, reason) for rec, reason in payload.get("quarantined", [])]
    return rows, quarantined


def _findings_from_raw(path: Path, text: str) -> tuple[list[PairFinding], list[str]]:
    with _raw_payload(path, text) as payload:
        findings = [
            PairFinding(  # req_a, req_b, kind, function, rationale
                str(f["ReqID_A"]), str(f["ReqID_B"]), f["Relation"],
                f.get("Function", ""), f.get("Rationale", ""),
            )
            for f in payload.get("findings", [])
        ]
        notes = list(payload.get("notes", []))
        for name in _FINDING_TEXT:
            _require_text(map(attrgetter(name), findings), name)
        _require_text(notes, "notes")
    return findings, notes


def _coverage_from_raw(path: Path, text: str) -> tuple[list[CoverageRow], list]:
    # Read only for a reuse, which has checked the file's sha256.
    with _raw_payload(path, text) as payload:
        rows = [CoverageRow(*map(r.__getitem__, COVERAGE_COLUMNS)) for r in payload["rows"]]
    return rows, []


class _Unread(Sequence):
    """A verified raw file's items, parsed on first use, once, from its bytes
    as _raw_text checks them; its length is the recorded count."""

    def __init__(self, parse: Callable[[], list], count: int):
        self._parse, self._count, self._items = parse, count, None

    def _parsed(self) -> list:
        if self._items is None:
            self._items, self._parse = self._parse(), None
        return self._items

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, at):
        return self._parsed()[at]

    def __iter__(self):
        return iter(self._parsed())


@dataclass
class _Previous:
    """A task's results as run_task read them back from its raw file."""

    items: Sequence  # classified rows, findings or coverage rows
    extra: list  # quarantined records or notes; empty when unparsed
    score: float | None = None  # recorded for the current gold file and settings


def _load_gold_labels(path: Path) -> dict[str, tuple[str, str]]:
    _, table = read_keyed_csv(path, "ReqID", ("Function", "Type"))
    return dict(zip(table["ReqID"], zip(table["Function"], table["Type"])))


def _metric(task: TaskConfig, analysis: Analysis) -> str:
    """The name a task's score is published and thresholded under."""
    return task.metric or ("classification" if analysis.slot == "classified" else analysis.slot)


def _accuracy(
    ctx: PipelineContext, task: TaskConfig, rows: Sequence[ClassifiedRequirement]
) -> float:
    """The accuracy of classified rows against the task's gold labels."""
    gold = _load_gold_labels(_resolve(ctx.config, task, task.gold_file))
    return accuracy(rows, gold, include_type=task.gold_include_type)


def _pair_score(
    ctx: PipelineContext, task: TaskConfig, analysis: Analysis, findings: Sequence[PairFinding]
) -> PairScore:
    """The score of findings against the task's gold pairs."""
    gold = load_gold_pairs(_resolve(ctx.config, task, task.gold_file), analysis.gold)
    threshold = {**DEFAULT_THRESHOLDS, **ctx.config.thresholds}.get(_metric(task, analysis), 80.0)
    return score(findings, gold, threshold=threshold)


# ---------------------------------------------------------------------------
# Task bodies
# ---------------------------------------------------------------------------


class _Done(NamedTuple):
    """What a task body hands back to run_task, which alone writes, publishes and records it."""

    record: dict  # what run_task writes to the raw file; a reuse writes none
    detail: str
    # What run_task records beside the files' sha256s: the items and their score.
    count: int = 0
    score: float | None = None
    # The records the task could not use, each with its reason; None when
    # unknown, which leaves the quarantine file as it is.
    quarantined: Sequence[tuple[dict, str]] | None = ()
    joined: tuple[list[str], Iterable[list]] | None = None  # header, rows made as written
    # What run_task publishes when analyze is true: the part for the
    # analysis' slot and, if any, the catalog that goes with it.
    part: object = None
    catalog: FunctionCatalog | None = None


def _require_input_ids(
    input_path: Path, inputs: list[Requirement], rows: list[ClassifiedRequirement]
) -> None:
    """Raise unless rows read back from the raw file hold the inputs' ids, in order.

    The joined table pairs each input with the row at its position.
    """
    pairs = zip_longest((req.req_id for req in inputs), (row.req_id for row in rows))
    for want, have in pairs:
        if want != have:
            raise MismatchedIdSetsError(
                "execute is false but the previous raw output does not match "
                f"{input_path}: ReqID {want if want is not None else have!r} differs; "
                "execute the task again"
            )


def _task_completeness(
    ctx: PipelineContext, task: TaskConfig, previous: _Previous | None, reuse: bool
) -> _Done:
    if reuse:  # nothing to compute
        rows, value = previous.items, previous.score
        catalog = _require_catalog(ctx, task) if task.analyze else None
        if task.analyze and task.gold_file and value is None:
            value = _accuracy(ctx, task, rows)
        detail = f"reused {len(rows)} classified rows"
        return _Done({}, detail, len(rows), value, part=rows, catalog=catalog)

    resources = _resources_payload(ctx, task)
    catalog = _require_catalog(ctx, task, resources)
    input_path = _resolve(ctx.config, task, task.input_file)
    if not input_path.exists():
        raise SafereqError(f"input file not found: {input_path}")
    requirements = load_requirements(input_path, task.dataset_id_column, task.dataset_columns)
    chunks = chunk_requirements(requirements, task.chunk_size, task.max_items)
    inputs = [req for piece in chunks for req in piece.rows]

    if task.execute:
        template = PromptEnvelope(
            instructions=_read_instructions(ctx, task),
            resources=tuple(
                PromptResource(tag=key, body=value) for key, value in resources.items()
            ),
            dataset_name=task.dataset_name,
        )
        outcome = classify(chunks, template, catalog, ctx.params, ctx.backend)
        rows, quarantined = outcome.rows, outcome.quarantined
    else:
        rows, quarantined = previous.items, previous.extra
        _require_input_ids(input_path, inputs, rows)

    gold_value = joined = None
    if task.analyze:
        joined = (
            [task.dataset_id_column, *task.dataset_columns, *task.result_columns],
            (
                [req.req_id, *[req.extra.get(col, "") for col in task.dataset_columns], *cells]
                for req, cells in zip(inputs, classified_table(rows, task.result_columns))
            ),
        )
        gold_value = _accuracy(ctx, task, rows) if task.gold_file else None

    record = {
        "rows": [classified_record(row) for row in rows],
        "quarantined": [[rec, reason] for rec, reason in quarantined],
        "accuracy": gold_value,
    }
    detail = f"{len(rows)} requirements classified, {len(quarantined)} quarantined"
    if gold_value is not None:
        detail += f", accuracy {gold_value:.2f}"
    return _Done(record, detail, len(rows), gold_value, quarantined, joined, rows, catalog)


def _task_coverage(
    ctx: PipelineContext, task: TaskConfig, previous: _Previous | None, reuse: bool
) -> _Done:
    if reuse:  # the matrix its raw file holds; the catalog is in its key
        matrix, catalog = matrix_of(list(previous.items)), _require_catalog(ctx, task)
    else:
        classified = _classified_for(ctx, task, ANALYSES[task.analysis_function].columns)
        catalog = _require_catalog(ctx, task)
        matrix = build_matrix(classified, catalog)
    gaps = gap_ranking(matrix)
    record = {
        "rows": [dict(zip(COVERAGE_COLUMNS, coverage_cells(row))) for row in matrix.rows],
        "totals": list(matrix.totals),
        "gap_ranking": [{"Function": row.alias, "Shortfall": missing} for row, missing in gaps],
    }
    detail = f"{len(matrix.rows)} functions, {len(gaps)} with missing coverage"
    return _Done(record, detail, len(matrix.rows), part=matrix, catalog=catalog)


def _task_pairs(
    ctx: PipelineContext, task: TaskConfig, previous: _Previous | None, reuse: bool
) -> _Done:
    analysis = ANALYSES[task.analysis_function]
    if reuse:  # nothing to compute
        findings, rate = previous.items, previous.score
        if task.analyze and task.gold_file and rate is None:
            rate = _pair_score(ctx, task, analysis, findings).rate
        return _Done({}, f"reused {len(findings)} findings", len(findings), rate, part=findings)

    classified = _classified_for(ctx, task, analysis.columns)
    clusters = cluster_by_function(classified, _catalog(ctx, task))

    # The detectors are looked up when called, so wrapping the module-level
    # names (as a tracer does) still takes effect.
    args = (clusters, ctx.params, ctx.backend)
    if not task.execute:  # the raw file read back holds no rejected records
        detection = DetectionResult(previous.items, previous.extra)
    elif analysis.gold == KIND_DUPLICATE:
        detection = detect_duplicates(*args, prompt_version=task.prompt_version)
    else:  # contradictions skip the pairs duplicates found earlier in the run
        detection = detect_contradictions(*args, duplicates=ctx.reports.duplicates or [])
    scored = task.analyze and task.gold_file
    pair_score = _pair_score(ctx, task, analysis, detection.findings) if scored else None
    versioned = "prompt_version" in analysis.reads
    record = {
        **({"prompt_version": task.prompt_version} if versioned else {}),
        "findings": [finding_record(f) for f in detection.findings],
        "notes": detection.notes,
        "score": asdict(pair_score) if pair_score else None,
    }
    detail = f"{len(detection.findings)} findings across {len(clusters)} function clusters"
    if pair_score:
        detail += f", detection rate {pair_score.rate:.2f}"
    rate = pair_score.rate if pair_score else None
    quarantined = detection.rejected if task.execute else None
    findings = detection.findings
    return _Done(record, detail, len(findings), rate, quarantined, part=findings)


@dataclass(frozen=True)
class Analysis:
    """What load_config and run_task know of one analysis function."""

    # (ctx, task, the raw file read back or None, reuse): it computes, and writes nothing.
    body: Callable[[PipelineContext, TaskConfig, _Previous | None, bool], _Done]
    # Parses the raw file for a reuse and, for a backend analysis, for execute false.
    reader: Callable[[Path, str], tuple]
    slot: str  # the ReportInputs field it publishes when analyze is true
    gold: str  # the kind gold pairs are scored as; "" for gold labels or none
    reads: frozenset[str]  # the TaskConfig keys it reads besides COMMON_KEYS
    columns: tuple[str, ...] = ()  # the joined-CSV columns it reads through _classified_for
    takes: frozenset[str] = frozenset()  # the ReportInputs fields other tasks published it reads

    @property
    def local(self) -> bool:
        """Whether it calls no backend: then it reads no delta, which guards
        backend work, and must set execute false."""
        return "delta" not in self.reads


_PAIR_COLUMNS = ("Function", "System Requirement")
ANALYSES = {
    ANALYSIS_COMPLETENESS: Analysis(
        _task_completeness, _rows_from_raw, "classified", "",
        frozenset(
            "delta dataset_name dataset_columns result_columns instructions resources"
            " chunk_size max_items gold_file metric gold_include_type".split()
        ),
    ),
    ANALYSIS_COVERAGE: Analysis(
        _task_coverage, _coverage_from_raw, "coverage", "", frozenset({"resources"}),
        ("Function", "Type"),
    ),
    ANALYSIS_DUPLICATES: Analysis(
        _task_pairs, _findings_from_raw, "duplicates", KIND_DUPLICATE,
        frozenset("delta resources prompt_version gold_file metric".split()), _PAIR_COLUMNS,
    ),
    ANALYSIS_CONTRADICTIONS: Analysis(
        _task_pairs, _findings_from_raw, "contradictions", KIND_CONTRADICTION,
        frozenset("delta resources gold_file metric".split()), _PAIR_COLUMNS,
        frozenset({"duplicates"}),
    ),
}


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


# The keys that decide only whether or how loudly a task runs, or only its score.
_UNKEYED = frozenset("run delta verbose execute gold_file metric gold_include_type".split())


def _task_key(ctx: PipelineContext, task: TaskConfig, analysis: Analysis) -> str:
    """sha256 over what a keyed task's raw file is built from: the keys its
    analysis reads but _UNKEYED; its instructions, resources and input bytes,
    but an analysis with columns takes its upstream's rows by raw sha256
    (_upstream_raw_sha); each part it takes by raw sha256; its catalog; the
    request settings and the llm keys naming the backend."""
    reads = COMMON_KEYS | analysis.reads
    producer = ctx.config.upstream.get(task.name) if analysis.columns else None
    published = {slot: sha for slot, _, sha in ctx.published.values()}  # the last of each slot

    def digest(key: str) -> str | None:
        if key == "input_file" and producer in ctx.published:
            return ctx.published[producer][2]
        with suppress(OSError):  # a file the body cannot read fails it there
            sha = file_sha256(_resolve(ctx.config, task, getattr(task, key)))
            return _upstream_raw_sha(ctx, producer, sha) if key == "input_file" else sha

    catalog = ctx.reports.catalog
    if analysis.columns:  # as a full run keys it; else the bytes suffice
        with suppress(SafereqError, OSError):
            catalog = _catalog(ctx, task)
    parts = [
        {key: getattr(task, key) for key in sorted(reads - _UNKEYED)},
        [digest(key) for key in ("input_file", "instructions", "resources") if key in reads],
        [published.get(slot) for slot in sorted(analysis.takes)],
        None if catalog is None else catalog.alias_map(),
        [ctx.params.model_id, ctx.params.temperature, ctx.params.system_context],
        [ctx.config.llm.get(name) for name in ("backend", "endpoint_url", "fixture_dir")],
    ]
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def _upstream_raw_sha(ctx: PipelineContext, producer: str | None, joined: str) -> str:
    """The raw sha256 producer recorded beside a joined CSV of sha256 joined, else
    joined. That file holds the rows of that raw file, so a task reading it keys
    them as it would had producer published them in the run."""
    if producer is not None:
        task = ctx.config.task(producer)
        trace = _raw_record_path(ctx.config, producer, ctx.version_tag)
        saved = load_record(trace, None, _out_dir(ctx.config, task))
        raw = _listed_raw(ctx, task, saved["files"]) if saved else None
        if raw and saved["files"].get("joined", (None, None))[1] == joined:
            return raw[1]
    return joined


def _score_key(ctx: PipelineContext, task: TaskConfig, analysis: Analysis) -> str:
    """What a task's score comes from besides its raw file: its analysis, the
    gold_include_type it reads, if any, and the sha256 of the gold file it
    reads, if readable."""
    gold = None
    if task.gold_file and "gold_file" in analysis.reads:
        with suppress(OSError):
            gold = file_sha256(_resolve(ctx.config, task, task.gold_file))
    include_type = task.gold_include_type if "gold_include_type" in analysis.reads else None
    return json.dumps([task.analysis_function, include_type, gold])


def _listed_raw(ctx: PipelineContext, task: TaskConfig, files: dict) -> tuple[Path, str] | None:
    """The raw file a task's record lists in files, and its sha256; None unless
    files lists the task's raw file and no file but those of _task_files."""
    paths = _task_files(ctx, task)
    if "raw" not in files or any(paths.get(label) != file for label, (file, _) in files.items()):
        return None
    return files["raw"]


def _reused(
    ctx: PipelineContext,
    task: TaskConfig,
    reader: Callable[[Path, str], tuple],
    saved: dict,
    score_key: str,
) -> tuple[_Previous, str] | None:
    """The raw file of the verified record saved, unparsed, and its sha256; None
    unless _listed_raw finds it. The recorded score stands while score_key does."""
    if not (raw := _listed_raw(ctx, task, saved["files"])):
        return None
    raw_path, sha = raw
    items = _Unread(lambda: reader(raw_path, _raw_text(raw_path, sha))[0], saved["count"])
    score = saved["score"] if saved["score_key"] == score_key else None
    return _Previous(items, [], score), sha


def _read_back(reader: Callable[[Path, str], tuple], raw_path: Path) -> _Previous:
    """The raw file execute false takes, parsed and checked now."""
    if not raw_path.exists():
        raise SafereqError("execute is false and no previous raw output exists")
    return _Previous(*reader(raw_path, _raw_text(raw_path)))


def run_task(ctx: PipelineContext, task: TaskConfig, dry_run: bool = False) -> TaskResult:
    """Run (or skip) one task and return its outcome.

    See the module docstring for the task's files, its record and delta
    reuse. The body returns what the task writes and publishes; run_task
    writes it once the body has returned, and publishes it as the last
    step of a task that has succeeded. A SafereqError or OSError
    comes back as a Failed result; any other exception is a bug and propagates.
    """
    analysis = ANALYSES.get(task.analysis_function)
    if analysis is None:
        raise UnknownAnalysisFunctionError(task.analysis_function)
    out_dir, paths = _out_dir(ctx.config, task), _task_files(ctx, task)
    partial = Path(str(paths["raw"]) + ".partial")
    trace = _raw_record_path(ctx.config, task.name, ctx.version_tag)
    if not task.run:
        return TaskResult(task.name, STATUS_SKIPPED, "run is false")

    # A backend task is keyed when it executes, and reused only under delta; a
    # local analysis, which reads no delta, is always keyed and reused unless forced.
    keyed = analysis.local or task.execute
    key = _task_key(ctx, task, analysis) if keyed else ""
    may_reuse = (analysis.local or task.execute and task.delta) and not ctx.force
    saved = verify(trace, key, out_dir) if may_reuse else None
    via = "" if analysis.local else "delta: "

    calls_before = ctx.backend.calls
    try:
        # Taken before the body reads the gold file, so a record never pairs
        # a later gold file with a score of an earlier one.
        score_key = _score_key(ctx, task, analysis)
        reuse = _reused(ctx, task, analysis.reader, saved, score_key) if saved else None
        if dry_run and not reuse:
            return TaskResult(task.name, STATUS_PLANNED, "would execute")
        previous, sha = reuse or (None, None)
        if not keyed:  # a backend task that does not execute
            previous = _read_back(analysis.reader, paths["raw"])
        done = analysis.body(ctx, task, previous, bool(reuse))
        if dry_run:
            result = TaskResult(task.name, STATUS_PLANNED, f"{via}would reuse {paths['raw'].name}")
        elif reuse:  # a local analysis reports what it reported when it computed
            status = STATUS_SUCCEEDED if analysis.local else STATUS_SKIPPED
            result = TaskResult(task.name, status, via + done.detail)
        else:  # each file's sha256 by label: the raw file listed first, written last
            shas = {"raw": ""}
            if done.joined is not None:
                shas["joined"] = _write_csv(paths["joined"], *done.joined)
            if done.quarantined:
                entries = [{"record": rec, "reason": reason} for rec, reason in done.quarantined]
                shas["quarantine"] = _write_json(paths["quarantine"], entries)
            elif done.quarantined is not None:  # one an earlier run left
                paths["quarantine"].unlink(missing_ok=True)
            raw = {"task": task.name, "analysis_function": task.analysis_function, **done.record}
            shas["raw"] = sha = _write_json(paths["raw"], raw)
            files = {label: (paths[label], digest) for label, digest in shas.items()}
            written = [paths[label] for label in shas]
            result = TaskResult(task.name, STATUS_SUCCEEDED, done.detail, files=written)
            partial.unlink(missing_ok=True)
        # Only files the task computed are recorded: a file execute false read
        # back may predate the inputs of key. A reuse records again only a new
        # score, beside the files as recorded. A record only spares a later run
        # the work and the scoring; a path that is not UTF-8 cannot go into its JSON.
        if keyed and not dry_run and not (reuse and saved["score_key"] == score_key):
            facts = {"count": done.count, "score": done.score, "score_key": score_key}
            with suppress(OSError, UnicodeError):
                record(trace, key, out_dir, saved["files"] if reuse else files, **facts)
        # The one publication point. A reuse publishes as a real rerun would, so
        # a dry run plans the tasks after it alike.
        if task.analyze:
            ctx.reports.catalog = done.catalog or ctx.reports.catalog
            setattr(ctx.reports, analysis.slot, done.part)
            if done.score is not None:
                ctx.reports.scores[_metric(task, analysis)] = done.score
            ctx.published[task.name] = (analysis.slot, done.part, sha)
    except (SafereqError, OSError) as exc:
        result = TaskResult(task.name, STATUS_FAILED, str(exc))
        with suppress(OSError):  # the marker's directory cannot be made either
            if not dry_run:
                _write_json(partial, {"task": task.name, "error": str(exc)})
                result.files = [partial]

    result.backend_calls = ctx.backend.calls - calls_before
    if ctx.verbose or task.verbose:
        print(f"[{task.name}] {result.status}: {result.detail}")
    return result


def run_all(
    config_path: str | Path,
    backend: Backend | None = None,
    force: bool = False,
    version_tag: str | None = None,
    only_task: str | None = None,
    dry_run: bool = False,
    verbose: bool = False,
) -> RunReport:
    """Run every task in config order, then emit the assembled report set.

    The report set lands under <output_path>/reports of the config's last
    task, whichever tasks are selected, and covers whatever artifacts the
    run produced (results that delta-skipped tasks read back included);
    missing parts appear as not run in the summary.

    After writing the set, the run records its report_key, built from
    the raw sha256 of each task that published, and each file's sha256
    in <config dir>/.safereq/reports_<tag>.json. An unforced run hashes
    the files that record lists on a worker thread as it begins, while
    the tasks run; if its key then matches the record's and the files
    hashed as recorded, it writes nothing and returns the recorded set,
    marked reused. A report edited after that check and before the run
    ends is treated as one edited just after the run. A run of every
    task that writes the set deletes the files the record listed that
    this set lacks.
    """
    cfg = load_config(config_path)
    if only_task is not None and all(t.name != only_task for t in cfg.tasks):
        raise InvalidConfigError([(only_task, "task", "not defined in the config")])
    selected = [t for t in cfg.tasks if only_task in (None, t.name)]

    ctx = PipelineContext(
        config=cfg,
        backend=backend if backend is not None else build_backend(cfg.llm, cfg.config_dir),
        params=params_from_llm_config(cfg.llm),
        version_tag=version_tag or date.today().isoformat(),
        force=force,
        verbose=verbose,
        reports=ReportInputs(thresholds=cfg.thresholds),
    )
    reports_dir = _out_dir(cfg, cfg.tasks[-1]) / "reports"
    saved = _record_path(cfg, f"reports_{ctx.version_tag}")
    # A forced or dry run keeps no set, so it submits no check and starts no thread.
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="safereq-verify") as pool:
        check = None if force or dry_run else pool.submit(verify, saved, None, reports_dir)
        results = [run_task(ctx, task, dry_run=dry_run) for task in selected]
        kept = check.result() if check else None

    report_set = None
    if ctx.published and not dry_run:  # every part in ctx.reports
        inputs = ctx.reports
        published = [(name, slot, sha) for name, (slot, _, sha) in ctx.published.items()]
        key = report_key(inputs, ctx.version_tag, published)
        if kept and kept["key"] == key:
            report_set = ReportSet({n: file for n, (file, _) in kept["files"].items()}, reused=True)
        else:
            # A run of every task deletes the last set's files that this set lacks;
            # a --task run's set lacks the parts of the tasks it skipped.
            last = (kept or load_record(saved, None, reports_dir)) if only_task is None else None
            try:
                report_set = emit_report_set(inputs, reports_dir, ctx.version_tag)
                for file, _ in last["files"].values() if last else ():
                    if file not in report_set.files.values():
                        file.unlink(missing_ok=True)
            except OSError as exc:
                raise SafereqError(f"cannot write the report set to {reports_dir}: {exc}") from exc
            # The record only spares a later run the writes; without it, that run
            # writes again. A path that is not UTF-8 cannot go into its JSON.
            with suppress(OSError, UnicodeError):
                files = {n: (file, report_set.digests[n]) for n, file in report_set.files.items()}
                record(saved, key, reports_dir, files)
    return RunReport(results=results, report_set=report_set)
