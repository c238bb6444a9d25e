"""Config-driven task pipeline.

A pipeline config is a JSON object whose top-level keys are task names;
the keys "defaults", "llm" and "thresholds" are reserved. "defaults"
holds field values merged under every task, "llm" configures the backend
and request parameters, and "thresholds" overrides metric acceptance
thresholds. Paths inside a task resolve against its project_dir, which
itself resolves against the directory holding the config file.

ANALYSES holds one Analysis per analysis function: its body, its raw
file's reader (None for a local analysis), the task keys it reads besides
COMMON_KEYS, the ReportInputs field it publishes and its gold pair kind.
A key set in a task's own block that its analysis does not read fails
load_config; defaults may carry keys for any task. A task whose
input_file is an earlier task's joined CSV takes that task's rows as
published in the same run, and reads the file only when it published
none; naming the joined CSV of a task that runs later fails load_config.

A task's primary output is its raw file,
<output_path>/raw/<task>_<version tag>.json, and run_task alone reads
and writes it. After a task body succeeds, run_task writes the body's
record there, as the task's last write, and records the file's sha256,
its row or finding count and its score under <config_dir>/.safereq/
(see store). A task with delta enabled is skipped (zero backend calls)
when that file already exists. If the file still hashes as recorded,
the body publishes its rows or findings unparsed: they are parsed once,
when a later task or a report set that must be written again first
reads them, and the recorded score stands while the gold file's sha256
and the scoring settings match. Otherwise run_task reads and checks the
file at once, as it does for execute false, and records it for the next
run. Either way downstream tasks and the final report set behave exactly
as on the first run. Failures leave a .partial file beside the missing
output instead; the next success removes it. Every file is written to a
temp file beside it, synced to disk and moved into place, so neither a
crash nor a power loss leaves a truncated file a later run trusts.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from collections.abc import Sequence
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
from .coverage import COVERAGE_COLUMNS, build_matrix, coverage_cells, gap_ranking
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
from .store import file_sha256, record, reused_report_set, write_report_record
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
    if analysis and analysis.reader is None:
        need(not t.execute, "execute", "analysis is local; must be false")
    need(t.execute or t.analyze or not t.run, "analyze", "task neither executes nor analyzes")
    return problems


def _link_upstream(config: PipelineConfig) -> list[Problem]:
    """Fill config.upstream; a problem for each task reading a joined CSV not written before it."""
    joined = {
        _joined_path(config, t): at
        for at, t in enumerate(config.tasks)
        if ANALYSES[t.analysis_function].slot == "classified"
    }
    problems: list[Problem] = []
    for at, t in enumerate(config.tasks):
        producer = joined.get(_resolve(config, t, t.input_file))
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


def _project_dir(cfg: PipelineConfig, task: TaskConfig) -> Path:
    return (cfg.config_dir / task.project_dir).resolve()


def _resolve(cfg: PipelineConfig, task: TaskConfig, relative: str) -> Path:
    return _project_dir(cfg, task) / relative


def _out_dir(cfg: PipelineConfig, task: TaskConfig) -> Path:
    return _resolve(cfg, task, task.output_path)


def _raw_path(cfg: PipelineConfig, task: TaskConfig, tag: str) -> Path:
    return _out_dir(cfg, task) / "raw" / f"{task.name}_{tag}.json"


def _joined_path(cfg: PipelineConfig, task: TaskConfig) -> Path:
    return _out_dir(cfg, task) / "joined" / f"{task.name}_joined.csv"


def _record_path(cfg: PipelineConfig, name: str) -> Path:
    return cfg.config_dir / ".safereq" / f"{name}.json"


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


def _require_catalog(
    ctx: PipelineContext, task: TaskConfig, resources: dict | None = None
) -> FunctionCatalog:
    """The run's catalog, else one built from resources, read from the task's file if None."""
    catalog = ctx.reports.catalog or _catalog_for(
        _resources_payload(ctx, task) if resources is None else resources
    )
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


class _Unread(Sequence):
    """A raw file's rows or findings, parsed on first use, once.

    run_task publishes one for a raw file whose bytes hash as recorded,
    so a rerun that reads no row parses none. Its length is the recorded
    count, and parse reads the text of the bytes that were hashed, not
    the file as it may be by then.
    """

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

    items: Sequence  # classified rows or findings
    extra: list  # quarantined records or notes; empty when unparsed
    score: float | None = None  # recorded for the current gold file and settings


def _load_gold_labels(path: Path) -> dict[str, tuple[str, str]]:
    _, table = read_keyed_csv(path, "ReqID", ("Function", "Type"))
    return dict(zip(table["ReqID"], zip(table["Function"], table["Type"])))


def _take_rows(
    ctx: PipelineContext,
    task: TaskConfig,
    catalog: FunctionCatalog,
    rows: Sequence[ClassifiedRequirement],
    value: float | None = None,
) -> float | None:
    """Publish classified rows, their catalog and their accuracy.

    The accuracy is value, if given; else the rows are scored against gold.
    """
    ctx.reports.catalog = catalog
    ctx.reports.classified = rows
    if not task.gold_file:
        return None
    if value is None:
        gold = _load_gold_labels(_resolve(ctx.config, task, task.gold_file))
        value = accuracy(rows, gold, include_type=task.gold_include_type)
    ctx.reports.scores[task.metric or "classification"] = value
    return value


def _take_findings(
    ctx: PipelineContext,
    task: TaskConfig,
    analysis: Analysis,
    findings: Sequence[PairFinding],
    rate: float | None = None,
) -> PairScore | None:
    """Publish findings to the analysis' report slot and their detection rate.

    The rate is rate, if given; else the findings are scored against gold,
    and the score is returned.
    """
    setattr(ctx.reports, analysis.slot, findings)
    if not task.gold_file:
        return None
    metric = task.metric or analysis.slot
    pair_score = None
    if rate is None:
        gold = load_gold_pairs(_resolve(ctx.config, task, task.gold_file), analysis.gold)
        threshold = {**DEFAULT_THRESHOLDS, **ctx.config.thresholds}.get(metric, 80.0)
        pair_score = score(findings, gold, threshold=threshold)
        rate = pair_score.rate
    ctx.reports.scores[metric] = rate
    return pair_score


# ---------------------------------------------------------------------------
# Task bodies
# ---------------------------------------------------------------------------


class _Done(NamedTuple):
    """What a task body hands back to run_task."""

    record: dict  # what run_task writes to the raw file; nothing on a reuse
    files: list[Path]  # the body's other files
    detail: str
    count: int = 0  # the rows or findings in record, and their score:
    score: float | None = None  # run_task records both beside the raw file's sha256


def _write_quarantine(
    ctx: PipelineContext, task: TaskConfig, quarantined: list[tuple[dict, str]]
) -> list[Path]:
    """Write the records a task could not use, each with its reason, if any."""
    if not quarantined:
        return []
    path = _out_dir(ctx.config, task) / "quarantine" / f"{task.name}_{ctx.version_tag}.json"
    _write_json(path, [{"record": record, "reason": reason} for record, reason in quarantined])
    return [path]


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
    if reuse:
        rows, value = previous.items, previous.score
        if task.analyze:
            value = _take_rows(ctx, task, _require_catalog(ctx, task), rows, value)
        return _Done({}, [], f"reused {len(rows)} classified rows", len(rows), value)

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

    files = _write_quarantine(ctx, task, quarantined)
    gold_value = None
    if task.analyze:
        joined_path = _joined_path(ctx.config, task)
        _write_csv(
            joined_path,
            [task.dataset_id_column, *task.dataset_columns, *task.result_columns],
            (
                [req.req_id, *[req.extra.get(col, "") for col in task.dataset_columns], *cells]
                for req, cells in zip(inputs, classified_table(rows, task.result_columns))
            ),
        )
        files.append(joined_path)
        gold_value = _take_rows(ctx, task, catalog, rows)

    record = {
        "rows": [classified_record(row) for row in rows],
        "quarantined": [[rec, reason] for rec, reason in quarantined],
        "accuracy": gold_value,
    }
    detail = f"{len(rows)} requirements classified, {len(quarantined)} quarantined"
    if gold_value is not None:
        detail += f", accuracy {gold_value:.2f}"
    return _Done(record, files, detail, len(rows), gold_value)


def _task_coverage(
    ctx: PipelineContext, task: TaskConfig, previous: _Previous | None, reuse: bool
) -> _Done:
    classified = _classified_for(ctx, task, ("Function", "Type"))
    catalog = _require_catalog(ctx, task)
    matrix = build_matrix(classified, catalog)
    gaps = gap_ranking(matrix)
    if task.analyze:  # catalog is the run's catalog, if it has one
        ctx.reports.coverage, ctx.reports.catalog = matrix, catalog
    record = {
        "rows": [dict(zip(COVERAGE_COLUMNS, coverage_cells(row))) for row in matrix.rows],
        "totals": list(matrix.totals),
        "gap_ranking": [{"Function": row.alias, "Shortfall": missing} for row, missing in gaps],
    }
    detail = f"{len(matrix.rows)} functions, {len(gaps)} with missing coverage"
    return _Done(record, [], detail)


def _task_pairs(
    ctx: PipelineContext, task: TaskConfig, previous: _Previous | None, reuse: bool
) -> _Done:
    analysis = ANALYSES[task.analysis_function]
    if reuse:
        findings, rate = previous.items, previous.score
        if task.analyze:
            pair_score = _take_findings(ctx, task, analysis, findings, rate)
            rate = pair_score.rate if pair_score else rate
        return _Done({}, [], f"reused {len(findings)} findings", len(findings), rate)

    classified = _classified_for(ctx, task, ("Function", "System Requirement"))
    catalog = ctx.reports.catalog or _catalog_for(_resources_payload(ctx, task))
    clusters = cluster_by_function(classified, catalog)

    # The detectors are looked up when called, so wrapping the module-level
    # names (as a tracer does) still takes effect.
    args = (clusters, ctx.params, ctx.backend)
    if not task.execute:
        detection = DetectionResult(previous.items, previous.extra)
    elif analysis.gold == KIND_DUPLICATE:
        detection = detect_duplicates(*args, prompt_version=task.prompt_version)
    else:  # contradictions skip the pairs duplicates found earlier in the run
        detection = detect_contradictions(*args, duplicates=ctx.reports.duplicates or [])
    files = _write_quarantine(ctx, task, detection.rejected)

    pair_score = _take_findings(ctx, task, analysis, detection.findings) if task.analyze else None
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
    return _Done(record, files, detail, len(detection.findings), rate)


@dataclass(frozen=True)
class Analysis:
    """What load_config and run_task know of one analysis function."""

    # (ctx, task, the raw file read back or None, reuse): a reuse only publishes.
    body: Callable[[PipelineContext, TaskConfig, _Previous | None, bool], _Done]
    # Parses the raw file for a delta reuse and for execute false; None for a
    # local analysis, which calls no backend and recomputes instead.
    reader: Callable[[Path, str], tuple] | None
    slot: str  # the ReportInputs field it publishes when analyze is true
    gold: str  # the kind gold pairs are scored as; "" for gold labels or none
    reads: frozenset[str]  # the TaskConfig keys it reads besides COMMON_KEYS


ANALYSES = {
    ANALYSIS_COMPLETENESS: Analysis(
        _task_completeness, _rows_from_raw, "classified", "",
        frozenset(
            "delta dataset_name dataset_columns result_columns instructions resources"
            " chunk_size max_items gold_file metric gold_include_type".split()
        ),
    ),
    ANALYSIS_COVERAGE: Analysis(_task_coverage, None, "coverage", "", frozenset({"resources"})),
    ANALYSIS_DUPLICATES: Analysis(
        _task_pairs, _findings_from_raw, "duplicates", KIND_DUPLICATE,
        frozenset("delta resources prompt_version gold_file metric".split()),
    ),
    ANALYSIS_CONTRADICTIONS: Analysis(
        _task_pairs, _findings_from_raw, "contradictions", KIND_CONTRADICTION,
        frozenset("delta resources gold_file metric".split()),
    ),
}


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _score_key(ctx: PipelineContext, task: TaskConfig, analysis: Analysis) -> str:
    """What a task's score comes from besides its raw file: its analysis, the
    gold_include_type it reads, if any, and its gold file's sha256, if readable."""
    gold = None
    if task.gold_file:
        with suppress(OSError):
            gold = file_sha256(_resolve(ctx.config, task, task.gold_file))
    include_type = task.gold_include_type if "gold_include_type" in analysis.reads else None
    return json.dumps([task.analysis_function, include_type, gold])


def _read_back(
    reader: Callable[[Path, str], tuple], raw_path: Path, saved: dict | None
) -> tuple[_Previous, str]:
    """What reader reads in a raw file, and the sha256 of the bytes it came from.

    If saved, the file's record, still lists the file by that sha256, the
    results stay unparsed and carry the recorded score. Otherwise they
    are parsed and checked now.
    """
    data = raw_path.read_bytes()
    with _raw_errors(raw_path):
        text, sha = data.decode("utf-8"), hashlib.sha256(data).hexdigest()
    del data  # a parse, now or later, holds the text alone
    if saved is not None and saved["files"] == {"raw": [raw_path.name, sha]}:
        items = _Unread(lambda: reader(raw_path, text)[0], saved["count"])
        return _Previous(items, [], saved["score"]), sha
    return _Previous(*reader(raw_path, text)), sha


def run_task(ctx: PipelineContext, task: TaskConfig, dry_run: bool = False) -> TaskResult:
    """Run (or skip) one task and return its outcome.

    run_task is the only reader and writer of the task's raw file. It
    reads the file back for a delta reuse or for execute false, and after
    any other body that succeeds it writes the body's record there and,
    for a backend analysis, records the file (see the module docstring).
    A SafereqError or OSError comes back as a Failed result and leaves a
    .partial marker beside the raw output the task did not produce; any
    other exception is a bug and propagates. A task that succeeds removes
    a marker left by an earlier failure.
    """
    analysis = ANALYSES.get(task.analysis_function)
    if analysis is None:
        raise UnknownAnalysisFunctionError(task.analysis_function)
    raw_path = _raw_path(ctx.config, task, ctx.version_tag)
    partial = Path(str(raw_path) + ".partial")
    trace = _record_path(ctx.config, f"raw_{task.name}_{ctx.version_tag}")
    if not task.run:
        return TaskResult(task.name, STATUS_SKIPPED, "run is false")

    # Local analyses recompute for free; delta only guards backend work.
    reader = analysis.reader
    delta_hit = (
        task.delta and not ctx.force and raw_path.exists() and reader is not None and task.execute
    )
    if dry_run:
        detail = f"delta: would reuse {raw_path.name}" if delta_hit else "would execute"
        return TaskResult(task.name, STATUS_PLANNED, detail)

    calls_before = ctx.backend.calls
    try:
        # Taken before the body reads the gold file, so a record never pairs
        # a later gold file with a score of an earlier one.
        key = _score_key(ctx, task, analysis) if reader is not None else ""
        previous = sha = None
        if reader is not None and (delta_hit or not task.execute):
            if not raw_path.exists():
                raise SafereqError("execute is false and no previous raw output exists")
            saved = load_record(trace, key, raw_path.parent) if delta_hit else None
            previous, sha = _read_back(reader, raw_path, saved)
        done = analysis.body(ctx, task, previous, delta_hit)
        if delta_hit:
            result = TaskResult(task.name, STATUS_SKIPPED, f"delta: {done.detail}")
        else:
            raw = {"task": task.name, "analysis_function": task.analysis_function, **done.record}
            sha = _write_json(raw_path, raw)
            written = [raw_path, *done.files]
            result = TaskResult(task.name, STATUS_SUCCEEDED, done.detail, files=written)
            partial.unlink(missing_ok=True)
        # Record each raw file written, and one a delta reuse had to check,
        # so the next run trusts it. A record only spares a later run the
        # parse; a path that is not UTF-8 cannot go into its JSON.
        if reader is not None and not (delta_hit and isinstance(previous.items, _Unread)):
            raw_file = {"raw": (raw_path.name, sha)}
            with suppress(OSError, UnicodeError):
                record(trace, key, raw_path.parent, raw_file, count=done.count, score=done.score)
        if task.analyze:
            ctx.published[task.name] = (analysis.slot, getattr(ctx.reports, analysis.slot), sha)
    except (SafereqError, OSError) as exc:
        result = TaskResult(task.name, STATUS_FAILED, str(exc), files=[partial])
        try:
            _write_json(partial, {"task": task.name, "error": str(exc)})
        except OSError:  # the marker's directory cannot be made either
            result.files = []

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

    The report set lands under <output_path>/reports of the last selected
    task and covers whatever artifacts the run produced (results that
    delta-skipped tasks read back included); missing parts appear as not
    run in the summary.

    After writing the set, the run records its content key (report_key)
    and each file's sha256 in <config dir>/.safereq/reports_<tag>.json.
    A part read from or written to a raw file enters the key as that
    file's sha256, so the key needs no row. A run that is not forced,
    whose key matches that record and whose files still hash as
    recorded, writes nothing and returns the recorded set, marked reused.
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
    results = [run_task(ctx, task, dry_run=dry_run) for task in selected]

    report_set = None
    inputs = ctx.reports
    parts = (inputs.classified, inputs.coverage, inputs.duplicates, inputs.contradictions)
    if not dry_run and selected and any(part is not None for part in parts):
        reports_dir = _out_dir(cfg, selected[-1]) / "reports"
        saved = _record_path(cfg, f"reports_{ctx.version_tag}")
        published = ctx.published.values()
        digests = {slot: sha for slot, part, sha in published if getattr(inputs, slot) is part}
        key = report_key(inputs, ctx.version_tag, digests)
        if not force:
            report_set = reused_report_set(saved, key, reports_dir)
        if report_set is None:
            try:
                report_set = emit_report_set(inputs, reports_dir, ctx.version_tag)
            except OSError as exc:
                raise SafereqError(f"cannot write the report set to {reports_dir}: {exc}") from exc
            # The record only spares a later run the writes; without it, that run
            # writes again. A path that is not UTF-8 cannot go into its JSON.
            with suppress(OSError, UnicodeError):
                write_report_record(saved, key, report_set, reports_dir)
    return RunReport(results=results, report_set=report_set)
