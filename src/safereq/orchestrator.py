"""Config-driven task pipeline.

A pipeline config is a JSON object whose top-level keys are task names;
the keys "defaults", "llm" and "thresholds" are reserved. "defaults"
holds field values merged under every task, "llm" configures the backend
and request parameters, and "thresholds" overrides metric acceptance
thresholds. Paths inside a task resolve against its project_dir, which
itself resolves against the directory holding the config file.

Each successful task writes its primary output to
<output_path>/raw/<task>_<version tag>.json. A task with delta enabled
is skipped (zero backend calls) when that file already exists. Its body
then reads its results back from the file, as with execute false, and
publishes them without writing anything, so downstream tasks and the
final report set behave exactly as on the first run. Failures leave a
.partial file beside the missing output instead; the next success
removes it. Every file is written to a temp file beside it and moved
into place, so a crash never leaves a truncated file a later run trusts.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from datetime import date
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterator

from .catalog import (
    FunctionCatalog,
    catalog_from_alias_map,
    catalog_from_mapping,
)
from .classify import (
    CLASSIFIED_COLUMNS,
    ClassifiedRequirement,
    accuracy,
    clamp_confidence,
    classified_record,
    classified_table,
    classify,
)
from .coverage import build_matrix, gap_ranking
from .errors import (
    EmptyDatasetError,
    EmptyGoldError,
    InvalidConfigError,
    MalformedRawFileError,
    MissingColumnError,
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
)
from .pairwise import (
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
)
from .requirements import load_requirements, read_csv
from .requirements import chunk as chunk_requirements

TASK_TYPE = "GENERATIVE_ANALYSIS_TASK"
RESERVED_KEYS = ("defaults", "llm", "thresholds")

ANALYSIS_COMPLETENESS = "analyze_requirement_completeness"
ANALYSIS_COVERAGE = "analyze_coverage_gaps"
ANALYSIS_DUPLICATES = "analyze_duplicate_requirements"
ANALYSIS_CONTRADICTIONS = "analyze_contradicting_requirements"

# Coverage is computed locally; it never talks to the backend.
LOCAL_FUNCTIONS = {ANALYSIS_COVERAGE}

STATUS_SUCCEEDED = "Succeeded"
STATUS_SKIPPED = "Skipped"
STATUS_FAILED = "Failed"
STATUS_PLANNED = "Planned"  # dry runs only


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class TaskConfig:
    name: str
    type: str = TASK_TYPE
    run: bool = True
    delta: bool = False
    project_dir: str = "."
    readme: str = ""
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
    extra: dict = field(default_factory=dict)


@dataclass
class PipelineConfig:
    tasks: list[TaskConfig]
    llm: dict
    thresholds: dict[str, float]
    config_dir: Path

    def task(self, name: str) -> TaskConfig:
        for task in self.tasks:
            if task.name == name:
                return task
        raise KeyError(name)


_TASK_FIELDS = {
    f.name for f in dataclasses.fields(TaskConfig) if f.name not in ("name", "extra")
}
# Task keys kept in TaskConfig.extra; any other unknown key is a config error.
_TASK_EXTRA_KEYS = frozenset({"gold_file", "metric", "prompt_version", "gold_include_type"})
_UNKNOWN_TASK_KEY = "unknown key; expected a task field or one of " + ", ".join(
    sorted(_TASK_EXTRA_KEYS)
)

def _validate_task(t: TaskConfig) -> list[tuple[str, str, str]]:
    problems: list[tuple[str, str, str]] = []

    def need(condition: bool, field_name: str, message: str) -> None:
        if not condition:
            problems.append((t.name, field_name, message))

    def is_str_list(value) -> bool:
        return isinstance(value, list) and all(
            isinstance(item, str) and item for item in value
        )

    need(t.type == TASK_TYPE, "type", f"must be {TASK_TYPE!r}")
    for flag in ("run", "delta", "execute", "analyze", "verbose"):
        need(isinstance(getattr(t, flag), bool), flag, "must be true or false")
    need(bool(t.input_file) and isinstance(t.input_file, str), "input_file", "required")
    need(bool(t.output_path) and isinstance(t.output_path, str), "output_path", "required")
    need(
        bool(t.dataset_id_column) and isinstance(t.dataset_id_column, str),
        "dataset_id_column",
        "required",
    )
    need(
        isinstance(t.chunk_size, int)
        and not isinstance(t.chunk_size, bool)
        and t.chunk_size >= 1,
        "chunk_size",
        "must be a positive integer",
    )
    need(
        isinstance(t.max_items, int)
        and not isinstance(t.max_items, bool)
        and t.max_items >= -1,
        "max_items",
        "must be an integer >= -1 (-1 means no limit)",
    )
    need(
        t.analysis_function in BUILTIN_FUNCTIONS,
        "analysis_function",
        "unknown; expected one of " + ", ".join(sorted(BUILTIN_FUNCTIONS)),
    )
    need(is_str_list(t.result_columns), "result_columns", "must be a list of column names")

    local = t.analysis_function in LOCAL_FUNCTIONS
    if t.analysis_function == ANALYSIS_COMPLETENESS:
        need(
            is_str_list(t.dataset_columns) and bool(t.dataset_columns),
            "dataset_columns",
            "must be a non-empty list of column names",
        )
        # The id column leads every joined row already.
        unknown = [c for c in t.result_columns if c == "ReqID" or c not in CLASSIFIED_COLUMNS]
        need(
            not unknown,
            "result_columns",
            "unknown result columns: " + ", ".join(unknown),
        )
        if t.execute is True:
            need(bool(t.instructions), "instructions", "required when execute is true")
    if local:
        need(t.execute is False, "execute", "analysis is local; must be false")
    if t.run is True and t.execute is False and t.analyze is False:
        problems.append((t.name, "analyze", "task neither executes nor analyzes"))
    return problems


_LLM_PARAMS = tuple(f.name for f in dataclasses.fields(LlmRequestParams))
_LLM_KEYS = frozenset(
    {*_LLM_PARAMS, "backend", "fixture_dir", "endpoint_url", "api_key_file", "api_key_env"}
)


def _validate_llm(llm: dict) -> list[tuple[str, str, str]]:
    problems = [
        ("llm", key, "unknown key; expected one of " + ", ".join(sorted(_LLM_KEYS)))
        for key in llm
        if key not in _LLM_KEYS
    ]
    limit = llm.get("max_concurrency", 1)
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
        problems.append(("llm", "max_concurrency", "must be a positive integer"))
    return problems


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and validate a pipeline config file.

    Raises:
        InvalidConfigError: carrying every (task, field, problem) found,
            not just the first.
    """
    config_path = Path(path)
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InvalidConfigError([("", "config", f"file not found: {config_path}")])
    except json.JSONDecodeError as exc:
        raise InvalidConfigError([("", "config", f"not valid JSON: {exc}")])
    if not isinstance(raw, dict):
        raise InvalidConfigError([("", "config", "root must be a JSON object")])

    problems: list[tuple[str, str, str]] = []
    defaults = raw.get("defaults", {})
    if not isinstance(defaults, dict):
        problems.append(("defaults", "", "must be a JSON object"))
        defaults = {}
    llm = raw.get("llm", {})
    if not isinstance(llm, dict):
        problems.append(("llm", "", "must be a JSON object"))
        llm = {}
    problems.extend(_validate_llm(llm))
    thresholds_raw = raw.get("thresholds", {})
    thresholds: dict[str, float] = {}
    if not isinstance(thresholds_raw, dict):
        problems.append(("thresholds", "", "must be a JSON object"))
    else:
        for key, value in thresholds_raw.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                thresholds[key] = float(value)
            else:
                problems.append(("thresholds", key, "must be a number"))

    tasks: list[TaskConfig] = []
    for name, body in raw.items():
        if name in RESERVED_KEYS:
            continue
        if not isinstance(body, dict):
            problems.append((name, "", "task must be a JSON object"))
            continue
        merged = {**defaults, **body}
        known = {k: v for k, v in merged.items() if k in _TASK_FIELDS}
        extra = {k: v for k, v in merged.items() if k not in _TASK_FIELDS}
        problems.extend(
            (name, key, _UNKNOWN_TASK_KEY) for key in extra if key not in _TASK_EXTRA_KEYS
        )
        task = TaskConfig(name=name, extra=extra, **known)
        problems.extend(_validate_task(task))
        metric = task.extra.get("metric")
        if metric is not None and metric not in {**DEFAULT_THRESHOLDS, **thresholds}:
            problems.append((name, "metric", f"no threshold configured for {metric!r}"))
        tasks.append(task)

    if not tasks and not problems:
        problems.append(("", "config", "no tasks defined"))
    if problems:
        raise InvalidConfigError(problems)
    return PipelineConfig(
        tasks=tasks, llm=llm, thresholds=thresholds, config_dir=config_path.parent.resolve()
    )


def params_from_llm_config(llm: dict) -> LlmRequestParams:
    params = LlmRequestParams()
    for name in _LLM_PARAMS:
        if name in llm:
            setattr(params, name, llm[name])
    return params


def build_backend(llm: dict, config_dir: Path, kind: str | None = None) -> Backend:
    """Construct the backend the llm config (or the override) names."""
    kind = kind or llm.get("backend", "mock")
    if kind == "mock":
        fixture_dir = config_dir / llm.get("fixture_dir", "fixtures")
        return MockBackend(fixture_dir)
    if kind == "http":
        endpoint = llm.get("endpoint_url", "")
        if not endpoint:
            raise InvalidConfigError(
                [("llm", "endpoint_url", "required for the http backend")]
            )
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


def _under_some_output(cfg: PipelineConfig, path: Path) -> bool:
    return any(path.is_relative_to(_out_dir(cfg, task)) for task in cfg.tasks)


# ---------------------------------------------------------------------------
# Shared task ingredients
# ---------------------------------------------------------------------------


def _read_instructions(ctx: PipelineContext, task: TaskConfig) -> str:
    path = _resolve(ctx.config, task, task.instructions)
    if not path.exists():
        raise SafereqError(f"instructions file not found: {path}")
    return path.read_text(encoding="utf-8")


def _resources_payload(ctx: PipelineContext, task: TaskConfig) -> dict:
    if not task.resources:
        return {}
    path = _resolve(ctx.config, task, task.resources)
    if not path.exists():
        raise SafereqError(f"resources file not found: {path}")
    payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise SafereqError(f"resources file must hold a JSON object: {path}")
    return payload


def _catalog_for(ctx: PipelineContext, task: TaskConfig) -> FunctionCatalog | None:
    """Catalog from the task's ARCHITECTURE resource, if one is configured.

    Accepts the nested {system: {alias: lineage}} shape as well as the
    flat {alias: lineage} shape.
    """
    payload = _resources_payload(ctx, task)
    architecture = payload.get("ARCHITECTURE")
    if architecture is None:
        return None
    if not isinstance(architecture, dict):
        raise SafereqError("ARCHITECTURE resource must be a JSON object")
    if architecture and all(isinstance(v, str) for v in architecture.values()):
        return catalog_from_alias_map(architecture)
    return catalog_from_mapping(architecture)


def _require_catalog(ctx: PipelineContext, task: TaskConfig) -> FunctionCatalog:
    catalog = ctx.reports.catalog or _catalog_for(ctx, task)
    if catalog is None:
        raise SafereqError(
            "no ARCHITECTURE resource configured; cannot build the function catalog"
        )
    return catalog


def _classified_from_file(path: Path, id_column: str) -> list[ClassifiedRequirement]:
    """Reload classified rows from a joined CSV written by an earlier task."""
    required = (id_column, "Function", "Type")
    columns = (*required, "Confidence", "System Requirement", "Flags")
    with read_csv(path, columns) as (header, table):
        missing = [c for c in required if c not in header]
        if missing:
            raise MissingColumnError(
                f"columns missing from {path}: " + ", ".join(missing)
            )
        rows: list[ClassifiedRequirement] = []
        for _, (req_id, function, rtype, confidence, requirement, flags) in table:
            req_id = (req_id or "").strip()
            if not req_id:
                continue
            rows.append(
                ClassifiedRequirement(
                    req_id=req_id,
                    function=(function or "").strip(),
                    rtype=(rtype or "").strip(),
                    confidence=clamp_confidence(confidence),
                    system_requirement=(requirement or "").strip(),
                    flags=tuple(f for f in (flags or "").split("|") if f),
                )
            )
    if not rows:
        raise EmptyDatasetError(f"no classified rows in {path}")
    return rows


def _classified_for(ctx: PipelineContext, task: TaskConfig) -> list[ClassifiedRequirement]:
    """Classified rows from the pipeline context, else from input_file."""
    if ctx.reports.classified is not None:
        return ctx.reports.classified
    path = _resolve(ctx.config, task, task.input_file)
    if not path.exists():
        if _under_some_output(ctx.config, path):
            raise SafereqError(f"missing upstream output: {path}")
        raise SafereqError(f"input file not found: {path}")
    return _classified_from_file(path, task.dataset_id_column)


@contextmanager
def _raw_payload(path: Path) -> Iterator[dict]:
    """The JSON object in a raw file.

    A payload of another shape, met here or in the with block as it is
    read, raises MalformedRawFileError instead of whatever it tripped.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise TypeError(f"the root is a JSON {type(payload).__name__}, not an object")
        yield payload
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise MalformedRawFileError(f"malformed raw file {path}: {exc!r}") from exc


def _rows_from_raw(path: Path) -> tuple[list[ClassifiedRequirement], list[tuple[dict, str]]]:
    with _raw_payload(path) as payload:
        rows = [
            ClassifiedRequirement(
                req_id=str(r["ReqID"]),
                function=r["Function"],
                rtype=r["Type"],
                confidence=int(r["Confidence"]),
                system_requirement=r.get("System Requirement", ""),
                function_explanation=r.get("Function_Explanation", ""),
                type_explanation=r.get("Type_Explanation", ""),
                flags=tuple(r.get("Flags", [])),
            )
            for r in payload.get("rows", [])
        ]
        # The reports join flags with "|", after the task has ended.
        if not {str}.issuperset(map(type, chain.from_iterable(map(attrgetter("flags"), rows)))):
            raise TypeError("a Flags entry is not a string")
        quarantined = [(rec, reason) for rec, reason in payload.get("quarantined", [])]
    return rows, quarantined


def _findings_from_raw(path: Path) -> tuple[list[PairFinding], list[str]]:
    with _raw_payload(path) as payload:
        findings = [
            PairFinding(
                req_a=str(f["ReqID_A"]),
                req_b=str(f["ReqID_B"]),
                kind=f["Relation"],
                function=f.get("Function", ""),
                rationale=f.get("Rationale", ""),
            )
            for f in payload.get("findings", [])
        ]
        notes = list(payload.get("notes", []))
    return findings, notes


def _load_gold_labels(path: Path) -> dict[str, tuple[str, str]]:
    gold: dict[str, tuple[str, str]] = {}
    with read_csv(path, ("ReqID", "Function", "Type")) as (_, table):
        for _, (req_id, function, rtype) in table:
            req_id = (req_id or "").strip()
            if req_id:
                gold[req_id] = ((function or "").strip(), (rtype or "").strip())
    if not gold:
        raise EmptyGoldError(f"no gold labels in {path}")
    return gold


def _take_rows(
    ctx: PipelineContext,
    task: TaskConfig,
    catalog: FunctionCatalog,
    rows: list[ClassifiedRequirement],
) -> float | None:
    """Publish classified rows and their catalog, and score the rows against gold."""
    ctx.reports.catalog = catalog
    ctx.reports.classified = rows
    gold_file = task.extra.get("gold_file")
    if not gold_file:
        return None
    gold = _load_gold_labels(_resolve(ctx.config, task, gold_file))
    value = accuracy(rows, gold, include_type=bool(task.extra.get("gold_include_type", True)))
    ctx.reports.scores[task.extra.get("metric", "classification")] = value
    return value


def _take_findings(
    ctx: PipelineContext, task: TaskConfig, spec: _PairSpec, findings: list[PairFinding]
) -> PairScore | None:
    """Publish findings to the spec's report slot and score them against gold."""
    setattr(ctx.reports, spec.slot, findings)
    gold_file = task.extra.get("gold_file")
    if not gold_file:
        return None
    gold = load_gold_pairs(_resolve(ctx.config, task, gold_file), spec.kind)
    metric = task.extra.get("metric", spec.slot)
    threshold = {**DEFAULT_THRESHOLDS, **ctx.config.thresholds}.get(metric, 80.0)
    pair_score = score(findings, gold, threshold=threshold)
    ctx.reports.scores[metric] = pair_score.rate
    return pair_score


# ---------------------------------------------------------------------------
# Task bodies
# ---------------------------------------------------------------------------


def _previous_raw(raw_path: Path) -> Path:
    """The raw output a task with execute false analyzes again."""
    if not raw_path.exists():
        raise SafereqError("execute is false and no previous raw output exists")
    return raw_path


def _write_quarantine(
    ctx: PipelineContext, task: TaskConfig, quarantined: list[tuple[dict, str]]
) -> list[Path]:
    """Write the records a task could not use, each with its reason, if any."""
    if not quarantined:
        return []
    path = _out_dir(ctx.config, task) / "quarantine" / f"{task.name}_{ctx.version_tag}.json"
    _write_json(path, [{"record": record, "reason": reason} for record, reason in quarantined])
    return [path]


def _task_completeness(
    ctx: PipelineContext, task: TaskConfig, raw_path: Path, reuse: bool
) -> tuple[list[Path], str]:
    if reuse:
        rows, _ = _rows_from_raw(raw_path)
        if task.analyze:
            _take_rows(ctx, task, _require_catalog(ctx, task), rows)
        return [], f"reused {len(rows)} classified rows"

    catalog = _require_catalog(ctx, task)
    input_path = _resolve(ctx.config, task, task.input_file)
    if not input_path.exists():
        raise SafereqError(f"input file not found: {input_path}")
    requirements = load_requirements(
        input_path, task.dataset_id_column, list(task.dataset_columns)
    )
    chunks = chunk_requirements(requirements, task.chunk_size, task.max_items)
    inputs = [req for piece in chunks for req in piece.rows]

    if task.execute:
        template = PromptEnvelope(
            instructions=_read_instructions(ctx, task),
            resources=tuple(
                PromptResource(tag=key, body=value)
                for key, value in _resources_payload(ctx, task).items()
            ),
            dataset_name=task.dataset_name,
        )
        outcome = classify(chunks, template, catalog, ctx.params, ctx.backend)
        rows, quarantined = outcome.rows, outcome.quarantined
    else:
        rows, quarantined = _rows_from_raw(_previous_raw(raw_path))

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

    _write_json(
        raw_path,
        {
            "task": task.name,
            "analysis_function": task.analysis_function,
            "rows": [classified_record(row) for row in rows],
            "quarantined": [[record, reason] for record, reason in quarantined],
            "accuracy": gold_value,
        },
    )
    files.insert(0, raw_path)
    detail = f"{len(rows)} requirements classified, {len(quarantined)} quarantined"
    if gold_value is not None:
        detail += f", accuracy {gold_value:.2f}"
    return files, detail


def _task_coverage(
    ctx: PipelineContext, task: TaskConfig, raw_path: Path, reuse: bool
) -> tuple[list[Path], str]:
    classified = _classified_for(ctx, task)
    catalog = _require_catalog(ctx, task)
    matrix = build_matrix(classified, catalog)
    gaps = gap_ranking(matrix)
    if task.analyze:
        ctx.reports.coverage = matrix
        if ctx.reports.catalog is None:
            ctx.reports.catalog = catalog
    _write_json(
        raw_path,
        {
            "task": task.name,
            "analysis_function": task.analysis_function,
            "rows": [
                {
                    "Function": row.alias,
                    "Lineage": row.lineage,
                    "N_FUNC": row.n_func,
                    "N_PROB": row.n_prob,
                    "N_OTHER": row.n_other,
                    "Verdict": row.verdict,
                    "Triage": row.is_triage_bucket,
                }
                for row in matrix.rows
            ],
            "totals": list(matrix.totals),
            "gap_ranking": [
                {"Function": row.alias, "Shortfall": missing} for row, missing in gaps
            ],
        },
    )
    detail = f"{len(matrix.rows)} functions, {len(gaps)} with missing coverage"
    return [raw_path], detail


@dataclass(frozen=True)
class _PairSpec:
    """What the one pair-task body needs to know about a pair analysis."""

    detect: Callable[[PipelineContext, TaskConfig, dict], DetectionResult]
    kind: str  # the gold kind findings are scored as
    slot: str  # ReportInputs field for the findings; also the default metric
    versioned: bool  # the raw file records prompt_version


def _prompt_version(task: TaskConfig) -> str:
    return str(task.extra.get("prompt_version", "V3"))


# The detectors are looked up when called, so wrapping the module-level
# names (as a tracer does) still takes effect.
_PAIR_SPECS = {
    ANALYSIS_DUPLICATES: _PairSpec(
        detect=lambda ctx, task, clusters: detect_duplicates(
            clusters, ctx.params, ctx.backend, prompt_version=_prompt_version(task)
        ),
        kind=KIND_DUPLICATE,
        slot="duplicates",
        versioned=True,
    ),
    ANALYSIS_CONTRADICTIONS: _PairSpec(
        detect=lambda ctx, task, clusters: detect_contradictions(
            clusters, ctx.params, ctx.backend, duplicates=ctx.reports.duplicates or []
        ),
        kind=KIND_CONTRADICTION,
        slot="contradictions",
        versioned=False,
    ),
}


def _task_pairs(
    ctx: PipelineContext, task: TaskConfig, raw_path: Path, reuse: bool
) -> tuple[list[Path], str]:
    spec = _PAIR_SPECS[task.analysis_function]
    if reuse:
        findings, _ = _findings_from_raw(raw_path)
        if task.analyze:
            _take_findings(ctx, task, spec, findings)
        return [], f"reused {len(findings)} findings"

    classified = _classified_for(ctx, task)
    catalog = ctx.reports.catalog or _catalog_for(ctx, task)
    clusters = cluster_by_function(classified, catalog)

    if task.execute:
        detection = spec.detect(ctx, task, clusters)
    else:
        detection = DetectionResult(*_findings_from_raw(_previous_raw(raw_path)))
    files = _write_quarantine(ctx, task, detection.rejected)

    pair_score = _take_findings(ctx, task, spec, detection.findings) if task.analyze else None
    version = {"prompt_version": _prompt_version(task)} if spec.versioned else {}
    _write_json(
        raw_path,
        {
            "task": task.name,
            "analysis_function": task.analysis_function,
            **version,
            "findings": [finding_record(f) for f in detection.findings],
            "notes": detection.notes,
            "score": asdict(pair_score) if pair_score else None,
        },
    )
    detail = f"{len(detection.findings)} findings across {len(clusters)} function clusters"
    if pair_score:
        detail += f", detection rate {pair_score.rate:.2f}"
    return [raw_path, *files], detail


# Each body takes the context, the task, its raw file and whether delta reuses
# that file. On a reuse it reads its results back, publishes them, writes nothing.
BUILTIN_FUNCTIONS = {
    ANALYSIS_COMPLETENESS: _task_completeness,
    ANALYSIS_COVERAGE: _task_coverage,
    ANALYSIS_DUPLICATES: _task_pairs,
    ANALYSIS_CONTRADICTIONS: _task_pairs,
}


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def run_task(ctx: PipelineContext, task: TaskConfig, dry_run: bool = False) -> TaskResult:
    """Run (or skip) one task and return its outcome.

    Failures never raise; they come back as a Failed result and leave a
    .partial marker beside the raw output the task did not produce. A
    task that succeeds removes a marker left by an earlier failure.
    """
    if task.analysis_function not in BUILTIN_FUNCTIONS:
        raise UnknownAnalysisFunctionError(task.analysis_function)
    raw_path = _raw_path(ctx.config, task, ctx.version_tag)
    partial = Path(str(raw_path) + ".partial")
    if not task.run:
        return TaskResult(task.name, STATUS_SKIPPED, "run is false")

    # Local analyses recompute for free; delta only guards backend work.
    delta_hit = (
        task.delta
        and not ctx.force
        and raw_path.exists()
        and task.analysis_function not in LOCAL_FUNCTIONS
        and task.execute
    )
    if dry_run:
        detail = (
            f"delta: would reuse {raw_path.name}" if delta_hit else "would execute"
        )
        return TaskResult(task.name, STATUS_PLANNED, detail)

    calls_before = ctx.backend.calls
    try:
        files, detail = BUILTIN_FUNCTIONS[task.analysis_function](
            ctx, task, raw_path, delta_hit
        )
        if delta_hit:
            result = TaskResult(task.name, STATUS_SKIPPED, f"delta: {detail}")
        else:
            result = TaskResult(task.name, STATUS_SUCCEEDED, detail, files=files)
            partial.unlink(missing_ok=True)
    except (SafereqError, ValueError, KeyError, OSError) as exc:
        _write_json(partial, {"task": task.name, "error": str(exc)})
        result = TaskResult(task.name, STATUS_FAILED, str(exc), files=[partial])

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
        report_set = emit_report_set(inputs, reports_dir, ctx.version_tag)
    return RunReport(results=results, report_set=report_set)
