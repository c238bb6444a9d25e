"""Safety-requirement analysis over system architecture models.

The package parses an architecture model (object-process text or XMI),
derives a catalog of primary systems and their functions, classifies
stakeholder requirements against that catalog through a pluggable
language-model backend, checks per-function coverage sufficiency, finds
duplicate and contradicting requirements, and emits a versioned report
set with self-scored quality metrics. A deterministic mock backend
replays canned responses so every part runs offline.
"""

from __future__ import annotations

# Set before the imports: reporting and store read it as they run.
__version__ = "0.1.0"

from . import errors
from .catalog import (
    CATCH_ALL_ALIAS,
    CATCH_ALL_LINEAGE,
    CatalogEntry,
    FunctionCatalog,
    catalog_from_alias_map,
    catalog_from_mapping,
    derive_alias,
    extract_catalog,
    extract_catalog_llm,
)
from .classify import (
    FLAG_LOW_CONFIDENCE,
    FLAG_REMAPPED,
    FLAG_UNRETURNED,
    LOW_CONFIDENCE_THRESHOLD,
    OTHER_TYPE,
    TYPE_VALUES,
    ClassifiedRequirement,
    ClassifyOutcome,
    accuracy,
    build_classification_prompt,
    classify,
    consistency,
    validate_records,
)
from .coverage import (
    MIN_FUNCTIONAL,
    MIN_PROBABILISTIC,
    VERDICT_COMPLETE,
    VERDICT_MISSING,
    CoverageMatrix,
    CoverageRow,
    build_matrix,
    gap_ranking,
    shortfall,
    verdict,
)
from .gateway import (
    CountingBackend,
    HttpBackend,
    LlmRequestParams,
    LlmResult,
    MockBackend,
    PromptEnvelope,
    PromptResource,
    assemble_prompt,
    extract_results_root,
    parse_results_json,
    prompt_sha256,
    send,
    send_many,
)
from .opl import (
    ArchitectureGraph,
    OplRelation,
    OplThing,
    RelationKind,
    ThingKind,
    parse_opl,
)
from .orchestrator import (
    PipelineConfig,
    PipelineContext,
    RunReport,
    TaskConfig,
    TaskResult,
    build_backend,
    load_config,
    run_all,
    run_task,
)
from .pairwise import (
    CONTRADICTION_PROMPT,
    DUPLICATE_PROMPTS,
    KIND_COMPLEMENTARY,
    KIND_CONTRADICTION,
    KIND_DUPLICATE,
    KIND_REFINEMENT,
    DetectionResult,
    GoldPairs,
    PairFinding,
    PairScore,
    cluster_by_function,
    consolidate,
    detect_contradictions,
    detect_duplicates,
    load_gold_pairs,
    score,
)
from .reporting import (
    DEFAULT_THRESHOLDS,
    MetricRow,
    ReportInputs,
    ReportSet,
    emit_report_set,
    metrics_summary,
    render_summary,
)
from .requirements import Requirement, RequirementChunk, chunk, load_requirements
from .rounding import percentage
from .xmi import parse_xmi_bdd

__all__ = [
    "errors",
    # architecture models
    "ArchitectureGraph",
    "OplRelation",
    "OplThing",
    "RelationKind",
    "ThingKind",
    "parse_opl",
    "parse_xmi_bdd",
    # catalog
    "CATCH_ALL_ALIAS",
    "CATCH_ALL_LINEAGE",
    "CatalogEntry",
    "FunctionCatalog",
    "catalog_from_alias_map",
    "catalog_from_mapping",
    "derive_alias",
    "extract_catalog",
    "extract_catalog_llm",
    # requirements
    "Requirement",
    "RequirementChunk",
    "chunk",
    "load_requirements",
    # gateway
    "CountingBackend",
    "HttpBackend",
    "LlmRequestParams",
    "LlmResult",
    "MockBackend",
    "PromptEnvelope",
    "PromptResource",
    "assemble_prompt",
    "extract_results_root",
    "parse_results_json",
    "prompt_sha256",
    "send",
    "send_many",
    # classification
    "FLAG_LOW_CONFIDENCE",
    "FLAG_REMAPPED",
    "FLAG_UNRETURNED",
    "LOW_CONFIDENCE_THRESHOLD",
    "OTHER_TYPE",
    "TYPE_VALUES",
    "ClassifiedRequirement",
    "ClassifyOutcome",
    "accuracy",
    "build_classification_prompt",
    "classify",
    "consistency",
    "validate_records",
    # coverage
    "MIN_FUNCTIONAL",
    "MIN_PROBABILISTIC",
    "VERDICT_COMPLETE",
    "VERDICT_MISSING",
    "CoverageMatrix",
    "CoverageRow",
    "build_matrix",
    "gap_ranking",
    "shortfall",
    "verdict",
    # pairwise analyses
    "CONTRADICTION_PROMPT",
    "DUPLICATE_PROMPTS",
    "KIND_COMPLEMENTARY",
    "KIND_CONTRADICTION",
    "KIND_DUPLICATE",
    "KIND_REFINEMENT",
    "DetectionResult",
    "GoldPairs",
    "PairFinding",
    "PairScore",
    "cluster_by_function",
    "consolidate",
    "detect_contradictions",
    "detect_duplicates",
    "load_gold_pairs",
    "score",
    # reporting
    "DEFAULT_THRESHOLDS",
    "MetricRow",
    "ReportInputs",
    "ReportSet",
    "emit_report_set",
    "metrics_summary",
    "render_summary",
    # pipeline
    "PipelineConfig",
    "PipelineContext",
    "RunReport",
    "TaskConfig",
    "TaskResult",
    "build_backend",
    "load_config",
    "run_all",
    "run_task",
    # numeric conventions
    "percentage",
]
