"""Tests for the config-driven pipeline: validation, delta reuse, failures."""

import csv
import dataclasses
import json
import os
import re
import shutil
from datetime import date
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from safereq import (
    DEFAULT_THRESHOLDS,
    DUPLICATE_PROMPTS,
    CountingBackend,
    HttpBackend,
    LlmRequestParams,
    MockBackend,
    TaskConfig,
    build_backend,
    load_config,
    run_all,
    run_task,
)
from safereq.errors import InvalidConfigError, SafereqError, UnknownAnalysisFunctionError
from safereq import orchestrator
from safereq.orchestrator import params_from_llm_config

SAMPLE_PROJECT = Path(__file__).resolve().parent.parent / "sample_project"

CLASSIFY_KEY = "Assign each requirement to exactly one function alias"


# ---------------------------------------------------------------------------
# Project builder
# ---------------------------------------------------------------------------


def base_config():
    return {
        "defaults": {
            "type": "GENERATIVE_ANALYSIS_TASK",
            "run": True,
            "delta": True,
            "project_dir": ".",
            "input_file": "results/joined/b_classify_joined.csv",
            "dataset_name": "Bench Requirements",
            "dataset_id_column": "ReqID",
            "dataset_columns": ["Requirements"],
            "result_columns": ["Function", "Type", "Confidence", "System Requirement"],
            "resources": "resources.json",
            "output_path": "results",
            "chunk_size": 10,
            "max_items": -1,
            "execute": True,
            "analyze": True,
        },
        "llm": {"backend": "mock", "fixture_dir": "fixtures", "model_id": "gpt-4"},
        "b_classify": {
            "input_file": "input/reqs.csv",
            "instructions": "instructions.txt",
            "analysis_function": "analyze_requirement_completeness",
        },
        "c_coverage": {
            "execute": False,
            "analysis_function": "analyze_coverage_gaps",
        },
        "d_duplicates": {
            "analysis_function": "analyze_duplicate_requirements",
            "prompt_version": "V3",
        },
        "e_contradictions": {
            "analysis_function": "analyze_contradicting_requirements",
        },
    }


def classify_record(req_id, function, rtype, confidence):
    return {
        "ReqID": req_id,
        "Function": function,
        "Type": rtype,
        "Confidence": confidence,
        "System_Requirement": f"The system shall satisfy {req_id}.",
        "Function_Explanation": "fits",
        "Type_Explanation": "stated",
    }


def make_project(tmp_path, config=None, classify_results=None):
    """Lay out a runnable mock-backed project and return its config path."""
    (tmp_path / "input").mkdir(parents=True)
    (tmp_path / "input" / "reqs.csv").write_text(
        "ReqID,Requirements\n"
        "2000,The system shall hold its heading.\n"
        "2001,The system shall follow waypoints.\n"
        "2002,The system shall survive a cell failure.\n"
        "2003,The system shall report battery level.\n",
        encoding="utf-8",
    )
    (tmp_path / "instructions.txt").write_text(CLASSIFY_KEY + ".\n", encoding="utf-8")
    (tmp_path / "resources.json").write_text(
        json.dumps(
            {
                "ARCHITECTURE": {
                    "NAV": "Drone/Navigation/Navigating",
                    "EN": "Drone/Energy/Energy Storing",
                }
            }
        ),
        encoding="utf-8",
    )

    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    (fixtures / "rules.tsv").write_text(
        f"{CLASSIFY_KEY}\tclassify.json\n"
        "mark the duplicate requirements\tduplicates.json\n"
        "mark the contradicting requirements\tcontradictions.json\n",
        encoding="utf-8",
    )
    if classify_results is None:
        classify_results = [
            classify_record("2000", "NAV", "FUNC", 90),
            classify_record("2001", "NAV", "FUNC", 85),
            classify_record("2002", "EN", "PROB", 90),
            classify_record("2003", "EN", "FUNC", 85),
        ]
    (fixtures / "classify.json").write_text(
        json.dumps({"results": classify_results}), encoding="utf-8"
    )
    (fixtures / "duplicates.json").write_text(
        json.dumps(
            {
                "results": [
                    {
                        "ReqID_A": "2000",
                        "ReqID_B": "2001",
                        "Relation": "Duplicate",
                        "Rationale": "same manoeuvre",
                    }
                ]
            }
        ),
        encoding="utf-8",
    )
    (fixtures / "contradictions.json").write_text(
        json.dumps(
            {
                "results": [
                    {
                        "ReqID_A": "2002",
                        "ReqID_B": "2003",
                        "Relation": "Contradiction",
                        "Rationale": "conflicting budgets",
                    }
                ]
            }
        ),
        encoding="utf-8",
    )

    config_path = tmp_path / "params.json"
    config_path.write_text(json.dumps(config or base_config()), encoding="utf-8")
    return config_path


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def problems_of(err):
    return [(task, field_name) for task, field_name, _ in err.value.problems]


# ---------------------------------------------------------------------------
# Config loading and validation
# ---------------------------------------------------------------------------


def test_load_config_merges_defaults_under_tasks(tmp_path):
    cfg = load_config(make_project(tmp_path))
    assert [t.name for t in cfg.tasks] == [
        "b_classify",
        "c_coverage",
        "d_duplicates",
        "e_contradictions",
    ]
    classify = cfg.task("b_classify")
    assert classify.chunk_size == 10  # from defaults
    assert classify.input_file == "input/reqs.csv"  # task override wins
    assert classify.delta is True
    assert cfg.task("d_duplicates").prompt_version == "V3"
    assert cfg.llm["model_id"] == "gpt-4"
    assert cfg.config_dir == tmp_path.resolve()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(InvalidConfigError):
        load_config(tmp_path / "absent.json")


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidConfigError):
        load_config(path)


def test_load_config_rejects_a_repeated_key_naming_it_and_the_file(tmp_path):
    path = make_project(tmp_path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace('"chunk_size": 10', '"chunk_size": "ten", "chunk_size": 10'))
    with pytest.raises(InvalidConfigError) as err:
        load_config(path)
    assert err.value.problems == [("", "config", f"repeated key 'chunk_size' in {path}")]


@pytest.mark.parametrize(
    "write, message",
    [
        (lambda path: path.mkdir(), "Is a directory"),
        (lambda path: path.write_bytes(b'{"defaults": "\xff"}'), "not valid JSON in"),
        (lambda path: path.write_text('{"defaults": {'), "not valid JSON in"),
        (lambda path: path.write_text('{"defaults": {"project_dir": "\\ud800"}}'), "surrogate"),
    ],
    ids=["directory", "not-utf8", "truncated", "lone-surrogate"],
)
def test_load_config_names_a_file_it_cannot_read_or_decode(tmp_path, write, message):
    path = tmp_path / "params.json"
    write(path)
    with pytest.raises(InvalidConfigError) as err:
        load_config(path)
    ((task, field_name, problem),) = err.value.problems
    assert (task, field_name) == ("", "config")
    assert message in problem
    assert str(path) in problem


def test_load_config_rejects_non_object_root(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(InvalidConfigError):
        load_config(path)


def test_load_config_rejects_empty_config(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(InvalidConfigError) as err:
        load_config(path)
    assert err.value.problems == [("", "config", "no tasks defined")]


def test_load_config_rejects_wrong_task_type(tmp_path):
    config = base_config()
    config["b_classify"]["type"] = "SHELL_TASK"
    with pytest.raises(InvalidConfigError) as err:
        load_config(make_project(tmp_path, config))
    assert ("b_classify", "type") in problems_of(err)


def test_load_config_rejects_unknown_analysis_function(tmp_path):
    config = base_config()
    config["b_classify"]["analysis_function"] = "analyze_everything"
    with pytest.raises(InvalidConfigError) as err:
        load_config(make_project(tmp_path, config))
    assert ("b_classify", "analysis_function") in problems_of(err)


def test_load_config_rejects_bad_chunk_size(tmp_path):
    for bad in (0, -3, True, "10"):
        config = base_config()
        config["b_classify"]["chunk_size"] = bad
        with pytest.raises(InvalidConfigError) as err:
            load_config(make_project(tmp_path / f"case_{bad}", config))
        assert ("b_classify", "chunk_size") in problems_of(err)


def test_load_config_rejects_idle_task(tmp_path):
    config = base_config()
    config["d_duplicates"]["execute"] = False
    config["d_duplicates"]["analyze"] = False
    with pytest.raises(InvalidConfigError) as err:
        load_config(make_project(tmp_path, config))
    assert ("d_duplicates", "analyze") in problems_of(err)


def test_load_config_requires_instructions_for_executed_classification(tmp_path):
    config = base_config()
    config["b_classify"]["instructions"] = ""
    with pytest.raises(InvalidConfigError) as err:
        load_config(make_project(tmp_path, config))
    assert ("b_classify", "instructions") in problems_of(err)


def test_load_config_requires_local_analysis_not_execute(tmp_path):
    config = base_config()
    config["c_coverage"]["execute"] = True
    with pytest.raises(InvalidConfigError) as err:
        load_config(make_project(tmp_path, config))
    assert ("c_coverage", "execute") in problems_of(err)


def test_load_config_rejects_unknown_result_column(tmp_path):
    # ReqID is a record column, but the id column already leads each joined row.
    for column in ("Verdict", "ReqID"):
        config = base_config()
        config["b_classify"]["result_columns"] = ["Function", column]
        with pytest.raises(InvalidConfigError) as err:
            load_config(make_project(tmp_path / column, config))
        assert ("b_classify", "result_columns") in problems_of(err)


def test_load_config_rejects_non_numeric_threshold(tmp_path):
    config = base_config()
    config["thresholds"] = {"classification": "high"}
    with pytest.raises(InvalidConfigError) as err:
        load_config(make_project(tmp_path, config))
    assert ("thresholds", "classification") in problems_of(err)


def test_load_config_rejects_metric_without_threshold(tmp_path):
    config = base_config()
    config["b_classify"]["gold_file"] = "gold.csv"
    config["b_classify"]["metric"] = "recall"
    with pytest.raises(InvalidConfigError) as err:
        load_config(make_project(tmp_path, config))
    assert ("b_classify", "metric") in problems_of(err)


def test_load_config_accepts_metric_with_custom_threshold(tmp_path):
    config = base_config()
    config["thresholds"] = {"recall": 75.0}
    config["b_classify"]["gold_file"] = "gold.csv"
    config["b_classify"]["metric"] = "recall"
    cfg = load_config(make_project(tmp_path, config))
    assert cfg.thresholds == {"recall": 75.0}


def test_load_config_collects_every_problem(tmp_path):
    config = base_config()
    config["b_classify"]["chunk_size"] = 0
    config["b_classify"]["input_file"] = ""
    config["e_contradictions"]["type"] = "WRONG"
    with pytest.raises(InvalidConfigError) as err:
        load_config(make_project(tmp_path, config))
    found = problems_of(err)
    assert ("b_classify", "chunk_size") in found
    assert ("b_classify", "input_file") in found
    assert ("e_contradictions", "type") in found


def test_load_config_rejects_unknown_llm_key(tmp_path):
    config = base_config()
    config["llm"]["max_concurency"] = 4
    with pytest.raises(InvalidConfigError) as err:
        load_config(make_project(tmp_path, config))
    assert problems_of(err) == [("llm", "max_concurency")]
    assert "max_concurrency" in str(err.value)


@pytest.mark.parametrize("value", [0, -2, True, 2.5, "4", None])
def test_load_config_rejects_non_positive_int_max_concurrency(tmp_path, value):
    config = base_config()
    config["llm"]["max_concurrency"] = value
    with pytest.raises(InvalidConfigError) as err:
        load_config(make_project(tmp_path, config))
    assert problems_of(err) == [("llm", "max_concurrency")]


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_retries", -1),
        ("max_retries", 1.0),
        ("backoff_start", -0.5),
        ("backoff_start", True),
        ("timeout", 0),
        ("timeout", -1.5),
        ("timeout", float("inf")),
        ("temperature", float("nan")),
        ("model_id", 4),
    ],
)
def test_load_config_rejects_bad_llm_values(tmp_path, key, value):
    config = base_config()
    config["llm"][key] = value
    with pytest.raises(InvalidConfigError) as err:
        load_config(make_project(tmp_path, config))
    assert problems_of(err) == [("llm", key)]


def test_load_config_accepts_the_range_boundaries(tmp_path):
    config = base_config()
    config["llm"].update(max_concurrency=1, max_retries=0, backoff_start=0, timeout=0.001)
    config["defaults"].update(chunk_size=1, max_items=-1)
    cfg = load_config(make_project(tmp_path, config))
    params = params_from_llm_config(cfg.llm)
    assert (params.max_concurrency, params.max_retries, params.backoff_start) == (1, 0, 0)
    assert params.timeout == 0.001
    assert cfg.task("b_classify").chunk_size == 1


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("b_classify", "gold_file", 5),
        ("b_classify", "instructions", 5),
        ("b_classify", "resources", 5),
        ("b_classify", "project_dir", 5),
        ("b_classify", "dataset_name", 5),
        ("llm", "max_retries", "2"),
        ("c_coverage", "analysis_function", []),
        ("d_duplicates", "metric", {}),
        ("b_classify", "gold_include_type", "false"),
    ],
)
def test_a_mistyped_config_value_fails_the_run_at_load(tmp_path, block, key, value):
    # Each of these used to crash run_all or load_config with a TypeError,
    # or, for gold_include_type, to read "false" as true.
    config = base_config()
    config[block][key] = value
    config_path = make_project(tmp_path, config)
    backend = CountingBackend(MockBackend(tmp_path / "fixtures"))
    with pytest.raises(InvalidConfigError) as err:
        run_all(config_path, backend=backend, version_tag="TEST")
    assert problems_of(err) == [(block, key)]
    assert backend.calls == 0


def test_load_config_rejects_unknown_prompt_version(tmp_path):
    config = base_config()
    config["d_duplicates"]["prompt_version"] = "V9"
    with pytest.raises(InvalidConfigError) as err:
        load_config(make_project(tmp_path, config))
    assert problems_of(err) == [("d_duplicates", "prompt_version")]
    assert "V1, V2, V3" in str(err.value)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
TASK_KEYS = [f.name for f in dataclasses.fields(TaskConfig)] + ["detla"]
LLM_KEYS = [f.name for f in dataclasses.fields(LlmRequestParams)] + [
    "backend",
    "fixture_dir",
    "endpoint_url",
    "api_key_file",
    "api_key_env",
    "max_concurency",
]


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    where=st.one_of(
        st.tuples(
            st.sampled_from(["defaults", "b_classify", "c_coverage", "d_duplicates"]),
            st.sampled_from(TASK_KEYS),
        ),
        st.tuples(st.just("llm"), st.sampled_from(LLM_KEYS)),
    ),
    value=json_values,
)
def test_any_json_value_under_any_key_loads_or_is_an_invalid_config(tmp_path, where, value):
    block, key = where
    config = base_config()
    config[block][key] = value
    path = tmp_path / "params.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    try:
        cfg = load_config(path)
    except InvalidConfigError as err:
        assert err.problems
    else:
        params_from_llm_config(cfg.llm)


def test_load_config_rejects_unknown_task_key(tmp_path):
    config = base_config()
    config["d_duplicates"]["detla"] = True  # typo of "delta"
    config["defaults"]["gold_fil"] = "gold.csv"  # reported for every task
    with pytest.raises(InvalidConfigError) as err:
        load_config(make_project(tmp_path, config))
    assert sorted(problems_of(err)) == [
        ("b_classify", "gold_fil"),
        ("c_coverage", "gold_fil"),
        ("d_duplicates", "detla"),
        ("d_duplicates", "gold_fil"),
        ("e_contradictions", "gold_fil"),
    ]
    assert "gold_include_type" in str(err.value)


def test_load_config_keeps_the_allowed_extra_keys(tmp_path):
    config = base_config()
    config["b_classify"].update(
        gold_file="gold.csv", metric="classification", gold_include_type=False
    )
    cfg = load_config(make_project(tmp_path, config))
    task = cfg.task("b_classify")
    assert (task.gold_file, task.metric, task.gold_include_type) == (
        "gold.csv",
        "classification",
        False,
    )


def test_sample_project_config_loads():
    cfg = load_config(SAMPLE_PROJECT / "params.json")
    assert [t.name for t in cfg.tasks] == [
        "b_classify_requirements",
        "c_identify_coverage_gaps",
        "d_identify_duplicates",
        "e_identify_contradictions",
    ]


def test_max_concurrency_reaches_the_request_params(tmp_path):
    config = base_config()
    config["llm"]["max_concurrency"] = 3
    cfg = load_config(make_project(tmp_path, config))
    assert params_from_llm_config(cfg.llm).max_concurrency == 3
    assert params_from_llm_config({}).max_concurrency == 8


# ---------------------------------------------------------------------------
# Backend and request parameter construction
# ---------------------------------------------------------------------------


def test_build_backend_mock_resolves_fixture_dir(tmp_path):
    backend = build_backend({"backend": "mock", "fixture_dir": "canned"}, tmp_path)
    assert isinstance(backend, MockBackend)
    assert backend.fixture_dir == tmp_path / "canned"


def test_build_backend_defaults_to_mock(tmp_path):
    assert isinstance(build_backend({}, tmp_path), MockBackend)


def test_build_backend_kind_override_wins(tmp_path):
    llm = {"backend": "http", "endpoint_url": "https://example.test/v1"}
    assert isinstance(build_backend(llm, tmp_path, kind="mock"), MockBackend)


def test_build_backend_http_requires_endpoint(tmp_path):
    with pytest.raises(InvalidConfigError):
        build_backend({"backend": "http"}, tmp_path)


def test_build_backend_http(tmp_path):
    backend = build_backend(
        {
            "backend": "http",
            "endpoint_url": "https://example.test/v1",
            "api_key_file": "key.txt",
        },
        tmp_path,
    )
    assert isinstance(backend, HttpBackend)
    assert backend.endpoint_url == "https://example.test/v1"
    assert backend.api_key_file == tmp_path / "key.txt"


def test_build_backend_unknown_kind(tmp_path):
    with pytest.raises(InvalidConfigError):
        build_backend({"backend": "carrier-pigeon"}, tmp_path)


def test_params_from_llm_config():
    params = params_from_llm_config(
        {"model_id": "gpt-4", "temperature": 0.2, "max_retries": 5, "backend": "mock"}
    )
    assert params.model_id == "gpt-4"
    assert params.temperature == 0.2
    assert params.max_retries == 5
    assert params.timeout == 60.0  # untouched default


# ---------------------------------------------------------------------------
# Full pipeline runs
# ---------------------------------------------------------------------------


def run_project(tmp_path, **kwargs):
    config_path = make_project(tmp_path, kwargs.pop("config", None))
    backend = CountingBackend(MockBackend(tmp_path / "fixtures"))
    report = run_all(config_path, backend=backend, version_tag="TEST", **kwargs)
    return report, backend


def test_a_run_resolves_the_config_and_each_project_dir_once(tmp_path, monkeypatch):
    config_path = make_project(tmp_path)
    resolved = []
    resolve = Path.resolve
    monkeypatch.setattr(Path, "resolve", lambda path, *a: resolved.append(path) or resolve(path, *a))
    run_all(config_path, backend=MockBackend(tmp_path / "fixtures"), version_tag="TEST")
    assert len(resolved) == 1 + 4  # in load_config: the config's directory and each task's
    assert load_config(config_path).project_dirs == dict.fromkeys(
        ["b_classify", "c_coverage", "d_duplicates", "e_contradictions"], tmp_path.resolve()
    )


def test_first_run_executes_every_task(tmp_path):
    report, backend = run_project(tmp_path)
    assert [r.status for r in report.results] == ["Succeeded"] * 4
    # One classification chunk, NAV and EN duplicate clusters, and one
    # contradiction cluster (NAV collapses to a single row after the
    # duplicate pair is consolidated).
    assert [r.backend_calls for r in report.results] == [1, 0, 2, 1]
    assert backend.calls == 4
    assert report.failed == []


def test_first_run_details_and_files(tmp_path):
    report, _ = run_project(tmp_path)
    by_name = {r.name: r for r in report.results}
    assert by_name["b_classify"].detail == "4 requirements classified, 0 quarantined"
    # NAV and EN both fall short; the catch-all bucket is not ranked as a gap.
    assert by_name["c_coverage"].detail == "3 functions, 2 with missing coverage"
    assert by_name["d_duplicates"].detail == "1 findings across 2 function clusters"
    assert by_name["e_contradictions"].detail == "1 findings across 2 function clusters"
    results = tmp_path / "results"
    assert (results / "raw" / "b_classify_TEST.json").exists()
    assert (results / "joined" / "b_classify_joined.csv").exists()
    assert (results / "raw" / "e_contradictions_TEST.json").exists()


def test_first_run_emits_report_set(tmp_path):
    report, _ = run_project(tmp_path)
    reports = tmp_path / "results" / "reports"
    assert report.report_set is not None
    assert report.report_set.summary_path == reports / "summary_TEST.md"
    names = {p.name for p in reports.iterdir()}
    assert "classification_TEST.csv" in names
    assert "coverage_TEST.csv" in names
    assert "duplicates_TEST.csv" in names
    assert "contradictions_TEST.csv" in names
    assert "metrics_TEST.json" not in names  # no gold files configured


def test_joined_table_lists_every_requirement_once(tmp_path):
    run_project(tmp_path)
    lines = (
        (tmp_path / "results" / "joined" / "b_classify_joined.csv")
        .read_text(encoding="utf-8")
        .splitlines()
    )
    assert lines[0] == "ReqID,Requirements,Function,Type,Confidence,System Requirement"
    assert [line.split(",")[0] for line in lines[1:]] == ["2000", "2001", "2002", "2003"]


def test_delta_rerun_makes_no_backend_calls(tmp_path):
    run_project(tmp_path)
    before = tree_bytes(tmp_path / "results")

    backend = CountingBackend(MockBackend(tmp_path / "fixtures"))
    report = run_all(tmp_path / "params.json", backend=backend, version_tag="TEST")

    assert backend.calls == 0
    statuses = {r.name: r.status for r in report.results}
    assert statuses["b_classify"] == "Skipped"
    assert statuses["c_coverage"] == "Succeeded"  # local, recomputed for free
    assert statuses["d_duplicates"] == "Skipped"
    assert statuses["e_contradictions"] == "Skipped"
    details = {r.name: r.detail for r in report.results}
    assert details["b_classify"] == "delta: reused 4 classified rows"
    assert details["d_duplicates"] == "delta: reused 1 findings"
    assert tree_bytes(tmp_path / "results") == before


def test_force_reexecutes_despite_delta(tmp_path):
    run_project(tmp_path)
    before = tree_bytes(tmp_path / "results")

    backend = CountingBackend(MockBackend(tmp_path / "fixtures"))
    report = run_all(
        tmp_path / "params.json", backend=backend, version_tag="TEST", force=True
    )

    assert backend.calls == 4
    assert [r.status for r in report.results] == ["Succeeded"] * 4
    assert tree_bytes(tmp_path / "results") == before


def test_new_version_tag_executes_fresh(tmp_path):
    run_project(tmp_path)
    backend = CountingBackend(MockBackend(tmp_path / "fixtures"))
    run_all(tmp_path / "params.json", backend=backend, version_tag="TEST2")
    assert backend.calls == 4
    raw = tmp_path / "results" / "raw"
    assert (raw / "b_classify_TEST.json").exists()
    assert (raw / "b_classify_TEST2.json").exists()


def test_version_tag_defaults_to_today(tmp_path):
    config_path = make_project(tmp_path)
    run_all(config_path, backend=MockBackend(tmp_path / "fixtures"))
    tag = date.today().isoformat()
    assert (tmp_path / "results" / "raw" / f"b_classify_{tag}.json").exists()


def test_dry_run_plans_without_writing(tmp_path):
    report, backend = run_project(tmp_path, dry_run=True)
    assert [r.status for r in report.results] == ["Planned"] * 4
    assert all(r.detail == "would execute" for r in report.results)
    assert backend.calls == 0
    assert report.report_set is None
    assert not (tmp_path / "results").exists()
    assert not (tmp_path / ".safereq").exists()


def test_dry_run_after_real_run_reports_delta_reuse(tmp_path):
    run_project(tmp_path)
    report = run_all(
        tmp_path / "params.json",
        backend=MockBackend(tmp_path / "fixtures"),
        version_tag="TEST",
        dry_run=True,
    )
    details = {r.name: r.detail for r in report.results}
    assert details["b_classify"] == "delta: would reuse b_classify_TEST.json"
    # A local analysis is recorded too, and reused whatever delta says.
    assert details["c_coverage"] == "would reuse c_coverage_TEST.json"
    assert {r.status for r in report.results} == {"Planned"}
    # The pair tasks key their rows and the catalog as the real rerun does.
    assert details["d_duplicates"] == "delta: would reuse d_duplicates_TEST.json"
    assert details["e_contradictions"] == "delta: would reuse e_contradictions_TEST.json"
    assert report.report_set is None
    assert [r.status for r in rerun(tmp_path).results] == ["Skipped", "Succeeded"] + ["Skipped"] * 2


# ---------------------------------------------------------------------------
# Report set reuse
# ---------------------------------------------------------------------------


def report_files(tmp_path):
    """Each report's bytes, inode and mtime: a file moved into place changes its inode."""
    return {
        path.name: (path.read_bytes(), path.stat().st_ino, path.stat().st_mtime_ns)
        for path in sorted((tmp_path / "results" / "reports").iterdir())
    }


def rerun(tmp_path, **kwargs):
    backend = CountingBackend(MockBackend(tmp_path / "fixtures"))
    return run_all(tmp_path / "params.json", backend=backend, **{"version_tag": "TEST", **kwargs})


def test_an_unchanged_rerun_keeps_every_report_and_returns_the_set_reused(tmp_path):
    first, _ = run_project(tmp_path)
    before = report_files(tmp_path)
    second = rerun(tmp_path)
    assert report_files(tmp_path) == before
    assert second.report_set == first.report_set
    assert second.report_set.reused and not first.report_set.reused
    assert (tmp_path / ".safereq" / "reports_TEST.json").is_file()


def write(path, text):
    path.write_text(text, encoding="utf-8")


def edit_json(path, edit):
    value = json.loads(path.read_text(encoding="utf-8"))
    edit(value)
    write(path, json.dumps(value))


# Each edit changes the project, or returns the run_all arguments of the runs after it.
REPORT_SET_EDITS = {
    "gold-file": lambda tmp_path: write(
        tmp_path / "gold_pairs.csv", "req_a,req_b\n2000,2001\n2002,2003\n"
    ),
    "threshold": lambda tmp_path: edit_json(
        tmp_path / "params.json", lambda config: config["thresholds"].update(duplicates=90.0)
    ),
    "tag": lambda tmp_path: {"version_tag": "TEST2"},
    "catalog-lineage": lambda tmp_path: edit_json(
        tmp_path / "resources.json",
        lambda resources: resources["ARCHITECTURE"].update(NAV="Drone/Navigation/Flying"),
    ),
    "report-deleted": lambda tmp_path: (
        tmp_path / "results" / "reports" / "coverage_TEST.csv"
    ).unlink(),
    "report-edited": lambda tmp_path: write(
        tmp_path / "results" / "reports" / "summary_TEST.md", "edited\n"
    ),
    "record-corrupt": lambda tmp_path: write(tmp_path / ".safereq" / "reports_TEST.json", "{"),
    "force": lambda tmp_path: {"force": True},
}


@pytest.mark.parametrize("edit", REPORT_SET_EDITS.values(), ids=REPORT_SET_EDITS)
def test_a_changed_input_report_or_record_or_force_writes_the_set_again(tmp_path, edit):
    config = base_config()
    config["thresholds"] = {"duplicates": 80.0}
    config["d_duplicates"]["gold_file"] = "gold_pairs.csv"
    config_path = make_project(tmp_path, config)
    write(tmp_path / "gold_pairs.csv", "req_a,req_b\n2000,2001\n")
    run_all(config_path, backend=MockBackend(tmp_path / "fixtures"), version_tag="TEST")
    before = report_files(tmp_path)

    kwargs = edit(tmp_path) or {}
    again = rerun(tmp_path, **kwargs)
    reports = tmp_path / "results" / "reports"
    assert not again.report_set.reused
    assert all(path.parent == reports for path in again.report_set.files.values())
    written = report_files(tmp_path)
    for path in again.report_set.files.values():
        assert written[path.name][1:] != before.get(path.name, (None,))[1:], path.name

    # The fresh record lets the next run with the same inputs keep the set.
    third = rerun(tmp_path, **{**kwargs, "force": False})
    assert third.report_set.reused
    assert third.report_set == again.report_set
    assert report_files(tmp_path) == written


@pytest.mark.parametrize(
    "where, blocked",
    [(".", True), (os.fsdecode(b"not-utf8-\xff"), False)],
    ids=["record-dir-is-a-file", "path-not-utf8"],
)
def test_a_record_that_cannot_be_written_leaves_the_run_to_succeed(tmp_path, where, blocked):
    tmp_path = tmp_path / where
    tmp_path.mkdir(exist_ok=True)
    if blocked:
        write(tmp_path / ".safereq", "a file, not a directory")
    first, _ = run_project(tmp_path)
    assert first.failed == [] and not first.report_set.reused
    second = rerun(tmp_path)
    assert not second.report_set.reused
    assert second.report_set == first.report_set


def test_a_task_that_fails_publishes_nothing_to_the_report_set(tmp_path):
    # b_second classifies and scores its rows, then cannot write its raw file.
    # The report set holds the rows, lineages and scores b_classify published,
    # never b_second's.
    config = base_config()
    for name in ("c_coverage", "d_duplicates", "e_contradictions"):
        del config[name]
    config["b_second"] = {
        **config["b_classify"],
        "output_path": "second",
        "resources": "resources_second.json",
        "gold_file": "gold_second.csv",
        "metric": "stability",
    }
    config_path = make_project(tmp_path, config)
    architecture = {"NAV": "Other/Steering", "EN": "Other/Power"}
    write(tmp_path / "resources_second.json", json.dumps({"ARCHITECTURE": architecture}))
    gold = "ReqID,Function,Type\n2000,NAV,FUNC\n2001,NAV,FUNC\n2002,EN,PROB\n2003,EN,FUNC\n"
    write(tmp_path / "gold_second.csv", gold)
    (tmp_path / "second").mkdir()
    write(tmp_path / "second" / "raw", "a file where the raw directory would be")
    first = run_all(config_path, backend=MockBackend(tmp_path / "fixtures"), version_tag="TEST")
    assert [r.status for r in first.results] == ["Succeeded", "Failed"]

    edit_json(
        tmp_path / "fixtures" / "classify.json",
        lambda answer: answer["results"][0].update(Function="EN"),
    )
    shutil.rmtree(tmp_path / "second" / "reports")
    again = rerun(tmp_path)
    assert [r.status for r in again.results] == ["Skipped", "Failed"]
    assert not again.report_set.reused
    reports = tmp_path / "second" / "reports"
    report = (reports / "classification_TEST.csv").read_text("utf-8")
    assert report.splitlines()[1].startswith("2000,NAV,")
    allocation = (reports / "allocation_TEST.csv").read_text("utf-8")
    assert allocation.splitlines()[1].startswith("2000,NAV,Drone/Navigation/Navigating,")
    assert all("stability" not in path.read_text("utf-8") for path in reports.iterdir())


def test_only_task_restricts_the_run(tmp_path):
    config_path = make_project(tmp_path)
    backend = CountingBackend(MockBackend(tmp_path / "fixtures"))
    report = run_all(
        config_path, backend=backend, version_tag="TEST", only_task="b_classify"
    )
    assert [r.name for r in report.results] == ["b_classify"]
    assert backend.calls == 1
    assert (tmp_path / "results" / "reports" / "summary_TEST.md").exists()


def test_only_task_unknown_name_rejected(tmp_path):
    config_path = make_project(tmp_path)
    with pytest.raises(InvalidConfigError):
        run_all(config_path, only_task="z_missing")


def test_run_false_task_is_skipped(tmp_path):
    config = base_config()
    config["e_contradictions"]["run"] = False
    report, backend = run_project(tmp_path, config=config)
    by_name = {r.name: r for r in report.results}
    assert by_name["e_contradictions"].status == "Skipped"
    assert by_name["e_contradictions"].detail == "run is false"
    assert backend.calls == 3


def test_missing_input_fails_without_raising(tmp_path):
    config = base_config()
    config["b_classify"]["input_file"] = "input/absent.csv"
    report, backend = run_project(tmp_path, config=config)
    assert backend.calls == 0
    assert len(report.failed) == 4
    by_name = {r.name: r for r in report.results}
    assert "input file not found" in by_name["b_classify"].detail
    # Downstream tasks point at the joined table the failed task never wrote.
    assert "missing upstream output" in by_name["c_coverage"].detail
    assert report.report_set is None


def test_failure_leaves_partial_marker(tmp_path):
    config = base_config()
    config["b_classify"]["input_file"] = "input/absent.csv"
    run_project(tmp_path, config=config)
    partial = tmp_path / "results" / "raw" / "b_classify_TEST.json.partial"
    assert partial.exists()
    payload = json.loads(partial.read_text(encoding="utf-8"))
    assert payload["task"] == "b_classify"
    assert "input file not found" in payload["error"]
    assert not (tmp_path / "results" / "raw" / "b_classify_TEST.json").exists()


def test_partial_marker_does_not_trigger_delta(tmp_path):
    config = base_config()
    config["b_classify"]["input_file"] = "input/absent.csv"
    run_project(tmp_path, config=config)
    # Repair the input and re-run: the task must execute, not skip.
    config = base_config()
    (tmp_path / "params.json").write_text(json.dumps(config), encoding="utf-8")
    backend = CountingBackend(MockBackend(tmp_path / "fixtures"))
    report = run_all(tmp_path / "params.json", backend=backend, version_tag="TEST")
    assert report.failed == []
    assert backend.calls == 4


def test_success_removes_a_stale_partial_marker(tmp_path):
    config = base_config()
    config["b_classify"]["input_file"] = "input/absent.csv"
    run_project(tmp_path, config=config)
    raw = tmp_path / "results" / "raw"
    assert (raw / "b_classify_TEST.json.partial").exists()
    (tmp_path / "params.json").write_text(json.dumps(base_config()), encoding="utf-8")
    report = run_all(tmp_path / "params.json", version_tag="TEST")
    assert report.failed == []
    assert sorted(p.name for p in raw.iterdir()) == [
        "b_classify_TEST.json",
        "c_coverage_TEST.json",
        "d_duplicates_TEST.json",
        "e_contradictions_TEST.json",
    ]


_PATH_KEYS = ("project_dir", "input_file", "instructions", "resources", "output_path", "gold_file")


@pytest.mark.parametrize("key", _PATH_KEYS)
@pytest.mark.parametrize("task", ["c_coverage", "e_contradictions"])
def test_a_nul_in_a_path_fails_the_run_at_load(tmp_path, task, key):
    config = base_config()
    config[task][key] = "a\0b"
    with pytest.raises(InvalidConfigError) as err:
        run_project(tmp_path, config=config)
    assert (task, key) in problems_of(err)
    assert not (tmp_path / "results").exists()


def test_an_output_path_under_a_file_fails_its_task_without_a_marker(tmp_path):
    (tmp_path / "plain").write_text("not a directory", encoding="utf-8")
    config = base_config()
    config["c_coverage"]["output_path"] = str(tmp_path / "plain" / "x")
    report, _ = run_project(tmp_path, config=config)
    statuses = [(r.name, r.status) for r in report.results]
    assert statuses == [
        ("b_classify", "Succeeded"),
        ("c_coverage", "Failed"),
        ("d_duplicates", "Succeeded"),
        ("e_contradictions", "Succeeded"),
    ]
    assert report.results[1].files == []
    assert "Not a directory" in report.results[1].detail
    assert (tmp_path / "plain").read_text(encoding="utf-8") == "not a directory"
    assert report.report_set.summary_path == tmp_path / "results" / "reports" / "summary_TEST.md"


def test_a_report_set_that_cannot_be_written_names_its_directory(tmp_path):
    (tmp_path / "plain").write_text("not a directory", encoding="utf-8")
    config = base_config()
    config["e_contradictions"]["output_path"] = str(tmp_path / "plain" / "x")
    reports = tmp_path / "plain" / "x" / "reports"
    with pytest.raises(SafereqError, match=re.escape(f"cannot write the report set to {reports}: ")):
        run_project(tmp_path, config=config)


def test_a_repeated_alias_in_the_architecture_fails_the_task(tmp_path):
    config = base_config()
    config["b_classify"]["resources"] = "repeated.json"
    (tmp_path / "repeated.json").write_text(
        json.dumps(
            {"ARCHITECTURE": {"Drone": {"NAV": "Drone/Nav"}, "Pilot": {"NAV": "Pilot/Nav"}}}
        ),
        encoding="utf-8",
    )
    report, backend = run_project(tmp_path, config=config)
    classify = report.results[0]
    assert classify.status == "Failed"
    assert classify.detail == "alias 'NAV' is listed more than once"
    assert (tmp_path / "results" / "raw" / "b_classify_TEST.json.partial").exists()
    assert len(report.results) == 4
    assert backend.calls == 0


@pytest.mark.parametrize(
    "text, detail",
    [
        ('{"ARCHITECTURE": {"NAV": "Drone/Nav", "NAV": "Pilot/Nav"}}', "repeated key 'NAV' in "),
        ('{"ARCHITECTURE": {"NAV": "Drone/Nav"}', "not valid JSON in "),
        ('{"ARCHITECTURE": {"NAV": "\\ud800Drone/Nav"}}', "not valid JSON in "),
    ],
    ids=["repeated-alias", "truncated", "lone-surrogate"],
)
def test_a_resources_file_that_is_not_strict_json_fails_the_task(tmp_path, text, detail):
    config = base_config()
    config["b_classify"]["resources"] = "strict.json"
    (tmp_path / "strict.json").write_text(text, encoding="utf-8")
    report, backend = run_project(tmp_path, config=config)
    classify = report.results[0]
    assert classify.status == "Failed"
    assert classify.detail.startswith(detail + str(tmp_path / "strict.json"))
    assert (tmp_path / "results" / "raw" / "b_classify_TEST.json.partial").exists()
    assert len(report.results) == 4
    assert backend.calls == 0


def test_a_csv_field_over_the_limit_fails_its_task_and_the_run_goes_on(tmp_path):
    config_path = make_project(tmp_path)
    reqs = tmp_path / "input" / "reqs.csv"
    with reqs.open("a", encoding="utf-8") as handle:
        handle.write("2004," + "x" * 131_073 + "\n")
    backend = CountingBackend(MockBackend(tmp_path / "fixtures"))
    report = run_all(config_path, backend=backend, version_tag="TEST")
    classify = report.results[0]
    assert classify.status == "Failed"
    assert classify.detail == f"{reqs.resolve()}, line 6: field larger than field limit (131072)"
    assert (tmp_path / "results" / "raw" / "b_classify_TEST.json.partial").exists()
    assert [r.status for r in report.results] == ["Failed"] * 4
    assert backend.calls == 0


def test_failed_joined_write_keeps_the_earlier_table(tmp_path, monkeypatch):
    run_project(tmp_path)
    joined = tmp_path / "results" / "joined" / "b_classify_joined.csv"
    before = joined.read_bytes()
    table = orchestrator.classified_table

    def fail_on_third_row(rows, columns):
        for n, cells in enumerate(table(rows, columns)):
            if n == 2:
                raise ValueError("encoder failed mid-table")
            yield cells

    monkeypatch.setattr(orchestrator, "classified_table", fail_on_third_row)
    # A bug in a task body propagates, as in the raw-write test below.
    with pytest.raises(ValueError, match="encoder failed mid-table"):
        run_all(
            tmp_path / "params.json", version_tag="TEST", force=True, only_task="b_classify"
        )
    assert joined.read_bytes() == before
    assert [p.name for p in joined.parent.iterdir()] == [joined.name]


def test_failed_raw_write_keeps_the_earlier_raw_file(tmp_path, monkeypatch):
    run_project(tmp_path)
    raw = tmp_path / "results" / "raw" / "b_classify_TEST.json"
    before = raw.read_bytes()
    record = orchestrator.classified_record
    monkeypatch.setattr(
        orchestrator, "classified_record", lambda row: {**record(row), "Flags": object()}
    )
    with pytest.raises(TypeError):
        run_all(
            tmp_path / "params.json", version_tag="TEST", force=True, only_task="b_classify"
        )
    assert raw.read_bytes() == before
    assert not list(raw.parent.glob(".*"))


def test_unknown_records_are_quarantined_and_never_joined(tmp_path):
    results = [
        classify_record("2000", "NAV", "FUNC", 90),
        classify_record("2001", "NAV", "FUNC", 85),
        classify_record("2002", "EN", "PROB", 90),
        classify_record("2003", "EN", "FUNC", 85),
        classify_record("9999", "NAV", "FUNC", 99),
    ]
    config_path = make_project(tmp_path, classify_results=results)
    report = run_all(
        config_path, backend=MockBackend(tmp_path / "fixtures"), version_tag="TEST"
    )
    by_name = {r.name: r for r in report.results}
    assert by_name["b_classify"].detail == "4 requirements classified, 1 quarantined"

    quarantine = tmp_path / "results" / "quarantine" / "b_classify_TEST.json"
    entries = json.loads(quarantine.read_text(encoding="utf-8"))
    assert len(entries) == 1
    assert entries[0]["record"]["ReqID"] == "9999"
    assert "unknown ReqID" in entries[0]["reason"]

    joined = (tmp_path / "results" / "joined" / "b_classify_joined.csv").read_text(
        encoding="utf-8"
    )
    assert "9999" not in joined


def test_schema_rejected_pair_records_are_quarantined(tmp_path):
    config_path = make_project(tmp_path)
    (tmp_path / "fixtures" / "duplicates.json").write_text(
        json.dumps({"results": [{"ReqID_A": "2000"}]}), encoding="utf-8"
    )
    report = run_all(
        config_path, backend=MockBackend(tmp_path / "fixtures"), version_tag="TEST"
    )
    assert report.failed == []
    by_name = {r.name: r for r in report.results}
    quarantine = tmp_path / "results" / "quarantine" / "d_duplicates_TEST.json"
    assert by_name["d_duplicates"].files[-1] == quarantine
    # The NAV and EN clusters each got the one-sided record back.
    assert json.loads(quarantine.read_text(encoding="utf-8")) == [
        {"record": {"ReqID_A": "2000"}, "reason": "missing required field 'ReqID_B'"}
    ] * 2
    assert not (tmp_path / "results" / "quarantine" / "e_contradictions_TEST.json").exists()


def test_non_finite_confidence_in_a_joined_table_reads_as_zero(tmp_path):
    run_project(tmp_path)
    joined = tmp_path / "results" / "joined" / "b_classify_joined.csv"
    with open(joined, encoding="utf-8", newline="") as handle:
        table = list(csv.reader(handle))
    column = table[0].index("Confidence")
    for row, value in zip(table[1:], ["inf", "-inf", "1e999", "nan"]):
        row[column] = value
    with open(joined, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows(table)

    report = run_all(
        tmp_path / "params.json", version_tag="TEST", only_task="c_coverage"
    )
    assert [r.status for r in report.results] == ["Succeeded"]
    rows = orchestrator._classified_from_file(joined, "ReqID")
    assert [r.confidence for r in rows] == [0, 0, 0, 0]


def append_a_copy_of_the_first_row(joined):
    with open(joined, encoding="utf-8", newline="") as handle:
        table = list(csv.reader(handle))
    with open(joined, "a", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerow(table[1])


def test_a_repeated_reqid_in_a_joined_table_fails_coverage(tmp_path):
    run_project(tmp_path)
    append_a_copy_of_the_first_row(tmp_path / "results" / "joined" / "b_classify_joined.csv")
    report = run_all(tmp_path / "params.json", version_tag="TEST", only_task="c_coverage")
    (result,) = report.results
    assert result.status == "Failed"
    assert result.detail == "duplicate req_id '2000' at rows 2 and 6"


class RecordingBackend(MockBackend):
    def __init__(self, fixture_dir):
        super().__init__(fixture_dir)
        self.prompts = []

    def complete(self, prompt, params):
        self.prompts.append(prompt)
        return super().complete(prompt, params)


def test_a_pair_task_run_alone_sends_what_the_full_run_sent(tmp_path):
    config_path = make_project(tmp_path)
    full = RecordingBackend(tmp_path / "fixtures")
    run_all(config_path, backend=full, version_tag="TEST")
    alone = RecordingBackend(tmp_path / "fixtures")
    report = run_all(
        config_path, backend=alone, version_tag="TEST", only_task="d_duplicates", force=True
    )
    assert [r.status for r in report.results] == ["Succeeded"]
    assert "The system shall satisfy 2000." in alone.prompts[0]
    assert sorted(alone.prompts) == sorted(p for p in full.prompts if p in alone.prompts)
    assert len(alone.prompts) == 2


def test_a_pair_task_run_alone_needs_the_system_requirement_column_but_not_type(tmp_path):
    config = base_config()
    config["defaults"]["result_columns"] = ["Function", "Type", "Confidence"]
    run_project(tmp_path, config=config)
    report = run_all(
        tmp_path / "params.json", version_tag="TEST", only_task="d_duplicates", force=True
    )
    (result,) = report.results
    assert result.status == "Failed"
    assert result.detail.endswith("b_classify_joined.csv: System Requirement")

    config["defaults"]["result_columns"] = ["Function", "System Requirement"]
    (tmp_path / "params.json").write_text(json.dumps(config), encoding="utf-8")
    run_all(tmp_path / "params.json", version_tag="TEST", force=True)
    results = {
        task: run_all(tmp_path / "params.json", version_tag="T2", only_task=task).results[0]
        for task in ("c_coverage", "d_duplicates")
    }
    assert results["c_coverage"].status == "Failed"
    assert results["c_coverage"].detail.endswith("b_classify_joined.csv: Type")
    assert results["d_duplicates"].status == "Succeeded"


def test_gold_file_scores_classification(tmp_path):
    config = base_config()
    config["b_classify"]["gold_file"] = "gold.csv"
    config_path = make_project(tmp_path, config)
    (tmp_path / "gold.csv").write_text(
        "ReqID,Function,Type\n"
        "2000,NAV,FUNC\n"
        "2001,NAV,FUNC\n"
        "2002,EN,PROB\n"
        "2003,EN,PROB\n",  # disagrees with the mock verdict: 3 of 4 match
        encoding="utf-8",
    )
    report = run_all(
        config_path, backend=MockBackend(tmp_path / "fixtures"), version_tag="TEST"
    )
    by_name = {r.name: r for r in report.results}
    assert by_name["b_classify"].detail.endswith("accuracy 75.00")

    metrics_path = tmp_path / "results" / "reports" / "metrics_TEST.json"
    payload = json.loads(metrics_path.read_text(encoding="utf-8"))
    assert payload["metrics"] == [
        {"metric": "classification", "value": 75.0, "threshold": 80.0, "passed": False}
    ]


def test_gold_file_scores_duplicates_with_custom_threshold(tmp_path):
    config = base_config()
    config["thresholds"] = {"duplicates": 90.0}
    config["d_duplicates"]["gold_file"] = "gold_pairs.csv"
    config_path = make_project(tmp_path, config)
    (tmp_path / "gold_pairs.csv").write_text(
        "req_a,req_b\n2000,2001\n", encoding="utf-8"
    )
    report = run_all(
        config_path, backend=MockBackend(tmp_path / "fixtures"), version_tag="TEST"
    )
    by_name = {r.name: r for r in report.results}
    assert by_name["d_duplicates"].detail.endswith("detection rate 100.00")

    payload = json.loads(
        (tmp_path / "results" / "reports" / "metrics_TEST.json").read_text(
            encoding="utf-8"
        )
    )
    assert payload["metrics"] == [
        {"metric": "duplicates", "value": 100.0, "threshold": 90.0, "passed": True}
    ]


def test_execute_false_reuses_previous_raw_output(tmp_path):
    run_project(tmp_path)
    config = base_config()
    config["b_classify"]["execute"] = False
    config["b_classify"]["instructions"] = ""
    (tmp_path / "params.json").write_text(json.dumps(config), encoding="utf-8")
    backend = MockBackend(tmp_path / "fixtures")
    report = run_all(tmp_path / "params.json", backend=backend, version_tag="TEST")
    by_name = {r.name: r for r in report.results}
    assert by_name["b_classify"].status == "Succeeded"
    assert by_name["b_classify"].detail == "4 requirements classified, 0 quarantined"
    assert by_name["b_classify"].backend_calls == 0


def test_execute_false_without_raw_output_fails(tmp_path):
    config = base_config()
    config["b_classify"]["execute"] = False
    config["b_classify"]["instructions"] = ""
    report, _ = run_project(tmp_path, config=config)
    by_name = {r.name: r for r in report.results}
    assert by_name["b_classify"].status == "Failed"
    assert "no previous raw output" in by_name["b_classify"].detail


def test_classification_with_analyze_false_writes_raw_and_quarantine_but_publishes_nothing(
    tmp_path,
):
    config = base_config()
    config["b_classify"]["analyze"] = False
    classify_results = [
        classify_record(req_id, "NAV", "FUNC", 90) for req_id in ("2000", "2001", "2002", "2003")
    ] + [classify_record("9999", "NAV", "FUNC", 90)]
    config_path = make_project(tmp_path, config, classify_results=classify_results)
    report = run_all(config_path, backend=MockBackend(tmp_path / "fixtures"), version_tag="TEST")

    by_name = {r.name: r for r in report.results}
    results = (tmp_path / "results").resolve()
    assert by_name["b_classify"].status == "Succeeded"
    assert by_name["b_classify"].files == [
        results / "raw" / "b_classify_TEST.json",
        results / "quarantine" / "b_classify_TEST.json",
    ]
    assert not (results / "joined").exists()
    for name in ("c_coverage", "d_duplicates", "e_contradictions"):
        assert by_name[name].status == "Failed"
        assert by_name[name].detail.startswith("missing upstream output: ")
    assert report.report_set is None
    assert not (results / "reports").exists()


def test_a_delta_rerun_with_analyze_false_calls_no_backend_and_builds_no_catalog(
    tmp_path, monkeypatch
):
    config = base_config()
    config["b_classify"]["analyze"] = False
    config_path = make_project(tmp_path, config)
    first = run_all(
        config_path,
        backend=MockBackend(tmp_path / "fixtures"),
        version_tag="TEST",
        only_task="b_classify",
    )
    assert first.results[0].files == [(tmp_path / "results/raw/b_classify_TEST.json").resolve()]

    def refuse(resources):
        raise AssertionError("a catalog was built")

    monkeypatch.setattr(orchestrator, "_catalog_for", refuse)
    backend = CountingBackend(MockBackend(tmp_path / "fixtures"))
    report = run_all(config_path, backend=backend, version_tag="TEST", only_task="b_classify")
    (result,) = report.results
    assert (result.status, result.detail) == ("Skipped", "delta: reused 4 classified rows")
    assert backend.calls == 0
    assert report.report_set is None


def test_an_executed_classification_reads_its_resources_file_once(tmp_path, monkeypatch):
    config_path = make_project(tmp_path)
    reads = []
    read_json = orchestrator._read_json

    def counted(path):
        reads.append(path.name)
        return read_json(path)

    monkeypatch.setattr(orchestrator, "_read_json", counted)
    report = run_all(
        config_path,
        backend=MockBackend(tmp_path / "fixtures"),
        version_tag="TEST",
        only_task="b_classify",
    )
    assert report.results[0].status == "Succeeded"
    assert reads.count("resources.json") == 1


def test_verbose_prints_task_lines(tmp_path, capsys):
    run_project(tmp_path, verbose=True)
    out = capsys.readouterr().out
    assert "[b_classify] Succeeded: 4 requirements classified, 0 quarantined" in out
    assert "[e_contradictions] Succeeded:" in out


def test_run_task_rejects_unregistered_analysis_function(tmp_path):
    config_path = make_project(tmp_path)
    cfg = load_config(config_path)
    task = cfg.task("b_classify")
    task.analysis_function = "analyze_vibes"
    from safereq.orchestrator import PipelineContext

    ctx = PipelineContext(
        config=cfg,
        backend=MockBackend(tmp_path / "fixtures"),
        params=params_from_llm_config(cfg.llm),
        version_tag="TEST",
    )
    with pytest.raises(UnknownAnalysisFunctionError):
        run_task(ctx, task)


# ---------------------------------------------------------------------------
# The analysis table: the keys each analysis reads, and upstream edges
# ---------------------------------------------------------------------------

TASK_OF = {
    orchestrator.ANALYSIS_COMPLETENESS: "b_classify",
    orchestrator.ANALYSIS_COVERAGE: "c_coverage",
    orchestrator.ANALYSIS_DUPLICATES: "d_duplicates",
    orchestrator.ANALYSIS_CONTRADICTIONS: "e_contradictions",
}
KEY_TYPES = {k: t for k, t in get_type_hints(TaskConfig).items() if k != "name"}
UNREAD = [
    (function, key)
    for function, analysis in orchestrator.ANALYSES.items()
    for key in sorted(KEY_TYPES)
    if key not in orchestrator.COMMON_KEYS | analysis.reads
]


def test_every_task_key_is_read_by_some_analysis():
    reads = [analysis.reads for analysis in orchestrator.ANALYSES.values()]
    assert orchestrator.COMMON_KEYS.union(*reads) == set(KEY_TYPES)


@pytest.mark.parametrize("function, key", UNREAD, ids=[f"{TASK_OF[f]}-{k}" for f, k in UNREAD])
def test_a_key_its_analysis_does_not_read_is_refused_in_a_task_block(tmp_path, function, key):
    task = TASK_OF[function]
    config = base_config()
    config[task][key] = dataclasses.asdict(TaskConfig(name=task))[key]  # the default
    with pytest.raises(InvalidConfigError) as err:
        load_config(make_project(tmp_path, config))
    assert (task, key, f"not read by {function}") in err.value.problems


_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"), max_size=6)
_VALID = {
    bool: st.booleans(),
    int: st.integers(1, 50),
    str: _TEXT,
    list[str]: st.lists(
        st.sampled_from(["Function", "Type", "Confidence", "System Requirement"]),
        min_size=1,
        max_size=3,
    ),
    "metric": st.sampled_from(["", *DEFAULT_THRESHOLDS]),
    "prompt_version": st.sampled_from(sorted(DUPLICATE_PROMPTS)),
}


@st.composite
def unread_defaults(draw):
    """An analysis, and valid values for the keys it does not read."""
    function = draw(st.sampled_from(sorted(orchestrator.ANALYSES)))
    keys = [key for f, key in UNREAD if f == function]
    return function, {key: draw(_VALID.get(key, _VALID[KEY_TYPES[key]])) for key in keys}


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(drawn=unread_defaults())
def test_defaults_for_keys_an_analysis_does_not_read_leave_its_files_alone(tmp_path, drawn):
    function, values = drawn
    first = tmp_path / "first"
    if not first.exists():
        run_all(make_project(first), version_tag="TEST")

    def run_alone(defaults):
        project = tmp_path / "project"
        shutil.rmtree(project, ignore_errors=True)
        shutil.copytree(first, project)
        config = base_config()
        config["defaults"].update(defaults)
        (project / "params.json").write_text(json.dumps(config), encoding="utf-8")
        backend = RecordingBackend(project / "fixtures")
        task = TASK_OF[function]
        report = run_all(
            project / "params.json", backend, version_tag="TEST", only_task=task, force=True
        )
        assert [r.status for r in report.results] == ["Succeeded"]
        parts = ("raw", "quarantine", "joined")
        return backend.prompts, {part: tree_bytes(project / "results" / part) for part in parts}

    assert run_alone(values) == run_alone({})


def test_load_config_links_each_task_to_the_task_whose_joined_csv_it_reads(tmp_path):
    config = base_config()
    config["d_duplicates"]["input_file"] = "other.csv"
    cfg = load_config(make_project(tmp_path, config))
    assert cfg.upstream == {"c_coverage": "b_classify", "e_contradictions": "b_classify"}


@pytest.mark.parametrize(
    "spelling",
    ["results/../results/joined/b_classify_joined.csv", "./results//joined/b_classify_joined.csv"],
)
def test_a_joined_csv_spelled_another_way_still_links_its_reader(tmp_path, spelling):
    config = base_config()
    config["c_coverage"]["input_file"] = spelling
    cfg = load_config(make_project(tmp_path, config))
    assert cfg.upstream["c_coverage"] == "b_classify"
    # With the edge, a missing file is the upstream's missing output.
    report = run_all(cfg.config_dir / "params.json", version_tag="TEST", only_task="c_coverage")
    assert report.results[0].detail.startswith("missing upstream output: ")


def test_a_task_listed_before_the_task_whose_joined_csv_it_reads_fails_at_load(tmp_path):
    base = base_config()
    order = ("defaults", "llm", "c_coverage", "b_classify", "d_duplicates", "e_contradictions")
    with pytest.raises(InvalidConfigError) as err:
        load_config(make_project(tmp_path, {key: base[key] for key in order}))
    assert problems_of(err) == [("c_coverage", "input_file")]
    assert "b_classify's joined CSV, not written before it" in str(err.value)


def test_a_classification_that_reads_its_own_joined_csv_fails_at_load(tmp_path):
    config = base_config()
    del config["b_classify"]["input_file"]  # the defaults name b_classify's joined CSV
    with pytest.raises(InvalidConfigError) as err:
        load_config(make_project(tmp_path, config))
    assert problems_of(err) == [("b_classify", "input_file")]


def test_tasks_with_their_own_input_file_build_from_it_with_or_without_classification(tmp_path):
    config, tasks = base_config(), ("c_coverage", "d_duplicates")
    for task in tasks:
        config[task]["input_file"] = "other.csv"
    config_path = make_project(tmp_path, config)
    # Hand labels that put every requirement under EN; classification puts two under NAV.
    (tmp_path / "other.csv").write_text(
        "ReqID,Function,Type,System Requirement\n"
        + "".join(f"{i},EN,PROB,The system shall satisfy {i}.\n" for i in range(2000, 2004)),
        encoding="utf-8",
    )
    assert run_all(config_path, version_tag="TEST").failed == []
    raw = tmp_path / "results" / "raw"
    together = {task: (raw / f"{task}_TEST.json").read_bytes() for task in tasks}
    coverage = json.loads(together["c_coverage"])
    assert {row["Function"]: row["N_FUNC"] for row in coverage["rows"]}["NAV"] == 0
    for task, written in together.items():
        report = run_all(config_path, version_tag="TEST", only_task=task, force=True)
        assert report.failed == []
        assert (raw / f"{task}_TEST.json").read_bytes() == written


def test_a_task_run_alone_reads_the_joined_csv_an_earlier_run_wrote(tmp_path):
    config_path = make_project(tmp_path)
    run_all(config_path, version_tag="TEST")
    raw = tmp_path / "results" / "raw" / "c_coverage_TEST.json"
    written = raw.read_bytes()
    raw.unlink()
    report = run_all(config_path, version_tag="TEST", only_task="c_coverage")
    assert [r.status for r in report.results] == ["Succeeded"]
    assert raw.read_bytes() == written

    (tmp_path / "results" / "joined" / "b_classify_joined.csv").unlink()
    (result,) = run_all(config_path, version_tag="TEST", only_task="c_coverage").results
    assert result.detail.startswith("missing upstream output: ")
