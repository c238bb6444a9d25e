"""Prompt bytes, output bytes, response parsing and failures on the sample project.

Mock fixtures and recorded outputs depend on the exact prompt text, so
the prompts the sample project sends are pinned by sha256 here, and so
are the report, raw and joined files it writes. Each backend response is
parsed once, a garbage response still fails its task with the parser's
message, and a file that is not UTF-8 fails its task naming the file.
"""

import dataclasses
import hashlib
import json
import shutil
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from safereq import (
    CountingBackend,
    MockBackend,
    catalog_from_mapping,
    chunk,
    gateway,
    load_requirements,
    orchestrator,
    run_all,
)
from safereq.classify import build_classification_prompt, classify
from safereq.gateway import LlmRequestParams

SAMPLE_PROJECT = Path(__file__).resolve().parent.parent / "sample_project"

# sha256 of each prompt the sample project sends, in order: one
# classification chunk, four V3 duplicate clusters, three contradiction
# clusters.
SAMPLE_PROMPT_SHA256 = [
    "7bc37e7ade8ce9e379c28b9e20d816b4ae8f0a5bd62808f70780ca55789c0ed1",
    "62904a04bdb854642928639bfc6a82f90648cff64f1c1bc69bc1122524a517b1",
    "111ef28b21cd2e3e7f7fd56ee472267798a63ffce8a1cf54f9eb2696a0188e95",
    "0e843989d853103788b3b8b727658c76c82f6dece7fcc72cda674bccf1b70cfb",
    "a5909742ec4943d45203a8592ed79877c428c2314517a57321ad772905898dfc",
    "5c0f2b8283328d5e34853edaced42d096538c07b6b12ca3940d908507bef35b2",
    "8c0c3bd277227c90c2f691727c6a5144045bc977e97c0326974bf7bd4fe44d6e",
    "721f7b2a48e45c433b137f98a7f818aa29a6f075633efb2da99999f77518d97f",
]

# sha256 of every file the sample project writes under
# B_Requirements/results with version tag "T".
SAMPLE_OUTPUT_SHA256 = {
    "joined/b_classify_requirements_joined.csv": "85b5e8b7c47e4f0bf8a9010d0e002a03cca84f742b4ebd26a4c4fa34f3090a25",
    "raw/b_classify_requirements_T.json": "35c0968135d0eafed02db82c917104e7f1cd51c371217f47a11800291440228a",
    "raw/c_identify_coverage_gaps_T.json": "4e30a792535bb196fb392471f6f0a9e9287e38a95e5222f16ed76ce2bf364144",
    "raw/d_identify_duplicates_T.json": "674766606d1a418a31347304733cc02cfc004a440c579bac1e273f1163b19865",
    "raw/e_identify_contradictions_T.json": "cd5da64bbcca5706572c933eb62995088f9c246d63d2df34547f2ba6d4b14a8f",
    "reports/allocation_T.csv": "7a439d3ad075450e657fd464375c4bf0c71d392706c950ee1270ce5d08ab81f7",
    "reports/allocation_T.json": "a89852250080165635f1ab283771d888c325fbdc34ba6bb0efa33153d697a64c",
    "reports/classification_T.csv": "9ef52023771cf352dccf824a80c4d1212ab876f795f6057958f79caaafdccbe0",
    "reports/classification_T.json": "da6ae8df412ccde5c72b6c96be2b0d566ba03770a583f19c05665931774f4abb",
    "reports/contradictions_T.csv": "4a719b17b3cf7cd8cc94cbdef028aa943853a47623f293ab193c34315e672566",
    "reports/contradictions_T.json": "8e47075c7bde5670ebf4dcbf30273e9b0b89a6bb29e2f0a099dbe09ba9ee1c60",
    "reports/coverage_T.csv": "21c616f498ac4acb3e69e3783d738da5a8cd5b452603e59f8b1c7540ea2848d8",
    "reports/duplicates_T.csv": "e7b047d1dc3b056ed14a88591fa54ad8e4c9ff05e50f6a52238f839f861fb196",
    "reports/duplicates_T.json": "d9b18c926606b38587c5a1f4fd375a1be4ff367b2e4d833107ecb893fb4b9360",
    "reports/summary_T.md": "ee7ed0489d931d7e700f32392986b295a7218f959fb4a6325490d314bb540a83",
}

DUPLICATE_KEY = "mark the duplicate requirements"


class RecordingBackend(MockBackend):
    """Mock backend that keeps every prompt; garbage for chosen prompts.

    With a delay, each call first sleeps that long, as a network call
    waits, so send_many dispatches the calls to worker threads.
    """

    def __init__(self, fixture_dir, garbage_key=None, delay=0.0):
        super().__init__(fixture_dir)
        self.prompts = []
        self.threads = set()
        self.garbage_key = garbage_key
        self.delay = delay

    def complete(self, prompt, params):
        self.prompts.append(prompt)
        self.threads.add(threading.get_ident())
        time.sleep(self.delay)
        raw, usage = super().complete(prompt, params)
        if self.garbage_key and self.garbage_key in prompt:
            return "total garbage", usage
        return raw, usage


@pytest.fixture
def project(tmp_path):
    target = tmp_path / "project"
    shutil.copytree(SAMPLE_PROJECT, target, ignore=shutil.ignore_patterns("results"))
    return target


def run_sample(project, **kwargs):
    backend = RecordingBackend(project / "fixtures", **kwargs)
    report = run_all(project / "params.json", backend=backend, version_tag="T")
    return report, backend


def set_max_concurrency(project, value):
    config_path = project / "params.json"
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["llm"]["max_concurrency"] = value
    config_path.write_text(json.dumps(config), encoding="utf-8")


def set_execute_false(project, *tasks):
    config_path = project / "params.json"
    config = json.loads(config_path.read_text(encoding="utf-8"))
    for task in tasks:
        config[task]["execute"] = False
    config_path.write_text(json.dumps(config), encoding="utf-8")


def report_digests(project):
    reports = project / "B_Requirements" / "results" / "reports"
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(reports.iterdir())
    }


def dataset_ids(prompt):
    return [
        json.loads(line)["ReqID"]
        for line in prompt.splitlines()
        if line.startswith('{"ReqID": ')
    ]


def test_sample_prompt_bytes_are_pinned(project):
    set_max_concurrency(project, 1)  # the pinned list is in send order
    report, backend = run_sample(project)
    assert not report.failed
    assert [gateway.prompt_sha256(p) for p in backend.prompts] == SAMPLE_PROMPT_SHA256


def test_sample_output_bytes_are_pinned(project):
    report, _ = run_sample(project)
    assert not report.failed
    results = project / "B_Requirements" / "results"
    written = {
        path.relative_to(results).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(results.rglob("*"))
        if path.is_file()
    }
    assert written == SAMPLE_OUTPUT_SHA256


def test_sample_project_is_identical_at_the_default_concurrency(tmp_path):
    sequential, concurrent = tmp_path / "sequential", tmp_path / "concurrent"
    for target in (sequential, concurrent):
        shutil.copytree(SAMPLE_PROJECT, target, ignore=shutil.ignore_patterns("results"))
    set_max_concurrency(sequential, 1)
    assert not run_sample(sequential)[0].failed
    report, backend = run_sample(concurrent, delay=0.005)
    assert not report.failed
    assert len(backend.threads) > 1  # the blocking calls went to worker threads
    assert Counter(gateway.prompt_sha256(p) for p in backend.prompts) == Counter(
        SAMPLE_PROMPT_SHA256
    )
    assert report_digests(concurrent) == report_digests(sequential)


def test_each_backend_response_is_parsed_once(project, monkeypatch):
    calls = []
    original = gateway.parse_results_json

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(gateway, "parse_results_json", counting)
    report, _ = run_sample(project)
    assert not report.failed
    backend_calls = sum(r.backend_calls for r in report.results)
    assert backend_calls == len(SAMPLE_PROMPT_SHA256)
    assert len(calls) == backend_calls


@pytest.mark.parametrize(
    "garbage_key, task",
    [
        ("Classify each one of the requirements", "b_classify_requirements"),
        (DUPLICATE_KEY, "d_identify_duplicates"),
        ("mark the contradicting requirements", "e_identify_contradictions"),
    ],
)
def test_garbage_response_fails_its_task_with_the_parse_error(project, garbage_key, task):
    report, _ = run_sample(project, garbage_key=garbage_key)
    by_name = {r.name: r for r in report.results}
    assert by_name[task].status == orchestrator.STATUS_FAILED
    assert by_name[task].detail == "response contains no parsable JSON value"
    partial = json.loads(by_name[task].files[0].read_text(encoding="utf-8"))
    assert partial == {"task": task, "error": "response contains no parsable JSON value"}


def test_v3_duplicate_prompt_lists_cluster_rows_then_each_of_row_once(project):
    report, backend = run_sample(project)
    assert not report.failed
    listed = [dataset_ids(p) for p in backend.prompts if DUPLICATE_KEY in p]
    # Function clusters of the replayed classification; 1006 is the _OF_ row.
    assert sorted(listed) == sorted(
        [
            ["1000", "1001", "1006"],
            ["1002", "1003", "1006"],
            ["1004", "1005", "1008", "1009", "1006"],
            ["1007", "1006"],
        ]
    )


class EchoBackend:
    """Backend stand-in that keeps every prompt and returns no records."""

    def __init__(self):
        self.prompts = []

    def complete(self, prompt, params):
        self.prompts.append(prompt)
        return '{"results": []}', {}


def test_classify_renders_resources_once_with_the_same_bytes(monkeypatch):
    resources = json.loads(
        (SAMPLE_PROJECT / "B_Requirements" / "data_dictionary.json").read_text("utf-8")
    )
    catalog = catalog_from_mapping(resources["ARCHITECTURE"])
    requirements = load_requirements(
        SAMPLE_PROJECT / "B_Requirements" / "input" / "safety_requirements.csv",
        "ReqID",
        ["Requirements"],
    )
    pieces = chunk(requirements, 4)
    template = build_classification_prompt(catalog, "Classify.", "DS")
    expected = [
        gateway.assemble_prompt(
            dataclasses.replace(template, rows=tuple((r.req_id, r.text) for r in piece.rows))
        )
        for piece in pieces
    ]
    renders = []
    original = gateway.render_resource

    def counting(body):
        renders.append(body)
        return original(body)

    monkeypatch.setattr(gateway, "render_resource", counting)
    backend = EchoBackend()
    params = LlmRequestParams(model_id="m", max_concurrency=1)  # prompts in send order
    classify(pieces, template, catalog, params, backend)
    assert len(pieces) > 1
    assert backend.prompts == expected
    assert len(renders) == 2  # ARCHITECTURE and safety_function_type, once each


@pytest.mark.parametrize("route", ["delta", "execute false"])
@pytest.mark.parametrize(
    "task, payload",
    [
        ("b_classify_requirements", "[]"),
        ("b_classify_requirements", '{"rows": 5}'),
        ("b_classify_requirements", '{"rows": [5]}'),
        ("b_classify_requirements", '{"rows": [], "quarantined": [5]}'),
        (
            "b_classify_requirements",
            '{"rows": [{"ReqID": "1", "Function": "NAV", "Type": "FUNC", "Confidence": 1e999}]}',
        ),
        ("b_classify_requirements", '{"rows": '),
        (
            "b_classify_requirements",
            '{"rows": [{"ReqID": "1", "Function": "NAV", "Type": "FUNC", "Confidence": 90, '
            '"Flags": [1]}]}',
        ),
        ("d_identify_duplicates", '"findings"'),
        ("d_identify_duplicates", '{"findings": [null]}'),
        ("e_identify_contradictions", '{"findings": [], "notes": 3}'),
        (
            "b_classify_requirements",
            '{"rows": [{"ReqID": "1", "Function": 5, "Type": "FUNC", "Confidence": 90}]}',
        ),
        (
            "d_identify_duplicates",
            '{"findings": [{"ReqID_A": "1", "ReqID_B": "2", "Relation": ["x"]}]}',
        ),
        (
            "b_classify_requirements",
            '{"rows": [{"ReqID": "1", "Function": "\\ud800", "Type": "FUNC", "Confidence": 90}]}',
        ),
    ],
)
def test_a_malformed_raw_file_fails_execute_false_and_executes_again_under_delta(
    project, task, payload, route
):
    first, _ = run_sample(project)
    assert not first.failed
    raw = project / "B_Requirements" / "results" / "raw" / f"{task}_T.json"
    written = raw.read_bytes()
    raw.write_text(payload, encoding="utf-8")
    if route == "execute false":
        set_execute_false(project, task)
    report, _ = run_sample(project)
    by_name = {r.name: r for r in report.results}
    if route == "delta":
        # The file no longer hashes as recorded, so the task executes again,
        # into the bytes it wrote first: the tasks after it stay reused.
        calls = {r.name: r.backend_calls for r in first.results}
        assert by_name[task].status == orchestrator.STATUS_SUCCEEDED
        assert by_name[task].backend_calls == calls[task]
        assert raw.read_bytes() == written
        later = report.results[list(by_name).index(task) + 1 :]
        assert all(r.backend_calls == 0 for r in later) and report.report_set.reused
        return
    assert by_name[task].status == orchestrator.STATUS_FAILED
    assert by_name[task].detail.startswith(f"malformed raw file {raw}")
    assert Path(f"{raw}.partial").exists()
    # The tasks after it key the rows of the joined CSV the first run wrote,
    # so they stay reused; only contradictions, which no longer take the
    # duplicates that task found, execute again.
    executed = {"e_identify_contradictions"} if task == "d_identify_duplicates" else set()
    assert {r.name for r in report.results if r.backend_calls} == executed


class ForwardingBackend:
    """A Backend with nothing but complete, as the protocol asks."""

    def __init__(self, backend):
        self.backend = backend

    def complete(self, prompt, params):
        return self.backend.complete(prompt, params)


def test_backend_calls_are_counted_for_any_backend(project):
    counted = CountingBackend(MockBackend(project / "fixtures"))
    report = run_all(project / "params.json", backend=ForwardingBackend(counted), version_tag="T")
    assert not report.failed
    assert counted.calls == len(SAMPLE_PROMPT_SHA256)
    assert sum(r.backend_calls for r in report.results) == counted.calls
    assert [r.backend_calls for r in report.results] == [1, 0, 4, 3]


TASKS = [
    "b_classify_requirements",
    "c_identify_coverage_gaps",
    "d_identify_duplicates",
    "e_identify_contradictions",
]


def statuses(report):
    return {r.name: r.status for r in report.results}


BACKEND_TASKS = ["b_classify_requirements", "d_identify_duplicates", "e_identify_contradictions"]


def results_tree(project):
    results = project / "B_Requirements" / "results"
    return {
        path.relative_to(results): path.read_bytes()
        for path in sorted(results.rglob("*"))
        if path.is_file()
    }


def test_execute_false_on_every_backend_task_writes_the_same_results(project):
    assert not run_sample(project)[0].failed
    first = results_tree(project)
    set_execute_false(project, *BACKEND_TASKS)
    report, backend = run_sample(project)
    assert [(r.name, r.status) for r in report.results] == [
        (name, orchestrator.STATUS_SUCCEEDED) for name in TASKS
    ]
    assert [r.backend_calls for r in report.results] == [0, 0, 0, 0]
    assert backend.prompts == []
    assert results_tree(project) == first


def test_execute_false_fails_when_the_input_ids_no_longer_match(project):
    assert not run_sample(project)[0].failed
    results = project / "B_Requirements" / "results"
    joined = results / "joined" / "b_classify_requirements_joined.csv"
    raw = results / "raw" / "b_classify_requirements_T.json"
    before = joined.read_bytes(), raw.read_bytes()
    csv_path = project / "B_Requirements" / "input" / "safety_requirements.csv"
    header, rows = csv_path.read_text(encoding="utf-8").split("\n", 1)
    new_row = "NEW-1,The drone shall blink a light."
    csv_path.write_text(f"{header}\n{new_row}\n{rows}", encoding="utf-8")
    set_execute_false(project, "b_classify_requirements")
    backend = RecordingBackend(project / "fixtures")
    report = run_all(project / "params.json", backend=backend, force=True, version_tag="T")
    failed = report.results[0]
    assert failed.status == orchestrator.STATUS_FAILED
    assert failed.detail == (
        "execute is false but the previous raw output does not match "
        f"{csv_path.resolve()}: ReqID 'NEW-1' differs; execute the task again"
    )
    assert (joined.read_bytes(), raw.read_bytes()) == before
    assert Path(f"{raw}.partial").exists()


@pytest.mark.parametrize(
    "relative, task",
    [
        ("B_Requirements/instructions.txt", "b_classify_requirements"),
        ("fixtures/rules.tsv", "b_classify_requirements"),
        ("fixtures/duplicate_findings.json", "d_identify_duplicates"),
    ],
)
def test_a_file_that_is_not_utf8_fails_its_task_and_names_the_file(project, relative, task):
    path = project / relative
    path.write_bytes(path.read_bytes() + b"\xff")
    report, _ = run_sample(project)
    failed = next(r for r in report.results if r.name == task)
    assert failed.status == orchestrator.STATUS_FAILED
    assert failed.detail.startswith(f"{path.resolve()} is not UTF-8 text: 'utf-8' codec")
    assert [r.name for r in report.results] == TASKS  # the run went on
    if task == "d_identify_duplicates":
        assert statuses(report)["e_identify_contradictions"] == orchestrator.STATUS_SUCCEEDED


def test_an_api_key_file_that_is_not_utf8_fails_its_task_and_names_the_file(
    project, monkeypatch
):
    def post(*args, **kwargs):
        raise AssertionError("a request went out without a key")

    monkeypatch.setattr("requests.post", post)
    key_file = project / "key.txt"
    key_file.write_bytes(b"sk-\xff")
    backend = gateway.HttpBackend("http://localhost:9/v1", api_key_file=key_file)
    report = run_all(project / "params.json", backend=backend, version_tag="T")
    assert report.results[0].status == orchestrator.STATUS_FAILED
    assert report.results[0].detail.startswith(f"{key_file} is not UTF-8 text: 'utf-8' codec")
    assert [r.name for r in report.results] == TASKS  # the run went on


@pytest.mark.parametrize(
    "fixture, task",
    [
        ("classify_requirements.json", "b_classify_requirements"),
        ("duplicate_findings.json", "d_identify_duplicates"),
    ],
)
def test_a_lone_surrogate_in_a_response_fails_its_task(project, fixture, task):
    path = project / "fixtures" / fixture
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace('"The ', '"\\ud800The ', 1).replace('"High', '"\\ud800High', 1))
    report, _ = run_sample(project)
    assert [r.name for r in report.results] == TASKS  # the run went on
    failed = next(r for r in report.results if r.name == task)
    assert failed.status == orchestrator.STATUS_FAILED
    assert failed.detail.startswith("response text is not valid Unicode: 'utf-8' codec")
    assert failed.files[0].exists()  # the .partial marker
    if task == "d_identify_duplicates":
        assert statuses(report)["e_identify_contradictions"] == orchestrator.STATUS_SUCCEEDED
        assert report.report_set.summary_path.exists()


@pytest.mark.parametrize("source", ["file", "environment"])
def test_an_api_key_that_is_not_ascii_fails_its_task(project, monkeypatch, source):
    def post(*args, **kwargs):
        raise AssertionError("a request went out with a key no header can carry")

    monkeypatch.setattr("requests.post", post)
    key_file = project / "key.txt"
    if source == "file":
        key_file.write_text("sk-\u20ac", encoding="utf-8")
    monkeypatch.setenv("SAFEREQ_TEST_KEY", "sk-\u20ac")
    backend = gateway.HttpBackend(
        "http://localhost:9/v1", api_key_file=key_file, api_key_env="SAFEREQ_TEST_KEY"
    )
    report = run_all(project / "params.json", backend=backend, version_tag="T")
    assert report.results[0].status == orchestrator.STATUS_FAILED
    where = key_file if source == "file" else "$SAFEREQ_TEST_KEY"
    assert report.results[0].detail == f"the API key in {where} is not ASCII text"
    assert [r.name for r in report.results] == TASKS  # the run went on


def test_a_key_error_in_a_task_body_propagates(project, monkeypatch):
    def buggy(*args, **kwargs):
        raise KeyError("a bug, not a fault of the input")

    monkeypatch.setattr(orchestrator, "classify", buggy)
    with pytest.raises(KeyError, match="a bug, not a fault of the input"):
        run_sample(project)
