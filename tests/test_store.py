"""The verifying-trace store, and delta reruns that trust what it records.

A rerun of an unchanged project parses no gold file and no finding,
computes the report key from raw-file digests and keeps the report set.
A delta task reuses its raw file only under the key of its inputs, so
any one edit after a first run (an input row, the instructions, the
resources, a request or task setting, a raw file, coverage's raw file, a
joined CSV, a gold file, a threshold, a report or a record) leaves the
rerun with the reports, joined files and coverage raw file a forced run of
the same edited project writes. Coverage, a local analysis, is recorded
too, and an unchanged rerun parses no raw file of a backend task.
"""

import csv
import dataclasses
import hashlib
import json
import shutil
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safereq import (
    CATCH_ALL_ALIAS,
    ClassifiedRequirement,
    LlmRequestParams,
    MockBackend,
    build_matrix,
    catalog_from_alias_map,
    coverage,
    orchestrator,
    reporting,
    run_all,
    store,
)
from safereq.cli import main
from safereq.errors import MalformedRawFileError

SAMPLE_PROJECT = Path(__file__).resolve().parent.parent / "sample_project"
RESULTS = Path("B_Requirements") / "results"
INPUT_CSV = Path("B_Requirements") / "input" / "safety_requirements.csv"
DICTIONARY = Path("B_Requirements") / "data_dictionary.json"
TAG = "T"
RAW_TASKS = ("b_classify_requirements", "d_identify_duplicates", "e_identify_contradictions")
COVERAGE = "c_identify_coverage_gaps"
JOINED_CSV = RESULTS / "joined" / "b_classify_requirements_joined.csv"
QUARANTINE = RESULTS / "quarantine" / f"b_classify_requirements_{TAG}.json"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def test_every_writer_returns_the_sha256_of_the_bytes_it_wrote(tmp_path):
    written = {
        "table.csv": reporting._write_csv(tmp_path / "table.csv", ["a", "b"], [["1", "x\ny"]]),
        "doc.json": reporting._write_json(tmp_path / "doc.json", {"rows": [{"a": "é"}]}),
        "table.json": reporting._write_table_json(tmp_path / "table.json", ["a"], [[1], ["é"]]),
        "note.md": reporting._write_text(tmp_path / "note.md", "line\n" * 5000),
    }
    assert written == {name: sha256(tmp_path / name) for name in written}


def recorded_file(tmp_path, text="content"):
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    (data / "a.txt").write_text(text, encoding="utf-8")
    path = tmp_path / ".safereq" / "a.json"
    files = {"a": (data / "a.txt", sha256(data / "a.txt"))}
    store.record(path, "K", data, files, count=3, score=87.5)
    return path, data


def reseal(path, edit):
    """Edit the record at path and seal it again, as a writer of that content would."""
    saved = json.loads(path.read_text(encoding="utf-8"))
    del saved["seal"]
    edit(saved)
    path.write_text(json.dumps({**saved, "seal": store._seal(saved)}), encoding="utf-8")


def test_a_record_is_loaded_and_verified_for_its_key_and_directory(tmp_path):
    path, data = recorded_file(tmp_path)
    saved = store.load(path, "K", data)
    assert saved["count"] == 3 and saved["score"] == 87.5
    assert saved["files"] == {"a": (data / "a.txt", sha256(data / "a.txt"))}
    assert json.loads(path.read_text(encoding="utf-8"))["files"] == {
        "a": ["a.txt", sha256(data / "a.txt")]  # named relative to its directory
    }
    assert store.verify(path, "K", data) == saved
    assert store.load(path, "other", data) is None
    assert store.load(path, None, data) == saved  # any key
    assert store.load(path, None, tmp_path) is None
    assert store.load(path, "K", tmp_path) is None
    assert store.verify(path, "K", tmp_path) is None


def test_a_record_whose_file_changed_is_loaded_but_not_verified(tmp_path):
    path, data = recorded_file(tmp_path)
    (data / "a.txt").write_text("changed", encoding="utf-8")
    assert store.load(path, "K", data) is not None
    assert store.verify(path, "K", data) is None


def _edited(field, value):
    def edit(record):
        record[field] = value

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _edited("count", 4),
        _edited("score", 90.0),
        _edited("dir", "elsewhere"),
        _edited("extra", True),
        lambda record: record["files"]["a"].__setitem__(1, "0" * 64),
        lambda record: record.pop("count"),
        lambda record: record.pop("seal"),
    ],
    ids=["count", "score", "dir", "added-field", "file-sha", "field-removed", "seal-removed"],
)
def test_a_record_edited_by_hand_is_not_trusted(tmp_path, edit):
    path, data = recorded_file(tmp_path)
    saved = json.loads(path.read_text(encoding="utf-8"))
    edit(saved)
    path.write_text(json.dumps(saved), encoding="utf-8")
    assert store.load(path, "K", data) is None


def test_a_record_of_another_package_version_is_not_trusted(tmp_path, monkeypatch):
    path, data = recorded_file(tmp_path)
    monkeypatch.setattr(store, "__version__", "0.0.0-other")
    assert store.load(path, "K", data) is None


@pytest.mark.parametrize("outside", [False, True], ids=["parent", "absolute"])
def test_a_sealed_record_naming_a_file_outside_its_directory_is_not_trusted(tmp_path, outside):
    path, data = recorded_file(tmp_path)
    reseal(path, lambda record: None)
    assert store.verify(path, "K", data) is not None  # the seal alone does not refuse it
    (tmp_path / "x").write_text("content", encoding="utf-8")  # what a.txt holds
    name = str(tmp_path / "x") if outside else "../x"
    reseal(path, lambda record: record["files"]["a"].__setitem__(0, name))
    assert store.load(path, "K", data) is None
    assert store.verify(path, "K", data) is None


# ---------------------------------------------------------------------------
# Delta reruns of the sample project, with gold files
# ---------------------------------------------------------------------------


def _write_gold(project):
    """Gold labels and pairs for the sample project, each a little off its answers."""
    raw_dir = project / RESULTS / "raw"
    raw = json.loads((raw_dir / f"b_classify_requirements_{TAG}.json").read_text())
    rows = [[r["ReqID"], r["Function"], r["Type"]] for r in raw["rows"]]
    rows[0][2] = "PROB" if rows[0][2] != "PROB" else "FUNC"
    with open(project / "gold_labels.csv", "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows([["ReqID", "Function", "Type"], *rows])
    for task, name in (
        ("d_identify_duplicates", "gold_duplicates.csv"),
        ("e_identify_contradictions", "gold_contradictions.csv"),
    ):
        raw = json.loads((raw_dir / f"{task}_{TAG}.json").read_text())
        pairs = [[f["ReqID_A"], f["ReqID_B"]] for f in raw["findings"]] + [["1000", "1001"]]
        with open(project / name, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows([["req_a", "req_b"], *pairs])


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    """The sample project with gold files for all three backend tasks, never run."""
    project = tmp_path_factory.mktemp("template") / "project"
    shutil.copytree(SAMPLE_PROJECT, project, ignore=shutil.ignore_patterns("results"))
    run_all(project / "params.json", version_tag=TAG)
    _write_gold(project)
    config = json.loads((project / "params.json").read_text(encoding="utf-8"))
    config["b_classify_requirements"]["gold_file"] = "gold_labels.csv"
    config["d_identify_duplicates"]["gold_file"] = "gold_duplicates.csv"
    config["e_identify_contradictions"]["gold_file"] = "gold_contradictions.csv"
    config["thresholds"] = {"classification": 80.0}
    (project / "params.json").write_text(json.dumps(config), encoding="utf-8")
    shutil.rmtree(project / RESULTS)
    shutil.rmtree(project / ".safereq")
    return project


@pytest.fixture
def project(tmp_path, template):
    target = tmp_path / "project"
    shutil.copytree(template, target)
    return target


def run(project, **kwargs):
    backend = MockBackend(project / "fixtures")
    return run_all(project / "params.json", backend=backend, version_tag=TAG, **kwargs)


def reports(project):
    return {p.name: p.read_bytes() for p in sorted((project / RESULTS / "reports").iterdir())}


def stamps(directory):
    """Each file's inode and mtime, at any depth: a file moved into place changes its inode."""
    files = (p for p in directory.rglob("*") if p.is_file())
    return {p.relative_to(directory): (p.stat().st_ino, p.stat().st_mtime_ns) for p in files}


def outcome(report):
    return [(r.name, r.status, r.detail) for r in report.results]


def edit_json(path, edit):
    value = json.loads(path.read_text(encoding="utf-8"))
    edit(value)
    path.write_text(json.dumps(value), encoding="utf-8")


def edit_csv(path, edit):
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows(rows)


def refuse(*args, **kwargs):
    raise AssertionError("read without need")


def refuse_reads_without_need(monkeypatch):
    """Fail any read of a gold file and any parse of a findings raw file."""
    monkeypatch.setattr(orchestrator, "_load_gold_labels", refuse)
    monkeypatch.setattr(orchestrator, "load_gold_pairs", refuse)
    for name in (orchestrator.ANALYSIS_DUPLICATES, orchestrator.ANALYSIS_CONTRADICTIONS):
        analysis = dataclasses.replace(orchestrator.ANALYSES[name], reader=refuse)
        monkeypatch.setitem(orchestrator.ANALYSES, name, analysis)


@pytest.mark.parametrize("force", [False, True], ids=["after-unforced-run", "after-forced-run"])
def test_an_unchanged_rerun_reads_no_gold_file_and_keeps_the_report_set(
    project, monkeypatch, force
):
    first = run(project, force=force)
    written, records = reports(project), stamps(project / ".safereq")
    results = stamps(project / RESULTS)
    assert "metrics_T.json" in written and len(records) == 5  # the four tasks and the reports
    refuse_reads_without_need(monkeypatch)
    again = run(project)
    statuses = [status for _, status, _ in outcome(again)]
    assert statuses == ["Skipped", "Succeeded", "Skipped", "Skipped"]
    assert outcome(again)[1] == outcome(first)[1]  # coverage reports as when it computed
    assert again.report_set.reused and again.report_set == first.report_set
    assert reports(project) == written
    assert stamps(project / ".safereq") == records  # no record written again
    assert stamps(project / RESULTS) == results  # no raw, joined or report file either


def test_an_unchanged_rerun_parses_no_raw_file_of_a_backend_task_and_builds_no_matrix(
    project, monkeypatch
):
    first = run(project)
    backend = (
        orchestrator.ANALYSIS_COMPLETENESS,
        orchestrator.ANALYSIS_DUPLICATES,
        orchestrator.ANALYSIS_CONTRADICTIONS,
    )
    for name in backend:
        analysis = dataclasses.replace(orchestrator.ANALYSES[name], reader=refuse)
        monkeypatch.setitem(orchestrator.ANALYSES, name, analysis)
    raw_text = orchestrator._raw_text

    def coverage_text_alone(path, sha=None):
        # A reused coverage task reads its matrix back from its own raw file.
        if path.name != f"{COVERAGE}_{TAG}.json":
            refuse()
        return raw_text(path, sha)

    monkeypatch.setattr(orchestrator, "_raw_text", coverage_text_alone)
    monkeypatch.setattr(orchestrator, "build_matrix", refuse)
    monkeypatch.setattr(coverage, "build_matrix", refuse)
    again = run(project)
    statuses = [status for _, status, _ in outcome(again)]
    assert statuses == ["Skipped", "Succeeded", "Skipped", "Skipped"]
    assert again.report_set.reused and again.report_set == first.report_set


def calls(report):
    return sum(r.backend_calls for r in report.results)


def test_a_gold_edit_rescores_reused_results_without_a_backend_call(project):
    run(project)
    edit_csv(project / "gold_labels.csv", lambda rows: rows[2].__setitem__(2, "_OT_"))
    rescored = run(project)
    statuses = [status for _, status, _ in outcome(rescored)]
    assert statuses == ["Skipped", "Succeeded", "Skipped", "Skipped"] and calls(rescored) == 0
    assert not rescored.report_set.reused
    written = reports(project)
    again = run(project)
    assert outcome(again) == outcome(rescored) and calls(again) == 0
    assert again.report_set.reused
    run(project, force=True)
    assert reports(project) == written


def test_a_rescored_reuse_records_its_score_so_the_next_rerun_reads_no_gold_file(
    project, monkeypatch
):
    run(project)
    edit_csv(project / "gold_labels.csv", lambda rows: rows[2].__setitem__(2, "_OT_"))
    for name in GOLD_FILES[1:]:
        edit_csv(project / name, lambda rows: rows.pop())
    rescored = run(project)
    assert calls(rescored) == 0 and not rescored.failed
    refuse_reads_without_need(monkeypatch)
    again = run(project)
    assert calls(again) == 0 and again.report_set.reused


def test_a_rerun_without_the_store_executes_once_and_the_next_is_trusted(project, monkeypatch):
    first = run(project)
    shutil.rmtree(project / ".safereq")
    executed = run(project)
    assert outcome(executed) == outcome(first) and calls(executed) == calls(first)
    refuse_reads_without_need(monkeypatch)
    again = run(project)
    statuses = [status for _, status, _ in outcome(again)]
    assert statuses == ["Skipped", "Succeeded", "Skipped", "Skipped"] and calls(again) == 0
    assert again.report_set.reused


def test_a_raw_file_changed_after_it_was_verified_fails_its_task_unparsed(project, monkeypatch):
    run(project)
    # Rescoring parses the reused rows, after the raw file has been verified.
    edit_csv(project / "gold_labels.csv", lambda rows: rows[2].__setitem__(2, "_OT_"))
    raw = project / RESULTS / "raw" / f"b_classify_requirements_{TAG}.json"
    trace = project / ".safereq" / f"raw_b_classify_requirements_{TAG}.json"
    verified = sha256(raw)
    verify = orchestrator.verify

    def verify_then_edit(path, *args):
        saved = verify(path, *args)
        if path == trace:
            edit_json(raw, lambda payload: payload["rows"][0].update(Type="_OT_"))
        return saved

    completeness = orchestrator.ANALYSES[orchestrator.ANALYSIS_COMPLETENESS]
    parsed = []

    def reader(path, text):
        parsed.append(text)
        return completeness.reader(path, text)

    monkeypatch.setattr(orchestrator, "verify", verify_then_edit)
    analysis = dataclasses.replace(completeness, reader=reader)
    monkeypatch.setitem(orchestrator.ANALYSES, orchestrator.ANALYSIS_COMPLETENESS, analysis)
    name, status, detail = outcome(run(project))[0]
    assert (name, status) == ("b_classify_requirements", "Failed")
    assert detail.startswith(f"malformed raw file {raw}:") and parsed == []
    # The one reader of raw files refuses bytes that changed, or are gone, since verify.
    with pytest.raises(MalformedRawFileError, match="changed since it was verified"):
        orchestrator._raw_text(raw, verified)
    raw.unlink()
    with pytest.raises(MalformedRawFileError, match="gone since it was verified"):
        orchestrator._raw_text(raw, verified)


def test_a_raw_file_changed_before_the_report_set_parses_it_stops_the_run(
    sample, monkeypatch, capsys
):
    # Every task is reused unparsed; the report set, written again for its
    # deleted summary, is the first to parse classification's rows.
    run(sample)
    (sample / RESULTS / "reports" / f"summary_{TAG}.md").unlink()
    raw = sample / RESULTS / "raw" / f"b_classify_requirements_{TAG}.json"
    trace = sample / ".safereq" / f"raw_b_classify_requirements_{TAG}.json"
    written = raw.read_bytes()
    verify = orchestrator.verify

    def verify_then_edit(path, *args):
        saved = verify(path, *args)
        if path == trace:
            edit_json(raw, lambda payload: payload["rows"][0].update(Type="_OT_"))
        return saved

    monkeypatch.setattr(orchestrator, "verify", verify_then_edit)
    with pytest.raises(MalformedRawFileError, match=f"malformed raw file {raw}:"):
        run(sample)
    raw.write_bytes(written)
    assert main(["run", "--config", str(sample / "params.json"), "--version-tag", TAG]) == 1
    assert capsys.readouterr().err.startswith(f"error: malformed raw file {raw}:")

    # The next run trusts nothing the stopped run left.
    monkeypatch.undo()
    again = by_task(run(sample))
    assert again["b_classify_requirements"] == ("Succeeded", 1)
    kept = reports(sample)
    run(sample, force=True)
    assert reports(sample) == kept


def reports_record(project):
    return project / ".safereq" / f"reports_{TAG}.json"


def test_the_report_check_runs_while_the_first_task_runs(project, monkeypatch):
    # Each side waits for the other: the check for the first task to start, and
    # the first task for the check to end. Run after the tasks, the check ends late.
    first = run(project)
    started, checked, seen, overlapped = threading.Event(), threading.Event(), [], []
    verify, run_task = orchestrator.verify, orchestrator.run_task

    def verify_once_a_task_started(path, *args):
        if path != reports_record(project):
            return verify(path, *args)
        seen.append(started.wait(5))
        try:
            return verify(path, *args)
        finally:
            checked.set()

    def run_task_beside_the_check(ctx, task, **kwargs):
        if not started.is_set():
            started.set()
            overlapped.append(checked.wait(5))
        return run_task(ctx, task, **kwargs)

    monkeypatch.setattr(orchestrator, "verify", verify_once_a_task_started)
    monkeypatch.setattr(orchestrator, "run_task", run_task_beside_the_check)
    again = run(project)
    assert seen == [True] and overlapped == [True]
    assert again.report_set.reused and again.report_set == first.report_set


@pytest.mark.parametrize("how", [{"force": True}, {"dry_run": True}], ids=["forced", "dry"])
def test_a_forced_or_dry_run_starts_no_report_check(project, monkeypatch, how):
    run(project)
    checked, threads = [], []
    verify, run_task = orchestrator.verify, orchestrator.run_task

    def recording_verify(path, *args):
        checked.append(path)
        return verify(path, *args)

    def recording_run_task(ctx, task, **kwargs):
        threads.append(threading.enumerate())
        return run_task(ctx, task, **kwargs)

    monkeypatch.setattr(orchestrator, "verify", recording_verify)
    monkeypatch.setattr(orchestrator, "run_task", recording_run_task)
    before = threading.enumerate()
    run(project, **how)
    assert reports_record(project) not in checked
    assert threads == [before] * 4


def test_the_report_check_keeps_every_report_file_and_no_thread_outlives_it(project, monkeypatch):
    first = run(project)
    reports_dir = project / RESULTS / "reports"
    written, kept = reports(project), stamps(reports_dir)
    before = threading.enumerate()
    again = run(project)
    assert threading.enumerate() == before
    assert again.report_set.reused and again.report_set == first.report_set
    assert reports(project) == written and stamps(reports_dir) == kept

    def body(*args):
        raise RuntimeError("a bug in a task body")

    name = orchestrator.ANALYSIS_COMPLETENESS
    monkeypatch.setitem(
        orchestrator.ANALYSES, name, dataclasses.replace(orchestrator.ANALYSES[name], body=body)
    )
    with pytest.raises(RuntimeError, match="a bug in a task body"):
        run(project)
    assert threading.enumerate() == before


def test_reports_deleted_after_a_first_run_are_written_again_byte_for_byte(project):
    run(project)
    written = reports(project)
    shutil.rmtree(project / RESULTS / "reports")
    again = run(project)
    assert not again.report_set.reused
    assert reports(project) == written


def test_a_raw_file_edited_to_a_malformed_payload_is_executed_again(project):
    first = run(project)
    raw = project / RESULTS / "raw" / f"d_identify_duplicates_{TAG}.json"
    written = raw.read_bytes()
    edit_json(raw, lambda payload: payload["findings"][0].update(Relation=7))
    again = run(project)
    statuses = {name: status for name, status, _ in outcome(again)}
    assert statuses["d_identify_duplicates"] == "Succeeded"
    assert statuses["e_identify_contradictions"] == "Skipped"  # the same bytes came back
    assert raw.read_bytes() == written
    assert again.report_set.reused and again.report_set == first.report_set


# ---------------------------------------------------------------------------
# Coverage read back from its raw file
# ---------------------------------------------------------------------------

ALIASES = ["NAV", "EN", "SUP", "DM", "TD", "É1"]
LINEAGES = ["Drone/Navigation", "Système/Énergie/Batterie", "Other", "Drone/Support"]


@st.composite
def classified_and_catalog(draw):
    aliases = draw(st.lists(st.sampled_from(ALIASES), unique=True, max_size=len(ALIASES)))
    if draw(st.booleans()):
        aliases.append(CATCH_ALL_ALIAS)
    lineages = st.sampled_from(LINEAGES)
    catalog = catalog_from_alias_map({alias: draw(lineages) for alias in aliases})
    functions = st.sampled_from([e.alias for e in catalog.entries])
    types = st.sampled_from(["FUNC", "PROB", "_OT_", "QUAL"])
    rows = [
        ClassifiedRequirement(str(1000 + at), draw(functions), draw(types), 90)
        for at in range(draw(st.integers(0, 40)))
    ]
    return rows, catalog


@settings(max_examples=80, deadline=None)
@given(drawn=classified_and_catalog())
def test_the_matrix_read_back_from_the_coverage_raw_file_is_the_one_computed(drawn):
    rows, catalog = drawn
    task = orchestrator.TaskConfig(
        name="c", analysis_function=orchestrator.ANALYSIS_COVERAGE, execute=False
    )
    config = orchestrator.PipelineConfig([task], {}, {}, Path("."), upstream={"c": "b"})

    def coverage_task(previous):
        ctx = orchestrator.PipelineContext(config, MockBackend("."), LlmRequestParams(), TAG)
        ctx.reports.catalog, ctx.published["b"] = catalog, ("classified", rows, "")
        return orchestrator._task_coverage(ctx, task, previous, previous is not None)

    computed = coverage_task(None)
    matrix = build_matrix(rows, catalog)
    assert computed.part == matrix and computed.catalog is catalog
    # As run_task writes the raw file.
    raw = {"task": "c", "analysis_function": task.analysis_function, **computed.record}
    text = json.dumps(raw, indent=2, ensure_ascii=False) + "\n"
    items, _ = orchestrator._coverage_from_raw(Path("c_T.json"), text)
    assert len(items) == computed.count
    read_back = coverage.matrix_of(items)
    assert read_back == matrix  # rows, Triage flags and totals
    assert [row.is_triage_bucket for row in read_back.rows] == [
        e.alias == CATCH_ALL_ALIAS for e in catalog.entries
    ]
    reused = coverage_task(orchestrator._Previous(items, []))
    assert reused.part == matrix and reused.detail == computed.detail


@pytest.mark.parametrize("analyze", [True, False])
def test_a_coverage_task_publishes_its_matrix_only_when_it_analyzes(tmp_path, analyze):
    # load_config refuses a local analysis that does not analyze; run_task still honours it.
    catalog = catalog_from_alias_map({"NAV": "Drone/Navigation", CATCH_ALL_ALIAS: "Other"})
    rows = [ClassifiedRequirement("1000", "NAV", "FUNC", 90)]
    task = orchestrator.TaskConfig(
        name="c", input_file="b.csv", analysis_function=orchestrator.ANALYSIS_COVERAGE,
        execute=False, analyze=analyze,
    )
    config = orchestrator.PipelineConfig(
        [task], {}, {}, tmp_path, upstream={"c": "b"}, project_dirs={"c": tmp_path}
    )
    ctx = orchestrator.PipelineContext(config, MockBackend(tmp_path), LlmRequestParams(), TAG)
    ctx.reports.catalog, ctx.published["b"] = catalog, ("classified", rows, "")
    assert orchestrator.run_task(ctx, task).status == "Succeeded"
    assert ctx.reports.coverage == (build_matrix(rows, catalog) if analyze else None)
    assert list(ctx.published) == (["b", "c"] if analyze else ["b"])
    summary = reporting.emit_report_set(ctx.reports, tmp_path / "reports", TAG).summary_path
    assert ("## Coverage\n_Not run._" in summary.read_text(encoding="utf-8")) is not analyze


# ---------------------------------------------------------------------------
# Input edits on the sample project as shipped
# ---------------------------------------------------------------------------


@pytest.fixture
def sample(tmp_path):
    target = tmp_path / "sample"
    shutil.copytree(SAMPLE_PROJECT, target, ignore=shutil.ignore_patterns("results", ".safereq"))
    return target


def edit_text(path, old, new):
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def by_task(report):
    return {r.name: (r.status, r.backend_calls) for r in report.results}


def test_a_text_edit_executes_classification_alone_into_the_same_raw_file(sample):
    first = run(sample)
    written = reports(sample)
    edit_text(sample / INPUT_CSV, "1000,The system will", "1000,The system shall")
    again = run(sample)
    assert calls(again) == 1
    statuses = {name: status for name, (status, _) in by_task(again).items()}
    assert statuses["b_classify_requirements"] == "Succeeded"
    assert statuses["d_identify_duplicates"] == statuses["e_identify_contradictions"] == "Skipped"
    assert again.report_set.reused and again.report_set == first.report_set
    assert reports(sample) == written
    joined = (sample / RESULTS / "joined" / "b_classify_requirements_joined.csv").read_text("utf-8")
    assert "1000,The system shall fly" in joined and "will fly" not in joined

    third = run(sample)
    assert calls(third) == 0 and third.report_set.reused


def delete_row(project, req_id):
    lines = (project / INPUT_CSV).read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith(f"{req_id},")]
    assert len(kept) == len(lines) - 1
    (project / INPUT_CSV).write_text("".join(kept), encoding="utf-8")


def test_a_deleted_row_executes_every_backend_task(sample):
    run(sample)
    delete_row(sample, "1009")
    again = run(sample)
    for task in RAW_TASKS:
        status, task_calls = by_task(again)[task]
        assert status == "Succeeded" and task_calls > 0, task
    assert not again.report_set.reused
    classification = (sample / RESULTS / "reports" / f"classification_{TAG}.csv").read_text("utf-8")
    assert len(classification.splitlines()) == 1 + 9

    written = reports(sample)
    third = run(sample)
    assert calls(third) == 0 and third.report_set.reused
    assert reports(sample) == written


def edit_config(project, task, **values):
    edit_json(project / "params.json", lambda config: config[task].update(values))


def test_a_classification_of_an_earlier_ones_joined_csv_executes_after_a_text_edit(sample):
    # The joined CSV's Requirements column holds the input text, which
    # b_classify_requirements' raw file, the same after the edit, lacks.
    joined = (RESULTS / "joined" / "b_classify_requirements_joined.csv").as_posix()
    edit_json(
        sample / "params.json",
        lambda config: config.update(
            f_reclassify={**config["b_classify_requirements"], "input_file": joined}
        ),
    )
    run(sample)
    edit_text(sample / INPUT_CSV, "1000,The system will", "1000,The system shall")
    again = by_task(run(sample))
    assert again["b_classify_requirements"] == again["f_reclassify"] == ("Succeeded", 1)
    reclassified = (sample / RESULTS / "joined" / "f_reclassify_joined.csv").read_text("utf-8")
    assert "1000,The system shall fly" in reclassified


def test_a_pair_task_run_alone_keys_as_a_full_run_does(sample):
    run(sample)
    alone = run(sample, only_task="d_identify_duplicates")
    assert by_task(alone) == {"d_identify_duplicates": ("Skipped", 0)}
    assert by_task(run(sample, only_task="d_identify_duplicates", force=True)) == {
        "d_identify_duplicates": ("Succeeded", 4)
    }
    again = run(sample)
    assert calls(again) == 0
    assert by_task(again)["d_identify_duplicates"] == ("Skipped", 0)
    # A joined CSV edited by hand no longer stands for the raw file recorded beside it.
    joined = sample / RESULTS / "joined" / "b_classify_requirements_joined.csv"
    edit_text(joined, "The drone shall fly at high speed", "The drone shall fly slowly")
    edited = by_task(run(sample, only_task="d_identify_duplicates"))
    assert edited == {"d_identify_duplicates": ("Succeeded", 4)}


def test_a_failed_classification_leaves_its_consumers_reused(sample):
    # They read the joined CSV the last run wrote: the rows they were keyed by.
    run(sample)
    (sample / RESULTS / "raw" / f"b_classify_requirements_{TAG}.json").write_text("[]")
    edit_config(sample, "b_classify_requirements", execute=False)
    again = by_task(run(sample))
    assert again["b_classify_requirements"] == ("Failed", 0)
    assert again["d_identify_duplicates"] == again["e_identify_contradictions"] == ("Skipped", 0)


@pytest.mark.parametrize(
    "relist",
    [
        lambda files: files.update(extra=files["raw"]),
        lambda files: files.update(copy=files.pop("raw")),
    ],
    ids=["unknown-label", "raw-under-another-label"],
)
def test_a_sealed_record_listing_other_files_is_not_reused_and_raises_nothing(sample, relist):
    run(sample)
    trace = sample / ".safereq" / f"raw_b_classify_requirements_{TAG}.json"
    reseal(trace, lambda record: relist(record["files"]))
    # A pair task run alone trusts no raw sha256 such a record lists, as a full run does not.
    alone = by_task(run(sample, only_task="d_identify_duplicates"))
    assert alone["d_identify_duplicates"][0] == "Succeeded"
    assert by_task(run(sample))["b_classify_requirements"] == ("Succeeded", 1)
    assert calls(run(sample)) == 0  # the record written then is trusted


def test_coverage_is_reused_whatever_delta_says_and_computed_again_when_forced(sample):
    run(sample)
    edit_json(sample / "params.json", lambda config: config["defaults"].update(delta=False))
    raw_dir, name = sample / RESULTS / "raw", Path(f"{COVERAGE}_{TAG}.json")
    computed = stamps(raw_dir)[name]
    again = by_task(run(sample))
    assert again["b_classify_requirements"] == ("Succeeded", 1)  # into the same raw file
    assert again[COVERAGE] == ("Succeeded", 0) and stamps(raw_dir)[name] == computed
    run(sample, force=True)
    assert stamps(raw_dir)[name] != computed


def answer_an_unknown_id(project):
    """Make the classification answer also hold a record for ReqID 9999, which is quarantined."""
    edit_json(
        project / "fixtures" / "classify_requirements.json",
        lambda answer: answer["results"].append({**answer["results"][0], "ReqID": "9999"}),
    )


@pytest.mark.parametrize("how", ["deleted", "edited", "quarantine-deleted"])
def test_a_joined_csv_deleted_or_edited_by_hand_executes_classification_again(sample, how):
    answer_an_unknown_id(sample)  # so the record lists a quarantine file too
    run(sample)
    joined, quarantine = sample / JOINED_CSV, sample / QUARANTINE
    written = joined.read_bytes(), quarantine.read_bytes()
    if how == "deleted":
        joined.unlink()
    elif how == "edited":
        edit_text(joined, "The drone shall fly at high speed", "The drone shall fly slowly")
    else:
        quarantine.unlink()
    again = by_task(run(sample))
    assert again["b_classify_requirements"] == ("Succeeded", 1)
    assert (joined.read_bytes(), quarantine.read_bytes()) == written
    # The same raw file came back, so its readers stay reused.
    assert again["d_identify_duplicates"] == again["e_identify_contradictions"] == ("Skipped", 0)
    alone = by_task(run(sample, only_task="d_identify_duplicates"))
    assert alone == {"d_identify_duplicates": ("Skipped", 0)}


def score_classification_on_every_row(project):
    """Score classification on a gold file for ReqIDs 1000-1009; a deleted row then fails it."""
    with open(project / "gold_labels.csv", "w", encoding="utf-8", newline="") as handle:
        gold = ([str(req_id), "NAV", "FUNC"] for req_id in range(1000, 1010))
        csv.writer(handle).writerows([["ReqID", "Function", "Type"], *gold])
    edit_config(project, "b_classify_requirements", gold_file="gold_labels.csv")


def test_a_classification_that_fails_to_score_writes_nothing_its_consumers_read(sample):
    score_classification_on_every_row(sample)
    assert run(sample).failed == []
    results, records = sample / RESULTS, sample / ".safereq"
    files = [p for p in results.rglob("*") if p.is_file() and p.parent.name != "reports"]
    written = {p: p.read_bytes() for p in files}
    traces = {p: stamp for p, stamp in stamps(records).items() if p.name.startswith("raw_")}
    # The answer still holds 1009, which is quarantined; the gold file no longer matches.
    delete_row(sample, "1009")
    again = run(sample)
    failed = again.results[0]
    assert (failed.name, failed.status) == ("b_classify_requirements", "Failed")
    assert "gold labeling covers different ids than the rows" in failed.detail
    assert failed.files == [results / "raw" / f"b_classify_requirements_{TAG}.json.partial"]
    assert not (sample / QUARANTINE).exists()
    assert {p: p.read_bytes() for p in files} == written
    assert {p: stamps(records)[p] for p in traces} == traces
    assert outcome(again)[1] == (COVERAGE, "Succeeded", "10 functions, 8 with missing coverage")
    assert by_task(again)["d_identify_duplicates"] == ("Skipped", 0)
    assert by_task(again)["e_identify_contradictions"] == ("Skipped", 0)


def test_a_full_run_deletes_the_reports_its_set_no_longer_holds(sample):
    score_classification_on_every_row(sample)
    reports_dir = sample / RESULTS / "reports"
    full = run(sample).report_set.files.values()
    # A run of one task writes a set without the other parts, and deletes nothing.
    alone = run(sample, only_task="d_identify_duplicates").report_set.files.values()
    assert set(alone) < set(full) and all(file.exists() for file in full)
    run(sample)
    delete_row(sample, "1009")  # classification now fails to score, and publishes nothing
    again = run(sample)
    assert again.results[0].status == "Failed" and not again.report_set.reused
    kept = set(again.report_set.files.values())
    assert set(reports_dir.iterdir()) == kept
    stems = ("classification", "allocation")
    gone = {f"{stem}_{TAG}.{ext}" for stem in stems for ext in ("csv", "json")}
    assert {file.name for file in set(full) - kept} == gone | {f"metrics_{TAG}.json"}
    assert "## Metrics\n_Not run._" in (reports_dir / f"summary_{TAG}.md").read_text("utf-8")


def test_a_task_that_quarantines_nothing_removes_the_quarantine_file_an_earlier_run_left(sample):
    answer = sample / "fixtures" / "classify_requirements.json"
    kept = answer.read_bytes()
    answer_an_unknown_id(sample)
    run(sample)
    assert "9999" in (sample / QUARANTINE).read_text(encoding="utf-8")
    answer.write_bytes(kept)
    again = run(sample, force=True)  # the fixtures' content is not in the key
    assert again.results[0].detail == "10 requirements classified, 0 quarantined"
    assert not (sample / QUARANTINE).exists()


def test_a_pair_task_under_execute_false_leaves_its_quarantine_file(sample):
    # Its raw file holds no rejected records, so it cannot tell whether there were any.
    edit_json(
        sample / "fixtures" / "duplicate_findings.json",
        lambda answer: answer["results"].append({"ReqID_A": "1000"}),
    )
    run(sample)
    quarantine = sample / RESULTS / "quarantine" / f"d_identify_duplicates_{TAG}.json"
    written = quarantine.read_bytes()
    edit_config(sample, "d_identify_duplicates", execute=False)
    assert by_task(run(sample))["d_identify_duplicates"] == ("Succeeded", 0)
    assert quarantine.read_bytes() == written


def test_the_report_set_lands_under_the_configs_last_task_whichever_tasks_run(sample):
    edit_config(sample, "e_identify_contradictions", output_path="E_results")
    reports_dir = sample / "E_results" / "reports"
    assert run(sample).report_set.summary_path.parent == reports_dir
    alone = run(sample, only_task="d_identify_duplicates")
    assert alone.report_set.summary_path.parent == reports_dir
    assert not (sample / RESULTS / "reports").exists()


def test_every_task_body_computes_and_writes_nothing(sample, monkeypatch):
    run(sample)  # the joined CSV the later bodies read
    config = orchestrator.load_config(sample / "params.json")
    params = orchestrator.params_from_llm_config(config.llm)
    ctx = orchestrator.PipelineContext(config, MockBackend(sample / "fixtures"), params, TAG)

    def refuse_write(*args, **kwargs):
        raise AssertionError("a task body wrote a file")

    monkeypatch.setattr(orchestrator, "_write_csv", refuse_write)
    monkeypatch.setattr(orchestrator, "_write_json", refuse_write)
    written = stamps(sample)
    assert {task.analysis_function for task in config.tasks} == set(orchestrator.ANALYSES)
    for task in config.tasks:  # each executes, or computes
        done = orchestrator.ANALYSES[task.analysis_function].body(ctx, task, None, False)
        assert isinstance(done, orchestrator._Done), task.name
        if done.joined is not None:
            header, rows = done.joined
            assert len([header, *rows]) == 1 + 10
    assert stamps(sample) == written


@pytest.mark.parametrize(
    "edit, executes",
    [
        (lambda p: edit_text(p / INPUT_CSV, "will fly", "shall fly"), True),
        (lambda p: edit_text(p / "B_Requirements" / "instructions.txt", "\n", "\n\n"), True),
        (lambda p: edit_text(p / DICTIONARY, "}", ', "X": "Y"}'), True),
        (lambda p: edit_config(p, "llm", model_id="gpt-4o"), True),
        (lambda p: edit_config(p, "llm", temperature=0.5), True),
        (lambda p: edit_config(p, "llm", system_context="Be terse."), True),
        (lambda p: edit_config(p, "llm", backend="http", endpoint_url="http://localhost:9"), True),
        (lambda p: edit_config(p, "llm", fixture_dir="other_fixtures"), True),
        (lambda p: edit_config(p, "b_classify_requirements", dataset_name="Drones"), True),
        (lambda p: edit_config(p, "b_classify_requirements", chunk_size=5), True),
        (lambda p: edit_config(p, "b_classify_requirements", result_columns=["Function"]), True),
        (lambda p: edit_config(p, "b_classify_requirements", verbose=True), False),
        (lambda p: edit_config(p, "llm", max_retries=5), False),
        (lambda p: edit_config(p, "b_classify_requirements", metric="stability"), False),
    ],
    ids=[
        "input-text", "instructions", "resources", "model_id", "temperature", "system_context",
        "backend", "fixture_dir",
        "dataset_name", "chunk_size", "result_columns", "verbose", "max_retries", "metric",
    ],
)
def test_classification_executes_again_exactly_when_its_key_changes(sample, edit, executes):
    run(sample)
    edit(sample)
    status, _ = by_task(run(sample))["b_classify_requirements"]
    assert status == ("Succeeded" if executes else "Skipped")


def test_a_raw_file_read_back_under_execute_false_is_never_recorded(sample):
    run(sample)
    edit_text(sample / INPUT_CSV, "will fly", "shall fly")
    edit_config(sample, "b_classify_requirements", execute=False)
    assert by_task(run(sample))["b_classify_requirements"] == ("Succeeded", 0)
    edit_config(sample, "b_classify_requirements", execute=True)
    assert by_task(run(sample))["b_classify_requirements"] == ("Succeeded", 1)


def test_pair_tasks_execute_again_when_the_runs_catalog_changes(sample):
    # The pair tasks read their own copy of the resources; the catalog comes
    # from classification's, whose raw file stays the same after the edit.
    dictionary = sample / DICTIONARY
    shutil.copy(dictionary, sample / "pairs_dictionary.json")
    for task in ("d_identify_duplicates", "e_identify_contradictions"):
        edit_config(sample, task, resources="pairs_dictionary.json")
    run(sample)
    edit_json(dictionary, lambda resources: resources["ARCHITECTURE"]["Drone"].update(X="Drone/X"))
    again = by_task(run(sample))
    assert again["b_classify_requirements"] == ("Succeeded", 1)
    assert again["d_identify_duplicates"][0] == again["e_identify_contradictions"][0] == "Succeeded"


def test_contradictions_execute_again_when_the_duplicates_they_take_change(sample):
    run(sample)
    # The duplicates task executes again, as its raw file is gone, and finds one pair fewer.
    answer = sample / "fixtures" / "duplicate_findings.json"
    edit_json(answer, lambda findings: findings["results"].pop())
    (sample / RESULTS / "raw" / f"d_identify_duplicates_{TAG}.json").unlink()
    again = run(sample)
    assert by_task(again)["b_classify_requirements"] == ("Skipped", 0)
    for task in ("d_identify_duplicates", "e_identify_contradictions"):
        status, task_calls = by_task(again)[task]
        assert status == "Succeeded" and task_calls > 0, task


# ---------------------------------------------------------------------------
# Any one edit: the rerun ends as a forced run does
# ---------------------------------------------------------------------------

GOLD_FILES = ("gold_labels.csv", "gold_duplicates.csv", "gold_contradictions.csv")


def edit_raw_label(data):
    task = data.draw(st.sampled_from(RAW_TASKS))
    if task == "b_classify_requirements":
        field = data.draw(st.sampled_from(["Function", "Type"]))
        value = data.draw(st.sampled_from(["NAV", "EN", "_OF_", "FUNC", "PROB", "_OT_", "XYZ"]))
        at, items = data.draw(st.integers(0, 19)), "rows"
    else:
        field = data.draw(st.sampled_from(["Relation", "Function", "Rationale"]))
        value = data.draw(st.sampled_from(["Duplicate", "Refinement", "Contradiction", "NAV"]))
        at, items = 0, "findings"

    def edit(project):
        raw = project / RESULTS / "raw" / f"{task}_{TAG}.json"

        def change(payload):
            if payload[items]:
                payload[items][at % len(payload[items])][field] = value

        edit_json(raw, change)

    return edit


def edit_raw_malformed(data):
    task = data.draw(st.sampled_from(RAW_TASKS))
    texts = ["", "[]", "{", '{"rows": [{"ReqID": "1"}]}', '{"rows": "\\ud800"}']
    text = data.draw(st.sampled_from(texts))

    def edit(project):
        (project / RESULTS / "raw" / f"{task}_{TAG}.json").write_text(text, encoding="utf-8")

    return edit


def delete_raw(data):
    # The task executes again, and reads the rows or findings published unparsed before it.
    task = data.draw(st.sampled_from(RAW_TASKS))
    return lambda project: (project / RESULTS / "raw" / f"{task}_{TAG}.json").unlink()


def edit_coverage_raw(data):
    how = data.draw(st.sampled_from(["verdict", "count", "totals", "malformed", "delete"]))
    at = data.draw(st.integers(0, 20))

    def change(payload):
        row = payload["rows"][at % len(payload["rows"])]
        if how == "verdict":
            row["Verdict"] = "Complete" if row["Verdict"] != "Complete" else "Missing"
        elif how == "count":
            row["N_FUNC"] += 1
        else:
            payload["totals"][0] += 1

    def edit(project):
        raw = project / RESULTS / "raw" / f"{COVERAGE}_{TAG}.json"
        if how == "delete":
            raw.unlink()
        elif how == "malformed":
            raw.write_text("{", encoding="utf-8")
        else:
            edit_json(raw, change)

    return edit


def edit_joined(data):
    # Classification executes again and writes it back; its readers stay reused.
    column, value = data.draw(
        st.sampled_from([(None, None), (1, "It shall hover."), (2, "EN"), (3, "_OT_")])
    )
    at = data.draw(st.integers(1, 10))

    def change(rows):
        rows[at % len(rows) or 1][column] = value

    def edit(project):
        if column is None:
            (project / JOINED_CSV).unlink()
        else:
            edit_csv(project / JOINED_CSV, change)

    return edit


def edit_gold(data):
    name = data.draw(st.sampled_from(GOLD_FILES))
    at = data.draw(st.integers(1, 30))

    def change(rows):
        row = rows[1 + at % (len(rows) - 1)]
        if name == "gold_labels.csv":
            row[2] = "FUNC" if row[2] != "FUNC" else "PROB"
        elif len(rows) > 2:
            rows.remove(row)
        else:
            rows.append(["1002", "1003"])

    return lambda project: edit_csv(project / name, change)


def edit_threshold(data):
    value = data.draw(st.sampled_from([0.0, 50.0, 99.0]))
    return lambda project: edit_json(
        project / "params.json", lambda config: config["thresholds"].update(classification=value)
    )


def edit_lineage(data):
    alias = data.draw(st.sampled_from(["NAV", "EN", "SUP"]))
    return lambda project: edit_json(
        project / DICTIONARY,
        lambda resources: resources["ARCHITECTURE"]["Drone"].update({alias: "Drone/Renamed"}),
    )


def edit_report(data):
    at = data.draw(st.integers(0, 20))
    delete = data.draw(st.booleans())

    def edit(project):
        files = sorted((project / RESULTS / "reports").iterdir())
        path = files[at % len(files)]
        if delete:
            path.unlink()
        else:
            path.write_bytes(path.read_bytes() + b"edited")

    return edit


def edit_record(data):
    names = [f"raw_{task}_{TAG}" for task in (*RAW_TASKS, COVERAGE)] + [f"reports_{TAG}"]
    name = data.draw(st.sampled_from(names))
    how = data.draw(st.sampled_from(["delete", "corrupt", "count", "score", "sha256", "key"]))

    def change(record):
        if how in ("count", "score") and how in record:
            record[how] = (record[how] or 0) + 1
        elif how == "sha256":
            entry = next(iter(record["files"].values()))
            entry[1] = "0" * 64
        else:
            record["key"] = "0" * 64

    def edit(project):
        path = project / ".safereq" / f"{name}.json"
        if how == "delete":
            path.unlink()
        elif how == "corrupt":
            path.write_text("{", encoding="utf-8")
        else:
            edit_json(path, change)

    return edit


def edit_input_text(data):
    at = data.draw(st.integers(1, 10))
    words = data.draw(st.sampled_from(["shall", "must not", "é"]))
    return lambda project: edit_csv(
        project / INPUT_CSV, lambda rows: rows[at % len(rows) or 1].__setitem__(1, f"It {words}.")
    )


def delete_input_row(data):
    at = data.draw(st.integers(1, 10))
    return lambda project: edit_csv(project / INPUT_CSV, lambda rows: rows.pop(at % len(rows) or 1))


def edit_instructions(data):
    line = data.draw(st.sampled_from(["Be brief.", "Answer in JSON."]))
    path = Path("B_Requirements") / "instructions.txt"

    def edit(project):
        with open(project / path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    return edit


def add_resources_alias(data):
    alias = data.draw(st.sampled_from(["COM", "NAV2"]))
    return lambda project: edit_json(
        project / DICTIONARY,
        lambda resources: resources["ARCHITECTURE"]["Drone"].update({alias: "Drone/Linking"}),
    )


def edit_setting(data):
    task, key, value = data.draw(
        st.sampled_from(
            [
                ("llm", "model_id", "gpt-4o"),
                ("d_identify_duplicates", "prompt_version", "V1"),
                ("d_identify_duplicates", "prompt_version", "V2"),
            ]
        )
    )
    return lambda project: edit_json(
        project / "params.json", lambda config: config[task].update({key: value})
    )


EDITS = {
    "none": lambda data: lambda project: None,
    "input-text": edit_input_text,
    "input-row-deleted": delete_input_row,
    "instructions": edit_instructions,
    "resources-alias": add_resources_alias,
    "setting": edit_setting,
    "raw-label": edit_raw_label,
    "raw-malformed": edit_raw_malformed,
    "raw-deleted": delete_raw,
    "coverage-raw": edit_coverage_raw,
    "joined": edit_joined,
    "gold": edit_gold,
    "threshold": edit_threshold,
    "lineage": edit_lineage,
    "report": edit_report,
    "record": edit_record,
}


def tree(project):
    return {path: path.read_bytes() for path in project.rglob("*") if path.is_file()}


def restore(project, files):
    shutil.rmtree(project)
    for path, data in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def ending(report, project):
    """Which tasks failed, the report set's files and the report, joined and coverage bytes."""
    failed = [(r.name, r.status == "Failed") for r in report.results]
    files = None if report.report_set is None else sorted(report.report_set.files)
    joined = {p.name: p.read_bytes() for p in (project / RESULTS / "joined").iterdir()}
    covered = (project / RESULTS / "raw" / f"{COVERAGE}_{TAG}.json").read_bytes()
    return failed, files, reports(project), joined, covered


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(EDITS)), data=st.data())
def test_after_any_one_edit_a_rerun_ends_as_a_forced_run_of_the_same_tree_does(
    template, kind, data
):
    edit = EDITS[kind](data)
    with tempfile.TemporaryDirectory() as root:
        project = Path(root) / "project"
        shutil.copytree(template, project)
        run(project)
        edit(project)
        edited = tree(project)

        trusting = run(project)
        kept = ending(trusting, project)
        restore(project, edited)
        assert ending(run(project, force=True), project) == kept
        if kind == "none":
            assert trusting.report_set.reused and calls(trusting) == 0
