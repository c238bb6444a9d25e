"""The verifying-trace store, and delta reruns that trust what it records.

A rerun of an unchanged project parses no gold file and no finding,
computes the report key from file digests and keeps the report set. Any
one edit after a first run (a raw file edited or deleted, a gold file, a
threshold, a lineage, a report or a record) leaves the next run with the
outcome it has when the store is deleted first.
"""

import csv
import dataclasses
import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safereq import MockBackend, orchestrator, reporting, run_all, store

SAMPLE_PROJECT = Path(__file__).resolve().parent.parent / "sample_project"
RESULTS = Path("B_Requirements") / "results"
TAG = "T"


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
    store.record(path, "K", data, {"a": ("a.txt", sha256(data / "a.txt"))}, count=3, score=87.5)
    return path, data


def test_a_record_is_loaded_and_verified_for_its_key_and_directory(tmp_path):
    path, data = recorded_file(tmp_path)
    saved = store.load(path, "K", data)
    assert saved["count"] == 3 and saved["score"] == 87.5
    assert saved["files"] == {"a": ["a.txt", sha256(data / "a.txt")]}
    assert store.verify(path, "K", data) == {"a": data / "a.txt"}
    assert store.load(path, "other", data) is None
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
    """Each file's inode and mtime: a file moved into place changes its inode."""
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in directory.iterdir()}


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


def refuse_reads_without_need(monkeypatch):
    """Fail any read of a gold file and any parse of a findings raw file."""

    def refuse(*args, **kwargs):
        raise AssertionError("read without need")

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
    assert "metrics_T.json" in written and len(records) == 4
    refuse_reads_without_need(monkeypatch)
    again = run(project)
    statuses = [status for _, status, _ in outcome(again)]
    assert statuses == ["Skipped", "Succeeded", "Skipped", "Skipped"]
    assert again.report_set.reused and again.report_set == first.report_set
    assert reports(project) == written
    assert stamps(project / ".safereq") == records  # no record written again


def flip_first_gold_label(project):
    edit_csv(project / "gold_labels.csv", lambda rows: rows[1].__setitem__(2, "_OT_"))


@pytest.mark.parametrize(
    "edit",
    [flip_first_gold_label, lambda project: shutil.rmtree(project / ".safereq")],
    ids=["gold-edited", "store-deleted"],
)
def test_a_raw_file_a_rerun_had_to_check_is_trusted_by_the_next(project, monkeypatch, edit):
    run(project)
    edit(project)
    checked = run(project)
    refuse_reads_without_need(monkeypatch)
    again = run(project)
    assert outcome(again) == outcome(checked)
    assert again.report_set.reused


def test_reports_deleted_after_a_first_run_are_written_again_byte_for_byte(project):
    run(project)
    written = reports(project)
    shutil.rmtree(project / RESULTS / "reports")
    again = run(project)
    assert not again.report_set.reused
    assert reports(project) == written


def test_a_raw_file_edited_to_a_malformed_payload_fails_its_task(project):
    run(project)
    raw = project / RESULTS / "raw" / f"d_identify_duplicates_{TAG}.json"
    edit_json(raw, lambda payload: payload["findings"][0].update(Relation=7))
    statuses = {name: (status, detail) for name, status, detail in outcome(run(project))}
    status, detail = statuses["d_identify_duplicates"]
    assert status == "Failed" and detail.startswith("malformed raw file")


# ---------------------------------------------------------------------------
# Any one edit: the rerun ends as it does without the store
# ---------------------------------------------------------------------------

RAW_TASKS = ("b_classify_requirements", "d_identify_duplicates", "e_identify_contradictions")
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
    path = Path("B_Requirements") / "data_dictionary.json"
    return lambda project: edit_json(
        project / path,
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
    names = [f"raw_{task}_{TAG}" for task in RAW_TASKS] + [f"reports_{TAG}"]
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


EDITS = {
    "none": lambda data: lambda project: None,
    "raw-label": edit_raw_label,
    "raw-malformed": edit_raw_malformed,
    "raw-deleted": delete_raw,
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
    files = None if report.report_set is None else sorted(report.report_set.files)
    return outcome(report), files, reports(project)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(EDITS)), data=st.data())
def test_after_any_one_edit_a_rerun_ends_as_it_does_without_the_store(template, kind, data):
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
        shutil.rmtree(project / ".safereq", ignore_errors=True)
        assert ending(run(project), project) == kept
        if kind == "none":
            assert trusting.report_set.reused
