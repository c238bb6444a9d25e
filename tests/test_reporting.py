"""Tests for report emission, the metric gate, the Markdown summary and report reuse."""

import copy
import dataclasses
import hashlib
import json
import math
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from safereq import (
    ClassifiedRequirement,
    CoverageMatrix,
    CoverageRow,
    PairFinding,
    ReportInputs,
    build_matrix,
    catalog_from_alias_map,
    emit_report_set,
    metrics_summary,
    render_summary,
)
from safereq import reporting, store
from safereq.errors import SafereqError


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def small_catalog():
    return catalog_from_alias_map(
        {
            "NAV": "Drone/Navigation/Navigating",
            "EN": "Drone/Energy/Energy Storing",
            "_OF_": "Other Function",
        }
    )


def crow(req_id, function="NAV", rtype="FUNC", confidence=90, flags=()):
    return ClassifiedRequirement(
        req_id=req_id,
        function=function,
        rtype=rtype,
        confidence=confidence,
        system_requirement=f"The system shall satisfy {req_id}.",
        function_explanation="fits the function",
        type_explanation="stated as a capability",
        flags=tuple(flags),
    )


def full_inputs():
    catalog = small_catalog()
    classified = [
        crow("1000"),
        crow("1001", rtype="PROB"),
        crow("1002"),
        crow("1003"),
        crow("1004", function="EN", rtype="_OT_", confidence=70, flags=("LowConfidence",)),
        crow("1005", function="_OF_", rtype="_OT_", confidence=0),
    ]
    return ReportInputs(
        classified=classified,
        catalog=catalog,
        coverage=build_matrix(classified, catalog),
        duplicates=[
            PairFinding("1000", "1002", "Duplicate", "NAV", "same behaviour")
        ],
        contradictions=[
            PairFinding("1001", "1003", "Contradiction", "NAV", "opposite limits")
        ],
        scores={"classification": 82.72, "stability": 71.43},
    )


def read_all(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# ---------------------------------------------------------------------------
# Metric gate
# ---------------------------------------------------------------------------


def test_metrics_summary_judges_against_default_thresholds():
    rows = metrics_summary({"classification": 82.72, "stability": 71.43})
    by_name = {r.metric: r for r in rows}
    assert by_name["classification"].passed is True
    assert by_name["classification"].threshold == 80.0
    assert by_name["stability"].passed is False
    assert by_name["stability"].threshold == 80.0


def test_metrics_summary_uses_strict_inequality():
    exactly, above = metrics_summary({"duplicates": 80.0, "contradictions": 80.01})
    assert exactly.passed is False
    assert above.passed is True


def test_metrics_summary_preserves_score_order():
    rows = metrics_summary({"stability": 90.0, "classification": 10.0})
    assert [r.metric for r in rows] == ["stability", "classification"]


def test_metrics_summary_rejects_empty_scores():
    with pytest.raises(ValueError):
        metrics_summary({})


def test_metrics_summary_rejects_unknown_metric():
    with pytest.raises(SafereqError) as err:
        metrics_summary({"latency": 12.0})
    assert "latency" in str(err.value)


def test_metrics_summary_custom_thresholds_override_and_extend():
    rows = metrics_summary(
        {"classification": 82.72, "latency": 5.0},
        thresholds={"classification": 90.0, "latency": 1.0},
    )
    by_name = {r.metric: r for r in rows}
    assert by_name["classification"].passed is False
    assert by_name["classification"].threshold == 90.0
    assert by_name["latency"].passed is True


def test_metrics_summary_overrides_leave_other_defaults_intact():
    rows = metrics_summary(
        {"classification": 82.72, "stability": 81.0},
        thresholds={"classification": 85.0},
    )
    by_name = {r.metric: r for r in rows}
    assert by_name["classification"].passed is False
    assert by_name["stability"].passed is True  # default 80.0 still applies


# ---------------------------------------------------------------------------
# Report set emission
# ---------------------------------------------------------------------------


def test_emit_report_set_writes_expected_file_names(tmp_path):
    report_set = emit_report_set(full_inputs(), tmp_path, "V1")
    expected = {
        "classification_V1.csv",
        "classification_V1.json",
        "allocation_V1.csv",
        "allocation_V1.json",
        "duplicates_V1.csv",
        "duplicates_V1.json",
        "contradictions_V1.csv",
        "contradictions_V1.json",
        "coverage_V1.csv",
        "metrics_V1.json",
        "summary_V1.md",
    }
    assert {p.name for p in tmp_path.iterdir()} == expected
    assert {p.name for p in report_set.files.values()} == expected
    assert report_set.summary_path == tmp_path / "summary_V1.md"


def test_emit_report_set_skips_parts_without_artifacts(tmp_path):
    inputs = ReportInputs(classified=[crow("1000")], catalog=small_catalog())
    emit_report_set(inputs, tmp_path, "V1")
    assert {p.name for p in tmp_path.iterdir()} == {
        "classification_V1.csv",
        "classification_V1.json",
        "allocation_V1.csv",
        "allocation_V1.json",
        "summary_V1.md",
    }


def test_emit_report_set_omits_metrics_file_when_scores_empty(tmp_path):
    inputs = full_inputs()
    inputs.scores = {}
    emit_report_set(inputs, tmp_path, "V1")
    assert "metrics_V1.json" not in {p.name for p in tmp_path.iterdir()}
    summary = (tmp_path / "summary_V1.md").read_text(encoding="utf-8")
    assert "## Metrics\n_Not run._" in summary


def test_emit_report_set_is_byte_deterministic(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    emit_report_set(full_inputs(), first, "2024-08-17")
    emit_report_set(full_inputs(), second, "2024-08-17")
    assert read_all(first) == read_all(second)


def test_emit_report_set_embeds_tag_in_every_name(tmp_path):
    emit_report_set(full_inputs(), tmp_path, "rc2")
    assert all("rc2" in p.name for p in tmp_path.iterdir())


# ---------------------------------------------------------------------------
# Individual report contents
# ---------------------------------------------------------------------------


def test_classification_csv_shape(tmp_path):
    emit_report_set(full_inputs(), tmp_path, "V1")
    lines = (tmp_path / "classification_V1.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "ReqID,Function,Type,Confidence,System Requirement,"
        "Function_Explanation,Type_Explanation,Flags"
    )
    assert len(lines) == 7  # header + six rows
    assert lines[1].startswith("1000,NAV,FUNC,90,")
    assert lines[5].endswith(",LowConfidence")


def test_classification_json_mirrors_csv(tmp_path):
    emit_report_set(full_inputs(), tmp_path, "V1")
    payload = json.loads((tmp_path / "classification_V1.json").read_text(encoding="utf-8"))
    assert [r["ReqID"] for r in payload] == ["1000", "1001", "1002", "1003", "1004", "1005"]
    assert payload[0]["Function"] == "NAV"
    assert payload[4]["Flags"] == "LowConfidence"


def test_allocation_report_resolves_lineage_from_catalog(tmp_path):
    emit_report_set(full_inputs(), tmp_path, "V1")
    payload = json.loads((tmp_path / "allocation_V1.json").read_text(encoding="utf-8"))
    assert payload[0]["Lineage"] == "Drone/Navigation/Navigating"
    assert payload[5]["Lineage"] == "Other Function"


def test_allocation_report_blank_lineage_without_catalog(tmp_path):
    inputs = ReportInputs(classified=[crow("1000")])
    emit_report_set(inputs, tmp_path, "V1")
    payload = json.loads((tmp_path / "allocation_V1.json").read_text(encoding="utf-8"))
    assert payload[0]["Lineage"] == ""


def test_pair_report_rows(tmp_path):
    emit_report_set(full_inputs(), tmp_path, "V1")
    lines = (tmp_path / "duplicates_V1.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "ReqID_A,ReqID_B,Relation,Function,Rationale"
    assert lines[1] == "1000,1002,Duplicate,NAV,same behaviour"
    lines = (tmp_path / "contradictions_V1.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "1001,1003,Contradiction,NAV,opposite limits"


def test_coverage_csv_ends_with_total_row(tmp_path):
    emit_report_set(full_inputs(), tmp_path, "V1")
    lines = (tmp_path / "coverage_V1.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "Function,Lineage,N_FUNC,N_PROB,N_OTHER,Verdict,Triage"
    assert lines[1] == "NAV,Drone/Navigation/Navigating,3,1,0,Complete,"
    assert lines[-1] == "TOTAL,,3,1,2,,"
    assert any(line.startswith("_OF_,") and line.endswith(",yes") for line in lines)


def test_metrics_report_payload(tmp_path):
    emit_report_set(full_inputs(), tmp_path, "V1")
    payload = json.loads((tmp_path / "metrics_V1.json").read_text(encoding="utf-8"))
    assert payload == {
        "metrics": [
            {
                "metric": "classification",
                "value": 82.72,
                "threshold": 80.0,
                "passed": True,
            },
            {
                "metric": "stability",
                "value": 71.43,
                "threshold": 80.0,
                "passed": False,
            },
        ]
    }


# ---------------------------------------------------------------------------
# Table JSON writer and crash-safe writes
# ---------------------------------------------------------------------------

# Pieces the encoder escapes or the writer's % template must survive.
FRAGMENTS = ["%", "%s", "%%", '"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f",
             "\u2028", "\u2029", "é", "中", "😀", ": ", ",\n"]
tricky_text = st.lists(
    st.sampled_from(FRAGMENTS) | st.characters(blacklist_categories=("Cs",)), max_size=8
).map("".join)
scalar_cells = (
    tricky_text
    | st.integers()
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=True, allow_infinity=True)
)


def oracle_bytes(header, table):
    rows = [dict(zip(header, row)) for row in table]
    return (json.dumps(rows, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(tricky_text, unique=True, max_size=6).flatmap(
        lambda header: st.tuples(
            st.just(header),
            st.lists(
                st.lists(scalar_cells, min_size=len(header), max_size=len(header)),
                max_size=5,
            ),
        )
    )
)
def test_table_json_matches_the_indented_dumps(tmp_path, header_and_table):
    header, table = header_and_table
    path = tmp_path / "table.json"
    reporting._write_table_json(path, header, table)
    assert path.read_bytes() == oracle_bytes(header, table)


@pytest.mark.parametrize(
    "header, table",
    [
        ([], []),
        (["a"], []),
        ([], [[], []]),
        (["100%", "%s"], [["%s", "%%"], ["x\ny", float("nan")]]),
        (["k"], [[math.inf], [-math.inf], [-0.0], [10**30], [True], [None]]),
    ],
)
def test_table_json_edge_cases_match_the_indented_dumps(tmp_path, header, table):
    path = tmp_path / "table.json"
    reporting._write_table_json(path, header, table)
    assert path.read_bytes() == oracle_bytes(header, table)


@pytest.mark.parametrize("cell", [["one"], [], {"a": 1}, {}, ("t",), b"bytes", object()])
def test_table_json_rejects_non_scalar_cells(tmp_path, cell):
    with pytest.raises(TypeError):
        reporting._write_table_json(tmp_path / "t.json", ["a", "b"], [["x", 1], ["y", cell]])
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("table", [[[1, 2], [3]], [[1, 2], [3, 4, 5]], [[1]]])
def test_table_json_rejects_rows_not_as_wide_as_the_header(tmp_path, table):
    with pytest.raises(ValueError):
        reporting._write_table_json(tmp_path / "t.json", ["a", "b"], table)


# Raw-file payloads, as the orchestrator writes them, and any JSON value.
flags = st.lists(tricky_text, max_size=3).map(tuple) | st.lists(tricky_text, max_size=3)
json_values = st.recursive(
    scalar_cells,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(tricky_text, inner, max_size=4),
    max_leaves=12,
)


@st.composite
def raw_payloads(draw):
    keys = draw(st.lists(tricky_text, min_size=1, max_size=4, unique=True))
    flagged = draw(st.booleans())  # else every Flags is empty: one template for all rows
    rows = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    **{key: scalar_cells for key in keys},
                    "Flags": flags if flagged else st.just(()),
                }
            ),
            max_size=6,
        )
    )
    return {
        "task": draw(tricky_text),
        "rows": rows,
        "quarantined": draw(st.lists(st.tuples(json_values, tricky_text).map(list), max_size=3)),
        "notes": draw(st.lists(tricky_text, max_size=3)),
        "accuracy": draw(st.none() | st.floats(allow_nan=True, allow_infinity=True)),
    }


def dumps_bytes(payload):
    return (json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw_payloads() | json_values)
def test_json_writer_matches_the_indented_dumps(tmp_path, payload):
    path = tmp_path / "raw.json"
    reporting._write_json(path, payload)
    assert path.read_bytes() == dumps_bytes(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        "%s",
        None,
        [[], {}, (), [[]], {"": {}}],
        [{}, {}],
        [{"a": 1}, {"a": [1]}, {"b": 2}],
        [{"100%": "%s", "%s": ["%%", {"%": "\u2028"}]}],
        {1: "int", 1.5: "float", True: "bool", None: "null", math.inf: "inf", -0.0: "zero"},
        {"rows": [{"Flags": ()}, {"Flags": ("low_confidence",)}, {"Flags": []}]},
        [math.nan, -math.inf, 10**30, -0.0, 1e-7, True, False],
    ],
)
def test_json_writer_edge_cases_match_the_indented_dumps(tmp_path, payload):
    path = tmp_path / "raw.json"
    reporting._write_json(path, payload)
    assert path.read_bytes() == dumps_bytes(payload)


@pytest.mark.parametrize("payload", [{("a",): 1}, [{"k": {b"x": 1}}], {"v": {1, 2}}])
def test_json_writer_rejects_what_dumps_rejects(tmp_path, payload):
    with pytest.raises(TypeError):
        json.dumps(payload, indent=2, ensure_ascii=False)
    with pytest.raises(TypeError):
        reporting._write_json(tmp_path / "raw.json", payload)
    assert not list(tmp_path.iterdir())


def test_json_writer_never_runs_the_pure_python_encoder(tmp_path, monkeypatch):
    def pure_python_encoder(*args, **kwargs):
        raise AssertionError("the pure-Python indent encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
    rows = [
        {"ReqID": str(i), "Confidence": i, "Flags": ("low_confidence",) * (i % 2)}
        for i in range(50)
    ]
    payload = {"rows": rows, "quarantined": [[{"ReqID": "x", "n": [1, {}]}, "why"]]}
    reporting._write_json(tmp_path / "raw.json", payload)
    reporting._write_table_json(tmp_path / "table.json", ["a"], [["x"], [1]])
    monkeypatch.undo()
    assert (tmp_path / "raw.json").read_bytes() == dumps_bytes(payload)


class Unprintable:
    def __str__(self):
        raise RuntimeError("cell failed to render")


def test_csv_write_failing_midway_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "report.csv"
    reporting._write_csv(path, ["a"], [["old"]])
    before = path.read_bytes()
    rows = [[f"row {i}"] for i in range(5000)] + [[Unprintable()]]
    with pytest.raises(RuntimeError):
        reporting._write_csv(path, ["a"], rows)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


def test_json_encoder_failing_midway_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "raw.json"
    reporting._write_json(path, {"rows": [1, 2]})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        reporting._write_json(path, {"rows": ["x" * 1000] * 100 + [object()]})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["raw.json"]


def test_interrupted_replace_keeps_the_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "summary.md"
    reporting._write_text(path, "old\n")

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(reporting.os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        reporting._write_text(path, "new\n")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["summary.md"]


def test_a_written_file_reaches_the_disk_before_it_is_moved_into_place(tmp_path, monkeypatch):
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_size))  # every byte flushed by now
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.path.basename(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(reporting.os, "fsync", fsync)
    monkeypatch.setattr(reporting.os, "replace", replace)
    reporting._write_text(tmp_path / "summary.md", "new\n")
    assert calls == [("fsync", 4), ("replace", "summary.md")]


# ---------------------------------------------------------------------------
# Markdown summary
# ---------------------------------------------------------------------------


def test_summary_sections_appear_in_fixed_order():
    text = render_summary(full_inputs(), "V1")
    headings = [
        "# Requirement Analysis Summary (V1)",
        "## Coverage",
        "## Coverage Gaps",
        "## Duplicate Requirements",
        "## Contradicting Requirements",
        "## Triage",
        "## Metrics",
    ]
    positions = [text.index(h) for h in headings]
    assert positions == sorted(positions)


def test_summary_marks_absent_parts_as_not_run():
    text = render_summary(ReportInputs(), "V1")
    # Coverage, gaps, two pair sections, triage, metrics: six in total.
    assert text.count("_Not run._") == 6
    assert "## Triage\n_Not run._" in text


def test_summary_empty_findings_read_none_found():
    inputs = full_inputs()
    inputs.duplicates = []
    inputs.contradictions = []
    text = render_summary(inputs, "V1")
    assert "## Duplicate Requirements\nNone found." in text
    assert "## Contradicting Requirements\nNone found." in text


def test_summary_clean_classification_reads_nothing_to_triage():
    inputs = ReportInputs(classified=[crow("1000"), crow("1001")])
    text = render_summary(inputs, "V1")
    assert "Nothing to triage." in text


def test_summary_triage_lists_catch_all_and_flagged_rows():
    text = render_summary(full_inputs(), "V1")
    triage = text.split("## Triage")[1].split("## Metrics")[0]
    assert "| 1004 | EN | _OT_ | 70 | LowConfidence |" in triage
    assert "| 1005 | _OF_ | _OT_ | 0 |  |" in triage
    assert "| 1000 " not in triage


def test_summary_complete_coverage_message():
    catalog = catalog_from_alias_map({"NAV": "Drone/Navigation/Navigating"})
    classified = [
        crow("1000"),
        crow("1001"),
        crow("1002"),
        crow("1003", rtype="PROB"),
    ]
    inputs = ReportInputs(
        classified=classified,
        catalog=catalog,
        coverage=build_matrix(classified, catalog),
    )
    text = render_summary(inputs, "V1")
    assert "All functions have complete coverage." in text


def test_summary_coverage_table_includes_total_row():
    text = render_summary(full_inputs(), "V1")
    assert "| NAV | 3 | 1 | 0 | Complete |" in text
    assert "| TOTAL | 3 | 1 | 2 |  |" in text


def test_summary_gap_table_ranks_by_shortfall():
    text = render_summary(full_inputs(), "V1")
    gaps = text.split("## Coverage Gaps")[1].split("## Duplicate")[0]
    # EN has one _OT_ row only: shortfall 4. _OF_ is excluded as triage bucket.
    assert "| EN | 4 | 0 | 0 |" in gaps
    assert "_OF_" not in gaps


def test_summary_metrics_table_shows_pass_and_fail():
    text = render_summary(full_inputs(), "V1")
    assert "| classification | 82.72 | 80.00 | pass |" in text
    assert "| stability | 71.43 | 80.00 | fail |" in text


def test_summary_render_is_deterministic():
    assert render_summary(full_inputs(), "V1") == render_summary(full_inputs(), "V1")


_NOT_RUN_SUMMARY = """\
# Requirement Analysis Summary (V1)

## Coverage
_Not run._

## Coverage Gaps
_Not run._

## Duplicate Requirements
_Not run._

## Contradicting Requirements
_Not run._

## Triage
_Not run._

## Metrics
_Not run._
"""

_NO_FINDINGS_SUMMARY = """\
# Requirement Analysis Summary (V1)

## Coverage
| Function | FUNC | PROB | OTHER | Verdict |
| --- | --- | --- | --- | --- |
| NAV | 3 | 1 | 0 | Complete |
| EN | 0 | 0 | 1 | Missing |
| _OF_ | 0 | 0 | 1 | Missing |
| TOTAL | 3 | 1 | 2 |  |

## Coverage Gaps
| Function | Shortfall | FUNC | PROB |
| --- | --- | --- | --- |
| EN | 4 | 0 | 0 |

## Duplicate Requirements
None found.

## Contradicting Requirements
None found.

## Triage
| ReqID | Function | Type | Confidence | Flags |
| --- | --- | --- | --- | --- |
| 1004 | EN | _OT_ | 70 | LowConfidence |
| 1005 | _OF_ | _OT_ | 0 |  |

## Metrics
| Metric | Value | Threshold | Result |
| --- | --- | --- | --- |
| classification | 82.72 | 80.00 | pass |
| stability | 71.43 | 80.00 | fail |
"""

_CLEAN_TRIAGE_SUMMARY = _NOT_RUN_SUMMARY.replace(
    "## Triage\n_Not run._", "## Triage\nNothing to triage."
)

_COMPLETE_COVERAGE_SUMMARY = """\
# Requirement Analysis Summary (V1)

## Coverage
| Function | FUNC | PROB | OTHER | Verdict |
| --- | --- | --- | --- | --- |
| NAV | 3 | 1 | 0 | Complete |
| _OF_ | 0 | 0 | 0 | Missing |
| TOTAL | 3 | 1 | 0 |  |

## Coverage Gaps
All functions have complete coverage.

## Duplicate Requirements
_Not run._

## Contradicting Requirements
_Not run._

## Triage
Nothing to triage.

## Metrics
_Not run._
"""


def _no_findings_inputs():
    inputs = full_inputs()
    inputs.duplicates = []
    inputs.contradictions = []
    return inputs


def _complete_coverage_inputs():
    catalog = catalog_from_alias_map({"NAV": "Drone/Navigation/Navigating"})
    classified = [crow("1000"), crow("1001"), crow("1002"), crow("1003", rtype="PROB")]
    return ReportInputs(
        classified=classified, catalog=catalog, coverage=build_matrix(classified, catalog)
    )


@pytest.mark.parametrize(
    "make_inputs, expected",
    [
        (ReportInputs, _NOT_RUN_SUMMARY),
        (_no_findings_inputs, _NO_FINDINGS_SUMMARY),
        (lambda: ReportInputs(classified=[crow("1000"), crow("1001")]), _CLEAN_TRIAGE_SUMMARY),
        (_complete_coverage_inputs, _COMPLETE_COVERAGE_SUMMARY),
    ],
    ids=["nothing-run", "no-findings", "clean-triage", "complete-coverage"],
)
def test_summary_text_is_pinned(make_inputs, expected):
    assert render_summary(make_inputs(), "V1") == expected


# ---------------------------------------------------------------------------
# Report reuse: the content key and the record
# ---------------------------------------------------------------------------


texts = st.text(max_size=6)
numbers = st.floats(allow_nan=False, allow_infinity=False)
mappings = st.dictionaries(texts, numbers, max_size=3)
classified_rows = st.builds(
    ClassifiedRequirement,
    req_id=texts,
    function=texts,
    rtype=texts,
    confidence=st.integers(0, 100),
    system_requirement=texts,
    function_explanation=texts,
    type_explanation=texts,
    flags=st.lists(texts, max_size=3).map(tuple),
)
findings = st.builds(PairFinding, texts, texts, texts, texts, texts)
coverage_rows = st.builds(
    CoverageRow,
    alias=texts,
    lineage=texts,
    n_func=st.integers(0, 9),
    n_prob=st.integers(0, 9),
    n_other=st.integers(0, 9),
    verdict=texts,
    is_triage_bucket=st.booleans(),
)
lineages = st.text(alphabet="ab/", min_size=1, max_size=6).filter(lambda s: s.count("/") < 3)

report_inputs = st.builds(
    ReportInputs,
    classified=st.none() | st.lists(classified_rows, max_size=3),
    catalog=st.none() | st.dictionaries(texts, lineages, max_size=3).map(catalog_from_alias_map),
    coverage=st.none()
    | st.builds(
        CoverageMatrix,
        rows=st.lists(coverage_rows, max_size=3),
        totals=st.tuples(*[st.integers(0, 99)] * 3),
    ),
    duplicates=st.none() | st.lists(findings, max_size=3),
    contradictions=st.none() | st.lists(findings, max_size=3),
    scores=mappings,
    thresholds=st.none() | mappings,
)


def changed(value):
    """A value of value's type that is not value."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return math.nextafter(value, math.inf)
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, tuple):
        return (*value, "x")
    raise TypeError(f"no edit for {value!r}")


def edit_items(data, items):
    """None for a list, a list for None, else one field of one item changed."""
    if not items:
        return [] if items is None else None
    at = data.draw(st.integers(0, len(items) - 1))
    name = data.draw(st.sampled_from([f.name for f in dataclasses.fields(items[at])]))
    edited = dataclasses.replace(items[at], **{name: changed(getattr(items[at], name))})
    return [*items[:at], edited, *items[at + 1 :]]


def edit_mapping(data, mapping):
    if not mapping:
        return {"classification": 1.0}
    key = data.draw(st.sampled_from(list(mapping)))
    return {**mapping, key: changed(mapping[key])}


def edit_catalog(data, catalog):
    if catalog is None:
        return catalog_from_alias_map({})
    lineage_of = catalog.alias_map()
    alias = data.draw(st.sampled_from(list(lineage_of)))
    return catalog_from_alias_map({**lineage_of, alias: lineage_of[alias] + "x"})


def edit_coverage(data, matrix):
    if matrix is None:
        return CoverageMatrix(rows=[], totals=(0, 0, 0))
    if matrix.rows and data.draw(st.booleans()):
        return dataclasses.replace(matrix, rows=edit_items(data, matrix.rows))
    return dataclasses.replace(matrix, totals=(*matrix.totals[:2], matrix.totals[2] + 1))


# One edit per ReportInputs field: a field without one fails the property below.
REPORT_INPUT_EDITS = {
    "classified": edit_items,
    "catalog": edit_catalog,
    "coverage": edit_coverage,
    "duplicates": edit_items,
    "contradictions": edit_items,
    "scores": edit_mapping,
    "thresholds": lambda data, mapping: {} if mapping is None else edit_mapping(data, mapping),
}
# The parts a task publishes from its raw file: they enter the key by its digest.
RAW_PARTS = {"classified", "coverage", "duplicates", "contradictions"}

published_lists = st.lists(st.tuples(texts, texts, texts), max_size=3)


def edit_published(data, published):
    """One entry's task, slot or digest changed, or the last dropped; one added to none."""
    if not published:
        return [("b_task", "classified", "0" * 64)]
    if data.draw(st.booleans()):
        return published[:-1]
    at = data.draw(st.integers(0, len(published) - 1))
    entry = list(published[at])
    field_at = data.draw(st.integers(0, 2))
    entry[field_at] = changed(entry[field_at])
    return [*published[:at], tuple(entry), *published[at + 1 :]]


@settings(max_examples=200)
@given(report_inputs, published_lists, st.data())
def test_an_edit_to_any_keyed_input_changes_the_key_and_an_equal_copy_keeps_it(
    inputs, published, data
):
    key = reporting.report_key(inputs, "V1", published)
    assert reporting.report_key(copy.deepcopy(inputs), "V1", list(published)) == key
    for field in dataclasses.fields(ReportInputs):
        edited = REPORT_INPUT_EDITS[field.name](data, getattr(inputs, field.name))
        edited_inputs = dataclasses.replace(inputs, **{field.name: edited})
        edited_key = reporting.report_key(edited_inputs, "V1", published)
        assert (edited_key == key) == (field.name in RAW_PARTS), field.name
    assert reporting.report_key(inputs, "V1", edit_published(data, published)) != key


def test_the_key_covers_the_tag_and_the_package_version(monkeypatch):
    key = reporting.report_key(full_inputs(), "V1", [])
    assert reporting.report_key(full_inputs(), "V2", []) != key
    monkeypatch.setattr(reporting, "__version__", "0.0.0-other")
    assert reporting.report_key(full_inputs(), "V1", []) != key


def test_the_key_follows_the_score_order_the_metrics_report_keeps():
    scores = full_inputs().scores
    reordered = dict(reversed(scores.items()))
    assert reordered == scores
    keys = {
        reporting.report_key(ReportInputs(scores=mapping), "V1", [])
        for mapping in (scores, reordered)
    }
    assert len(keys) == 2


@pytest.mark.parametrize(
    "published, other",
    [
        ([("a|b", "classified", "s")], [("a", "b|classified", "s")]),
        ([], [("", "", "")]),
        ([("a", "classified", "s"), ("b", "classified", "s")], [("a", "classified", "s")]),
        (
            [("a", "classified", "s"), ("b", "coverage", "t")],
            [("b", "coverage", "t"), ("a", "classified", "s")],
        ),
    ],
    ids=["split-apart", "empty-entry", "entry-dropped", "run-order"],
)
def test_the_key_tells_apart_published_lists_that_join_alike(published, other):
    keys = {reporting.report_key(ReportInputs(), "V1", entries) for entries in (published, other)}
    assert len(keys) == 2


def recorded(tmp_path):
    """A report set emitted to tmp_path/reports and recorded; returns (record, key, set)."""
    inputs, reports = full_inputs(), tmp_path / "reports"
    key = reporting.report_key(inputs, "V1", [("b_task", "classified", "0" * 64)])
    report_set = emit_report_set(inputs, reports, "V1")
    record = tmp_path / ".safereq" / "reports_V1.json"
    files = {name: (file, report_set.digests[name]) for name, file in report_set.files.items()}
    store.record(record, key, reports, files)
    return record, key, report_set


def test_a_recorded_set_is_reused_while_its_files_hold(tmp_path):
    record, key, report_set = recorded(tmp_path)
    kept = store.verify(record, key, tmp_path / "reports")
    assert {name: file for name, (file, _) in kept["files"].items()} == report_set.files
    assert {name: sha for name, (_, sha) in kept["files"].items()} == report_set.digests
    assert not report_set.reused
    saved = json.loads(record.read_text(encoding="utf-8"))
    assert saved["key"] == key
    assert saved["files"]["summary"] == [
        "summary_V1.md",
        hashlib.sha256(report_set.summary_path.read_bytes()).hexdigest(),
    ]


def _rewrite_record(record, edit):
    saved = json.loads(record.read_text(encoding="utf-8"))
    edit(saved)
    record.write_text(json.dumps(saved), encoding="utf-8")


@pytest.mark.parametrize(
    "spoil",
    [
        lambda record, reports: record.unlink(),
        lambda record, reports: record.write_text("", encoding="utf-8"),
        lambda record, reports: record.write_bytes(b"\xff\xfe"),
        lambda record, reports: record.write_text("[]", encoding="utf-8"),
        lambda record, reports: record.write_text("[" * 100_000, encoding="utf-8"),
        lambda record, reports: _rewrite_record(record, lambda r: r.pop("files")),
        lambda record, reports: _rewrite_record(record, lambda r: r.update(files=[])),
        lambda record, reports: _rewrite_record(record, lambda r: r["files"].update(summary=[1, 2])),
        lambda record, reports: _rewrite_record(
            record, lambda r: r["files"].update(summary=["summary_V1.md"])
        ),
        lambda record, reports: _rewrite_record(record, lambda r: r.update(key="0" * 64)),
        lambda record, reports: _rewrite_record(record, lambda r: r.update(reports_dir="elsewhere")),
        lambda record, reports: _rewrite_record(
            record, lambda r: r["files"]["summary"].__setitem__(0, "../reports/summary_V1.md")
        ),
        lambda record, reports: (reports / "coverage_V1.csv").unlink(),
        lambda record, reports: (reports / "summary_V1.md").write_text("edited", encoding="utf-8"),
    ],
    ids=[
        "missing",
        "empty",
        "not-utf8",
        "a-list",
        "too-deep",
        "no-files",
        "files-a-list",
        "file-not-names",
        "file-without-sha",
        "other-key",
        "other-directory",
        "file-outside-the-directory",
        "report-deleted",
        "report-edited",
    ],
)
def test_a_spoiled_record_or_report_is_not_reused(tmp_path, spoil):
    record, key, _ = recorded(tmp_path)
    spoil(record, tmp_path / "reports")
    assert store.verify(record, key, tmp_path / "reports") is None
