"""End-to-end acceptance checks.

Each test covers one shipping criterion and prints a single PASS line
once its assertions hold; a failing criterion shows up as that test's
failure. The whole suite runs offline against the mock backend.
"""

import csv
import hashlib
import json
import shutil
from pathlib import Path

from safereq import (
    CountingBackend,
    GoldPairs,
    MockBackend,
    PairFinding,
    PromptEnvelope,
    PromptResource,
    assemble_prompt,
    build_matrix,
    catalog_from_alias_map,
    chunk,
    extract_catalog,
    load_requirements,
    metrics_summary,
    parse_opl,
    run_all,
    score,
    verdict,
)
from safereq.classify import ClassifiedRequirement

HERE = Path(__file__).parent
DATA = HERE / "data"
SAMPLE_PROJECT = HERE.parent / "sample_project"

CLASSIFY_KEY = "Assign each requirement to exactly one function alias"

# Fielded counts per function: (n_func, n_prob) pairs with the expected
# sufficiency verdict for each.
REFERENCE_MATRIX = {
    "DM": (18, 2, "Complete"),
    "EN": (9, 1, "Complete"),
    "NAV": (12, 0, "Missing"),
    "PEA": (14, 0, "Missing"),
    "PTC": (6, 1, "Complete"),
    "RD": (3, 0, "Missing"),
    "STR": (2, 1, "Missing"),
    "SUP": (15, 1, "Complete"),
    "TD": (6, 0, "Missing"),
    "OF": (16, 0, "Missing"),
}

# Function, type and confidence the mock backend replays for the sample
# project's ten requirements.
REPLAY_VERDICTS = {
    "1000": ("NAV", "FUNC", 90),
    "1001": ("NAV", "FUNC", 85),
    "1002": ("EN", "PROB", 80),
    "1003": ("EN", "_OT_", 70),
    "1004": ("TD", "FUNC", 85),
    "1005": ("TD", "FUNC", 90),
    "1006": ("_OF_", "_OT_", 75),
    "1007": ("SUP", "FUNC", 85),
    "1008": ("TD", "FUNC", 80),
    "1009": ("TD", "PROB", 90),
}


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def copy_sample_project(tmp_path):
    target = tmp_path / "project"
    shutil.copytree(SAMPLE_PROJECT, target, ignore=shutil.ignore_patterns("results"))
    return target


def run_sample(project_dir, **kwargs):
    backend = CountingBackend(MockBackend(project_dir / "fixtures"))
    report = run_all(
        project_dir / "params.json", backend=backend, version_tag="ACC", **kwargs
    )
    return report, backend


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def reference_rows():
    rows = []
    serial = 0
    for alias, (n_func, n_prob, _) in REFERENCE_MATRIX.items():
        for rtype, count in (("FUNC", n_func), ("PROB", n_prob)):
            for _ in range(count):
                rows.append(
                    ClassifiedRequirement(
                        req_id=f"{4000 + serial}",
                        function=alias,
                        rtype=rtype,
                        confidence=90,
                    )
                )
                serial += 1
    return rows


def reference_catalog():
    return catalog_from_alias_map(
        {alias: f"System/{alias}" for alias in REFERENCE_MATRIX}
    )


def duty_record(req_id):
    serial = int(req_id) - 5000
    return {
        "ReqID": req_id,
        "Function": ("NAV", "EN", "TD")[serial % 3],
        "Type": "PROB" if serial % 10 == 9 else "FUNC",
        "Confidence": 80 + serial % 15,
        "System_Requirement": f"The system shall complete duty {serial} within budget.",
    }


def make_chunked_project(root):
    """A 110-requirement project whose mock fixtures are keyed by prompt."""
    (root / "input").mkdir(parents=True)
    lines = ["ReqID,Requirements"]
    for serial in range(110):
        lines.append(f"{5000 + serial},The system shall complete duty {serial}.")
    (root / "input" / "reqs.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (root / "instructions.txt").write_text(CLASSIFY_KEY + ".\n", encoding="utf-8")
    (root / "resources.json").write_text(
        json.dumps(
            {
                "ARCHITECTURE": {
                    "NAV": "Drone/Navigation/Navigating",
                    "EN": "Drone/Energy/Energy Storing",
                    "TD": "Drone/Telemetry/Transmitting Data",
                }
            }
        ),
        encoding="utf-8",
    )
    (root / "params.json").write_text(
        json.dumps(
            {
                "llm": {"backend": "mock", "fixture_dir": "fixtures"},
                "a_classify": {
                    "type": "GENERATIVE_ANALYSIS_TASK",
                    "run": True,
                    "delta": False,
                    "input_file": "input/reqs.csv",
                    "instructions": "instructions.txt",
                    "resources": "resources.json",
                    "dataset_name": "Duty Requirements",
                    "dataset_id_column": "ReqID",
                    "dataset_columns": ["Requirements"],
                    "result_columns": ["Function", "Type", "Confidence"],
                    "output_path": "results",
                    "chunk_size": 10,
                    "execute": True,
                    "analyze": True,
                    "analysis_function": "analyze_requirement_completeness",
                },
            }
        ),
        encoding="utf-8",
    )

    # One fixture per chunk, keyed by the sha of the exact prompt the
    # pipeline will assemble. The last chunk smuggles in an unknown id.
    requirements = load_requirements(root / "input" / "reqs.csv", "ReqID", ["Requirements"])
    pieces = chunk(requirements, 10)
    payload = json.loads((root / "resources.json").read_text(encoding="utf-8"))
    resources = tuple(PromptResource(tag=k, body=v) for k, v in payload.items())
    instructions = (root / "instructions.txt").read_text(encoding="utf-8")
    fixtures = root / "fixtures"
    fixtures.mkdir()
    for index, piece in enumerate(pieces):
        prompt = assemble_prompt(
            PromptEnvelope(
                instructions=instructions,
                resources=resources,
                dataset_name="Duty Requirements",
                rows=tuple((r.req_id, r.text) for r in piece.rows),
            )
        )
        records = [duty_record(r.req_id) for r in piece.rows]
        if index == len(pieces) - 1:
            records.append(
                {"ReqID": "9999", "Function": "NAV", "Type": "FUNC", "Confidence": 99}
            )
        sha = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        (fixtures / f"{sha}.json").write_text(
            json.dumps({"results": records}), encoding="utf-8"
        )
    return len(pieces)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_sufficiency_verdicts_for_reference_matrix():
    matrix = build_matrix(reference_rows(), reference_catalog())
    verdicts = {row.alias: row.verdict for row in matrix.rows}
    for alias, (_, _, expected) in REFERENCE_MATRIX.items():
        assert verdicts[alias] == expected, alias
    assert matrix.totals == (101, 6, 0)
    print("[criterion 1] PASS: all ten reference functions get the expected verdict")


def test_criterion_2_verdict_rule_brute_force():
    for n_func in range(6):
        for n_prob in range(4):
            expected = "Complete" if n_func >= 3 and n_prob >= 1 else "Missing"
            assert verdict(n_func, n_prob) == expected, (n_func, n_prob)
    print("[criterion 2] PASS: verdict matches the coverage rule on all 24 cases")


def test_criterion_3_classification_replay(tmp_path):
    project = copy_sample_project(tmp_path)
    report, _ = run_sample(project)
    assert report.failed == []

    joined = project / "B_Requirements" / "results" / "joined"
    with open(joined / "b_classify_requirements_joined.csv", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 10
    for row in rows:
        function, rtype, confidence = REPLAY_VERDICTS[row["ReqID"]]
        assert row["Function"] == function, row["ReqID"]
        assert row["Type"] == rtype, row["ReqID"]
        assert int(row["Confidence"]) == confidence, row["ReqID"]
    print("[criterion 3] PASS: mock replay reproduces all ten classifications")


def test_criterion_4_pair_detection_rates():
    gold8 = GoldPairs(
        kind="Duplicate",
        pairs=frozenset((f"a{i:02d}", f"b{i:02d}") for i in range(8)),
    )
    hits = [
        PairFinding(f"a{i:02d}", f"b{i:02d}", "Duplicate", "NAV", "") for i in range(8)
    ]

    three_of_eight = score(hits[:3], gold8)
    assert (three_of_eight.detected_true, three_of_eight.gold_total) == (3, 8)
    assert three_of_eight.rate == 37.50
    assert three_of_eight.meets_target is False

    seven_of_eight = score(hits[:7], gold8)
    assert seven_of_eight.rate == 87.50
    assert seven_of_eight.meets_target is True

    gold9 = GoldPairs(
        kind="Duplicate",
        pairs=frozenset((f"a{i:02d}", f"b{i:02d}") for i in range(9)),
    )
    extra = PairFinding("x01", "x02", "Duplicate", "NAV", "")
    seven_of_nine = score(hits[:7] + [extra], gold9)
    assert abs(seven_of_nine.rate - 77.78) <= 0.05
    assert seven_of_nine.false_positive == 1
    assert seven_of_nine.meets_target is False
    print("[criterion 4] PASS: detection rates come out at 37.50, 87.50 and 77.78")


def test_criterion_5_architecture_ingestion():
    graph = parse_opl((DATA / "pipeline_metamodel.opl").read_text(encoding="utf-8"))
    assert graph.warnings == []
    assert graph.things  # parsed, resolved, nothing dropped

    hints = json.loads((DATA / "drone_alias_hints.json").read_text(encoding="utf-8"))
    catalog = extract_catalog(
        parse_opl((DATA / "drone.opl").read_text(encoding="utf-8")), alias_hints=hints
    )
    aliases = {entry.alias for entry in catalog.entries}
    assert aliases == {"NAV", "EN", "TD", "RD", "PEA", "_OF_", "AF", "CTRL", "MNTR"}
    print("[criterion 5] PASS: both architecture models ingest cleanly")


def test_criterion_6_delta_reuse_and_force(tmp_path):
    project = copy_sample_project(tmp_path)
    results_dir = project / "B_Requirements" / "results"

    first, backend = run_sample(project)
    assert first.failed == []
    assert backend.calls == 8
    snapshot = tree_bytes(results_dir)

    second, backend = run_sample(project)
    assert backend.calls == 0
    assert tree_bytes(results_dir) == snapshot
    statuses = {r.name: r.status for r in second.results}
    assert statuses["b_classify_requirements"] == "Skipped"
    assert statuses["d_identify_duplicates"] == "Skipped"
    assert statuses["e_identify_contradictions"] == "Skipped"

    third, backend = run_sample(project, force=True)
    assert backend.calls == 8
    assert [r.status for r in third.results] == ["Succeeded"] * 4
    assert tree_bytes(results_dir) == snapshot
    print("[criterion 6] PASS: delta re-run is free and byte-identical; force re-executes")


def test_criterion_7_chunked_run_stability(tmp_path):
    joined_tables = []
    for attempt in range(3):
        root = tmp_path / f"run_{attempt}"
        chunks = make_chunked_project(root)
        assert chunks == 11

        backend = CountingBackend(MockBackend(root / "fixtures"))
        report = run_all(root / "params.json", backend=backend, version_tag="ACC")
        assert report.failed == []
        assert backend.calls == 11
        joined_tables.append(
            (root / "results" / "joined" / "a_classify_joined.csv").read_bytes()
        )

        quarantine = json.loads(
            (root / "results" / "quarantine" / "a_classify_ACC.json").read_text(
                encoding="utf-8"
            )
        )
        assert [entry["record"]["ReqID"] for entry in quarantine] == ["9999"]
        assert "unknown ReqID" in quarantine[0]["reason"]

    assert joined_tables[0] == joined_tables[1] == joined_tables[2]
    with open(tmp_path / "run_0" / "results" / "joined" / "a_classify_joined.csv",
              encoding="utf-8") as handle:
        ids = [row["ReqID"] for row in csv.DictReader(handle)]
    assert ids == [str(5000 + serial) for serial in range(110)]
    assert "9999" not in ids
    print("[criterion 7] PASS: three chunked runs agree byte for byte")


def test_criterion_8_metric_gate():
    rows = metrics_summary({"classification": 82.72, "stability": 71.43})
    by_name = {row.metric: row for row in rows}
    assert by_name["classification"].passed is True
    assert by_name["stability"].passed is False
    # The comparison is strictly greater: sitting on the threshold fails.
    (at_threshold,) = metrics_summary({"classification": 80.0})
    assert at_threshold.passed is False
    print("[criterion 8] PASS: metric gate passes 82.72 and fails 71.43")
