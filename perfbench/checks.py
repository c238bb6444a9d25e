"""Correctness gate: the pipeline's outputs against the planted truth.

Every check returns a list of problems; an empty list means it passed.
The counts are computed here from the planted labels, independently of
safereq.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from workload import COVERAGE_TASK, VERSION_TAG, Workload

# Report-set digest of sample_project/params.json on the mock backend
# (version tag "bench"), recorded at the commit that added the benchmark.
SAMPLE_REPORT_SHA256 = {
    "allocation_bench.csv": "7a439d3ad075450e657fd464375c4bf0c71d392706c950ee1270ce5d08ab81f7",
    "allocation_bench.json": "a89852250080165635f1ab283771d888c325fbdc34ba6bb0efa33153d697a64c",
    "classification_bench.csv": "9ef52023771cf352dccf824a80c4d1212ab876f795f6057958f79caaafdccbe0",
    "classification_bench.json": "da6ae8df412ccde5c72b6c96be2b0d566ba03770a583f19c05665931774f4abb",
    "contradictions_bench.csv": "4a719b17b3cf7cd8cc94cbdef028aa943853a47623f293ab193c34315e672566",
    "contradictions_bench.json": "8e47075c7bde5670ebf4dcbf30273e9b0b89a6bb29e2f0a099dbe09ba9ee1c60",
    "coverage_bench.csv": "21c616f498ac4acb3e69e3783d738da5a8cd5b452603e59f8b1c7540ea2848d8",
    "duplicates_bench.csv": "e7b047d1dc3b056ed14a88591fa54ad8e4c9ff05e50f6a52238f839f861fb196",
    "duplicates_bench.json": "d9b18c926606b38587c5a1f4fd375a1be4ff367b2e4d833107ecb893fb4b9360",
    "summary_bench.md": "f95e5d6949f5d30dc74208c77cd267a7ee4a0939a944a9c8a57f97f5ee9c494a",
}

MIN_FUNCTIONAL, MIN_PROBABILISTIC = 3, 1  # coverage rule of the paper


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def classification(workload: Workload, reports: Path) -> list[str]:
    rows = _rows(reports / f"classification_{VERSION_TAG}.csv")
    labels = workload.labels
    ids = [row["ReqID"] for row in rows]
    problems = []
    if len(ids) != len(set(ids)):
        problems.append("classification: some requirement is reported twice")
    if set(ids) != set(labels):
        problems.append(
            f"classification: {len(set(labels) - set(ids))} requirements missing, "
            f"{len(set(ids) - set(labels))} unknown"
        )
    wrong = [
        row["ReqID"]
        for row in rows
        if row["ReqID"] in labels
        and (row["Function"], row["Type"])
        != (labels[row["ReqID"]].function, labels[row["ReqID"]].rtype)
    ]
    if wrong:
        problems.append(f"classification: {len(wrong)} wrong labels, first {wrong[0]}")
    return problems


def coverage(workload: Workload, reports: Path) -> list[str]:
    counts = {alias: [0, 0, 0] for alias in workload.catalog}
    for planted in workload.requirements:
        counts[planted.function][{"FUNC": 0, "PROB": 1}.get(planted.rtype, 2)] += 1
    want = {
        alias: [
            workload.catalog[alias],
            *map(str, n),
            "Complete" if n[0] >= MIN_FUNCTIONAL and n[1] >= MIN_PROBABILISTIC else "Missing",
        ]
        for alias, n in counts.items()
    }
    totals = [str(sum(n[k] for n in counts.values())) for k in range(3)]
    rows = _rows(reports / f"coverage_{VERSION_TAG}.csv")
    got = {
        row["Function"]: [row[k] for k in ("Lineage", "N_FUNC", "N_PROB", "N_OTHER", "Verdict")]
        for row in rows
        if row["Function"] != "TOTAL"
    }
    problems = []
    if got != want:
        bad = sorted(a for a in set(got) | set(want) if got.get(a) != want.get(a))
        problems.append(f"coverage: {len(bad)} functions differ, first {bad[0]}")
    total = [[row["N_FUNC"], row["N_PROB"], row["N_OTHER"]] for row in rows if row["Function"] == "TOTAL"]
    if total != [totals]:
        problems.append(f"coverage: totals {total} differ from planted {totals}")
    return problems


def _findings(path: Path) -> tuple[list[tuple[str, str, str, str]], list[str]]:
    found = [(r["ReqID_A"], r["ReqID_B"], r["Relation"], r["Function"]) for r in _rows(path)]
    return found, ([] if len(found) == len(set(found)) else [f"{path.name}: repeated findings"])


def findings(workload: Workload, reports: Path) -> list[str]:
    problems = []
    for stem, want in (
        (
            "duplicates",
            {(a, b, "Duplicate", f) for a, b, f in workload.duplicates}
            | {(a, b, "Refinement", f) for a, b, f in workload.refinements},
        ),
        ("contradictions", {(a, b, "Contradiction", f) for a, b, f in workload.contradictions}),
    ):
        found, repeated = _findings(reports / f"{stem}_{VERSION_TAG}.csv")
        problems += repeated
        if set(found) != want:
            problems.append(
                f"{stem}: {len(want - set(found))} planted pairs missing, "
                f"{len(set(found) - want)} extra"
            )
    return problems


def scores(reports: Path) -> list[str]:
    """Gold labels are the planted truth, so every metric must read 100."""
    metrics = json.loads((reports / f"metrics_{VERSION_TAG}.json").read_text(encoding="utf-8"))
    got = {m["metric"]: (m["value"], m["passed"]) for m in metrics["metrics"]}
    want = {name: (100.0, True) for name in ("classification", "duplicates", "contradictions")}
    return [] if got == want else [f"metrics: {got} differ from {want}"]


def reports(workload: Workload, directory: Path) -> list[str]:
    """Every check on one report set."""
    return (
        classification(workload, directory)
        + coverage(workload, directory)
        + findings(workload, directory)
        + scores(directory)
    )


def runs(measured: list[dict], rerun: bool, reference: dict | None) -> list[str]:
    """Task outcomes, exact repetition, and byte-identical report sets."""
    problems = []
    for i, run in enumerate(measured):
        for name, status, detail in run["statuses"]:
            want = "Succeeded"
            if rerun and name != COVERAGE_TASK:
                want = "Skipped"
                if not detail.startswith("delta"):
                    problems.append(f"run {i}: {name} was not served from delta: {detail}")
            if status != want:
                problems.append(f"run {i}: {name} {status}, expected {want}: {detail}")
        if run["backend_failures"]:
            problems.append(f"run {i}: {run['backend_failures']} backend calls failed")
        if rerun and run["calls"]:
            problems.append(f"run {i}: a delta rerun made {run['calls']} backend calls")
    for key in ("calls", "prompt_bytes", "reports"):
        if any(run[key] != measured[0][key] for run in measured):
            problems.append(f"{key} differ between runs of one seed")
    if reference is not None and measured[0]["reports"] != reference["reports"]:
        problems.append("the delta rerun's report set differs from the cold run's")
    return problems


def sample_project(digest: dict[str, str]) -> list[str]:
    if digest == SAMPLE_REPORT_SHA256:
        return []
    changed = sorted(
        name
        for name in set(digest) | set(SAMPLE_REPORT_SHA256)
        if digest.get(name) != SAMPLE_REPORT_SHA256.get(name)
    )
    return [f"sample project: report files differ from the recorded digest: {changed}"]
