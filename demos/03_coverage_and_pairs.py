"""Coverage sufficiency, duplicates and contradictions.

Re-runs the sample project's mock classification, then drives the three
downstream analyses: per-function coverage verdicts with gap ranking,
duplicate detection over function clusters, and contradiction detection
over the consolidated clusters.
"""

import json
from pathlib import Path

from safereq import (
    CountingBackend,
    LlmRequestParams,
    MockBackend,
    PromptEnvelope,
    PromptResource,
    build_matrix,
    catalog_from_mapping,
    chunk,
    classify,
    cluster_by_function,
    detect_contradictions,
    detect_duplicates,
    gap_ranking,
    load_requirements,
)

REPO = Path(__file__).resolve().parent.parent
PROJECT = REPO / "sample_project"


def classify_sample(backend, params, catalog, resources):
    requirements = load_requirements(
        PROJECT / "B_Requirements" / "input" / "safety_requirements.csv",
        "ReqID",
        ["Requirements"],
    )
    template = PromptEnvelope(
        instructions=(PROJECT / "B_Requirements" / "instructions.txt").read_text(
            encoding="utf-8"
        ),
        resources=tuple(PromptResource(tag=key, body=body) for key, body in resources.items()),
        dataset_name="Drone Safety Requirements",
    )
    return classify(chunk(requirements, 10), template, catalog, params, backend).rows


def main():
    resources = json.loads(
        (PROJECT / "B_Requirements" / "data_dictionary.json").read_text(encoding="utf-8")
    )
    catalog = catalog_from_mapping(resources["ARCHITECTURE"])
    backend = CountingBackend(MockBackend(PROJECT / "fixtures"))
    params = LlmRequestParams(model_id="gpt-4")

    classified = classify_sample(backend, params, catalog, resources)
    print("classified", len(classified), "requirements")

    matrix = build_matrix(classified, catalog)
    print("\ncoverage matrix (a function needs 3 FUNC and 1 PROB):")
    print(f"  {'alias':6} {'FUNC':4} {'PROB':4} {'OTHER':5} verdict")
    for row in matrix.rows:
        print(f"  {row.alias:6} {row.n_func:4} {row.n_prob:4} {row.n_other:5} {row.verdict}")

    print("\ngap ranking (largest shortfall first):")
    for row, missing in gap_ranking(matrix):
        print(f"  {row.alias:6} short by {missing}")

    clusters = cluster_by_function(classified, catalog)
    duplicates = detect_duplicates(clusters, params, backend, prompt_version="V3")
    print("\nduplicate findings:")
    for finding in duplicates.findings:
        print(f"  {finding.req_a} ~ {finding.req_b}: {finding.kind} ({finding.function})")

    contradictions = detect_contradictions(
        clusters, params, backend, duplicates=duplicates.findings
    )
    print("\ncontradiction findings:")
    for finding in contradictions.findings:
        print(f"  {finding.req_a} ~ {finding.req_b}: {finding.kind} ({finding.function})")

    print("\nbackend calls in total:", backend.calls)


if __name__ == "__main__":
    main()
