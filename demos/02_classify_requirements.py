"""Classifying stakeholder requirements through the gateway.

Loads the sample project's requirement CSV, builds the prompt template
the pipeline would use, classifies every chunk through classify(), which
replays the canned mock responses, and shows the validated rows.
"""

import json
from pathlib import Path

from safereq import (
    CountingBackend,
    LlmRequestParams,
    MockBackend,
    PromptEnvelope,
    PromptResource,
    assemble_prompt,
    catalog_from_mapping,
    chunk,
    classify,
    load_requirements,
)

REPO = Path(__file__).resolve().parent.parent
PROJECT = REPO / "sample_project"


def main():
    requirements = load_requirements(
        PROJECT / "B_Requirements" / "input" / "safety_requirements.csv",
        "ReqID",
        ["Requirements"],
    )
    print("loaded", len(requirements), "requirements")

    resources = json.loads(
        (PROJECT / "B_Requirements" / "data_dictionary.json").read_text(encoding="utf-8")
    )
    catalog = catalog_from_mapping(resources["ARCHITECTURE"])
    instructions = (PROJECT / "B_Requirements" / "instructions.txt").read_text(
        encoding="utf-8"
    )

    backend = CountingBackend(MockBackend(PROJECT / "fixtures"))
    params = LlmRequestParams(model_id="gpt-4")

    template = PromptEnvelope(
        instructions=instructions,
        resources=tuple(PromptResource(tag=key, body=body) for key, body in resources.items()),
        dataset_name="Drone Safety Requirements",
    )
    print("\nprompt head:")
    for line in assemble_prompt(template).splitlines()[:3]:
        print(" ", line)

    outcome = classify(chunk(requirements, 10), template, catalog, params, backend)
    print("backend calls:", backend.calls)
    print("\nclassified rows:")
    print(f"  {'ReqID':6} {'Function':9} {'Type':5} {'Conf':4} flags")
    for row in outcome.rows:
        print(
            f"  {row.req_id:6} {row.function:9} {row.rtype:5} "
            f"{row.confidence:4} {'|'.join(row.flags)}"
        )
    print("quarantined:", len(outcome.quarantined))


if __name__ == "__main__":
    main()
