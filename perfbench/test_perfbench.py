"""Quick tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import ingest  # noqa: E402
import pytest  # noqa: E402
import tracer as tracing  # noqa: E402
from echo import EchoBackend  # noqa: E402
from workload import (  # noqa: E402
    CONFIG_JSON,
    INSTRUCTIONS,
    REPORTS_DIR,
    VERSION_TAG,
    Spec,
    generate,
    write_project,
)

from safereq import orchestrator, run_all  # noqa: E402
from safereq.catalog import FunctionCatalog  # noqa: E402
from safereq.classify import CLASSIFICATION_RESULT_SCHEMA  # noqa: E402
from safereq.gateway import (  # noqa: E402
    LlmRequestParams,
    PromptEnvelope,
    RecordSchema,
    assemble_prompt,
    parse_results_json,
    send,
)
from safereq.pairwise import CONTRADICTION_PROMPT, DUPLICATE_PROMPTS  # noqa: E402

SMALL = Spec(requirements=240, functions=24, latency_s=0.0, rerun=False)
PAIR_SCHEMA = RecordSchema(required=("ReqID_A", "ReqID_B"))


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_a_function_of_the_seed(tmp_path):
    for seed, name in ((7, "a"), (7, "b"), (8, "c")):
        write_project(generate(SMALL, seed), tmp_path / name)
    assert generate(SMALL, 7) == generate(SMALL, 7)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    other = _files(tmp_path / "c")
    assert other.keys() == _files(tmp_path / "a").keys()
    assert other["B/input/requirements.csv"] != _files(tmp_path / "a")["B/input/requirements.csv"]
    assert other["architecture.opl"] != _files(tmp_path / "a")["architecture.opl"]


def test_seed_changes_content_but_not_prompt_shape():
    a, b = generate(SMALL, 1), generate(SMALL, 2)
    assert [p.function for p in a.requirements] != [p.function for p in b.requirements]

    def shape(w):
        sizes = {}
        for p in w.requirements:
            sizes[p.function] = sizes.get(p.function, 0) + 1
        return (
            sorted(sizes.values()),
            {len(p.text) for p in w.requirements},
            {len(p.system_requirement) for p in w.requirements},
            sorted(len(v) for v in w.catalog.values()),
            len(w.duplicates),
            len(w.contradictions),
        )

    assert shape(a) == shape(b)
    assert len(shape(a)[1]) == len(shape(a)[2]) == 1


def _chunk_prompt(workload, rows) -> str:
    return assemble_prompt(
        PromptEnvelope(
            instructions=INSTRUCTIONS,
            dataset_name="Safety Requirements",
            rows=tuple((p.req_id, p.text) for p in rows),
        )
    )


def test_echo_answers_parse_with_the_classification_schema():
    workload = generate(SMALL, 3)
    echo = EchoBackend(workload)
    rows = workload.requirements[:10]
    result = send(_chunk_prompt(workload, rows), LlmRequestParams(), echo)
    parsed = parse_results_json(result.raw_text, schema=CLASSIFICATION_RESULT_SCHEMA)
    assert not parsed.rejected
    assert [(r["ReqID"], r["Function"], r["Type"]) for r in parsed.records] == [
        (p.req_id, p.function, p.rtype) for p in rows
    ]
    assert echo.call_count == 1 and echo.prompt_bytes > 0


@pytest.mark.parametrize("kind", ["duplicates", "contradictions"])
def test_echo_answers_parse_with_the_pair_schema(kind):
    workload = generate(SMALL, 3)
    echo = EchoBackend(workload)
    planted = workload.duplicates if kind == "duplicates" else workload.contradictions
    alias = next(iter(planted))[2]
    rows = [p for p in workload.requirements if p.function == alias]
    instructions = DUPLICATE_PROMPTS["V3"] if kind == "duplicates" else CONTRADICTION_PROMPT
    prompt = assemble_prompt(
        PromptEnvelope(
            instructions=instructions,
            dataset_name=f"{alias} Requirements",
            rows=tuple((p.req_id, p.system_requirement) for p in rows),
        )
    )
    parsed = parse_results_json(echo.complete(prompt, LlmRequestParams())[0], schema=PAIR_SCHEMA)
    assert not parsed.rejected
    assert {(r["ReqID_A"], r["ReqID_B"]) for r in parsed.records} == {
        (a, b) for a, b, f in planted if f == alias
    }


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a: the two cover [1, 6]
        ["c", 2.0, 3.0, 1],
        ["root", 20.0, 21.0, -1],
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 3.0, 1.0, 1.0]
    assert tracing.table(spans) == [
        ("root", 2, 11.0, 6.0),
        ("b", 1, 3.0, 3.0),
        ("a", 1, 3.0, 2.0),
        ("c", 1, 1.0, 1.0),
    ]


def test_uninstall_restores_every_traced_function():
    echo = EchoBackend(generate(SMALL, 1))
    before = {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install(echo)
    assert orchestrator.send is not before[(orchestrator, "send")]
    assert "complete" in vars(echo)
    tracer.uninstall()
    assert {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in tracing.TARGETS} == before
    assert "complete" not in vars(echo)
    assert FunctionCatalog.has_alias is before[(FunctionCatalog, "has_alias")]
    assert not tracer.missing


def _project(tmp_path, workload) -> Path:
    project = tmp_path / "project"
    write_project(workload, project)
    ingest.main(project)
    return project


def test_gate_passes_on_a_traced_run_and_self_times_cover_it(tmp_path):
    workload = generate(SMALL, 5)
    project = _project(tmp_path, workload)
    echo = EchoBackend(workload)
    tracer = tracing.Tracer()
    tracer.install(echo)
    root = tracer.open("orchestrator.run_all")
    report = run_all(project / CONFIG_JSON, backend=echo, force=True, version_tag=VERSION_TAG)
    tracer.close(root)
    tracer.uninstall()

    assert not report.failed
    assert checks.reports(workload, project / REPORTS_DIR) == []
    run_span = tracer.spans[root]
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(run_span[2] - run_span[1])
    layers = tracing.layer_metrics(tracer)
    assert layers["gateway.calls"] == echo.call_count > 0
    assert layers["gateway.parses_per_call"] == 2.0
    assert layers["catalog.lookup_calls"] == 3 * SMALL.requirements


def test_gate_catches_a_wrong_label(tmp_path):
    workload = generate(SMALL, 5)
    project = _project(tmp_path, workload)
    echo = EchoBackend(workload)
    victim = workload.requirements[0]
    wrong_type = "PROB" if victim.rtype != "PROB" else "FUNC"
    echo.labels = {**echo.labels, victim.req_id: dataclasses.replace(victim, rtype=wrong_type)}
    run_all(project / CONFIG_JSON, backend=echo, force=True, version_tag=VERSION_TAG)
    problems = checks.reports(workload, project / REPORTS_DIR)
    assert any(p.startswith("classification: 1 wrong labels") for p in problems)
    assert any(p.startswith("coverage:") for p in problems)
    assert any(p.startswith("metrics:") for p in problems)
