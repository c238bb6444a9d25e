"""Classification record validation and self-scoring metrics."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safereq import (
    CATCH_ALL_ALIAS,
    FLAG_LOW_CONFIDENCE,
    FLAG_REMAPPED,
    FLAG_UNRETURNED,
    OTHER_TYPE,
    ClassifiedRequirement,
    LlmRequestParams,
    Requirement,
    accuracy,
    build_classification_prompt,
    catalog_from_alias_map,
    chunk,
    classify,
    consistency,
    render_results,
    validate_records,
)
from safereq.errors import MismatchedIdSetsError


def small_catalog():
    return catalog_from_alias_map(
        {
            "NAV": "Drone/Navigation/Navigating",
            "EN": "Drone/Engine/Power Generating",
            "_OF_": "Other Function",
        }
    )


def reqs(*ids):
    return [Requirement(req_id=i, text=f"The system shall {i}.") for i in ids]


def record(rid, function="NAV", rtype="FUNC", confidence=90, **extra):
    base = {
        "ReqID": rid,
        "Function": function,
        "Type": rtype,
        "Confidence": confidence,
        "System_Requirement": f"The drone shall {rid}.",
        "Function_Explanation": "because",
        "Type_Explanation": "because",
    }
    base.update(extra)
    return base


def row(rid, function="NAV", rtype="FUNC", confidence=90):
    return ClassifiedRequirement(
        req_id=rid, function=function, rtype=rtype, confidence=confidence
    )


# ---------------------------------------------------------------------------
# validate_records
# ---------------------------------------------------------------------------


def test_validated_rows_align_one_to_one_with_inputs():
    outcome = validate_records(
        [record("2", function="EN", rtype="PROB"), record("1")],
        reqs("1", "2"),
        small_catalog(),
    )
    assert [r.req_id for r in outcome.rows] == ["1", "2"]
    assert outcome.rows[1].function == "EN"
    assert outcome.rows[1].rtype == "PROB"
    assert outcome.quarantined == []


def test_unknown_req_id_is_quarantined():
    outcome = validate_records(
        [record("1"), record("999")], reqs("1"), small_catalog()
    )
    assert len(outcome.rows) == 1
    assert len(outcome.quarantined) == 1
    assert "999" in outcome.quarantined[0][1]


def test_repeated_req_id_keeps_first_and_quarantines_second():
    outcome = validate_records(
        [record("1", function="NAV"), record("1", function="EN")],
        reqs("1"),
        small_catalog(),
    )
    assert outcome.rows[0].function == "NAV"
    assert len(outcome.quarantined) == 1
    assert "repeated" in outcome.quarantined[0][1]


def test_unreturned_requirement_gets_placeholder_row():
    outcome = validate_records([record("1")], reqs("1", "2"), small_catalog())
    placeholder = outcome.rows[1]
    assert placeholder.req_id == "2"
    assert placeholder.function == CATCH_ALL_ALIAS
    assert placeholder.rtype == OTHER_TYPE
    assert placeholder.confidence == 0
    assert placeholder.system_requirement == "The system shall 2."
    assert set(placeholder.flags) == {FLAG_LOW_CONFIDENCE, FLAG_UNRETURNED}


def test_unknown_alias_remaps_to_catch_all_with_flag():
    outcome = validate_records(
        [record("1", function="ZZZ")], reqs("1"), small_catalog()
    )
    assert outcome.rows[0].function == CATCH_ALL_ALIAS
    assert FLAG_REMAPPED in outcome.rows[0].flags


def test_invalid_type_coerces_to_other_type():
    outcome = validate_records(
        [record("1", rtype="Functional")], reqs("1"), small_catalog()
    )
    assert outcome.rows[0].rtype == OTHER_TYPE


def test_type_comparison_is_case_insensitive():
    outcome = validate_records(
        [record("1", rtype="func")], reqs("1"), small_catalog()
    )
    assert outcome.rows[0].rtype == "FUNC"


def test_confidence_clamped_and_low_confidence_flagged():
    outcome = validate_records(
        [
            record("1", confidence=150),
            record("2", confidence=-5),
            record("3", confidence=79),
            record("4", confidence=80),
            record("5", confidence="not a number"),
            record("6", confidence=float("inf")),
            record("7", confidence="-inf"),
            record("8", confidence="1e999"),
        ],
        reqs("1", "2", "3", "4", "5", "6", "7", "8"),
        small_catalog(),
    )
    by_id = {r.req_id: r for r in outcome.rows}
    assert by_id["1"].confidence == 100
    assert by_id["2"].confidence == 0
    assert FLAG_LOW_CONFIDENCE in by_id["2"].flags
    assert FLAG_LOW_CONFIDENCE in by_id["3"].flags
    assert FLAG_LOW_CONFIDENCE not in by_id["4"].flags
    # Non-numeric and non-finite confidences alike read as 0.
    for rid in "5678":
        assert by_id[rid].confidence == 0
        assert FLAG_LOW_CONFIDENCE in by_id[rid].flags


def test_a_missing_blank_or_null_system_requirement_falls_back_to_the_requirement_text():
    without = record("1")
    del without["System_Requirement"]
    outcome = validate_records(
        [
            without,
            record("2", System_Requirement=None, Function_Explanation=None),
            record("3", System_Requirement="  ", Type_Explanation=None),
            record("4"),
        ],
        reqs("1", "2", "3", "4"),
        small_catalog(),
    )
    assert [r.system_requirement for r in outcome.rows] == [
        "The system shall 1.",
        "The system shall 2.",
        "The system shall 3.",
        "The drone shall 4.",
    ]
    assert outcome.rows[1].function_explanation == ""
    assert outcome.rows[2].type_explanation == ""
    assert outcome.rows[3].function_explanation == "because"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_FIELD_VALUES = (
    st.sampled_from(["1", " 2 ", "3", "NAV", "EN", "func", "inf", "-inf", "1e999", "nan"])
    | _JSON_VALUES
)
_RECORDS = st.fixed_dictionaries(
    {},
    optional={
        key: _FIELD_VALUES
        for key in (
            "ReqID",
            "Function",
            "Type",
            "Confidence",
            "System_Requirement",
            "System Requirement",
            "Function_Explanation",
            "Type_Explanation",
        )
    },
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_RECORDS, max_size=8),
    st.lists(st.sampled_from(["1", "2", "3", "4"]), unique=True, max_size=4),
)
def test_validate_records_is_total_on_any_record_list(records, ids):
    outcome = validate_records(records, reqs(*ids), small_catalog())
    assert [r.req_id for r in outcome.rows] == ids
    assert all(0 <= r.confidence <= 100 for r in outcome.rows)
    # Each record fills the row of its id, or is quarantined: never both, never neither.
    used = {str(r.get("ReqID", "")).strip() for r in records} & set(ids)
    assert len(records) == len(used) + len(outcome.quarantined)


# ---------------------------------------------------------------------------
# classify end to end (mock backend via scripted fake)
# ---------------------------------------------------------------------------


class ScriptedBackend:
    def __init__(self, responses):
        self.responses = list(responses)
        self.call_count = 0

    def complete(self, prompt, params):
        self.call_count += 1
        return self.responses.pop(0), {}


def test_classify_sends_one_prompt_per_chunk_and_merges():
    inputs = reqs("1", "2", "3")
    chunks = chunk(inputs, 2)
    backend = ScriptedBackend(
        [
            render_results([record("1"), record("2", function="EN")]),
            render_results([record("3", function="ZZZ")]),
        ]
    )
    catalog = small_catalog()
    template = build_classification_prompt(catalog, "Classify these.")
    # ScriptedBackend answers by call order, so calls must stay sequential.
    outcome = classify(chunks, template, catalog, LlmRequestParams(max_concurrency=1), backend)
    assert backend.call_count == 2
    assert [r.req_id for r in outcome.rows] == ["1", "2", "3"]
    assert outcome.rows[2].function == CATCH_ALL_ALIAS


class RowEchoBackend:
    """Answers each prompt from its own dataset rows.

    Each row's text names what comes back for it, so the answers depend
    on the rows alone and not on how they were chunked.
    """

    def complete(self, prompt, params):
        records = []
        for line in prompt.splitlines():
            if not line.startswith('{"ReqID": '):
                continue
            row = json.loads(line)
            rid, how = row["ReqID"], row["Requirement"]
            good = record(rid)
            records += {
                "ok": [good],
                "remapped": [record(rid, function="ZZZ")],
                "omitted": [],
                "repeated": [good, record(rid, rtype="PROB")],
                "stray": [good, record(rid + "x")],
                "no_id": [record("")],
                "bad_confidence": [record(rid, confidence="high")],
            }[how]
        return render_results(records), {}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            ["ok", "remapped", "omitted", "repeated", "stray", "no_id", "bad_confidence"]
        ),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=1, max_value=13),
)
def test_classify_gives_the_same_rows_and_quarantine_for_any_chunk_size(behaviours, size):
    inputs = [Requirement(req_id=str(i), text=how) for i, how in enumerate(behaviours)]
    catalog = small_catalog()
    template = build_classification_prompt(catalog, "Classify these.")
    params = LlmRequestParams(max_concurrency=1)
    whole = classify(chunk(inputs, len(inputs)), template, catalog, params, RowEchoBackend())
    chunked = classify(chunk(inputs, size), template, catalog, params, RowEchoBackend())
    assert chunked == whole
    assert [r.req_id for r in whole.rows] == [req.req_id for req in inputs]


# ---------------------------------------------------------------------------
# consistency
# ---------------------------------------------------------------------------


def test_consistency_reproduces_published_stability_rate():
    # Three runs over 42 requirements; 30 ids keep one function label
    # across all three, 12 flip somewhere.
    ids = [str(i) for i in range(42)]
    run_a = [row(i, function="NAV") for i in ids]
    run_b = [
        row(i, function="NAV" if int(i) < 36 else "EN") for i in ids
    ]
    run_c = [
        row(i, function="NAV" if (int(i) < 30 or int(i) >= 36) else "EN")
        for i in ids
    ]
    assert consistency([run_a, run_b, run_c]) == 71.43


def test_consistency_strict_also_compares_types():
    run_a = [row("1", rtype="FUNC"), row("2", rtype="FUNC")]
    run_b = [row("1", rtype="PROB"), row("2", rtype="FUNC")]
    assert consistency([run_a, run_b]) == 100.0
    assert consistency([run_a, run_b], strict=True) == 50.0


def test_consistency_against_reference():
    runs = [[row("1", function="NAV"), row("2", function="EN")]]
    reference = [row("1", function="NAV"), row("2", function="NAV")]
    assert consistency(runs, reference=reference) == 50.0


def test_consistency_errors():
    with pytest.raises(ValueError):
        consistency([[row("1")]])
    with pytest.raises(MismatchedIdSetsError):
        consistency([[row("1")], [row("2")]])


def test_consistency_matches_bruteforce_on_random_runs():
    rng = random.Random(99)
    ids = [str(i) for i in range(20)]
    for _ in range(50):
        runs = [
            [row(i, function=rng.choice("AB"), rtype="FUNC") for i in ids]
            for _ in range(3)
        ]
        labels = [{r.req_id: r.function for r in run} for run in runs]
        agree = sum(
            1 for i in ids if len({m[i] for m in labels}) == 1
        )
        expected = round(100 * agree / len(ids), 2)  # no .5 ties possible at /20
        assert consistency(runs) == expected


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------


def test_accuracy_function_and_type():
    rows = [row("1", "NAV", "FUNC"), row("2", "EN", "PROB"), row("3", "EN", "FUNC")]
    gold = {"1": ("NAV", "FUNC"), "2": ("EN", "FUNC"), "3": ("EN", "FUNC")}
    assert accuracy(rows, gold) == 66.67
    assert accuracy(rows, gold, include_type=False) == 100.0


def test_accuracy_reproduces_published_accuracy_shape():
    # 67 matches out of 81 rows rounds half-up to 82.72.
    rows = [
        row(str(i), "NAV" if i < 67 else "EN", "FUNC") for i in range(81)
    ]
    gold = {str(i): ("NAV", "FUNC") for i in range(81)}
    assert accuracy(rows, gold) == 82.72


def test_accuracy_requires_matching_id_sets():
    with pytest.raises(MismatchedIdSetsError):
        accuracy([row("1")], {"2": ("NAV", "FUNC")})
    with pytest.raises(ValueError):
        accuracy([], {})
