"""Duplicate and contradiction detection over function clusters."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safereq import (
    CATCH_ALL_ALIAS,
    CONTRADICTION_PROMPT,
    DUPLICATE_PROMPTS,
    KIND_COMPLEMENTARY,
    KIND_CONTRADICTION,
    KIND_DUPLICATE,
    KIND_REFINEMENT,
    ClassifiedRequirement,
    GoldPairs,
    LlmRequestParams,
    PairFinding,
    catalog_from_alias_map,
    cluster_by_function,
    consolidate,
    detect_contradictions,
    detect_duplicates,
    load_gold_pairs,
    score,
)
from safereq import pairwise
from test_classify import render_results
from safereq.errors import (
    AliasClosureViolationError,
    BlankReqIdError,
    EmptyGoldError,
    FindingConflictError,
    MissingColumnError,
    SelfPairError,
)

# CaptureBackend answers by call order, so calls must stay sequential.
PARAMS = LlmRequestParams(max_concurrency=1)


def crow(rid, alias, text=None):
    return ClassifiedRequirement(
        req_id=rid,
        function=alias,
        rtype="FUNC",
        confidence=90,
        system_requirement=text or f"The system shall {rid}.",
    )


def pair_record(a, b, relation, rationale="because"):
    return {"ReqID_A": a, "ReqID_B": b, "Relation": relation, "Rationale": rationale}


class CaptureBackend:
    """Returns one scripted response per call and keeps every prompt."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.prompts = []
        self.call_count = 0

    def complete(self, prompt, params):
        self.call_count += 1
        self.prompts.append(prompt)
        return self.responses.pop(0), {}


def empty_results():
    return render_results([])


# ---------------------------------------------------------------------------
# PairFinding canonical form
# ---------------------------------------------------------------------------


def test_pair_finding_orders_ids_canonically():
    finding = PairFinding(req_a="1009", req_b="1004", kind=KIND_DUPLICATE)
    assert finding.req_a == "1004"
    assert finding.req_b == "1009"
    assert finding.pair == ("1004", "1009")
    assert finding == PairFinding(req_a="1004", req_b="1009", kind=KIND_DUPLICATE)


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------


def test_cluster_by_function_uses_catalog_order_and_sorts_ids():
    catalog = catalog_from_alias_map(
        {"NAV": "D/N", "EN": "D/E", CATCH_ALL_ALIAS: "Other Function"}
    )
    rows = [crow("3", "EN"), crow("2", "NAV"), crow("1", "NAV")]
    clusters = cluster_by_function(rows, catalog)
    assert list(clusters) == ["NAV", "EN"]
    assert [r.req_id for r in clusters["NAV"]] == ["1", "2"]


def test_cluster_by_function_without_catalog_keeps_first_seen_order():
    rows = [crow("1", "EN"), crow("2", "NAV"), crow("3", "EN")]
    assert list(cluster_by_function(rows)) == ["EN", "NAV"]


def test_cluster_by_function_rejects_unknown_alias():
    catalog = catalog_from_alias_map({"NAV": "D/N", CATCH_ALL_ALIAS: "Other Function"})
    with pytest.raises(AliasClosureViolationError):
        cluster_by_function([crow("1", "ZZ")], catalog)


# ---------------------------------------------------------------------------
# Duplicate detection
# ---------------------------------------------------------------------------


def test_detect_duplicates_v1_one_call_per_multi_row_cluster():
    clusters = {
        "NAV": [crow("1", "NAV"), crow("2", "NAV")],
        "EN": [crow("3", "EN")],
    }
    backend = CaptureBackend([render_results([pair_record("1", "2", "Duplicate")])])
    result = detect_duplicates(clusters, PARAMS, backend, prompt_version="V1")
    assert backend.call_count == 1  # EN has a single row, nothing to compare
    assert backend.prompts[0].startswith(
        "For all the requirements in the list, mark the duplicate requirements."
    )
    assert "<NAV_Requirements>" in backend.prompts[0]
    assert "[Function: NAV] The system shall 1." in backend.prompts[0]
    (finding,) = result.findings
    assert finding.pair == ("1", "2")
    assert finding.kind == KIND_DUPLICATE
    assert finding.function == "NAV"


def test_detect_duplicates_v1_drops_non_duplicate_relations():
    clusters = {"NAV": [crow("1", "NAV"), crow("2", "NAV")]}
    backend = CaptureBackend(
        [render_results([pair_record("1", "2", "Complementary")])]
    )
    result = detect_duplicates(clusters, PARAMS, backend, prompt_version="V1")
    assert result.findings == []
    assert any("disallowed relation" in n for n in result.notes)


def test_detect_duplicates_drops_unknown_and_degenerate_pairs():
    clusters = {"NAV": [crow("1", "NAV"), crow("2", "NAV")]}
    backend = CaptureBackend(
        [
            render_results(
                [
                    pair_record("1", "1", "Duplicate"),
                    pair_record("1", "77", "Duplicate"),
                    pair_record("1", "2", "Duplicate"),
                ]
            )
        ]
    )
    result = detect_duplicates(clusters, PARAMS, backend, prompt_version="V1")
    assert [f.pair for f in result.findings] == [("1", "2")]
    assert len([n for n in result.notes if "unknown or degenerate" in n]) == 2


def test_detect_duplicates_v3_cosubmits_catch_all_rows():
    clusters = {
        "SUP": [crow("1007", "SUP")],
        CATCH_ALL_ALIAS: [crow("1006", CATCH_ALL_ALIAS)],
    }
    backend = CaptureBackend(
        [render_results([pair_record("1006", "1007", "Refinement")])]
    )
    result = detect_duplicates(clusters, PARAMS, backend, prompt_version="V3")
    # One call: SUP rides with the catch-all rows; the catch-all cluster
    # itself is never submitted alone.
    assert backend.call_count == 1
    assert "<SUP_Requirements>" in backend.prompts[0]
    assert "[Function: _OF_]" in backend.prompts[0]
    (finding,) = result.findings
    assert finding.kind == KIND_REFINEMENT
    assert finding.function == "SUP"


def test_detect_duplicates_v3_builds_each_ride_along_row_once(monkeypatch):
    own = {alias: [crow(f"{alias}{i}", alias) for i in range(3)] for alias in "ABCDE"}
    of_rows = [crow(f"OF{i}", CATCH_ALL_ALIAS) for i in range(7)]
    clusters = {**own, CATCH_ALL_ALIAS: of_rows}
    texts = []
    original = pairwise._row_text

    def counting(row):
        texts.append(row.req_id)
        return original(row)

    monkeypatch.setattr(pairwise, "_row_text", counting)
    backend = CaptureBackend([empty_results()] * len(own))
    detect_duplicates(clusters, PARAMS, backend, prompt_version="V3")
    assert backend.call_count == len(own)
    # Own rows plus k ride-along rows, not own rows plus m jobs times k.
    assert len(texts) == sum(map(len, own.values())) + len(of_rows)
    for prompt in backend.prompts:
        assert all(f'"ReqID": "{row.req_id}"' in prompt for row in of_rows)


@settings(max_examples=100)
@given(
    st.dictionaries(
        st.sampled_from(["NAV", "EN", CATCH_ALL_ALIAS]),
        st.lists(st.sampled_from("123456"), min_size=1, max_size=4, unique=True),
        min_size=1,
    )
)
def test_detect_duplicates_v3_submits_own_rows_then_the_other_of_rows(ids_by_alias):
    """The ride-along skips _OF_ rows whose ids a cluster holds itself."""
    clusters = {alias: [crow(i, alias) for i in ids] for alias, ids in ids_by_alias.items()}
    of_ids = [row.req_id for row in clusters.get(CATCH_ALL_ALIAS, [])]
    expected = []
    for alias, rows in clusters.items():
        if alias == CATCH_ALL_ALIAS:
            continue
        own = [row.req_id for row in rows]
        submitted = own + [i for i in of_ids if i not in own]
        if len(submitted) >= 2:
            expected.append(submitted)
    # Each call reports every pair of the ids it was sent.
    responses = [
        render_results([pair_record(a, b, "Refinement") for a, b in zip(ids, ids[1:])])
        for ids in expected
    ]
    backend = CaptureBackend(responses)
    result = detect_duplicates(clusters, PARAMS, backend, prompt_version="V3")
    sent = [
        [json.loads(line)["ReqID"] for line in prompt.splitlines() if line.startswith("{")]
        for prompt in backend.prompts
    ]
    assert sent == expected
    assert not any("dropped finding" in note for note in result.notes)


def test_detect_duplicates_v2_keeps_catch_all_cluster_standalone():
    clusters = {
        CATCH_ALL_ALIAS: [crow("5", CATCH_ALL_ALIAS), crow("6", CATCH_ALL_ALIAS)],
    }
    backend = CaptureBackend([empty_results()])
    detect_duplicates(clusters, PARAMS, backend, prompt_version="V2")
    assert backend.call_count == 1
    assert "If two requirements are similar but refer to two different functions" in (
        backend.prompts[0]
    )


def test_detect_duplicates_v3_downgrades_cross_function_duplicates():
    clusters = {
        "NAV": [crow("1", "NAV"), crow("2", "NAV")],
        CATCH_ALL_ALIAS: [crow("9", CATCH_ALL_ALIAS)],
    }
    backend = CaptureBackend([render_results([pair_record("1", "9", "Duplicate")])])
    result = detect_duplicates(clusters, PARAMS, backend, prompt_version="V3")
    (finding,) = result.findings
    assert finding.kind == KIND_COMPLEMENTARY
    assert any("downgraded cross-function duplicate" in n for n in result.notes)


def test_detect_duplicates_conflicting_kinds_for_same_pair_raise():
    clusters = {"NAV": [crow("1", "NAV"), crow("2", "NAV")]}
    backend = CaptureBackend(
        [
            render_results(
                [
                    pair_record("1", "2", "Duplicate"),
                    pair_record("2", "1", "Refinement"),
                ]
            )
        ]
    )
    with pytest.raises(FindingConflictError):
        detect_duplicates(clusters, PARAMS, backend, prompt_version="V3")


def test_detect_duplicates_same_pair_same_kind_reported_once():
    clusters = {"NAV": [crow("1", "NAV"), crow("2", "NAV")]}
    backend = CaptureBackend(
        [
            render_results(
                [
                    pair_record("1", "2", "Duplicate"),
                    pair_record("2", "1", "Duplicate"),
                ]
            )
        ]
    )
    result = detect_duplicates(clusters, PARAMS, backend, prompt_version="V1")
    assert len(result.findings) == 1


def test_detect_duplicates_unknown_prompt_version():
    with pytest.raises(ValueError):
        detect_duplicates({}, PARAMS, CaptureBackend([]), prompt_version="V9")


def test_duplicate_prompt_texts_carry_the_escalating_rules():
    base = "For all the requirements in the list, mark the duplicate requirements."
    assert all(p.startswith(base) for p in DUPLICATE_PROMPTS.values())
    assert "two different functions it is not considered duplicate" in (
        DUPLICATE_PROMPTS["V2"]
    )
    assert "they are complementary" in DUPLICATE_PROMPTS["V3"]
    assert "refinement of the top-level requirement" in DUPLICATE_PROMPTS["V3"]
    assert CONTRADICTION_PROMPT.startswith(
        "For all the requirements in the list, mark the contradicting requirements."
    )


# ---------------------------------------------------------------------------
# Consolidation and contradictions
# ---------------------------------------------------------------------------


def test_consolidate_keeps_smallest_id_of_each_duplicate_group():
    clusters = {
        "TD": [crow("1004", "TD"), crow("1005", "TD"), crow("1008", "TD")],
        "EN": [crow("1002", "EN")],
    }
    duplicates = [
        PairFinding(req_a="1004", req_b="1005", kind=KIND_DUPLICATE),
        PairFinding(req_a="1005", req_b="1008", kind=KIND_DUPLICATE),
    ]
    survivors = consolidate(clusters, duplicates)
    assert [r.req_id for r in survivors["TD"]] == ["1004"]
    assert [r.req_id for r in survivors["EN"]] == ["1002"]


def test_consolidate_ignores_non_duplicate_findings_and_drops_empty_clusters():
    clusters = {"TD": [crow("1", "TD"), crow("2", "TD")]}
    complementary = [PairFinding(req_a="1", req_b="2", kind=KIND_COMPLEMENTARY)]
    assert [r.req_id for r in consolidate(clusters, complementary)["TD"]] == ["1", "2"]

    all_dup = [PairFinding(req_a="1", req_b="2", kind=KIND_DUPLICATE)]
    survivors = consolidate(clusters, all_dup)
    assert [r.req_id for r in survivors["TD"]] == ["1"]


def test_detect_contradictions_runs_on_consolidated_clusters():
    clusters = {
        "EN": [crow("1002", "EN"), crow("1003", "EN")],
        "TD": [crow("1004", "TD"), crow("1005", "TD")],
    }
    duplicates = [PairFinding(req_a="1004", req_b="1005", kind=KIND_DUPLICATE)]
    backend = CaptureBackend(
        [render_results([pair_record("1002", "1003", "Contradiction")])]
    )
    result = detect_contradictions(clusters, PARAMS, backend, duplicates=duplicates)
    # TD consolidates to one row, so only EN is submitted.
    assert backend.call_count == 1
    assert "<EN_Requirements>" in backend.prompts[0]
    assert backend.prompts[0].startswith(CONTRADICTION_PROMPT.splitlines()[0])
    (finding,) = result.findings
    assert finding.kind == KIND_CONTRADICTION
    assert finding.function == "EN"


def test_detect_contradictions_only_accepts_contradiction_relation():
    clusters = {"EN": [crow("1", "EN"), crow("2", "EN")]}
    backend = CaptureBackend([render_results([pair_record("1", "2", "Duplicate")])])
    result = detect_contradictions(clusters, PARAMS, backend)
    assert result.findings == []
    assert any("disallowed relation" in n for n in result.notes)


def test_relation_matching_is_case_insensitive():
    clusters = {"EN": [crow("1", "EN"), crow("2", "EN")]}
    backend = CaptureBackend(
        [render_results([pair_record("1", "2", "contradiction")])]
    )
    result = detect_contradictions(clusters, PARAMS, backend)
    assert [f.kind for f in result.findings] == [KIND_CONTRADICTION]


# ---------------------------------------------------------------------------
# Gold pairs and scoring
# ---------------------------------------------------------------------------


def test_load_gold_pairs_normalizes_order(tmp_path):
    path = tmp_path / "gold.csv"
    path.write_text("req_a,req_b\n9,1\n1,9\n2,3\n")
    gold = load_gold_pairs(path, KIND_DUPLICATE)
    assert gold.pairs == frozenset({("1", "9"), ("2", "3")})


def test_load_gold_pairs_empty_raises(tmp_path):
    path = tmp_path / "gold.csv"
    path.write_text("req_a,req_b\n")
    with pytest.raises(EmptyGoldError):
        load_gold_pairs(path, KIND_DUPLICATE)


def test_load_gold_pairs_names_every_missing_column(tmp_path):
    path = tmp_path / "gold.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(MissingColumnError, match="req_a, req_b"):
        load_gold_pairs(path, KIND_DUPLICATE)


def test_load_gold_pairs_refuses_a_row_with_a_blank_side_naming_its_line(tmp_path):
    path = tmp_path / "gold.csv"
    path.write_text("req_a,req_b\n1,2\n3, \n4,5\n,6\n")
    with pytest.raises(BlankReqIdError) as exc:
        load_gold_pairs(path, KIND_DUPLICATE)
    assert exc.value.rows == [3, 5]


def test_load_gold_pairs_refuses_a_requirement_paired_with_itself_naming_its_lines(tmp_path):
    # No finding pairs a requirement with itself, so such a row would cap the rate below 100.
    path = tmp_path / "gold.csv"
    path.write_text("req_a,req_b\n1000,1000\n1000,1001\n7 , 7\n")
    with pytest.raises(SelfPairError, match="at rows: 2, 4") as exc:
        load_gold_pairs(path, KIND_DUPLICATE)
    assert exc.value.rows == [2, 4]


def gold_of(n, kind=KIND_DUPLICATE):
    return GoldPairs(kind=kind, pairs=frozenset((f"a{i}", f"b{i}") for i in range(n)))


def findings_hitting(gold, hits, extra=0):
    pairs = sorted(gold.pairs)[:hits]
    found = [PairFinding(req_a=a, req_b=b, kind=gold.kind) for a, b in pairs]
    found += [
        PairFinding(req_a=f"x{i}", req_b=f"y{i}", kind=gold.kind) for i in range(extra)
    ]
    return found


def test_score_reproduces_published_duplicate_rates():
    low = score(findings_hitting(gold_of(8), 3), gold_of(8))
    assert (low.detected_true, low.gold_total, low.rate) == (3, 8, 37.5)
    assert not low.meets_target

    high = score(findings_hitting(gold_of(8), 7), gold_of(8))
    assert (high.detected_true, high.rate, high.meets_target) == (7, 87.5, True)


def test_score_reproduces_published_contradiction_rate():
    gold = gold_of(9, kind=KIND_CONTRADICTION)
    result = score(findings_hitting(gold, 7, extra=1), gold)
    assert result.rate == 77.78
    assert result.false_positive == 1
    assert not result.meets_target


def test_score_ignores_findings_of_other_kinds():
    gold = gold_of(4)
    findings = findings_hitting(gold, 4)
    downgraded = [
        PairFinding(req_a=f.req_a, req_b=f.req_b, kind=KIND_COMPLEMENTARY)
        for f in findings
    ]
    assert score(downgraded, gold).detected_true == 0


def test_score_threshold_is_strict():
    gold = gold_of(5)
    result = score(findings_hitting(gold, 4), gold)  # exactly 80.00
    assert result.rate == 80.0
    assert not result.meets_target


def test_score_empty_gold_raises():
    with pytest.raises(EmptyGoldError):
        score([], GoldPairs(kind=KIND_DUPLICATE, pairs=frozenset()))


def test_score_matches_set_arithmetic_oracle():
    rng = random.Random(1234)
    names = [f"r{i}" for i in range(12)]
    universe = [
        tuple(sorted((a, b))) for i, a in enumerate(names) for b in names[i + 1 :]
    ]
    for _ in range(100):
        gold_pairs = frozenset(rng.sample(universe, rng.randint(1, 20)))
        found_pairs = set(rng.sample(universe, rng.randint(0, 25)))
        gold = GoldPairs(kind=KIND_DUPLICATE, pairs=gold_pairs)
        findings = [
            PairFinding(req_a=a, req_b=b, kind=KIND_DUPLICATE)
            for a, b in found_pairs
        ]
        result = score(findings, gold)
        detected = len(found_pairs & gold_pairs)
        assert result.detected_true == detected
        assert result.false_positive == len(found_pairs - gold_pairs)
        hundredths = Fraction(100 * detected, len(gold_pairs)) * 100
        floor = hundredths.numerator // hundredths.denominator
        if hundredths - floor >= Fraction(1, 2):
            floor += 1
        assert result.rate == floor / 100
