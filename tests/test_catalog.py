"""Function catalog extraction from architecture graphs."""

import json
from pathlib import Path

import pytest

from safereq import (
    CATCH_ALL_ALIAS,
    CATCH_ALL_LINEAGE,
    CatalogEntry,
    LlmRequestParams,
    RelationKind,
    ThingKind,
    catalog_from_alias_map,
    catalog_from_mapping,
    derive_alias,
    extract_catalog,
    extract_catalog_llm,
    parse_opl,
    parse_xmi_bdd,
)
from safereq.errors import SchemaViolationError

DATA = Path(__file__).parent / "data"


def load_graph(name):
    return parse_opl((DATA / name).read_text())


# ---------------------------------------------------------------------------
# Alias derivation
# ---------------------------------------------------------------------------


def test_derive_alias_initials_skip_connector_words():
    assert derive_alias("Pyrotechnic and Electrical Activation") == "PEA"
    assert derive_alias("Creating Output Report") == "COR"
    assert derive_alias("Identifying Coverage Gaps") == "ICG"


def test_derive_alias_uses_inner_capitals_of_single_word():
    assert derive_alias("AirFlow") == "AF"
    assert derive_alias("Navigating") == "N"
    assert derive_alias("Monitoring") == "M"


def test_derive_alias_two_words():
    assert derive_alias("Data Transmission") == "DT"
    assert derive_alias("Power Generating") == "PG"


def test_alias_collisions_get_numeric_suffixes():
    graph = parse_opl(
        "Station is a physical and systemic object.\n"
        "Monitoring is an informatical and systemic process.\n"
        "Measuring is an informatical and systemic process.\n"
        "Mixing is an informatical and systemic process.\n"
        "Station exhibits Monitoring, Measuring and Mixing.\n"
    )
    catalog = extract_catalog(graph)
    aliases = [e.alias for e in catalog.entries if e.alias != CATCH_ALL_ALIAS]
    assert aliases == ["M", "M2", "M3"]


def test_alias_hints_override_derivation():
    graph = parse_opl(
        "Station is a physical and systemic object.\n"
        "Monitoring is an informatical and systemic process.\n"
        "Station exhibits Monitoring.\n"
    )
    catalog = extract_catalog(graph, alias_hints={"Monitoring": "MNTR"})
    assert catalog.alias_map()["MNTR"] == "Station/Monitoring"


# ---------------------------------------------------------------------------
# Construction from mappings
# ---------------------------------------------------------------------------


def test_catalog_from_mapping_nested_shape():
    catalog = catalog_from_mapping(
        {
            "Drone": {"NAV": "Drone/Navigation/Navigating", "_OF_": "Other Function"},
            "Operator": {"CTRL": "Operator/Controlling"},
        }
    )
    assert catalog.primary_systems == ["Drone", "Operator"]
    assert catalog.aliases == ["NAV", "_OF_", "CTRL"]
    assert catalog.contains_catch_all
    assert catalog.to_mapping()["Operator"] == {"CTRL": "Operator/Controlling"}


def test_catalog_from_mapping_rejects_deep_lineage():
    with pytest.raises(SchemaViolationError):
        catalog_from_mapping({"A": {"X": "A/B/C/D"}})


def test_catalog_from_mapping_rejects_non_dict_node():
    with pytest.raises(SchemaViolationError):
        catalog_from_mapping({"A": ["X"]})


class _RepeatingMap(dict):
    """A flat map whose items list one alias twice, as no dict's keys can."""

    def items(self):
        return [("X", "A/x"), ("X", "B/x")]


@pytest.mark.parametrize(
    "build, mapping",
    [
        (catalog_from_mapping, {"A": {"X": "A/x"}, "B": {"X": "B/x"}}),
        (catalog_from_alias_map, _RepeatingMap()),
    ],
    ids=["nested", "flat"],
)
def test_a_repeated_alias_is_rejected(build, mapping):
    with pytest.raises(SchemaViolationError, match="alias 'X' is listed more than once"):
        build(mapping)


def test_catalog_from_alias_map_flat_shape():
    catalog = catalog_from_alias_map(
        {"NAV": "Drone/Navigation/Navigating", "AF": "Environment/AirFlow"}
    )
    assert catalog.primary_systems == ["Drone", "Environment"]
    assert catalog.alias_map()["AF"] == "Environment/AirFlow"


def test_missing_catch_all_is_injected_with_warning():
    catalog = catalog_from_alias_map({"NAV": "Drone/Navigation/Navigating"})
    assert CATCH_ALL_ALIAS in catalog.aliases
    assert catalog.alias_map()[CATCH_ALL_ALIAS] == CATCH_ALL_LINEAGE
    assert any(CATCH_ALL_ALIAS in w for w in catalog.warnings)


def test_to_mapping_groups_by_primary_and_round_trips():
    original = {
        "Drone": {"NAV": "Drone/Navigation/Navigating", "_OF_": "Other Function"},
        "Operator": {"CTRL": "Operator/Controlling"},
    }
    catalog = catalog_from_mapping(original)
    assert catalog.to_mapping() == original
    assert json.loads(catalog.to_json()) == original


# ---------------------------------------------------------------------------
# Extraction from the drone fixture
# ---------------------------------------------------------------------------


def drone_hints():
    return json.loads((DATA / "drone_alias_hints.json").read_text())


def test_drone_opl_catalog_exact():
    catalog = extract_catalog(load_graph("drone.opl"), alias_hints=drone_hints())
    assert catalog.primary_systems == ["Drone", "Environment", "Operator"]
    assert [(e.alias, e.lineage, e.primary_system) for e in catalog.entries] == [
        ("NAV", "Drone/Navigation/Navigating", "Drone"),
        ("EN", "Drone/Engine/Power Generating", "Drone"),
        ("TD", "Drone/Communication/Data Transmission", "Drone"),
        ("RD", "Drone/Communication/Data Receiving", "Drone"),
        ("PEA", "Drone/Mission System/Pyrotechnic and Electrical Activation", "Drone"),
        ("AF", "Environment/AirFlow", "Environment"),
        ("CTRL", "Operator/Controlling", "Operator"),
        ("MNTR", "Operator/Monitoring", "Operator"),
        ("_OF_", "Other Function", "Drone"),
    ]


def test_drone_opl_and_xmi_paths_agree_on_aliases():
    opl_catalog = extract_catalog(load_graph("drone.opl"), alias_hints=drone_hints())
    xmi_graph = parse_xmi_bdd((DATA / "drone.xmi").read_text())
    xmi_catalog = extract_catalog(xmi_graph, alias_hints=drone_hints())
    assert set(opl_catalog.aliases) == set(xmi_catalog.aliases)


def test_flow_objects_are_not_catalogued():
    # Telemetry is only required/yielded by processes; it must appear
    # neither as a primary system nor inside any lineage.
    catalog = extract_catalog(load_graph("drone.opl"), alias_hints=drone_hints())
    assert "Telemetry" not in catalog.primary_systems
    assert all("Telemetry" not in e.lineage for e in catalog.entries)


# ---------------------------------------------------------------------------
# Extraction from the reference corpus
# ---------------------------------------------------------------------------

FASER = "Foundational Analysis Of Safety Engineering Requirements"

CORPUS_EXPECTED = [
    ("F", "System Model/System/Function", "System Model"),
    ("Q", "Llm Client/Querying", "Llm Client"),
    ("CR", f"{FASER}/Classifying Requirements", FASER),
    ("COR", f"{FASER}/Creating Output Report", FASER),
    ("IC", f"{FASER}/Identifying Contradictions", FASER),
    ("ICG", f"{FASER}/Identifying Coverage Gaps", FASER),
    ("ID", f"{FASER}/Identifying Duplications", FASER),
    ("I", f"{FASER}/Initialization", FASER),
    ("IS", "Identifying Subsystems", "Identifying Subsystems"),
    ("_OF_", "Other Function", "Systems Safety Architect"),
]


def test_reference_corpus_catalog_exact():
    catalog = extract_catalog(load_graph("pipeline_metamodel.opl"))
    assert [(e.alias, e.lineage, e.primary_system) for e in catalog.entries] == (
        CORPUS_EXPECTED
    )
    assert len(catalog.primary_systems) == 19
    assert catalog.primary_systems[0] == "Systems Safety Architect"


def _incoming(graph):
    """Names that are targets of any structural (non-flow) relation."""
    owned = set()
    for rel in graph.relations:
        if rel.kind in (RelationKind.AGGREGATION, RelationKind.EXHIBITION):
            owned.update(rel.targets)
    return owned


def _leaf_processes(graph):
    """Independent walk: every function leaf the catalog must list.

    Exhibited processes and exhibition-free root processes are expanded
    through process-to-process aggregation down to their leaves.
    """
    children = {}
    for rel in graph.relations:
        if rel.kind is RelationKind.AGGREGATION:
            children.setdefault(rel.source, []).extend(rel.targets)

    def leaves(name):
        kids = [
            k
            for k in children.get(name, [])
            if graph.things[k].kind is ThingKind.PROCESS
        ]
        if not kids:
            return {name}
        found = set()
        for kid in kids:
            found |= leaves(kid)
        return found

    roots = set()
    for rel in graph.relations:
        if rel.kind is RelationKind.EXHIBITION:
            for target in rel.targets:
                if graph.things[target].kind is ThingKind.PROCESS:
                    roots.add(target)
    owned = _incoming(graph)
    for thing in graph.processes():
        if thing.name not in owned:
            roots.add(thing.name)

    expected = set()
    for root in roots:
        expected |= leaves(root)
    return expected


def test_corpus_catalog_is_complete_against_independent_walk():
    graph = load_graph("pipeline_metamodel.opl")
    catalog = extract_catalog(graph)
    catalogued = {
        e.lineage.rsplit("/", 1)[-1]
        for e in catalog.entries
        if e.alias != CATCH_ALL_ALIAS
    }
    assert catalogued == _leaf_processes(graph)


def test_corpus_catalog_structural_invariants():
    graph = load_graph("pipeline_metamodel.opl")
    catalog = extract_catalog(graph)
    owned = _incoming(graph)
    pairs = set()
    for entry in catalog.entries:
        if entry.alias == CATCH_ALL_ALIAS:
            continue
        segments = entry.lineage.split("/")
        assert 1 <= len(segments) <= 3
        # First segment is an unowned (primary) thing.
        assert segments[0] not in owned
        # Leaf is a process with no process parts of its own.
        leaf = segments[-1]
        assert graph.things[leaf].kind is ThingKind.PROCESS
        pairs.add((entry.primary_system, leaf))
    assert len(pairs) == len(catalog.entries) - 1  # one pair per non-catch-all entry


# ---------------------------------------------------------------------------
# LLM-backed extraction
# ---------------------------------------------------------------------------


class _Reply:
    """A backend that answers every prompt with text and keeps the prompts."""

    def __init__(self, text):
        self.text, self.prompts = text, []

    def complete(self, prompt, params):
        self.prompts.append(prompt)
        return self.text, {}


def llm_catalog(results, wrap="{}"):
    backend = _Reply(wrap.format(json.dumps({"results": results})))
    return extract_catalog_llm("Drone exhibits Navigating.", LlmRequestParams(), backend)


def test_llm_catalog_takes_entries_and_primary_systems_from_a_nested_map():
    catalog = llm_catalog(
        {
            "Drone": {"NAV": "Drone/Navigation/Navigating", "_OF_": "Other Function"},
            "Operator": {"CTRL": "Operator/Controlling"},
        }
    )
    assert catalog.entries == [
        CatalogEntry("NAV", "Drone/Navigation/Navigating", "Drone"),
        CatalogEntry("_OF_", "Other Function", "Drone"),
        CatalogEntry("CTRL", "Operator/Controlling", "Operator"),
    ]
    assert catalog.primary_systems == ["Drone", "Operator"]
    assert catalog.warnings == []


def test_llm_catalog_without_the_catch_all_gets_it_with_a_warning():
    catalog = llm_catalog({"Drone": {"NAV": "Drone/Navigating"}})
    assert catalog.entries[-1] == CatalogEntry(CATCH_ALL_ALIAS, CATCH_ALL_LINEAGE, "Drone")
    assert catalog.warnings == ["catch-all _OF_ was missing and has been added"]


def test_llm_catalog_warns_of_an_empty_function_map():
    catalog = llm_catalog({})
    assert catalog.aliases == [CATCH_ALL_ALIAS]
    assert catalog.warnings[0] == "backend returned an empty function map"


@pytest.mark.parametrize(
    "results",
    [
        [{"NAV": "Drone/Navigating"}],
        {"Drone": ["NAV"]},
        {"Drone": {"NAV": "Drone/Navigation/Flight/Navigating"}},
    ],
    ids=["results-list", "non-object-node", "four-segment-lineage"],
)
def test_llm_catalog_rejects_a_malformed_function_map(results):
    with pytest.raises(SchemaViolationError):
        llm_catalog(results)


@pytest.mark.parametrize(
    "wrap", ["```json\n{}\n```", "Here is the catalog:\n{}\nThat is all."], ids=["fenced", "prose"]
)
def test_llm_catalog_accepts_wrapped_json(wrap):
    catalog = llm_catalog({"Drone": {"NAV": "Drone/Navigating"}}, wrap=wrap)
    assert catalog.alias_map()["NAV"] == "Drone/Navigating"


def test_llm_catalog_prompt_holds_the_model_in_its_tag():
    backend = _Reply(json.dumps({"results": {"Drone": {"NAV": "Drone/Navigating"}}}))
    extract_catalog_llm("Drone exhibits Navigating.", LlmRequestParams(), backend)
    (prompt,) = backend.prompts
    assert "<architecture_model>\nDrone exhibits Navigating.\n</architecture_model>" in prompt
