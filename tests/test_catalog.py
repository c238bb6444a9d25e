"""Function catalog extraction from architecture graphs."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safereq import (
    CATCH_ALL_ALIAS,
    CATCH_ALL_LINEAGE,
    ArchitectureGraph,
    CatalogEntry,
    FunctionCatalog,
    LlmRequestParams,
    OplRelation,
    OplThing,
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
from safereq.errors import NoPrimarySystemError, SchemaViolationError

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
# Equivalence with the list-scanning walk that extract_catalog replaced
# ---------------------------------------------------------------------------
# The reference below is the earlier implementation, unchanged but for its
# three names. It scanned every exhibition once per object and retried
# alias suffixes from 2 on every collision; the indexed walk must give the
# same entries, primary systems, warnings and errors for every graph.


class _ReferenceAllocator:
    def __init__(self, hints: dict[str, str]):
        self.hints = dict(hints)
        self.taken: set[str] = {CATCH_ALL_ALIAS}

    def allocate(self, leaf_name: str, lineage: str) -> str:
        base = self.hints.get(leaf_name) or self.hints.get(lineage) or derive_alias(leaf_name)
        if base == CATCH_ALL_ALIAS:
            base = derive_alias(leaf_name)
        alias = base
        n = 2
        while alias in self.taken:
            alias = f"{base}{n}"
            n += 1
        self.taken.add(alias)
        return alias


def reference_extract_catalog(
    graph: ArchitectureGraph, alias_hints: dict[str, str] | None = None
) -> FunctionCatalog:
    """Walk an architecture graph and derive the function catalog.

    Primary systems are Objects with no incoming Aggregation/Exhibition
    from another Object. Functions are the aggregation-leaf Processes
    reached from Object exhibitions, plus the leaves of root process
    trees (processes nothing exhibits or contains). Objects that appear
    only as Requires/Yields endpoints are flows and are ignored entirely.

    Raises:
        NoPrimarySystemError: no primary system and no root process exists.
    """
    things = graph.things
    object_names = {t.name for t in graph.objects()}
    process_names = {t.name for t in graph.processes()}

    flow_objects = _reference_flow_objects(graph, object_names)

    owned_objects: dict[str, str] = {}  # object -> first owner object
    exhibited: list[tuple[str, str]] = []  # (object, process), relation order
    part_children: dict[str, list[str]] = {}  # process -> child processes
    process_has_parent: set[str] = set()

    for rel in graph.relations:
        src_is_obj = rel.source in object_names
        for target in rel.targets:
            if rel.kind in (RelationKind.AGGREGATION, RelationKind.EXHIBITION):
                if src_is_obj and target in object_names:
                    if rel.source not in flow_objects:
                        owned_objects.setdefault(target, rel.source)
                elif src_is_obj and target in process_names:
                    # An object exhibiting or aggregating a process anchors it.
                    exhibited.append((rel.source, target))
                    process_has_parent.add(target)
                elif rel.source in process_names and target in process_names:
                    part_children.setdefault(rel.source, []).append(target)
                    process_has_parent.add(target)

    primaries = [
        t.name
        for t in graph.objects()
        if t.name not in flow_objects and t.name not in owned_objects
    ]
    root_processes = [
        t.name for t in graph.processes() if t.name not in process_has_parent
    ]
    if not primaries and not root_processes:
        raise NoPrimarySystemError(
            "no primary system found (containment is empty or cyclic)"
        )

    catalog = FunctionCatalog(primary_systems=list(primaries))
    allocator = _ReferenceAllocator(alias_hints or {})
    seen: set[tuple[str, str]] = set()

    def leaves(process: str, visited: set[str]) -> list[str]:
        if process in visited:
            catalog.warnings.append(f"cyclic process containment at {process!r}")
            return []
        children = [c for c in part_children.get(process, []) if c in process_names]
        if not children:
            return [process]
        visited = visited | {process}
        out: list[str] = []
        for child in children:
            for leaf in leaves(child, visited):
                if leaf not in out:
                    out.append(leaf)
        return out

    def primary_ancestor(obj: str) -> str | None:
        current, visited = obj, set()
        while current in owned_objects:
            if current in visited:
                catalog.warnings.append(f"cyclic containment at {current!r}")
                return None
            visited.add(current)
            current = owned_objects[current]
        return current if current in primaries else None

    # Functions exhibited by objects, in declaration-then-relation order.
    for obj in (t.name for t in graph.objects()):
        for owner, process in exhibited:
            if owner != obj:
                continue
            primary = primary_ancestor(obj)
            if primary is None:
                catalog.warnings.append(
                    f"no primary ancestor for {obj!r}; skipping {process!r}"
                )
                continue
            for leaf in leaves(process, set()):
                if (primary, leaf) in seen:
                    continue
                seen.add((primary, leaf))
                segments = [primary, leaf] if obj == primary else [primary, obj, leaf]
                lineage = "/".join(segments)
                alias = allocator.allocate(leaf, lineage)
                catalog.entries.append(
                    CatalogEntry(alias=alias, lineage=lineage, primary_system=primary)
                )

    # Root process trees act as their own functional roots.
    for root in root_processes:
        for leaf in leaves(root, set()):
            if (root, leaf) in seen:
                continue
            seen.add((root, leaf))
            lineage = root if leaf == root else f"{root}/{leaf}"
            alias = allocator.allocate(leaf, lineage)
            catalog.entries.append(
                CatalogEntry(alias=alias, lineage=lineage, primary_system=root)
            )
        if root not in catalog.primary_systems:
            catalog.primary_systems.append(root)

    if not any(e.alias != CATCH_ALL_ALIAS for e in catalog.entries):
        catalog.warnings.append("model yields no functions; catalog is catch-all only")

    first_root = catalog.primary_systems[0] if catalog.primary_systems else ""
    catalog.entries.append(
        CatalogEntry(
            alias=CATCH_ALL_ALIAS, lineage=CATCH_ALL_LINEAGE, primary_system=first_root
        )
    )
    return catalog


def _reference_flow_objects(graph: ArchitectureGraph, object_names: set[str]) -> set[str]:
    """Objects whose only role is Requires/Yields target of a process."""
    flowish: set[str] = set()
    other_role: set[str] = set()
    for rel in graph.relations:
        other_role.add(rel.source)
        for target in rel.targets:
            if rel.kind in (RelationKind.REQUIRES, RelationKind.YIELDS):
                flowish.add(target)
            else:
                other_role.add(target)
    return {name for name in flowish & object_names if name not in other_role}


def outcome(extract, graph, hints):
    try:
        catalog = extract(graph, hints)
    except NoPrimarySystemError as exc:
        return ("NoPrimarySystemError", str(exc))
    return (catalog.entries, catalog.primary_systems, catalog.warnings)


# Names whose derived aliases collide (M, DT, T), one that reads as a
# numbered alias, and two endpoints that are never declared as things.
NAMES = [
    "Drone", "Engine", "Monitoring", "Measuring", "Mixing", "Mode",
    "Data Transmission", "Drive Train", "the and", "M2", "Navigating", "Telemetry",
]
ENDPOINTS = NAMES + ["Ghost", "Phantom"]
STRUCTURAL = [RelationKind.AGGREGATION, RelationKind.EXHIBITION]  # drawn more often


@st.composite
def graphs(draw):
    kinds = draw(st.dictionaries(st.sampled_from(NAMES), st.sampled_from(ThingKind), max_size=12))
    # Mostly declared names, so that trees, cycles and flows are common.
    endpoint = st.sampled_from(list(kinds) or NAMES) | st.sampled_from(ENDPOINTS)
    relation = st.builds(
        OplRelation,
        kind=st.sampled_from(STRUCTURAL) | st.sampled_from(RelationKind),
        source=endpoint,
        targets=st.lists(endpoint, min_size=1, max_size=3).map(tuple),
    )
    return ArchitectureGraph(
        things={name: OplThing(name=name, kind=kind) for name, kind in kinds.items()},
        relations=draw(st.lists(relation, max_size=20)),
    )


def diamond_chain(k, valves=range(0), back_edges=()):
    """Station exhibits Stage 0, and Stage i consists of Left i and Right i,
    which both consist of Stage i+1: a chain of k diamonds. Left i also
    consists of Valve i for each i in valves, and each (source, target)
    in back_edges adds an aggregation, which may close a cycle."""
    relations = [OplRelation(RelationKind.EXHIBITION, "Station", ("Stage 0",))]
    for i in range(k):
        relations += [
            OplRelation(RelationKind.AGGREGATION, f"Stage {i}", (f"Left {i}", f"Right {i}")),
            OplRelation(
                RelationKind.AGGREGATION,
                f"Left {i}",
                (f"Stage {i + 1}", *([f"Valve {i}"] if i in valves else [])),
            ),
            OplRelation(RelationKind.AGGREGATION, f"Right {i}", (f"Stage {i + 1}",)),
        ]
    relations += [OplRelation(RelationKind.AGGREGATION, a, (b,)) for a, b in back_edges]
    things = {
        name: OplThing(name=name, kind=ThingKind.PROCESS)
        for rel in relations[1:]
        for name in sorted({rel.source, *rel.targets})
    }
    things["Station"] = OplThing(name="Station", kind=ThingKind.OBJECT)
    return ArchitectureGraph(things=things, relations=relations)


@st.composite
def diamond_chains(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    processes = [f"{part} {i}" for i in range(k) for part in ("Stage", "Left", "Right")]
    processes.append(f"Stage {k}")
    valves = draw(st.sets(st.integers(min_value=0, max_value=k - 1)))
    back_edges = draw(st.lists(st.tuples(*[st.sampled_from(processes)] * 2), max_size=2))
    return diamond_chain(k, valves, back_edges)


hint_sets = st.dictionaries(
    st.one_of(
        st.sampled_from(NAMES),
        st.lists(st.sampled_from(NAMES), min_size=2, max_size=3).map("/".join),
    ),
    st.sampled_from(["M", "M2", "M3", "DT", "DT2", "T", "NAV", "", CATCH_ALL_ALIAS]),
    max_size=6,
)


@settings(max_examples=500, deadline=None)
@given(graph=graphs() | diamond_chains(), hints=hint_sets)
def test_extract_catalog_equals_the_list_scanning_walk(graph, hints):
    assert outcome(extract_catalog, graph, hints) == outcome(
        reference_extract_catalog, graph, hints
    )


@pytest.mark.parametrize(
    "model, hints",
    [
        ("drone.opl", "drone_alias_hints.json"),
        ("drone.opl", None),
        ("drone.xmi", "drone_alias_hints.json"),
        ("minimal.xmi", None),
        ("pipeline_metamodel.opl", None),
    ],
)
def test_extract_catalog_equals_the_list_scanning_walk_on_the_fixtures(model, hints):
    text = (DATA / model).read_text()
    graph = parse_opl(text) if model.endswith(".opl") else parse_xmi_bdd(text)
    hint_map = json.loads((DATA / hints).read_text()) if hints else None
    assert outcome(extract_catalog, graph, hint_map) == outcome(
        reference_extract_catalog, graph, hint_map
    )


def test_four_thousand_colliding_processes_get_the_same_suffixes():
    # Every name derives "M"; the hints claim M7 early and send one
    # process straight to a base the suffixes have already passed.
    names = [f"Mode{i}" for i in range(4000)]
    graph = ArchitectureGraph(
        things={
            "Station": OplThing(name="Station", kind=ThingKind.OBJECT),
            **{n: OplThing(name=n, kind=ThingKind.PROCESS) for n in names},
        },
        relations=[OplRelation(RelationKind.EXHIBITION, "Station", tuple(names))],
    )
    hints = {"Mode3": "M7", "Mode2500": "M", "Mode3999": "M12"}
    got = outcome(extract_catalog, graph, hints)
    assert got == outcome(reference_extract_catalog, graph, hints)
    aliases = [e.alias for e in got[0]]
    assert len(set(aliases)) == 4001
    assert aliases[:5] == ["M", "M2", "M3", "M7", "M4"]


def test_a_chain_of_a_thousand_processes_gives_its_deepest_process():
    # Each process consists of the next, so the walk goes 1,000 levels deep.
    names = [f"Step {i}" for i in range(1000)]
    graph = ArchitectureGraph(
        things={
            "Station": OplThing(name="Station", kind=ThingKind.OBJECT),
            **{n: OplThing(name=n, kind=ThingKind.PROCESS) for n in names},
        },
        relations=[
            OplRelation(RelationKind.EXHIBITION, "Station", (names[0],)),
            *(OplRelation(RelationKind.AGGREGATION, a, (b,)) for a, b in zip(names, names[1:])),
        ],
    )
    catalog = extract_catalog(graph)
    functions = [e for e in catalog.entries if e.alias != CATCH_ALL_ALIAS]
    assert [e.lineage for e in functions] == ["Station/Step 999"]
    assert catalog.warnings == []


def diamond_chain_outcome(k):
    """The catalog of diamond_chain(k) with a valve in every diamond, under
    hints naming every leaf: Stage k, then the valves from the bottom up."""
    hints = {f"Stage {k}": "S", **{f"Valve {i}": f"V{i}" for i in range(k)}}
    leaves = [f"Stage {k}", *(f"Valve {i}" for i in reversed(range(k)))]
    entries = [CatalogEntry(hints[leaf], f"Station/{leaf}", "Station") for leaf in leaves]
    entries.append(CatalogEntry(CATCH_ALL_ALIAS, CATCH_ALL_LINEAGE, "Station"))
    return hints, (entries, ["Station"], [])


@pytest.mark.parametrize("k", range(1, 7))
def test_the_list_scanning_walk_gives_the_diamond_chain_outcome(k):
    hints, expected = diamond_chain_outcome(k)
    assert outcome(reference_extract_catalog, diamond_chain(k, range(k)), hints) == expected


def test_forty_diamonds_give_the_outcome_the_list_scanning_walk_gives_for_few():
    # The list-scanning walk expands every one of the 2**40 paths to the bottom.
    hints, expected = diamond_chain_outcome(40)
    assert outcome(extract_catalog, diamond_chain(40, range(40)), hints) == expected


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


def test_llm_catalog_refuses_a_lone_surrogate():
    # json.dumps writes the lone surrogate as a "\ud800" escape.
    with pytest.raises(SchemaViolationError, match="response text is not valid Unicode"):
        llm_catalog({"Drone": {"NAV": "Drone/Nav\ud800igating"}})
