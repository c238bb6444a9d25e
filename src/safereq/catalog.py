"""Function catalogs: the alias -> lineage table that anchors every analysis.

A catalog lists each system function once, keyed by a short alias, with a
lineage path of one to three segments (System/Subsystem/Function). Two
extraction paths exist: a deterministic graph walk over a parsed
architecture, and an LLM-backed identification over raw model text. The
catch-all alias _OF_ ("Other Function") is always present so downstream
classification has a place for requirements that fit no function.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

from .errors import NoPrimarySystemError, SchemaViolationError
from .gateway import (
    Backend,
    LlmRequestParams,
    PromptEnvelope,
    PromptResource,
    assemble_prompt,
    checked_results_root,
    send,
)
from .opl import ArchitectureGraph, RelationKind, ThingKind

CATCH_ALL_ALIAS = "_OF_"
CATCH_ALL_LINEAGE = "Other Function"

_SKIP_WORDS = {"and", "of", "the", "a", "an", "to", "for", "or"}

FUNCTION_IDENTIFICATION_INSTRUCTIONS = """\
You are given a system architecture model inside the tag architecture_model.
Identify the primary systems and their functions, and return them as JSON.

Rules:
1. A primary system is a system object that is not a part, attribute, or
   exhibited feature of any other object.
2. A function is a process that a system or one of its sub-systems exhibits.
   Report every function under the primary system that owns it, delineated
   as a lineage of at most three segments: system name/sub-system
   name/function name. Omit the sub-system segment when the primary system
   exhibits the function directly.
3. DO NOT REPORT input or output objects that are merely passed from
   function to function; they are flows, not functions.
4. Give every function a short unique uppercase alias. Also include the
   placeholder alias "_OF_" mapped to "Other Function" for requirements
   that will not match any listed function.

Answer with a single JSON document of the form
{"results": {"<primary system>": {"<ALIAS>": "<lineage>", ...}, ...}}
with no commentary.
"""


@dataclass(frozen=True)
class CatalogEntry:
    alias: str
    lineage: str  # 1-3 slash-separated segments
    primary_system: str


@dataclass
class FunctionCatalog:
    entries: list[CatalogEntry] = field(default_factory=list)
    primary_systems: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def aliases(self) -> list[str]:
        return [e.alias for e in self.entries]

    @property
    def contains_catch_all(self) -> bool:
        return any(e.alias == CATCH_ALL_ALIAS for e in self.entries)

    def alias_map(self) -> dict[str, str]:
        """Flat {alias: lineage} view, the shape prompts embed."""
        return {e.alias: e.lineage for e in self.entries}

    def to_mapping(self) -> dict[str, dict[str, str]]:
        """Nested {primary: {alias: lineage}} view, the serialized shape."""
        grouped: dict[str, dict[str, str]] = {}
        for e in self.entries:
            key = e.primary_system or "Functions"
            grouped.setdefault(key, {})[e.alias] = e.lineage
        return grouped

    def to_json(self) -> str:
        return json.dumps(self.to_mapping(), indent=2, ensure_ascii=False)


# ---------------------------------------------------------------------------
# Construction from mappings
# ---------------------------------------------------------------------------


def catalog_from_mapping(mapping: dict, warnings: list[str] | None = None) -> FunctionCatalog:
    """Build a catalog from the nested {primary: {alias: lineage}} shape.

    Raises SchemaViolationError naming the offending key for malformed
    pairs, lineages deeper than three segments or an alias listed twice.
    """
    if not isinstance(mapping, dict):
        raise SchemaViolationError("catalog root must be a JSON object")
    catalog = FunctionCatalog(warnings=list(warnings or []))
    seen: set[str] = set()
    for primary, functions in mapping.items():
        if not isinstance(functions, dict):
            raise SchemaViolationError(
                f"catalog node {primary!r} must map aliases to lineages"
            )
        catalog.primary_systems.append(str(primary))
        for alias, lineage in functions.items():
            _check_entry(alias, lineage, seen, f" under {primary!r}")
            catalog.entries.append(
                CatalogEntry(alias=alias, lineage=lineage, primary_system=str(primary))
            )
    _ensure_catch_all(catalog)
    return catalog


def catalog_from_alias_map(mapping: dict[str, str]) -> FunctionCatalog:
    """Build a catalog from a flat {alias: lineage} map (resource files)."""
    catalog = FunctionCatalog()
    seen: set[str] = set()
    for alias, lineage in mapping.items():
        segments = _check_entry(alias, lineage, seen)
        primary = segments[0] if len(segments) > 1 else ""
        catalog.entries.append(
            CatalogEntry(alias=alias, lineage=lineage, primary_system=primary)
        )
    primaries = (e.primary_system for e in catalog.entries if e.primary_system)
    catalog.primary_systems = list(dict.fromkeys(primaries))
    _ensure_catch_all(catalog)
    return catalog


def _check_entry(alias, lineage, seen: set[str], where: str = "") -> list[str]:
    """lineage's segments, once the pair passes the entry rules; adds alias to seen.

    Raises SchemaViolationError for a malformed pair, a lineage deeper than
    three segments or an alias already in seen.
    """
    if not isinstance(alias, str) or not isinstance(lineage, str) or not lineage:
        raise SchemaViolationError(
            f"malformed alias:lineage pair{where}: {alias!r}: {lineage!r}"
        )
    segments = lineage.split("/")
    if len(segments) > 3:
        raise SchemaViolationError(
            f"lineage for {alias!r} has more than three segments: {lineage!r}"
        )
    if alias in seen:
        raise SchemaViolationError(f"alias {alias!r} is listed more than once")
    seen.add(alias)
    return segments


def _ensure_catch_all(catalog: FunctionCatalog) -> None:
    if catalog.contains_catch_all:
        return
    primary = catalog.primary_systems[0] if catalog.primary_systems else ""
    catalog.entries.append(
        CatalogEntry(alias=CATCH_ALL_ALIAS, lineage=CATCH_ALL_LINEAGE, primary_system=primary)
    )
    catalog.warnings.append(f"catch-all {CATCH_ALL_ALIAS} was missing and has been added")


# ---------------------------------------------------------------------------
# Alias derivation
# ---------------------------------------------------------------------------


def derive_alias(name: str) -> str:
    """Uppercase initials of the capitalized words, CamelCase-aware."""
    letters: list[str] = []
    for word in name.split():
        if not word or not word[0].isalpha() or word.lower() in _SKIP_WORDS:
            continue
        letters.append(word[0].upper())
        letters.extend(c for c in word[1:] if c.isupper())
    if not letters:
        cleaned = "".join(c for c in name if c.isalpha())
        return (cleaned[:1] or "F").upper()
    return "".join(letters)


class _AliasAllocator:
    """Gives each function the first free one of base, base2, base3, ...

    next_suffix remembers, per base, the first suffix not yet found taken;
    taken only grows, so every suffix skipped once stays taken.
    """

    def __init__(self, hints: dict[str, str]):
        self.hints = dict(hints)
        self.taken: set[str] = {CATCH_ALL_ALIAS}
        self.next_suffix: dict[str, int] = {}

    def allocate(self, leaf_name: str, lineage: str) -> str:
        base = self.hints.get(leaf_name) or self.hints.get(lineage) or derive_alias(leaf_name)
        if base == CATCH_ALL_ALIAS:
            base = derive_alias(leaf_name)
        alias = base
        n = self.next_suffix.get(base, 2)
        while alias in self.taken:
            alias = f"{base}{n}"
            n += 1
        self.next_suffix[base] = n
        self.taken.add(alias)
        return alias


# ---------------------------------------------------------------------------
# Deterministic extraction
# ---------------------------------------------------------------------------


def extract_catalog(
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
    kind_of = {t.name: t.kind for t in graph.things.values()}
    objects = [name for name, kind in kind_of.items() if kind is ThingKind.OBJECT]
    flow_objects = _flow_objects(graph, set(objects))

    owner: dict[str, str] = {}  # object -> first owner object
    exhibits: dict[str, list[str]] = {}  # object -> processes, relation order
    parts: dict[str, list[str]] = {}  # process -> child processes
    has_parent: set[str] = set()  # processes exhibited or contained

    for rel in graph.relations:
        if rel.kind not in (RelationKind.AGGREGATION, RelationKind.EXHIBITION):
            continue
        source_kind = kind_of.get(rel.source)
        for target in rel.targets:
            pair = (source_kind, kind_of.get(target))
            if pair == (ThingKind.OBJECT, ThingKind.OBJECT):
                owner.setdefault(target, rel.source)
            elif pair == (ThingKind.OBJECT, ThingKind.PROCESS):
                # An object exhibiting or aggregating a process anchors it.
                exhibits.setdefault(rel.source, []).append(target)
                has_parent.add(target)
            elif pair == (ThingKind.PROCESS, ThingKind.PROCESS):
                parts.setdefault(rel.source, []).append(target)
                has_parent.add(target)

    primaries = [o for o in objects if o not in flow_objects and o not in owner]
    root_processes = [
        name
        for name, kind in kind_of.items()
        if kind is ThingKind.PROCESS and name not in has_parent
    ]
    if not primaries and not root_processes:
        raise NoPrimarySystemError(
            "no primary system found (containment is empty or cyclic)"
        )

    catalog = FunctionCatalog(primary_systems=primaries + root_processes)
    allocator = _AliasAllocator(alias_hints or {})
    seen: set[tuple[str, str]] = set()

    # A process whose expansion warned of no cycle has none below it, so its
    # leaves do not depend on the path taken to it: each is expanded once.
    acyclic: dict[str, list[str]] = {}

    def leaves(process: str) -> list[str]:
        # Depth first, children in order, on an explicit stack, so that no
        # chain is too deep to walk. A frame is a process being expanded, the
        # processes above it and itself, the warning count before it, its
        # children left, and its leaves so far (a dict, to keep first sight).
        stack: list[tuple[str, frozenset[str], int, Iterator[str], dict]] = []

        def enter(name: str, visited: frozenset[str]) -> list[str] | None:
            """The leaves of name when known at once; else stack name and return None."""
            if name in acyclic:
                return acyclic[name]
            if name in visited:
                catalog.warnings.append(f"cyclic process containment at {name!r}")
                return []
            if name not in parts:
                return [name]
            stack.append((name, visited | {name}, len(catalog.warnings), iter(parts[name]), {}))
            return None

        found = enter(process, frozenset())
        while stack:
            name, visited, warned, children, collected = stack[-1]
            if found is not None:
                collected.update(dict.fromkeys(found))
            child = next(children, None)
            if child is not None:
                found = enter(child, visited)
                continue
            stack.pop()
            found = list(collected)
            if len(catalog.warnings) == warned:
                acyclic[name] = found
        return found

    def add(primary: str, leaf: str, segments: list[str]) -> None:
        if (primary, leaf) not in seen:
            seen.add((primary, leaf))
            lineage = "/".join(segments)
            alias = allocator.allocate(leaf, lineage)
            catalog.entries.append(
                CatalogEntry(alias=alias, lineage=lineage, primary_system=primary)
            )

    # Functions exhibited by objects, in declaration-then-relation order.
    for obj in objects:
        if obj not in exhibits:
            continue
        # Climb to the topmost owner; meeting a passed object again is a cycle.
        primary, visited = obj, set()
        while primary in owner and primary not in visited:
            visited.add(primary)
            primary = owner[primary]
        for process in exhibits[obj]:
            if primary in owner:
                catalog.warnings.append(f"cyclic containment at {primary!r}")
                catalog.warnings.append(
                    f"no primary ancestor for {obj!r}; skipping {process!r}"
                )
                continue
            for leaf in leaves(process):
                add(primary, leaf, [primary, leaf] if obj == primary else [primary, obj, leaf])

    # Root process trees act as their own functional roots.
    for root in root_processes:
        for leaf in leaves(root):
            add(root, leaf, [root] if leaf == root else [root, leaf])

    if not catalog.entries:
        catalog.warnings.append("model yields no functions; catalog is catch-all only")
    catalog.entries.append(
        CatalogEntry(
            alias=CATCH_ALL_ALIAS,
            lineage=CATCH_ALL_LINEAGE,
            primary_system=catalog.primary_systems[0],
        )
    )
    return catalog


def _flow_objects(graph: ArchitectureGraph, object_names: set[str]) -> set[str]:
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


# ---------------------------------------------------------------------------
# LLM-backed extraction
# ---------------------------------------------------------------------------


def extract_catalog_llm(
    model_text: str,
    params: LlmRequestParams,
    backend: Backend,
    instructions: str = FUNCTION_IDENTIFICATION_INSTRUCTIONS,
) -> FunctionCatalog:
    """Ask the backend to identify primary systems and functions.

    The model text is wrapped in an architecture_model resource tag; the
    response must carry the nested {primary: {alias: lineage}} shape under
    "results". The catch-all _OF_ is injected (with a warning) when the
    model omits it.
    """
    envelope = PromptEnvelope(
        instructions=instructions,
        resources=(PromptResource(tag="architecture_model", body=model_text),),
    )
    result = send(assemble_prompt(envelope), params, backend)
    root = checked_results_root(result.raw_text)
    if not isinstance(root, dict):
        raise SchemaViolationError("function identification results must be a JSON object")
    warnings = []
    if not root:
        warnings.append("backend returned an empty function map")
    return catalog_from_mapping(root, warnings=warnings)
