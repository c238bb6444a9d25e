"""Seeded synthetic workloads for the safereq benchmark.

`generate(spec, seed)` plants a function architecture, a requirement set
with known (function, type) labels, and known duplicate, refinement and
contradiction pairs. `write_project` turns that into the files the
pipeline reads: an OPL model, a requirement CSV, instructions, a type
glossary, gold labels and the pipeline config. The planted truth stays
with the benchmark; the program only sees the files.

Every name, requirement text and system-requirement text has a fixed
length, and the cluster sizes come from a fixed profile that the seed
only permutes. So the number of backend calls and the prompt bytes of a
workload do not depend on the seed, while labels, names, order and pairs
do.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

CATCH_ALL = "_OF_"
TYPES = ("FUNC", "PROB", "_OT_")
TYPE_WEIGHTS = (6, 3, 1)
VERSION_TAG = "bench"
PRIMARY_FUNCTION_SHARE = 100  # one primary system per this many functions
CATCH_ALL_SHARE = 0.05  # requirements planted on _OF_
CHUNK_SIZE = 10

# Five-letter words with distinct initials: a three-word leaf name derives
# the three-letter alias of its initials, so planted aliases are unique.
WORDS = (
    "Amber", "Brake", "Cargo", "Drive", "Earth", "Flare", "Guard", "Hover",
    "Inlet", "Joint", "Knife", "Laser", "Motor", "Nodal", "Orbit", "Pilot",
    "Quota", "Radar", "Solar", "Tower", "Unity", "Valve", "Wheel", "Xenon",
    "Yacht", "Zonal",
)
# Relative cluster sizes, cycled over the functions; a zero leaves a
# function without requirements, so it shows as a coverage gap.
SIZE_PROFILE = (0.0, 0.5, 1.0, 1.0, 1.5, 2.0)

TYPE_GLOSSARY = {
    "safety_function_type": {
        "FUNC": "Functional safety requirement: defines a behavior or capability the system shall provide.",
        "PROB": "Probabilistic safety requirement: constrains a likelihood, rate or tolerable failure measure.",
        "_OT_": "Other type: the text does not state a clearly functional or probabilistic demand.",
    }
}

CLASSIFY_MARKER = "Classify each one of the requirements as Functional (FUNC)"

INSTRUCTIONS = f"""\
Below is a list of system requirements, under the tag Safety Requirements. In the RESOURCES tag, there is an ARCHITECTURE resource which lists the primary systems' functions as {{Alias:Lineage}} pairs.

Write a corresponding System Requirement as a shall statement that is necessary, clear, traceable, verifiable and complete. If the requirement is fine as is, keep it.

A. Categorize each one of the requirements under ONE of the functions, or if your confidence level is less than 80%, as Other function (_OF_). Use only the aliases in the ARCHITECTURE resource.

B. {CLASSIFY_MARKER} or Probabilistic (PROB), or if your confidence level is less than 80%, as Other type (_OT_). The types are listed under the tag safety_function_type.

C. Provide your confidence level as a number between 0 and 100.
D. Explain why you chose the function.
E. Explain why you chose the type.

F. Return your results in a JSON list where every record carries the fields ReqID, System_Requirement, Function, Type, Confidence, Function_Explanation and Type_Explanation.
"""


@dataclass(frozen=True)
class Spec:
    """Size and shape of one workload."""

    requirements: int
    functions: int
    latency_s: float  # echo backend sleep per call
    rerun: bool  # time a delta rerun after an untimed cold run


WORKLOADS = {
    "pipeline_wide": Spec(requirements=5000, functions=500, latency_s=0.0, rerun=False),
    "pairs_latency": Spec(requirements=2000, functions=50, latency_s=0.02, rerun=False),
    "rerun_delta": Spec(requirements=10000, functions=100, latency_s=0.0, rerun=True),
}


@dataclass(frozen=True)
class Planted:
    """One requirement with the label the echo backend will return."""

    req_id: str
    text: str
    function: str
    rtype: str
    confidence: int
    system_requirement: str


@dataclass
class Workload:
    opl: str
    catalog: dict[str, str]  # alias -> lineage, _OF_ included
    requirements: list[Planted]
    duplicates: set[tuple[str, str, str]] = field(default_factory=set)  # (a, b, alias)
    refinements: set[tuple[str, str, str]] = field(default_factory=set)
    contradictions: set[tuple[str, str, str]] = field(default_factory=set)

    @property
    def labels(self) -> dict[str, Planted]:
        return {p.req_id: p for p in self.requirements}


def _triple(code: int) -> tuple[str, str]:
    """(leaf name, alias) for a base-26 three-word code."""
    words = (WORDS[code // 676], WORDS[(code // 26) % 26], WORDS[code % 26])
    return " ".join(words), "".join(w[0] for w in words)


def _pair_name(prefix: str, code: int) -> str:
    return f"{prefix} {WORDS[code // 26]} {WORDS[code % 26]}"


def _declare(name: str, kind: str, essence: str = "informatical") -> str:
    return f"{name} is {'an' if essence == 'informatical' else 'a'} {essence} and systemic {kind}."


def _listing(names: list[str]) -> str:
    return names[0] if len(names) == 1 else ", ".join(names[:-1]) + " and " + names[-1]


def _cluster_sizes(total: int, functions: int) -> list[int]:
    """Cluster sizes from the fixed profile, summing to total."""
    base = total / functions
    weights = [SIZE_PROFILE[i % len(SIZE_PROFILE)] for i in range(functions)]
    sizes = [int(base * w) for w in weights]
    live = [i for i, w in enumerate(weights) if w > 0]
    for k in range(total - sum(sizes)):
        sizes[live[k % len(live)]] += 1
    return sizes


def _plant_architecture(spec: Spec, rng: random.Random) -> tuple[str, dict[str, str]]:
    """OPL text and its expected {alias: lineage} catalog.

    Each primary system exhibits one function directly; the rest sit on
    modules of two functions. Every third module exhibits a composite
    process that consists of its two leaf functions; the others exhibit
    their two leaves. Each module also carries a state enumeration and a
    flow object that one leaf yields and the other requires, which the
    catalog must ignore.
    """
    n_primary = max(2, min(len(WORDS), spec.functions // PRIMARY_FUNCTION_SHARE))
    on_modules = spec.functions - n_primary
    n_modules = math.ceil(on_modules / 2)
    leaf_codes = rng.sample(range(26**3), spec.functions + n_modules)
    leaves = [_triple(code) for code in leaf_codes[: spec.functions]]
    composites = [_triple(code)[0] for code in leaf_codes[spec.functions :]]
    primaries = [f"System {w}" for w in rng.sample(WORDS, n_primary)]
    modules = [_pair_name("Module", c) for c in rng.sample(range(26 * 26), n_modules)]
    flows = [_pair_name("Signal", c) for c in rng.sample(range(26 * 26), n_modules)]

    catalog: dict[str, str] = {}
    lines: list[str] = []
    next_leaf = iter(leaves)
    for i, primary in enumerate(primaries):
        lines.append(_declare(primary, "object", "physical"))
        lines.append(f"{primary} consists of {_listing(modules[i::n_primary])}.")
        name, alias = next(next_leaf)
        lines += [_declare(name, "process"), f"{primary} exhibits {name}."]
        catalog[alias] = f"{primary}/{name}"
    for j, module in enumerate(modules):
        primary = primaries[j % n_primary]
        mine = [next(next_leaf) for _ in range(min(2, on_modules - 2 * j))]
        names = [name for name, _ in mine]
        for name, alias in mine:
            catalog[alias] = f"{primary}/{module}/{name}"
        lines += [_declare(module, "object", "physical"), f"{module} can be idle or active."]
        lines += [_declare(name, "process") for name in names]
        if len(names) == 2 and j % 3 == 0:
            lines.append(_declare(composites[j], "process"))
            lines.append(f"{module} exhibits {composites[j]}.")
            lines.append(f"{composites[j]} consists of {_listing(names)}.")
        else:
            lines.append(f"{module} exhibits {_listing(names)}.")
        if len(names) == 2:
            lines += [
                _declare(flows[j], "object"),
                f"{names[0]} yields {flows[j]}.",
                f"{names[1]} requires {flows[j]}.",
            ]
    catalog[CATCH_ALL] = "Other Function"
    return "\n".join(lines) + "\n", catalog


def _text(rng: random.Random) -> tuple[str, str]:
    """(requirement text, system requirement), each of fixed length."""
    w = [rng.choice(WORDS).lower() for _ in range(5)]
    tail = f"hold {w[2]} {w[3]} within {rng.randint(100, 999)} ms of {w[4]} demand."
    return f"The {w[0]} {w[1]} should {tail}", f"The system shall {tail}"


def generate(spec: Spec, seed: int) -> Workload:
    """Plant one workload; equal (spec, seed) give equal workloads."""
    rng = random.Random(f"safereq-bench:{spec}:{seed}")
    opl, catalog = _plant_architecture(spec, rng)
    aliases = [a for a in catalog if a != CATCH_ALL]
    n_catch_all = round(spec.requirements * CATCH_ALL_SHARE)
    sizes = _cluster_sizes(spec.requirements - n_catch_all, len(aliases))
    rng.shuffle(sizes)
    slots = [a for a, n in zip(aliases, sizes) for _ in range(n)] + [CATCH_ALL] * n_catch_all
    rng.shuffle(slots)

    requirements = []
    for i, alias in enumerate(slots, start=1):
        text, sysreq = _text(rng)
        requirements.append(
            Planted(
                req_id=f"R{i:05d}",
                text=text,
                function=alias,
                rtype=rng.choices(TYPES, TYPE_WEIGHTS)[0],
                confidence=rng.randint(80, 99),
                system_requirement=sysreq,
            )
        )
    workload = Workload(opl=opl, catalog=catalog, requirements=requirements)
    _plant_pairs(workload, rng)
    return workload


def _plant_pairs(workload: Workload, rng: random.Random) -> None:
    """Disjoint duplicate pairs and one contradiction inside each function;
    refinements between a catch-all row and every tenth function; and
    contradictions among the catch-all rows. Counts depend on cluster
    sizes only."""
    members: dict[str, list[str]] = {}
    for p in workload.requirements:
        members.setdefault(p.function, []).append(p.req_id)
    catch_all = members.pop(CATCH_ALL, [])

    def pair(a: str, b: str, alias: str) -> tuple[str, str, str]:
        return (min(a, b), max(a, b), alias)

    for index, (alias, ids) in enumerate(members.items()):
        ids = rng.sample(ids, len(ids))
        n_dup = len(ids) // 5
        for k in range(n_dup):
            workload.duplicates.add(pair(ids[2 * k], ids[2 * k + 1], alias))
        rest = ids[2 * n_dup :]
        if len(ids) >= 4:
            workload.contradictions.add(pair(rest[0], rest[1], alias))
        if index % 10 == 0 and catch_all:
            workload.refinements.add(pair(rng.choice(catch_all), rng.choice(ids), alias))
    shuffled = rng.sample(catch_all, len(catch_all))
    for k in range(len(catch_all) // 10):
        workload.contradictions.add(pair(shuffled[2 * k], shuffled[2 * k + 1], CATCH_ALL))


# ---------------------------------------------------------------------------
# Project files
# ---------------------------------------------------------------------------

REQUIREMENTS_CSV = "B/input/requirements.csv"
RESULTS_DIR = "B/results"
REPORTS_DIR = f"{RESULTS_DIR}/reports"
RESOURCES_JSON = "B/resources.json"
GLOSSARY_JSON = "B/type_glossary.json"
ARCHITECTURE_OPL = "architecture.opl"
CONFIG_JSON = "params.json"
COVERAGE_TASK = "c_identify_coverage_gaps"  # local: recomputed on every run


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _config() -> dict:
    joined = f"{RESULTS_DIR}/joined/b_classify_requirements_joined.csv"
    return {
        "defaults": {
            "type": "GENERATIVE_ANALYSIS_TASK",
            "run": True,
            "delta": True,
            "project_dir": ".",
            "dataset_name": "Safety Requirements",
            "dataset_id_column": "ReqID",
            "dataset_columns": ["Requirement"],
            "result_columns": ["Function", "Type", "Confidence", "System Requirement"],
            "resources": RESOURCES_JSON,
            "output_path": RESULTS_DIR,
            "chunk_size": CHUNK_SIZE,
            "max_items": -1,
            "execute": True,
            "analyze": True,
            "verbose": False,
        },
        "llm": {"backend": "mock", "fixture_dir": "fixtures", "model_id": "echo"},
        "b_classify_requirements": {
            "input_file": REQUIREMENTS_CSV,
            "instructions": "B/instructions.txt",
            "analysis_function": "analyze_requirement_completeness",
            "gold_file": "B/gold/labels.csv",
        },
        COVERAGE_TASK: {
            "input_file": joined,
            "execute": False,
            "analysis_function": "analyze_coverage_gaps",
        },
        "d_identify_duplicates": {
            "input_file": joined,
            "analysis_function": "analyze_duplicate_requirements",
            "prompt_version": "V3",
            "gold_file": "B/gold/duplicates.csv",
        },
        "e_identify_contradictions": {
            "input_file": joined,
            "analysis_function": "analyze_contradicting_requirements",
            "gold_file": "B/gold/contradictions.csv",
        },
    }


def write_project(workload: Workload, root: Path) -> None:
    """Write every file the pipeline reads; ingest adds the resources file."""
    root.mkdir(parents=True, exist_ok=True)
    (root / ARCHITECTURE_OPL).write_text(workload.opl, encoding="utf-8")
    (root / "B").mkdir(exist_ok=True)
    (root / "B/instructions.txt").write_text(INSTRUCTIONS, encoding="utf-8")
    (root / GLOSSARY_JSON).write_text(json.dumps(TYPE_GLOSSARY, indent=2) + "\n", encoding="utf-8")
    _write_csv(root / REQUIREMENTS_CSV, ["ReqID", "Requirement"], [[p.req_id, p.text] for p in workload.requirements])
    _write_csv(
        root / "B/gold/labels.csv",
        ["ReqID", "Function", "Type"],
        [[p.req_id, p.function, p.rtype] for p in workload.requirements],
    )
    for name, pairs in (("duplicates", workload.duplicates), ("contradictions", workload.contradictions)):
        _write_csv(root / f"B/gold/{name}.csv", ["req_a", "req_b"], [[a, b] for a, b, _ in sorted(pairs)])
    (root / CONFIG_JSON).write_text(json.dumps(_config(), indent=2) + "\n", encoding="utf-8")
