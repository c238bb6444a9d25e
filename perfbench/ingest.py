"""Set-up of a pipeline run, as a fresh user process pays for it.

Usage: python3 perfbench/ingest.py <project dir>

Imports safereq, parses the project's OPL model, extracts the function
catalog, writes it as the ARCHITECTURE resource beside the type
glossary, and loads the pipeline config: everything before the first
task starts. Prints "ready" once that is done, then one JSON line with
the seconds each step took.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import safereq  # noqa: E402
from workload import ARCHITECTURE_OPL, CONFIG_JSON, GLOSSARY_JSON, RESOURCES_JSON  # noqa: E402


def main(project: Path) -> None:
    t0 = time.perf_counter()
    graph = safereq.parse_opl((project / ARCHITECTURE_OPL).read_text(encoding="utf-8"))
    t1 = time.perf_counter()
    catalog = safereq.extract_catalog(graph)
    t2 = time.perf_counter()
    glossary = json.loads((project / GLOSSARY_JSON).read_text(encoding="utf-8"))
    resources = {"ARCHITECTURE": catalog.to_mapping(), **glossary}
    (project / RESOURCES_JSON).write_text(
        json.dumps(resources, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    t3 = time.perf_counter()
    safereq.load_config(project / CONFIG_JSON)
    t4 = time.perf_counter()
    print("ready", flush=True)
    print(
        json.dumps(
            {
                "opl.parse_s": t1 - t0,
                "catalog.extract_s": t2 - t1,
                "orchestrator.load_config_s": t4 - t3,
            }
        )
    )


if __name__ == "__main__":
    main(Path(sys.argv[1]))
