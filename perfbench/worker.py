"""The run process: timed `run_all` calls over one generated project.

Usage:
  python3 perfbench/worker.py --workload NAME --seed N --project DIR
      [--seconds S] [--trace 0|1] [--prime]

With --prime it makes one forced run (the untimed cold run a delta rerun
starts from). Otherwise it repeats `run_all` for up to S seconds, and at
least MIN_RUNS times; with --trace 1 each untraced run is followed by a
traced one. It then runs the sample project with the
mock backend. The last line of its output is one JSON object holding
every run's figures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import safereq  # noqa: E402
import tracer as tracing  # noqa: E402
from echo import EchoBackend  # noqa: E402
from workload import CONFIG_JSON, REPORTS_DIR, VERSION_TAG, WORKLOADS, generate  # noqa: E402

MIN_RUNS = 3
MIN_TRACED_RUNS = 2
SAMPLE_REPORTS = "B_Requirements/results/reports"


def digest(directory: Path) -> dict[str, str]:
    """sha256 of every file under directory, by relative path."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def run_once(project: Path, echo: EchoBackend, force: bool, tracer=None) -> dict:
    gc.collect()
    echo.reset()
    if tracer is not None:
        tracer.install(echo)
        root = tracer.open("orchestrator.run_all")
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        report = safereq.run_all(
            project / CONFIG_JSON, backend=echo, force=force, version_tag=VERSION_TAG
        )
    finally:
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
    return {
        "run_s": wall,
        "cpu_s": cpu,
        "calls": echo.call_count,
        "prompt_bytes": echo.prompt_bytes,
        "backend_failures": echo.failures,
        "statuses": [[r.name, r.status, r.detail] for r in report.results],
        "reports": digest(project / REPORTS_DIR),
    }


def run_traced(project: Path, echo: EchoBackend, force: bool) -> dict:
    tracer = tracing.Tracer()
    run = run_once(project, echo, force, tracer)
    run["layers"] = tracing.layer_metrics(tracer)
    run["traced_s"] = next(
        s[tracing.END] - s[tracing.START]
        for s in tracer.spans
        if s[tracing.NAME] == "orchestrator.run_all"
    )
    run["table"] = tracing.table(tracer.spans)
    run["missing"] = tracer.missing
    return run


def sample_project(scratch: Path) -> dict[str, str]:
    """Report-set digest of the bundled sample project on the mock backend."""
    copy = scratch / "sample_project"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(
        ROOT / "sample_project", copy, ignore=shutil.ignore_patterns("results")
    )
    safereq.run_all(copy / "params.json", version_tag=VERSION_TAG)
    return digest(copy / SAMPLE_REPORTS)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--project", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prime", action="store_true")
    args = parser.parse_args(argv)

    spec = WORKLOADS[args.workload]
    echo = EchoBackend(generate(spec, args.seed), latency_s=spec.latency_s)
    if args.prime:
        print(json.dumps({"runs": [run_once(args.project, echo, force=True)]}))
        return

    force = not spec.rerun
    runs, traced = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        runs.append(run_once(args.project, echo, force))
        if args.trace:
            traced.append(run_traced(args.project, echo, force))
        now = time.perf_counter()
        enough = len(traced) >= MIN_TRACED_RUNS if args.trace else len(runs) >= MIN_RUNS
        # Stop before a round that would end past the measuring window.
        if enough and now + (now - began) > start + args.seconds:
            break
    result = {
        "runs": runs,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sample_reports": sample_project(args.project.parent),
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
