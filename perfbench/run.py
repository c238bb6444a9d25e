"""End-to-end and per-layer benchmark of the safereq pipeline.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload from the seed into perfbench/.work/, times the
set-up (SETUP_RUNS fresh processes that import safereq, ingest the
architecture and load the config), then has a worker process repeat
`run_all` for S seconds. For the rerun workload an untimed cold run
comes first. The outputs are checked against the planted truth, the
sample project's report set against its recorded digest, and the
repository tree for stray writes.

Prints a readable table, then as its last line one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Exits 1 when a check
fails and 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
from workload import REPORTS_DIR, WORKLOADS, generate, write_project

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_RUNS = 7
TIME_LIMIT_S = 170.0
SKIP_DIRS = {".git", ".work", "__pycache__", ".pytest_cache", ".bench_build"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "backend_calls": "count",
    "prompt_bytes_per_req": "bytes",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "opl.parse_s": "s",
    "catalog.extract_s": "s",
    "catalog.lookup_calls": "count",
    "catalog.lookup_s": "s",
    "requirements.load_s": "s",
    "requirements.chunk_s": "s",
    "gateway.assemble_s": "s",
    "gateway.prompt_bytes": "bytes",
    "gateway.send_self_s": "s",
    "gateway.backend_wait_s": "s",
    "gateway.calls": "count",
    "gateway.retries": "count",
    "gateway.parse_s": "s",
    "gateway.parses_per_call": "ratio",
    "classify.validate_s": "s",
    "classify.quarantined": "count",
    "coverage.build_s": "s",
    "pairwise.cluster_s": "s",
    "pairwise.consolidate_s": "s",
    "pairwise.detect_self_s": "s",
    "pairwise.rows_submitted": "count",
    "reporting.emit_s": "s",
    "reporting.bytes_written": "bytes",
    "orchestrator.load_config_s": "s",
    "orchestrator.self_s": "s",
    "orchestrator.delta_hits": "count",
    "orchestrator.rehydrate_s": "s",
    "run.cpu_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run to the end."""


def run_child(deadline: float, script: str, *args: str) -> tuple[float, list[str]]:
    """Run a benchmark script in a fresh process, killed at the deadline.

    Returns the seconds from start to its first output line, and its lines.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), *args], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(max(1.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        first_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"{script} {' '.join(args)} exited with code {code}")
    return first_s, [first.rstrip("\n"), *rest.splitlines()]


def snapshot(root: Path) -> dict[str, tuple[int, int]]:
    """(size, mtime) of every file of the tree, outside scratch directories."""
    files = {}
    for directory, subdirs, names in os.walk(root):
        subdirs[:] = [d for d in subdirs if d not in SKIP_DIRS]
        for name in names:
            stat = os.stat(os.path.join(directory, name))
            files[os.path.relpath(os.path.join(directory, name), root)] = (
                stat.st_size,
                stat.st_mtime_ns,
            )
    return files


def median(values) -> float:
    return statistics.median(list(values))


def bench(args: argparse.Namespace, work: Path, deadline: float) -> tuple[dict, list[str], list[str]]:
    """Returns (figures, table lines, problems)."""
    spec = WORKLOADS[args.workload]
    workload = generate(spec, args.seed)
    project = work / "project"
    write_project(workload, project)

    setups = []
    for _ in range(SETUP_RUNS):
        ready_s, lines = run_child(deadline, "ingest.py", str(project))
        if lines[0] != "ready":
            raise BenchError(f"ingest printed {lines[0]!r} instead of ready")
        setups.append((ready_s, json.loads(lines[1])))

    worker = ("--workload", args.workload, "--seed", str(args.seed), "--project", str(project))
    prime = None
    if spec.rerun:
        prime = json.loads(run_child(deadline, "worker.py", *worker, "--prime")[1][-1])["runs"][0]
    timed = ("--seconds", str(args.seconds), "--trace", str(args.trace))
    measured = json.loads(run_child(deadline, "worker.py", *worker, *timed)[1][-1])
    runs, traced = measured["runs"], measured["traced"]

    problems = checks.reports(workload, project / REPORTS_DIR)
    problems += checks.runs(runs + traced, spec.rerun, prime)
    problems += checks.sample_project(measured["sample_reports"])

    cold = [prime] if prime else []
    calls = median(r["calls"] for r in runs) + sum(r["calls"] for r in cold)
    prompt_bytes = median(r["prompt_bytes"] for r in runs) + sum(r["prompt_bytes"] for r in cold)
    end_to_end = {
        "setup_s": median(s for s, _ in setups),
        "run_s": median(r["run_s"] for r in runs),
        "backend_calls": calls,
        "prompt_bytes_per_req": prompt_bytes / spec.requirements,
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    everything = cold + runs + traced
    attempted = sum(len(r["statuses"]) + r["calls"] for r in everything)
    failed = sum(
        sum(status == "Failed" for _, status, _ in r["statuses"]) + r["backend_failures"]
        for r in everything
    )
    lines = [
        f"workload {args.workload}, seed {args.seed}: {spec.requirements} requirements, "
        f"{spec.functions} functions, echo latency {spec.latency_s * 1000:g} ms, "
        f"{len(runs)} timed runs, {SETUP_RUNS} set-ups",
        f"  {'setup_s':24} {end_to_end['setup_s']:14.4f} s",
        f"  {'run_s':24} {end_to_end['run_s']:14.4f} s (median; runs from "
        f"{min(r['run_s'] for r in runs):.4f} to {max(r['run_s'] for r in runs):.4f} s)",
        f"  {'backend_calls':24} {median(r['calls'] for r in runs):14.0f} count per run"
        + (f" (+{prime['calls']} in the untimed cold run)" if prime else ""),
        f"  {'prompt_bytes_per_req':24} {median(r['prompt_bytes'] for r in runs) / spec.requirements:14.1f} bytes per run"
        + (f" (+{prime['prompt_bytes'] / spec.requirements:.1f} in the cold run)" if prime else ""),
        f"  {'peak_rss_mb':24} {end_to_end['peak_rss_mb']:14.1f} MiB",
        f"  {'error_rate':24} {failed / attempted:14.4f} ratio ({failed} of {attempted} operations)",
    ]

    per_layer = {}
    if traced:
        per_layer = {
            name: median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
        }
        per_layer["opl.parse_s"] = median(s["opl.parse_s"] for _, s in setups)
        per_layer["catalog.extract_s"] = median(s["catalog.extract_s"] for _, s in setups)
        per_layer["gateway.prompt_bytes"] = median(r["prompt_bytes"] for r in traced)
        per_layer["run.cpu_s"] = median(r["cpu_s"] for r in runs)
        traced_s = median(r["traced_s"] for r in traced)
        per_layer["trace.overhead_s"] = traced_s - end_to_end["run_s"]
        lines += trace_table(traced, traced_s, end_to_end["run_s"], per_layer)
    return (
        {"attempted": attempted, "failed": failed, "end_to_end": end_to_end, "per_layer": per_layer},
        lines,
        problems,
    )


def trace_table(traced: list[dict], traced_s: float, run_s: float, per_layer: dict) -> list[str]:
    """Self-time table of the traced run of median length."""
    middle = min(traced, key=lambda r: abs(r["traced_s"] - traced_s))
    lines = ["", f"  {'span':28} {'calls':>8} {'total_s':>10} {'self_s':>10}"]
    lines += [
        f"  {name:28} {calls:8d} {total:10.4f} {own:10.4f}" for name, calls, total, own in middle["table"]
    ]
    self_sum = sum(row[3] for row in middle["table"])
    lines.append(
        f"  self times sum to {self_sum:.4f} s = traced run_s {middle['traced_s']:.4f} s; "
        f"untraced run_s {run_s:.4f} s; tracing overhead {per_layer['trace.overhead_s']:.4f} s"
    )
    if middle["missing"]:
        lines.append("  not traced (absent from the package): " + ", ".join(middle["missing"]))
    lines += ["", f"  {'per-layer metric':28} {'value':>14}"]
    lines += [
        f"  {name:28} {per_layer[name]:14.4f} {unit}" for name, unit in PER_LAYER_UNITS.items()
    ]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "safereq" / "__init__.py").is_file():
        print(f"no safereq source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT_S
    work = WORK / f"{args.workload}-{os.getpid()}"
    before = snapshot(ROOT)
    try:
        figures, lines, problems = bench(args, work, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    if snapshot(ROOT) != before:
        problems.append("files outside perfbench/.work were written or changed")

    print("\n".join(lines))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    values = figures["per_layer"] if args.trace else figures["end_to_end"]
    result = {
        "correct": not problems,
        "attempted": figures["attempted"],
        "failed": figures["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
