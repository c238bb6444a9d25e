"""Span tracing of safereq's layers from outside the package.

`Tracer.install()` replaces the public functions of each layer, as bound
in the modules that call them, with wrappers that record a span: name,
start, end and the index of the enclosing span. Spans stay in memory.
`uninstall()` puts the original functions back, so untraced runs pay
nothing. Span names are "<layer>.<step>"; the layers are the modules of
src/safereq.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from pathlib import Path

from safereq import catalog, gateway, orchestrator, pairwise

NAME, START, END, PARENT = range(4)


# Counters fed from a call's arguments or result, after its span closed.


def _count_delta(tracer, span, args, result) -> None:
    if result.status == orchestrator.STATUS_SKIPPED and result.detail.startswith("delta"):
        tracer.counters["orchestrator.delta_hits"] += 1
        tracer.counters["orchestrator.rehydrate_s"] += span[END] - span[START]


def _count_rejected(tracer, span, args, result) -> None:
    tracer.counters["classify.quarantined"] += len(result.rejected)


def _count_quarantined(tracer, span, args, result) -> None:
    tracer.counters["classify.quarantined"] += len(result.quarantined)


def _count_report_bytes(tracer, span, args, result) -> None:
    tracer.counters["reporting.bytes_written"] += sum(
        Path(path).stat().st_size for path in result.files.values()
    )


def _count_rows(tracer, span, args, result) -> None:
    tracer.counters["pairwise.rows_submitted"] += len(args[0].rows)


# (owner, attribute, span name, counter)
TARGETS = (
    (orchestrator, "load_config", "orchestrator.load_config", None),
    (orchestrator, "run_task", "orchestrator.run_task", _count_delta),
    (orchestrator, "load_requirements", "requirements.load", None),
    (orchestrator, "chunk_requirements", "requirements.chunk", None),
    (orchestrator, "catalog_from_alias_map", "catalog.build", None),
    (orchestrator, "catalog_from_mapping", "catalog.build", None),
    (orchestrator, "assemble_prompt", "gateway.assemble", None),
    (orchestrator, "send", "gateway.send", None),
    (orchestrator, "parse_results_json", "gateway.parse", _count_rejected),
    (orchestrator, "validate_records", "classify.validate", _count_quarantined),
    (orchestrator, "accuracy", "classify.accuracy", None),
    (orchestrator, "build_matrix", "coverage.build", None),
    (orchestrator, "gap_ranking", "coverage.build", None),
    (orchestrator, "cluster_by_function", "pairwise.cluster", None),
    (orchestrator, "detect_duplicates", "pairwise.detect", None),
    (orchestrator, "detect_contradictions", "pairwise.detect", None),
    (orchestrator, "load_gold_pairs", "pairwise.score", None),
    (orchestrator, "score", "pairwise.score", None),
    (orchestrator, "emit_report_set", "reporting.emit", _count_report_bytes),
    (pairwise, "assemble_prompt", "gateway.assemble", _count_rows),
    (pairwise, "send", "gateway.send", None),
    (pairwise, "parse_results_json", "gateway.parse", None),
    (pairwise, "consolidate", "pairwise.consolidate", None),
    (gateway, "parse_results_json", "gateway.parse", None),
    (catalog.FunctionCatalog, "has_alias", "catalog.lookup", None),
    (catalog.FunctionCatalog, "entry", "catalog.lookup", None),
)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, count=None):
        """Wrap fn in a span; count(tracer, span, args, result) runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                count(self, self.spans[index], args, result)
            return result

        return traced

    def install(self, backend=None) -> None:
        """Wrap every layer target, and backend.complete when given.

        A target the package no longer has is listed in .missing.
        """
        for owner, attr, name, count in TARGETS:
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))
        if backend is not None:
            self._saved.append((backend, "complete", None))
            backend.complete = self.wrap("gateway.backend", backend.complete)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# Self time and per-layer metrics
# ---------------------------------------------------------------------------


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - _covered(span[START], span[END], children[i])
        for i, span in enumerate(spans)
    ]


def table(spans: list[list]) -> list[tuple[str, int, float, float]]:
    """(name, calls, total s, self s) per span name, largest self first."""
    selfs = self_times(spans)
    rows: dict[str, list] = {}
    for span, own in zip(spans, selfs):
        row = rows.setdefault(span[NAME], [span[NAME], 0, 0.0, 0.0])
        row[1] += 1
        row[2] += span[END] - span[START]
        row[3] += own
    return sorted((tuple(r) for r in rows.values()), key=lambda r: -r[3])


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run (spans and counters)."""
    rows = {name: (calls, total, own) for name, calls, total, own in table(tracer.spans)}

    def calls(name):
        return rows.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return rows.get(name, (0, 0.0, 0.0))[1]

    def own(prefix):
        return sum(r[2] for name, r in rows.items() if name.startswith(prefix))

    backend_calls = calls("gateway.backend")
    return {
        "catalog.lookup_calls": calls("catalog.lookup"),
        "catalog.lookup_s": total("catalog.lookup"),
        "requirements.load_s": total("requirements.load"),
        "requirements.chunk_s": total("requirements.chunk"),
        "gateway.assemble_s": total("gateway.assemble"),
        "gateway.send_self_s": own("gateway.send"),
        "gateway.backend_wait_s": total("gateway.backend"),
        "gateway.calls": backend_calls,
        "gateway.retries": backend_calls - calls("gateway.send"),
        "gateway.parse_s": total("gateway.parse"),
        "gateway.parses_per_call": calls("gateway.parse") / backend_calls if backend_calls else 0.0,
        "classify.validate_s": total("classify.validate"),
        "classify.quarantined": tracer.counters["classify.quarantined"],
        "coverage.build_s": total("coverage.build"),
        "pairwise.cluster_s": total("pairwise.cluster"),
        "pairwise.consolidate_s": total("pairwise.consolidate"),
        "pairwise.detect_self_s": own("pairwise.detect"),
        "pairwise.rows_submitted": tracer.counters["pairwise.rows_submitted"],
        "reporting.emit_s": total("reporting.emit"),
        "reporting.bytes_written": tracer.counters["reporting.bytes_written"],
        "orchestrator.load_config_s": total("orchestrator.load_config"),
        "orchestrator.self_s": own("orchestrator."),
        "orchestrator.delta_hits": tracer.counters["orchestrator.delta_hits"],
        "orchestrator.rehydrate_s": tracer.counters["orchestrator.rehydrate_s"],
    }
