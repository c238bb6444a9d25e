"""In-process echo backend that answers from the planted truth.

It stands in for the language model: classification prompts get the
planted (function, type) of every ReqID in the prompt, duplicate prompts
get the planted duplicate and refinement pairs whose two ReqIDs both
appear in the prompt, and contradiction prompts get the planted
contradiction pairs likewise. It sleeps a fixed latency per call and
keeps its own counts: calls, busy time, prompt bytes and failures.
"""

from __future__ import annotations

import json
import re
import time

from workload import CLASSIFY_MARKER, Workload

from safereq.errors import NotFixturedError
from safereq.gateway import prompt_sha256

DUPLICATE_MARKER = "mark the duplicate requirements"
CONTRADICTION_MARKER = "mark the contradicting requirements"

_ROW_RE = re.compile(r'^\{"ReqID": "([^"]*)"', re.MULTILINE)


def _pairs_by_id(pairs) -> dict[str, list[tuple[str, str, str]]]:
    index: dict[str, list[tuple[str, str, str]]] = {}
    for a, b, kind in pairs:
        index.setdefault(a, []).append((a, b, kind))
    return index


class EchoBackend:
    """Answers every prompt of the pipeline from a planted Workload."""

    def __init__(self, workload: Workload, latency_s: float = 0.0):
        self.labels = workload.labels
        self.latency_s = latency_s
        self.duplicate_pairs = _pairs_by_id(
            [(a, b, "Duplicate") for a, b, _ in workload.duplicates]
            + [(a, b, "Refinement") for a, b, _ in workload.refinements]
        )
        self.contradiction_pairs = _pairs_by_id(
            [(a, b, "Contradiction") for a, b, _ in workload.contradictions]
        )
        self.reset()

    def reset(self) -> None:
        self.call_count = 0
        self.busy_s = 0.0
        self.prompt_bytes = 0
        self.failures = 0

    def complete(self, prompt: str, params) -> tuple[str, dict]:
        start = time.perf_counter()
        self.call_count += 1
        self.prompt_bytes += len(prompt.encode("utf-8"))
        try:
            raw = self._answer(prompt)
        except NotFixturedError:
            self.failures += 1
            raise
        finally:
            if self.latency_s:
                time.sleep(self.latency_s)
            self.busy_s += time.perf_counter() - start
        usage = {
            "prompt_tokens": len(prompt) // 4,
            "completion_tokens": len(raw) // 4,
            "total_tokens": (len(prompt) + len(raw)) // 4,
        }
        return raw, usage

    def _answer(self, prompt: str) -> str:
        head = prompt[:200]
        if DUPLICATE_MARKER in head:
            return self._pairs(prompt, self.duplicate_pairs)
        if CONTRADICTION_MARKER in head:
            return self._pairs(prompt, self.contradiction_pairs)
        if CLASSIFY_MARKER in prompt:
            return self._classify(prompt)
        raise NotFixturedError(prompt_sha256(prompt))

    def _classify(self, prompt: str) -> str:
        rows = _ROW_RE.findall(prompt, prompt.rfind("</RESOURCES>") + 1)
        records = []
        for req_id in rows:
            planted = self.labels.get(req_id)
            if planted is None:
                raise NotFixturedError(f"unplanted ReqID {req_id!r}")
            records.append(
                {
                    "ReqID": req_id,
                    "System_Requirement": planted.system_requirement,
                    "Function": planted.function,
                    "Type": planted.rtype,
                    "Confidence": planted.confidence,
                    "Function_Explanation": f"The requirement belongs to {planted.function}.",
                    "Type_Explanation": f"The requirement reads as {planted.rtype}.",
                }
            )
        return json.dumps({"results": records})

    def _pairs(self, prompt: str, index: dict[str, list[tuple[str, str, str]]]) -> str:
        present = set(_ROW_RE.findall(prompt))
        records = [
            {"ReqID_A": a, "ReqID_B": b, "Relation": kind, "Rationale": "Planted pair."}
            for req_id in sorted(present)
            for a, b, kind in index.get(req_id, ())
            if b in present
        ]
        return json.dumps({"results": records})
