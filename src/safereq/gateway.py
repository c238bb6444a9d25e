"""Backend-agnostic LLM access: prompt assembly, dispatch, result parsing.

Two backends share one calling convention: an HTTP backend speaking the
chat-completions wire shape, and an offline mock that replays canned
responses from a fixture directory. Prompt assembly is deterministic so
the mock can key fixtures off a sha256 of the exact prompt text.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path
from threading import Lock
from typing import Any, Callable, Iterable, Iterator, Protocol, Sequence

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from .errors import (
    AuthMissingError,
    ChunkTooLargeError,
    MissingResultsRootError,
    NoJsonFoundError,
    NotFixturedError,
    RateLimitedError,
    SafereqError,
    SchemaViolationError,
    TransportError,
    UndecodableFileError,
)

DEFAULT_SYSTEM_CONTEXT = (
    "You are a requirements analysis engine. Follow the instructions exactly "
    "and answer with a single JSON document under the root key \"results\"."
)

# ---------------------------------------------------------------------------
# Prompt envelope
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PromptResource:
    """One tagged context block included in a prompt."""

    tag: str
    body: Any  # str is used verbatim; dict/list are rendered as JSON


@dataclass(frozen=True)
class PromptEnvelope:
    """Everything that goes into one prompt, before rendering."""

    instructions: str
    resources: tuple[PromptResource, ...] = ()
    dataset_name: str = ""
    rows: tuple[tuple[str, str], ...] = ()  # (req_id, text)


@dataclass
class LlmRequestParams:
    model_id: str = "default"
    temperature: float = 0.0
    max_retries: int = 2  # total attempts = max_retries + 1
    backoff_start: float = 1.0  # seconds; doubles per retry
    timeout: float = 60.0
    system_context: str = DEFAULT_SYSTEM_CONTEXT
    max_concurrency: int = 8  # in-flight calls per send_many; 1 is sequential


@dataclass
class LlmResult:
    """One backend response, unparsed; callers parse raw_text themselves."""

    raw_text: str
    usage: dict = field(default_factory=dict)


def encode_row(req_id: str, text: str) -> str:
    """json.dumps({"ReqID": req_id, "Requirement": text}, ensure_ascii=False).

    Both strs go straight to the C string encoder; a JSONEncoder call per
    row costs several times more.
    """
    return '{"ReqID": %s, "Requirement": %s}' % (
        encode_basestring(req_id),
        encode_basestring(text),
    )


def _tagify(name: str) -> str:
    return re.sub(r"[^0-9A-Za-z_]+", "_", name).strip("_") or "DATASET"


def render_resource(body: Any) -> str:
    """Render one resource body as it appears in a prompt.

    A str is used verbatim (stripped); anything else is rendered as
    indented JSON. The result is idempotent: a body rendered once and
    passed as a str yields the same prompt bytes as the raw body.
    """
    if isinstance(body, str):
        return body.strip()
    return json.dumps(body, indent=2, ensure_ascii=False)


def _head(envelope: PromptEnvelope) -> str:
    """The instructions, then each resource wrapped in its tag inside a RESOURCES block."""
    parts = [envelope.instructions.strip()]
    if envelope.resources:
        blocks = []
        for res in envelope.resources:
            tag = _tagify(res.tag)
            blocks.append(f"<{tag}>\n{render_resource(res.body)}\n</{tag}>")
        parts.append("<RESOURCES>\n" + "\n".join(blocks) + "\n</RESOURCES>")
    return "\n\n".join(parts)


def _with_dataset(head: str, dataset_name: str, lines: Sequence[str]) -> str:
    """head, then the dataset lines inside a tag named after the dataset."""
    if not lines:
        return head + "\n"
    tag = _tagify(dataset_name)
    return f"{head}\n\n<{tag}>\n" + "\n".join(lines) + f"\n</{tag}>\n"


def assemble_prompt(envelope: PromptEnvelope) -> str:
    """Render an envelope to the exact prompt text.

    Layout: instructions, then each resource wrapped in its tag inside a
    RESOURCES block, then dataset rows as one JSON object per line
    ({"ReqID": ..., "Requirement": ...}) inside a tag named after the
    dataset. Pure function: equal envelopes render byte-identically.
    """
    lines = [encode_row(req_id, text) for req_id, text in envelope.rows]
    return _with_dataset(_head(envelope), envelope.dataset_name, lines)


def prompt_sha256(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Tolerant result parsing
# ---------------------------------------------------------------------------

_FENCE_RE = re.compile(r"```[a-zA-Z0-9]*\s*(.*?)```", re.DOTALL)
_RESULTS_BRACE_RE = re.compile(r"(\"results\"\s*:\s*)\{(?=\s*\{)")
_MISSING_COMMA_RE = re.compile(
    r"(\"(?:[^\"\\\n]|\\.)*\")(\s*\n\s*)(?=\"(?:[^\"\\\n]|\\.)*\"\s*:)"
)
_TRAILING_COMMA_RE = re.compile(r",(\s*[}\]])")


def _strip_fences(text: str) -> str:
    m = _FENCE_RE.search(text)
    return m.group(1) if m else text


def _repair(text: str) -> str:
    text = _RESULTS_BRACE_RE.sub(r"\1[", text)
    text = _MISSING_COMMA_RE.sub(r"\1,\2", text)
    return _TRAILING_COMMA_RE.sub(r"\1", text)


def _decode_first_json(text: str) -> Any | None:
    decoder = json.JSONDecoder()
    for i, ch in enumerate(text):
        if ch in "{[":
            try:
                value, _ = decoder.raw_decode(text, i)
                return value
            except json.JSONDecodeError:
                continue
            except RecursionError as exc:
                # Retrying at each nested opener would cost O(n * depth).
                raise NoJsonFoundError("response JSON is nested too deeply to parse") from exc
    return None


def extract_results_root(raw: str) -> Any:
    """Locate the JSON payload in a raw response and return its results root.

    Tolerates code fences, surrounding prose, a brace where the record
    list's bracket belongs, missing commas between a string value and the
    next key, and trailing commas.

    Raises:
        NoJsonFoundError: no JSON value anywhere in the text, or one
            nested too deeply to decode.
        MissingResultsRootError: JSON found but no "results" key.
    """
    text = _strip_fences(raw)
    first = _decode_first_json(text)
    if isinstance(first, dict) and "results" in first:
        return first["results"]
    # Repair only when the text as it stands has no results root.
    repaired = _decode_first_json(_repair(text))
    if isinstance(repaired, dict) and "results" in repaired:
        return repaired["results"]
    if first is None and repaired is None:
        raise NoJsonFoundError("response contains no parsable JSON value")
    raise MissingResultsRootError("response JSON has no 'results' root key")


def checked_results_root(raw: str) -> Any:
    """extract_results_root of raw, refused when it holds a lone surrogate.

    Raises:
        SchemaViolationError: the results hold a lone surrogate, as a
            "\\ud800" escape can put there; no prompt hash or UTF-8 write
            could encode it later.
    """
    root = extract_results_root(raw)
    try:
        check_encodable(root, raw)
    except UnicodeEncodeError as exc:
        raise SchemaViolationError(f"response text is not valid Unicode: {exc}") from exc
    return root


@dataclass
class RecordSchema:
    """Field requirements applied to each parsed record."""

    required: tuple[str, ...] = ()
    int_fields: tuple[str, ...] = ()


@dataclass
class ParsedRecords:
    records: list[dict]
    rejected: list[tuple[dict, str]] = field(default_factory=list)


def parse_results_json(raw: str, schema: RecordSchema | None = None) -> ParsedRecords:
    """Extract the record list under "results" with per-record validation.

    Accepts the results container as a list of records or as a map whose
    values are records (the map key is injected as ReqID when absent).
    Invalid records are collected in .rejected, never raised; a lone
    surrogate raises as checked_results_root says.
    """
    root = checked_results_root(raw)
    if isinstance(root, list):
        candidates: list[Any] = root
    elif isinstance(root, dict):
        if all(isinstance(v, dict) for v in root.values()):
            candidates = [
                {**value, **({} if "ReqID" in value else {"ReqID": key})}
                for key, value in root.items()
            ]
        else:
            raise SchemaViolationError(
                "results map values must be records (JSON objects)"
            )
    else:
        raise SchemaViolationError("results must be a list or map of records")

    parsed = ParsedRecords(records=[])
    for item in candidates:
        if not isinstance(item, dict):
            parsed.rejected.append(({"value": item}, "record is not a JSON object"))
            continue
        if schema is None:
            parsed.records.append(item)
            continue
        problem = _check_schema(item, schema)
        if problem:
            parsed.rejected.append((item, problem))
        else:
            parsed.records.append(item)
    return parsed


def _check_schema(record: dict, schema: RecordSchema) -> str | None:
    for name in schema.required:
        if name not in record or record[name] in (None, ""):
            return f"missing required field {name!r}"
    for name in schema.int_fields:
        if name in record:
            try:
                int(float(str(record[name])))
            except (TypeError, ValueError, OverflowError):
                return f"field {name!r} is not numeric"
    return None


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

_LENGTH_MARKERS = ("context_length", "maximum context", "too long", "token limit")


def read_utf8(path: Path) -> str:
    """The text of a UTF-8 file; other bytes raise UndecodableFileError naming path."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UndecodableFileError(f"{path} is not UTF-8 text: {exc}") from exc


# A JSON escape of a UTF-16 surrogate code unit.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def check_encodable(value: Any, text: str) -> None:
    """Raise UnicodeEncodeError if value, decoded from the JSON text, holds a
    lone surrogate, which no prompt hash or UTF-8 write can encode.

    Only a surrogate in text, or a surrogate escape that does not pair up,
    can put one in value, so value is re-encoded only when text has either.
    """
    if _SURROGATE_ESCAPE.search(text) is None:
        try:
            text.encode("utf-8")
            return
        except UnicodeEncodeError:
            pass
    json.dumps(value, ensure_ascii=False).encode("utf-8")


class Backend(Protocol):
    """What send needs of a backend: one completion per prompt."""

    def complete(self, prompt: str, params: LlmRequestParams) -> tuple[str, dict]:
        """Return the response text and its usage counts."""


class CountingBackend:
    """A Backend that forwards every completion to backend and counts it.

    The only call counter: backends keep no count of their own. The count
    is lock-guarded, so calls from send_many's worker threads all land.
    """

    def __init__(self, backend: Backend):
        self.backend = backend
        self.calls = 0
        self._lock = Lock()

    def complete(self, prompt: str, params: LlmRequestParams) -> tuple[str, dict]:
        with self._lock:
            self.calls += 1
        return self.backend.complete(prompt, params)


class MockBackend:
    """Replays canned responses from a fixture directory.

    Resolution order: fixtures/<sha256-of-prompt>.json, then rules.tsv
    (`keyword<TAB>filename`, first keyword contained in the prompt wins,
    lines starting with # are comments), else NotFixturedError.
    """

    def __init__(self, fixture_dir: str | Path):
        self.fixture_dir = Path(fixture_dir)
        self._rules: list[tuple[str, str]] | None = None

    def _load_rules(self) -> list[tuple[str, str]]:
        # Built in a local and stored whole, so a concurrent caller never
        # sees a half-built list; at worst two callers both read the file.
        rules = self._rules
        if rules is None:
            rules = []
            rules_path = self.fixture_dir / "rules.tsv"
            if rules_path.exists():
                for line in read_utf8(rules_path).splitlines():
                    if not line.strip() or line.lstrip().startswith("#"):
                        continue
                    keyword, sep, filename = line.partition("\t")
                    if sep:
                        rules.append((keyword, filename.strip()))
            self._rules = rules
        return rules

    def complete(self, prompt: str, params: LlmRequestParams) -> tuple[str, dict]:
        sha = prompt_sha256(prompt)
        path = self.fixture_dir / f"{sha}.json"
        if not path.exists():
            for keyword, filename in self._load_rules():
                if keyword in prompt:
                    path = self.fixture_dir / filename
                    break
            else:
                raise NotFixturedError(sha)
        raw = read_utf8(path)
        usage = {
            "prompt_tokens": len(prompt) // 4,
            "completion_tokens": len(raw) // 4,
            "total_tokens": (len(prompt) + len(raw)) // 4,
        }
        return raw, usage


class HttpBackend:
    """Talks to an OpenAI-compatible chat-completions endpoint."""

    def __init__(
        self,
        endpoint_url: str,
        api_key_file: str | Path | None = None,
        api_key_env: str = "OPENAI_API_KEY",
    ):
        self.endpoint_url = endpoint_url
        self.api_key_file = Path(api_key_file) if api_key_file else None
        self.api_key_env = api_key_env

    def _api_key(self) -> str:
        import os

        key, source = "", ""
        if self.api_key_file is not None and self.api_key_file.exists():
            key, source = read_utf8(self.api_key_file).strip(), str(self.api_key_file)
        if not key:
            key, source = os.environ.get(self.api_key_env, "").strip(), f"${self.api_key_env}"
        if not key:
            raise AuthMissingError(
                f"no API key in file {self.api_key_file} or ${self.api_key_env}"
            )
        if not key.isascii():  # the Authorization header could not carry it
            raise AuthMissingError(f"the API key in {source} is not ASCII text")
        return key

    def complete(self, prompt: str, params: LlmRequestParams) -> tuple[str, dict]:
        # Imported here: only this backend needs it, and it is slow to import.
        import requests

        payload = {
            "model": params.model_id,
            "temperature": params.temperature,
            "messages": [
                {"role": "system", "content": params.system_context},
                {"role": "user", "content": prompt},
            ],
        }
        headers = {
            "Authorization": f"Bearer {self._api_key()}",
            "Content-Type": "application/json",
        }
        try:
            response = requests.post(
                self.endpoint_url, json=payload, headers=headers, timeout=params.timeout
            )
        except requests.RequestException as exc:
            raise TransportError(f"request failed: {exc}") from exc

        if response.status_code == 429:
            raise RateLimitedError(
                "backend answered 429 Too Many Requests",
                retry_after=_retry_after_seconds(response.headers.get("Retry-After")),
            )
        if response.status_code >= 500:
            raise TransportError(f"backend answered {response.status_code}")
        if response.status_code == 413 or (
            response.status_code == 400
            and any(marker in response.text.lower() for marker in _LENGTH_MARKERS)
        ):
            raise ChunkTooLargeError(f"backend rejected request for length: {response.text[:200]}")
        if response.status_code in (401, 403):
            raise AuthMissingError(f"backend rejected credentials ({response.status_code})")
        if response.status_code != 200:
            raise SafereqError(f"backend answered {response.status_code}: {response.text[:200]}")

        try:
            body = response.json()
            raw = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise SchemaViolationError(f"unexpected completion body: {exc}") from exc
        return raw, body.get("usage", {}) or {}


def _retry_after_seconds(value: str | None) -> float | None:
    """Seconds named by a Retry-After header; None for absent or HTTP-date values."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if math.isfinite(seconds) and seconds >= 0 else None


_RETRYABLE = (TransportError, RateLimitedError)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def send(
    prompt: str,
    params: LlmRequestParams,
    backend: Backend,
    sleep: Callable[[float], None] = time.sleep,
) -> LlmResult:
    """Send one prompt, retrying transport failures and rate limits.

    Retries max_retries times with exponential backoff starting at
    backoff_start seconds; a 429 that names a longer Retry-After waits
    that long instead. Other errors (missing fixture, auth, oversized
    chunk) surface immediately. The response text comes back unparsed:
    each caller parses it once, with parse_results_json and its schema.
    """
    attempts = params.max_retries + 1
    last: Exception | None = None
    raw, usage = "", {}
    for attempt in range(attempts):
        try:
            raw, usage = backend.complete(prompt, params)
            last = None
            break
        except _RETRYABLE as exc:
            last = exc
            if attempt + 1 < attempts:
                delay = params.backoff_start * (2**attempt)
                if isinstance(exc, RateLimitedError) and exc.retry_after is not None:
                    delay = max(delay, exc.retry_after)
                sleep(delay)
    if last is not None:
        if isinstance(last, RateLimitedError):
            raise RateLimitedError(f"{last} (after {attempts} attempt(s))") from last
        base = getattr(last, "base_message", str(last))
        raise TransportError(base, attempts=attempts) from last

    return LlmResult(raw_text=raw, usage=usage)


# The first call of send_many must wait at least this long off-CPU, and
# longer than it computed, before the rest go to worker threads.
PROBE_MIN_WAIT_S = 0.001


def _voluntary_switches() -> int | None:
    """How often the calling thread has given up the CPU to wait, where the OS counts it."""
    if getattr(resource, "RUSAGE_THREAD", None) is None:
        return None
    return resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw


def send_many(
    prompts: Iterable[str],
    params: LlmRequestParams,
    backend: Backend,
    *,
    sleep: Callable[[float], None] = time.sleep,
) -> Iterator[LlmResult]:
    """Send each prompt as send() would and yield the results in input order.

    prompts is consumed lazily: at most 2 * params.max_concurrency prompts
    or results are alive at once. params.max_concurrency bounds the calls
    in flight; 1 is strictly sequential.

    The first prompt is sent inline and timed. The rest go to a thread
    pool only when that call waited (wall time minus thread CPU time) at
    least PROBE_MIN_WAIT_S and longer than it computed, as a network
    call does; a backend that never blocks stays sequential, because
    threads would only add GIL handoffs. Where the OS counts a thread's
    voluntary context switches, the call must also have made one: time
    the host took the CPU away (preemption) is not waiting on a backend.
    The first failing prompt's exception propagates; queued prompts are
    cancelled and every worker thread has ended by the time it does.
    """
    limit = params.max_concurrency
    prompts = iter(prompts)
    first = next(prompts, None)
    if first is None:
        return
    switches = _voluntary_switches()
    started, cpu_started = time.perf_counter(), time.thread_time()
    result = send(first, params, backend, sleep)
    cpu = time.thread_time() - cpu_started
    waited = time.perf_counter() - started - cpu
    blocked = switches is None or _voluntary_switches() > switches
    yield result

    if limit <= 1 or waited < PROBE_MIN_WAIT_S or waited <= cpu or not blocked:
        for prompt in prompts:
            yield send(prompt, params, backend, sleep)
        return

    window: deque[Future] = deque()
    pool = ThreadPoolExecutor(max_workers=limit, thread_name_prefix="safereq-send")
    try:
        for prompt in prompts:
            window.append(pool.submit(send, prompt, params, backend, sleep))
            if len(window) == 2 * limit:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def ask_many(
    template: PromptEnvelope,
    batches: Iterable[tuple[str, Sequence[str]]],
    schema: RecordSchema,
    params: LlmRequestParams,
    backend: Backend,
) -> Iterator[ParsedRecords]:
    """Send one prompt per (dataset_name, lines) batch through send_many and
    yield each answer, parsed once with schema, in batch order.

    lines come from encode_row. The template's instructions and resources
    are rendered once; each prompt has the bytes assemble_prompt gives the
    template with that batch's name and rows.
    """
    head = _head(template)
    prompts = (_with_dataset(head, name, lines) for name, lines in batches)
    # closing: a parse error here still shuts send_many's worker threads down.
    with closing(send_many(prompts, params, backend)) as responses:
        for response in responses:
            yield parse_results_json(response.raw_text, schema)
