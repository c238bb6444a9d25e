"""Prompt assembly, tolerant result parsing, backends, and retry logic."""

import json
import sys
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safereq import (
    ClassifiedRequirement,
    CountingBackend,
    HttpBackend,
    LlmRequestParams,
    MockBackend,
    PromptEnvelope,
    PromptResource,
    Requirement,
    assemble_prompt,
    build_classification_prompt,
    catalog_from_alias_map,
    chunk,
    classify,
    detect_duplicates,
    extract_results_root,
    gateway,
    parse_results_json,
    prompt_sha256,
    send,
    send_many,
)
from safereq.errors import (
    AuthMissingError,
    ChunkTooLargeError,
    MissingResultsRootError,
    NoJsonFoundError,
    NotFixturedError,
    RateLimitedError,
    SafereqError,
    SchemaViolationError,
    TransportError,
)
from safereq import gateway
from safereq.gateway import RecordSchema, ask_many, encode_row
from test_classify import render_results

# The malformed payload shape a model actually returned: a brace where
# the record list's bracket belongs and two missing commas.
MALFORMED_RESPONSE = """\
{
  "results":{
    {
      "ReqID": "1_1",
      "System_Requirement": "The engine shall ... "
      "Function": "EN",
      "Type": "PROB",
      "Confidence": 95,
      "Function_Explanation": "The requirement contains the phrase 'Engine ...'",
      "Type_Explanation": "The requirement contains the phrase 'the probability of ...'"
    },
    {
      "ReqID": "86_0",
      "System_Requirement": "The system shall provide sufficient control measures."
      "Function": "_OF_",
      "Type": "_OT_",
      "Confidence": 75,
      "Function_Explanation": "Text does not match any of the functions",
      "Type_Explanation": "Text does not match any of the types"
    }
  ]
}
"""


class FakeBackend:
    """Scripted backend: each entry is either raw text or an exception."""

    def __init__(self, script):
        self.script = list(script)
        self.call_count = 0

    def complete(self, prompt, params):
        self.call_count += 1
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item, {"total_tokens": 1}


# ---------------------------------------------------------------------------
# Prompt assembly
# ---------------------------------------------------------------------------


def test_assemble_prompt_full_layout():
    envelope = PromptEnvelope(
        instructions="Do the thing.",
        resources=(PromptResource(tag="ARCHITECTURE", body={"NAV": "Drone/Nav"}),),
        dataset_name="Drone Safety Requirements",
        rows=(("1000", "The system will fly."),),
    )
    prompt = assemble_prompt(envelope)
    assert prompt == (
        "Do the thing.\n"
        "\n"
        "<RESOURCES>\n"
        "<ARCHITECTURE>\n"
        '{\n  "NAV": "Drone/Nav"\n}\n'
        "</ARCHITECTURE>\n"
        "</RESOURCES>\n"
        "\n"
        "<Drone_Safety_Requirements>\n"
        '{"ReqID": "1000", "Requirement": "The system will fly."}\n'
        "</Drone_Safety_Requirements>\n"
    )


def test_assemble_prompt_instructions_only():
    assert assemble_prompt(PromptEnvelope(instructions="  Hi.  ")) == "Hi.\n"


def test_assemble_prompt_one_json_line_per_row():
    envelope = PromptEnvelope(
        instructions="x",
        dataset_name="DS",
        rows=(("1", "a"), ("2", "b")),
    )
    lines = assemble_prompt(envelope).splitlines()
    body = lines[lines.index("<DS>") + 1 : lines.index("</DS>")]
    assert [json.loads(line)["ReqID"] for line in body] == ["1", "2"]


def test_assemble_prompt_is_deterministic():
    envelope = PromptEnvelope(
        instructions="x",
        resources=(PromptResource(tag="A", body=["b"]),),
        dataset_name="D",
        rows=(("1", "t"),),
    )
    assert assemble_prompt(envelope) == assemble_prompt(envelope)
    assert prompt_sha256(assemble_prompt(envelope)) == prompt_sha256(
        assemble_prompt(envelope)
    )


# ---------------------------------------------------------------------------
# Result parsing and repair
# ---------------------------------------------------------------------------


def test_extract_results_root_plain_document():
    assert extract_results_root('{"results": [{"a": 1}]}') == [{"a": 1}]


def test_extract_results_root_strips_code_fences():
    raw = 'Sure, here you go:\n```json\n{"results": []}\n```\nAnything else?'
    assert extract_results_root(raw) == []


def test_extract_results_root_skips_leading_prose():
    raw = 'The answer {spoiler} is below\n{"results": [{"a": 1}]}'
    assert extract_results_root(raw) == [{"a": 1}]


def test_extract_results_root_tolerates_trailing_commas():
    assert extract_results_root('{"results": [{"a": 1},]}') == [{"a": 1}]


def test_extract_results_root_errors():
    with pytest.raises(NoJsonFoundError):
        extract_results_root("no json here at all")
    with pytest.raises(MissingResultsRootError):
        extract_results_root('{"data": []}')


def test_malformed_response_is_repaired():
    parsed = parse_results_json(MALFORMED_RESPONSE)
    assert [r["ReqID"] for r in parsed.records] == ["1_1", "86_0"]
    assert parsed.records[0]["Function"] == "EN"
    assert parsed.records[1]["Confidence"] == 75
    assert parsed.rejected == []


def test_parse_results_json_map_of_records_injects_req_id():
    raw = '{"results": {"7": {"Function": "NAV"}, "8": {"ReqID": "9"}}}'
    parsed = parse_results_json(raw)
    assert parsed.records == [
        {"Function": "NAV", "ReqID": "7"},
        {"ReqID": "9"},
    ]


def test_parse_results_json_rejects_bad_shapes():
    with pytest.raises(SchemaViolationError):
        parse_results_json('{"results": {"7": "not a record"}}')
    with pytest.raises(SchemaViolationError):
        parse_results_json('{"results": 42}')


def test_parse_results_json_schema_screens_records():
    schema = RecordSchema(required=("ReqID",), int_fields=("Confidence",))
    raw = json.dumps(
        {
            "results": [
                {"ReqID": "1", "Confidence": 90},
                {"Confidence": 90},
                {"ReqID": "3", "Confidence": "high"},
                "just a string",
            ]
        }
    )
    parsed = parse_results_json(raw, schema=schema)
    assert [r["ReqID"] for r in parsed.records] == ["1"]
    assert len(parsed.rejected) == 3
    reasons = " | ".join(reason for _, reason in parsed.rejected)
    assert "ReqID" in reasons
    assert "Confidence" in reasons


def test_render_results_round_trips():
    records = [{"ReqID": "1", "Function": "NAV"}, {"ReqID": "2", "Function": "EN"}]
    assert parse_results_json(render_results(records)).records == records


# ---------------------------------------------------------------------------
# Mock backend
# ---------------------------------------------------------------------------


def test_mock_backend_sha_fixture_takes_priority(tmp_path):
    prompt = "some prompt\n"
    (tmp_path / f"{prompt_sha256(prompt)}.json").write_text('{"results": [1]}')
    (tmp_path / "rules.tsv").write_text('some\tother.json\n')
    (tmp_path / "other.json").write_text('{"results": [2]}')
    backend = CountingBackend(MockBackend(tmp_path))
    raw, usage = backend.complete(prompt, LlmRequestParams())
    assert json.loads(raw)["results"] == [1]
    assert backend.calls == 1
    assert usage["total_tokens"] > 0


def test_mock_backend_rules_first_match_wins(tmp_path):
    (tmp_path / "rules.tsv").write_text(
        "# comment line\n"
        "\n"
        "duplicate\tdup.json\n"
        "requirements\tother.json\n"
    )
    (tmp_path / "dup.json").write_text('{"results": ["dup"]}')
    (tmp_path / "other.json").write_text('{"results": ["other"]}')
    backend = MockBackend(tmp_path)
    raw, _ = backend.complete("mark the duplicate requirements", LlmRequestParams())
    assert json.loads(raw)["results"] == ["dup"]


def test_mock_backend_unfixtured_prompt_raises_with_sha(tmp_path):
    backend = MockBackend(tmp_path)
    with pytest.raises(NotFixturedError) as exc:
        backend.complete("never seen", LlmRequestParams())
    assert prompt_sha256("never seen") in str(exc.value)


# ---------------------------------------------------------------------------
# Send and retry
# ---------------------------------------------------------------------------


def test_send_parses_records_and_hashes_prompt():
    # send returns the text unparsed, garbage included; the caller parses it.
    backend = FakeBackend(['{"results": [{"ReqID": "1"}]}', "total garbage"])
    result = send("p", LlmRequestParams(), backend)
    assert result.raw_text == '{"results": [{"ReqID": "1"}]}'
    assert parse_results_json(result.raw_text).records == [{"ReqID": "1"}]
    assert send("p", LlmRequestParams(), backend).raw_text == "total garbage"


def test_send_retries_transport_errors_with_exponential_backoff():
    backend = FakeBackend(
        [TransportError("down"), TransportError("down"), '{"results": []}']
    )
    sleeps = []
    result = send(
        "p",
        LlmRequestParams(max_retries=2, backoff_start=1.5),
        backend,
        sleep=sleeps.append,
    )
    assert backend.call_count == 3
    assert sleeps == [1.5, 3.0]
    assert result.raw_text == '{"results": []}'


def test_send_exhausted_retries_reraise():
    backend = FakeBackend([TransportError("down")] * 3)
    with pytest.raises(TransportError):
        send("p", LlmRequestParams(max_retries=2), backend, sleep=lambda s: None)
    assert backend.call_count == 3


def test_send_rate_limit_exhaustion_mentions_attempts():
    backend = FakeBackend([RateLimitedError("429")] * 2)
    with pytest.raises(RateLimitedError) as exc:
        send("p", LlmRequestParams(max_retries=1), backend, sleep=lambda s: None)
    assert "2 attempt" in str(exc.value)


def test_send_non_retryable_error_surfaces_immediately():
    backend = FakeBackend([NotFixturedError("sha"), '{"results": []}'])
    with pytest.raises(NotFixturedError):
        send("p", LlmRequestParams(max_retries=3), backend, sleep=lambda s: None)
    assert backend.call_count == 1


def test_send_many_preserves_order():
    backend = FakeBackend(
        ['{"results": [{"ReqID": "a"}]}', '{"results": [{"ReqID": "b"}]}']
    )
    results = send_many(["p1", "p2"], LlmRequestParams(max_concurrency=1), backend)
    assert [r.raw_text for r in results] == [
        '{"results": [{"ReqID": "a"}]}',
        '{"results": [{"ReqID": "b"}]}',
    ]


class _RateLimitedResponse:
    status_code = 429
    text = ""

    def __init__(self, headers):
        self.headers = headers


@pytest.mark.parametrize(
    "retry_after, slept",
    [
        ("7", [7.0]),  # longer than the backoff: the backend's wait wins
        ("0.5", [1.0]),  # shorter: the backoff wins
        (None, [1.0]),
        ("Wed, 21 Oct 2015 07:28:00 GMT", [1.0]),  # HTTP-date form is not read
        ("-3", [1.0]),
    ],
)
def test_send_waits_for_retry_after_on_429(monkeypatch, retry_after, slept):
    monkeypatch.setenv("SAFEREQ_TEST_KEY", "k")
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    responses = [_RateLimitedResponse(headers), _OkResponse()]
    monkeypatch.setattr(requests, "post", lambda *args, **kwargs: responses.pop(0))
    backend = CountingBackend(
        HttpBackend("http://localhost:9/v1", api_key_env="SAFEREQ_TEST_KEY")
    )
    sleeps = []
    result = send("p", LlmRequestParams(backoff_start=1.0), backend, sleep=sleeps.append)
    assert sleeps == slept
    assert result.raw_text == '{"results": []}'
    assert backend.calls == 2


class _Response:
    def __init__(self, status_code, text="", body=None):
        self.status_code, self.text, self.headers = status_code, text, {}
        self._body = body

    def json(self):
        if self._body is None:
            raise ValueError("no JSON body")
        return self._body


@pytest.mark.parametrize(
    "response, error",
    [
        (_Response(413, "Payload Too Large"), ChunkTooLargeError),
        (_Response(400, '{"error": {"code": "context_length_exceeded"}}'), ChunkTooLargeError),
        (_Response(400, "This model's maximum context length is 8192 tokens"), ChunkTooLargeError),
        (_Response(500, "maximum context"), TransportError),
        (_Response(503), TransportError),
        (_Response(401), AuthMissingError),
        (_Response(403), AuthMissingError),
        (_Response(400, "unknown model"), SafereqError),
        (_Response(404), SafereqError),
        (_Response(200, body={"usage": {}}), SchemaViolationError),
        (_Response(200, body={"choices": []}), SchemaViolationError),
        (_Response(200), SchemaViolationError),
    ],
    ids=[
        "413",
        "400-context-length-code",
        "400-maximum-context",
        "500-naming-the-length",
        "503",
        "401",
        "403",
        "400-other",
        "404",
        "200-without-choices",
        "200-with-no-choice",
        "200-not-json",
    ],
)
def test_http_backend_maps_each_status_to_its_error(monkeypatch, response, error):
    monkeypatch.setenv("SAFEREQ_TEST_KEY", "k")
    monkeypatch.setattr(requests, "post", lambda *args, **kwargs: response)
    backend = HttpBackend("http://localhost:9/v1", api_key_env="SAFEREQ_TEST_KEY")
    with pytest.raises(SafereqError) as excinfo:
        backend.complete("p", LlmRequestParams())
    assert type(excinfo.value) is error


# ---------------------------------------------------------------------------
# Prompt bytes: pre-rendered resources and the shared row encoder
# ---------------------------------------------------------------------------

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

RESOURCE_BODIES = {
    "ARCHITECTURE": {"NAV": "Drohne/Navigation", "ÉN": "Système/Énergie", "_OF_": "Other"},
    "nested": {"a": [1, 2.5, None, True, {"b": ["ü", "日本"]}], "c": {}},
    "listed": ["x", ["y", {"z": "–"}]],
    "padded": "\n\t  Verbatim text, ünïcode ✓  \n\n",
}


def _prerendered(resources):
    return tuple(
        PromptResource(tag=r.tag, body=gateway.render_resource(r.body)) for r in resources
    )


def test_prerendered_resources_give_the_same_prompt_bytes():
    resources = tuple(PromptResource(tag=k, body=v) for k, v in RESOURCE_BODIES.items())
    envelope = PromptEnvelope(
        instructions="Classify.",
        resources=resources,
        dataset_name="Anforderungen",
        rows=(("1", "Das System muss sicher landen."), ("2", "naïve ✓")),
    )
    prerendered = PromptEnvelope(
        instructions=envelope.instructions,
        resources=_prerendered(resources),
        dataset_name=envelope.dataset_name,
        rows=envelope.rows,
    )
    assert assemble_prompt(prerendered).encode() == assemble_prompt(envelope).encode()
    assert "<padded>\nVerbatim text, ünïcode ✓\n</padded>" in assemble_prompt(prerendered)


@given(st.dictionaries(st.text(min_size=1, max_size=8), json_values, max_size=4))
def test_prerendering_any_resource_bodies_keeps_prompt_bytes(bodies):
    resources = tuple(PromptResource(tag=k, body=v) for k, v in bodies.items())
    assert assemble_prompt(
        PromptEnvelope(instructions="i", resources=_prerendered(resources))
    ) == assemble_prompt(PromptEnvelope(instructions="i", resources=resources))


@given(st.lists(st.tuples(st.text(), st.text()), max_size=5))
def test_row_encoder_matches_json_dumps(rows):
    for req_id, text in rows:
        expected = json.dumps({"ReqID": req_id, "Requirement": text}, ensure_ascii=False)
        assert encode_row(req_id, text) == expected


class _Recorder:
    """Keeps every prompt and answers the nth with one record, ReqID n."""

    def __init__(self):
        self.prompts = []

    def complete(self, prompt, params):
        self.prompts.append(prompt)
        return render_results([{"ReqID": str(len(self.prompts))}]), {}


templates = st.builds(
    PromptEnvelope,
    instructions=st.text(),
    resources=st.lists(
        st.builds(PromptResource, tag=st.text(max_size=8), body=st.text() | json_values),
        max_size=3,
    ).map(tuple),
    dataset_name=st.text(max_size=8),
)
batch_lists = st.lists(
    st.tuples(st.text(max_size=8), st.lists(st.tuples(st.text(), st.text()), max_size=4)),
    max_size=4,
)


@given(templates, batch_lists)
@example(
    PromptEnvelope("Klassifiziere ✓", (PromptResource("ARCHITECTURE", RESOURCE_BODIES),)),
    [("Anforderungen", [("1", "naïve ✓"), ("2", "日本")]), ("", [])],
)
def test_ask_many_sends_the_bytes_assemble_prompt_gives(template, batches):
    backend = _Recorder()
    answers = ask_many(
        template,
        ((name, [encode_row(*row) for row in rows]) for name, rows in batches),
        RecordSchema(required=("ReqID",)),
        LlmRequestParams(max_concurrency=1),
        backend,
    )
    assert [parsed.records for parsed in answers] == [
        [{"ReqID": str(n)}] for n in range(1, len(batches) + 1)
    ]
    assert [p.encode() for p in backend.prompts] == [
        assemble_prompt(replace(template, dataset_name=name, rows=tuple(rows))).encode()
        for name, rows in batches
    ]


# ---------------------------------------------------------------------------
# Lazy repair in extract_results_root
# ---------------------------------------------------------------------------


def _eager_extract_results_root(raw):
    """The former implementation: always decodes the repaired text too."""
    text = gateway._strip_fences(raw)
    candidates = [
        gateway._decode_first_json(text),
        gateway._decode_first_json(gateway._repair(text)),
    ]
    for value in candidates:
        if isinstance(value, dict) and "results" in value:
            return value["results"]
    if all(value is None for value in candidates):
        raise NoJsonFoundError("response contains no parsable JSON value")
    raise MissingResultsRootError("response JSON has no 'results' root key")


@st.composite
def response_texts(draw):
    """JSON documents, some under "results", with a few random edits."""
    value = draw(json_values)
    if draw(st.booleans()):
        value = {"results": value}
    text = json.dumps(value, indent=draw(st.sampled_from([None, 2])), ensure_ascii=False)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["", ",", "{", "[", "}", "]", '"', "\n", "```"]))
        text = text[:at] + edit + text[at + draw(st.integers(0, 1)) :]
    return draw(st.text(max_size=5)) + text + draw(st.text(max_size=5))


def _outcome(extract, text):
    try:
        return "ok", json.dumps(extract(text), sort_keys=True)
    except Exception as exc:  # the error class is part of the contract
        return type(exc), str(exc)


@settings(max_examples=300)
@given(st.one_of(st.text(), response_texts()))
def test_lazy_repair_matches_the_eager_oracle(text):
    assert _outcome(extract_results_root, text) == _outcome(_eager_extract_results_root, text)


def test_lazy_repair_still_repairs_malformed_text():
    assert _outcome(extract_results_root, MALFORMED_RESPONSE) == _outcome(
        _eager_extract_results_root, MALFORMED_RESPONSE
    )


@st.composite
def results_documents(draw):
    """A results root of records whose fields hold any JSON, inf and NaN included."""
    field_values = st.floats() | json_values
    record = st.fixed_dictionaries(
        {"ReqID": st.text(min_size=1, max_size=3) | field_values, "Confidence": st.floats()},
        optional={"Function": field_values},
    )
    root = draw(
        st.lists(record | json_values, max_size=4)
        | st.dictionaries(st.text(max_size=4), record | json_values, max_size=3)
        | json_values
    )
    return json.dumps({"results": root})


CONFIDENCE_SCHEMA = RecordSchema(required=("ReqID",), int_fields=("Confidence",))


@settings(max_examples=300)
@given(
    st.one_of(st.text(), response_texts(), results_documents()),
    st.sampled_from([None, CONFIDENCE_SCHEMA]),
)
@example(text='{"results": [{"ReqID": "1", "Confidence": 1e999}]}', schema=CONFIDENCE_SCHEMA)
@example(text="[" * 100_000, schema=None)
def test_parse_results_json_raises_only_its_three_parse_errors(text, schema):
    # All three are SafereqErrors, which run_task reports as a failed task.
    try:
        parse_results_json(text, schema)
    except (NoJsonFoundError, MissingResultsRootError, SchemaViolationError) as exc:
        assert isinstance(exc, SafereqError)


def test_repair_is_skipped_on_clean_json(monkeypatch):
    def refuse(text):
        raise AssertionError("_repair ran on clean JSON")

    monkeypatch.setattr(gateway, "_repair", refuse)
    assert extract_results_root('prose {"results": [1]} prose') == [1]
    clean = render_results([{"ReqID": "1", "Confidence": 90}])
    assert parse_results_json(clean, RecordSchema(required=("ReqID",))).records == [
        {"ReqID": "1", "Confidence": 90}
    ]


# ---------------------------------------------------------------------------
# HttpBackend under concurrent dispatch
# ---------------------------------------------------------------------------


class _OkResponse:
    status_code = 200
    text = ""

    def json(self):
        return {"choices": [{"message": {"content": '{"results": []}'}}]}


class _YieldingInt(int):
    """An int whose addition lets other threads run mid read-modify-write."""

    def __add__(self, other):
        time.sleep(0)
        return _YieldingInt(int(self) + other)


class _InFlight:
    """Context manager counting the calls inside it and their peak."""

    def __init__(self):
        self._lock = threading.Lock()
        self.now = 0
        self.peak = 0

    def __enter__(self):
        with self._lock:
            self.now += 1
            self.peak = max(self.peak, self.now)

    def __exit__(self, *exc):
        with self._lock:
            self.now -= 1


def test_http_backend_counts_concurrent_calls_exactly(monkeypatch):
    in_flight = _InFlight()
    thread_of = {}  # prompt: the thread that sent it

    def post(*args, json, **kwargs):
        # Blocks like a network call, so send_many dispatches to threads.
        thread_of[json["messages"][-1]["content"]] = threading.get_ident()
        with in_flight:
            time.sleep(0.01)
        return _OkResponse()

    monkeypatch.setenv("SAFEREQ_TEST_KEY", "k")
    monkeypatch.setattr(requests, "post", post)
    backend = CountingBackend(
        HttpBackend("http://localhost:9/v1", api_key_env="SAFEREQ_TEST_KEY")
    )
    backend.calls = _YieldingInt(0)
    prompts = [f"p{i}" for i in range(400)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = list(send_many(prompts, LlmRequestParams(max_concurrency=8), backend))
    finally:
        sys.setswitchinterval(interval)
    assert backend.calls == len(prompts)
    assert [r.raw_text for r in results] == ['{"results": []}'] * len(prompts)
    assert 1 < in_flight.peak <= 8
    # Past the first wave of 8, too, no call ran on the calling thread.
    assert threading.get_ident() not in {thread_of[p] for p in prompts[8:]}


# ---------------------------------------------------------------------------
# send_many: bounded, in-order dispatch
# ---------------------------------------------------------------------------


class SleepyBackend:
    """Answers each prompt from its own text, after the delay it names.

    A prompt "<id>:<delay>" returns one record {"ReqID": <id>} after
    sleeping <delay> seconds; ids listed in fail raise NotFixturedError.
    """

    def __init__(self, fail=()):
        self.in_flight = _InFlight()
        self.fail = set(fail)
        self.thread_of = {}  # req_id: the thread that sent it
        self.call_count = 0
        self._lock = threading.Lock()

    @property
    def threads(self):
        return set(self.thread_of.values())

    def complete(self, prompt, params):
        req_id, _, delay = prompt.partition(":")
        with self._lock:
            self.call_count += 1
            self.thread_of[req_id] = threading.get_ident()
        with self.in_flight:
            time.sleep(float(delay or 0))
        if req_id in self.fail:
            raise NotFixturedError(req_id)
        return json.dumps({"results": [{"ReqID": req_id}]}), {"total_tokens": 1}


def _send_threads():
    return [t for t in threading.enumerate() if t.name.startswith("safereq-send")]


@settings(max_examples=40, deadline=None)
@given(
    delays=st.lists(st.sampled_from([0.0, 0.0005, 0.002, 0.004]), max_size=24),
    limit=st.integers(min_value=1, max_value=16),
)
def test_send_many_equals_sequential_send_in_order(delays, limit):
    prompts = [f"r{i}:{delay}" for i, delay in enumerate(delays)]
    params = LlmRequestParams(max_concurrency=limit)
    expected = [send(p, params, SleepyBackend()) for p in prompts]
    backend = SleepyBackend()
    assert list(send_many(prompts, params, backend)) == expected
    assert backend.in_flight.peak <= limit
    assert not _send_threads()


@pytest.mark.parametrize("limit", [1, 3, 8])
def test_send_many_bounds_calls_in_flight_and_prompts_alive(limit):
    drawn = []

    def prompts():
        for i in range(60):
            drawn.append(i)
            yield f"r{i}:0.002"

    backend = SleepyBackend()
    consumed = 0
    for result in send_many(prompts(), LlmRequestParams(max_concurrency=limit), backend):
        assert parse_results_json(result.raw_text).records == [{"ReqID": f"r{consumed}"}]
        consumed += 1
        # Drawn but not yet consumed: queued, in flight or done, never more than 2c.
        assert len(drawn) - consumed <= 2 * limit
    assert consumed == 60
    assert backend.in_flight.peak <= limit
    if limit > 1:
        assert backend.in_flight.peak > 1  # the blocking calls did overlap


def test_send_many_raises_the_first_failing_prompt_and_cancels_the_rest():
    # r4 fails at once, r3 only after a wait: r3 comes first in input order.
    prompts = [f"r{i}:0.002" for i in range(3)] + ["r3:0.02", "r4:0"]
    prompts += [f"r{i}:0.002" for i in range(5, 200)]
    backend = SleepyBackend(fail={"r3", "r4"})
    results = []
    with pytest.raises(NotFixturedError) as exc:
        for result in send_many(prompts, LlmRequestParams(max_concurrency=4), backend):
            results.append(result)
    assert exc.value.prompt_sha == "r3"
    assert [parse_results_json(r.raw_text).records for r in results] == [
        [{"ReqID": "r0"}],
        [{"ReqID": "r1"}],
        [{"ReqID": "r2"}],
    ]
    assert backend.call_count < 20  # queued prompts were never sent
    assert not _send_threads()


def test_send_many_leaves_no_worker_thread_behind():
    backend = SleepyBackend()
    results = list(send_many([f"r{i}:0.002" for i in range(30)], LlmRequestParams(), backend))
    assert len(results) == 30
    assert len(backend.threads) > 1  # the pool did run
    assert not _send_threads()


@pytest.mark.parametrize("limit, n", [(8, 3), (8, 20), (3, 10)])
def test_send_many_sends_the_first_wave_together(limit, n):
    wave = min(limit, n)
    # Each call of the first wave returns only once the whole wave is in it.
    barrier = threading.Barrier(wave, timeout=5)

    class Meeting(SleepyBackend):
        def complete(self, prompt, params):
            if int(prompt[1 : prompt.index(":")]) < wave:
                barrier.wait()
            return super().complete(prompt, params)

    prompts = [f"r{i}:0" for i in range(n)]
    params = LlmRequestParams(max_concurrency=limit)
    backend = Meeting()
    assert list(send_many(prompts, params, backend)) == [
        send(p, params, SleepyBackend()) for p in prompts
    ]
    assert backend.in_flight.peak <= limit
    assert not _send_threads()


def test_send_many_stops_after_the_first_wave_when_the_first_prompt_fails():
    prompts = ["r0:0"] + [f"r{i}:0.002" for i in range(1, 20)]
    backend = SleepyBackend(fail={"r0"})
    with pytest.raises(NotFixturedError) as exc:
        list(send_many(prompts, LlmRequestParams(max_concurrency=4), backend))
    assert exc.value.prompt_sha == "r0"
    assert backend.call_count <= 4
    assert not _send_threads()


def test_send_many_at_concurrency_one_sends_every_prompt_on_the_calling_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        pytest.fail("send_many started a thread pool at max_concurrency 1")

    monkeypatch.setattr(gateway, "ThreadPoolExecutor", no_pool)
    prompts = [f"r{i}:0.002" for i in range(10)]
    params = LlmRequestParams(max_concurrency=1)
    backend = SleepyBackend()
    assert list(send_many(prompts, params, backend)) == [
        send(p, params, SleepyBackend()) for p in prompts
    ]
    assert backend.threads == {threading.get_ident()}


def _sends_the_rest_inline_after_the_first_wave(backend, delay):
    """Send 20 prompts at max_concurrency 8 and check that calls 9-20 ran on
    the calling thread and that the results are those of sequential send."""
    prompts = [f"r{i}:{delay}" for i in range(20)]
    params = LlmRequestParams(max_concurrency=8)
    assert list(send_many(prompts, params, backend)) == [
        send(p, params, SleepyBackend()) for p in prompts
    ]
    assert {backend.thread_of[f"r{i}"] for i in range(8, 20)} == {threading.get_ident()}


def test_send_many_keeps_a_computing_backend_on_the_calling_thread(monkeypatch):
    # Both clocks the probe reads move only as the backend computes, so the
    # first call reads as pure CPU, however long the host preempts it.
    now = [0.0]
    clocks = SimpleNamespace(perf_counter=lambda: now[0], process_time=lambda: now[0])
    monkeypatch.setattr(gateway, "time", clocks)

    class Computing(SleepyBackend):
        def complete(self, prompt, params):
            now[0] += 0.01
            return super().complete(prompt, params)

    _sends_the_rest_inline_after_the_first_wave(Computing(), 0)


def test_send_many_keeps_a_backend_computing_beside_its_siblings_on_the_calling_thread():
    # At a short switch interval the siblings take the GIL from the first
    # call many times, so most of its wall time is their CPU time.
    class Burning(SleepyBackend):
        def complete(self, prompt, params):
            end = time.thread_time() + 0.01
            while time.thread_time() < end:
                pass
            return super().complete(prompt, params)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        _sends_the_rest_inline_after_the_first_wave(Burning(), 0)
    finally:
        sys.setswitchinterval(interval)


def _count_voluntary_switches(monkeypatch, counts):
    """Have the probe read counts, in turn, as the thread's voluntary context switches."""
    reads = iter(counts)
    rusage = SimpleNamespace(
        RUSAGE_THREAD=1, getrusage=lambda who: SimpleNamespace(ru_nvcsw=next(reads))
    )
    monkeypatch.setattr(gateway, "resource", rusage)


def test_send_many_keeps_a_preempted_backend_on_the_calling_thread(monkeypatch):
    # The first call spends its time off-CPU without once giving the CPU
    # up itself: the host took it away, so there is no backend to overlap.
    _count_voluntary_switches(monkeypatch, [5, 5])
    _sends_the_rest_inline_after_the_first_wave(SleepyBackend(), 0.002)


def test_send_many_threads_a_backend_whose_first_call_gave_up_the_cpu(monkeypatch):
    _count_voluntary_switches(monkeypatch, [5, 6])
    backend = SleepyBackend()
    results = list(send_many([f"r{i}:0.002" for i in range(10)], LlmRequestParams(), backend))
    assert len(results) == 10
    assert len(backend.threads) > 1


@pytest.mark.parametrize(
    "rusage", [None, SimpleNamespace()], ids=["no-resource-module", "no-thread-usage"]
)
def test_send_many_without_per_thread_usage_judges_by_the_wait_alone(monkeypatch, rusage):
    monkeypatch.setattr(gateway, "resource", rusage)
    backend = SleepyBackend()
    results = list(send_many([f"r{i}:0.002" for i in range(10)], LlmRequestParams(), backend))
    assert len(results) == 10
    assert len(backend.threads) > 1


def test_send_many_of_nothing_sends_nothing():
    backend = SleepyBackend()
    assert list(send_many([], LlmRequestParams(), backend)) == []
    assert backend.call_count == 0


class GarbageOnceBackend:
    """Blocks like a network call; the call numbered garbage_at returns garbage."""

    def __init__(self, garbage_at):
        self.garbage_at = garbage_at
        self.call_count = 0
        self.threads = set()
        self._lock = threading.Lock()

    def complete(self, prompt, params):
        with self._lock:
            call = self.call_count
            self.call_count += 1
            self.threads.add(threading.get_ident())
        time.sleep(0.002)
        return ("total garbage" if call == self.garbage_at else '{"results": []}'), {}


def _classify_40_chunks(backend):
    catalog = catalog_from_alias_map({"NAV": "Drone/Navigation", "_OF_": "Other Function"})
    inputs = [Requirement(req_id=str(i), text="The drone shall land.") for i in range(40)]
    template = build_classification_prompt(catalog, "Classify.")
    classify(chunk(inputs, 1), template, catalog, LlmRequestParams(), backend)


def _detect_in_40_clusters(backend):
    clusters = {
        f"F{i}": [ClassifiedRequirement(f"{i}{s}", f"F{i}", "FUNC", 90) for s in "ab"]
        for i in range(40)
    }
    detect_duplicates(clusters, LlmRequestParams(), backend, prompt_version="V1")


@pytest.mark.parametrize("caller", [_classify_40_chunks, _detect_in_40_clusters])
def test_a_parse_error_on_the_threaded_path_propagates_and_stops_the_pool(caller):
    backend = GarbageOnceBackend(garbage_at=10)
    with pytest.raises(NoJsonFoundError) as excinfo:
        caller(backend)
    # excinfo holds the traceback and its frames, as an except clause does.
    assert not _send_threads()
    assert str(excinfo.value) == "response contains no parsable JSON value"
    assert len(backend.threads) > 1  # the calls went to worker threads
    assert backend.call_count < 40  # queued prompts were never sent


class _BrokenAnswer:
    """An answer whose fields raise, as a bug in a caller's fold loop would."""

    @property
    def records(self):
        raise KeyError("a bug in the fold loop")

    rejected = records


@pytest.mark.parametrize("caller", [_classify_40_chunks, _detect_in_40_clusters])
def test_an_error_in_the_callers_loop_propagates_and_stops_the_pool(caller, monkeypatch):
    parse = gateway.parse_results_json
    answers = []

    def parse_then_break_the_tenth(raw, schema=None):
        answers.append(raw)
        return _BrokenAnswer() if len(answers) == 10 else parse(raw, schema)

    monkeypatch.setattr(gateway, "parse_results_json", parse_then_break_the_tenth)
    backend = GarbageOnceBackend(garbage_at=-1)
    try:
        caller(backend)
    except KeyError as exc:
        # The traceback keeps the caller's frame, and so its answers, alive.
        assert exc.__traceback__ is not None
        assert not _send_threads()
    else:
        pytest.fail("the KeyError did not propagate")
    assert len(backend.threads) > 1  # the calls went to worker threads
    assert backend.call_count < 40  # queued prompts were never sent


def test_a_lone_surrogate_in_a_response_is_a_schema_violation():
    with pytest.raises(SchemaViolationError, match="not valid Unicode"):
        parse_results_json('{"results": [{"ReqID": "1", "Function": "\\ud800"}]}')
    with pytest.raises(SchemaViolationError, match="not valid Unicode"):
        parse_results_json('{"results": [{"ReqID": "1", "Function": "\ud800"}]}')
    # A surrogate pair is one character, and text outside the JSON is not kept.
    parsed = parse_results_json('\ud800 {"results": [{"ReqID": "1", "F": "\\ud83d\\ude00"}]}')
    assert parsed.records == [{"ReqID": "1", "F": "\U0001f600"}]


class _SlowMock(MockBackend):
    def complete(self, prompt, params):
        time.sleep(0.002)
        return super().complete(prompt, params)


def test_mock_backend_rules_load_safely_under_concurrent_calls(tmp_path):
    first = "fixtured by sha"
    (tmp_path / f"{prompt_sha256(first)}.json").write_text('{"results": []}', "utf-8")
    (tmp_path / "hit.json").write_text('{"results": [{"ReqID": "1"}]}', "utf-8")
    # A long rules file keeps the first loader busy while others arrive.
    (tmp_path / "rules.tsv").write_text("# pad\n" * 200_000 + "rule-key\thit.json\n", "utf-8")
    # The first prompt resolves by sha, so the rules load inside the pool.
    prompts = [first] + [f"rule-key {i}" for i in range(32)]
    backend = CountingBackend(_SlowMock(tmp_path))
    results = list(send_many(prompts, LlmRequestParams(max_concurrency=8), backend))
    assert [r.raw_text for r in results] == ['{"results": []}'] + [
        '{"results": [{"ReqID": "1"}]}'
    ] * 32
    assert backend.calls == len(prompts)
