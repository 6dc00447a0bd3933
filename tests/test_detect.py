from __future__ import annotations

import json
import random
import threading
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from deidkit import codec, llm
from deidkit.cli import main
from deidkit.corpus import Category, Document, Span, validate_spans
from deidkit.detect import (
    DEFAULT_FEWSHOT_EXEMPLARS,
    FEWSHOT_TARGET_LEAD,
    FINETUNE_USER_INSTRUCTION,
    MARKER_LEGEND,
    _resolve_overlaps,
    build_fewshot_messages,
    build_finetune_record,
    llm_detect,
    rule_detect,
    write_finetune_file,
)
from deidkit.hips import load_name_pools
from deidkit.llm import ChatClient, EmptyCompletion, TransportError, _TokenBucket

TABLE_DOC = Document("379", "Hi John Doe. Tel: (555)555-5555", "crapii")
TABLE_SPANS = [
    Span(3, 11, Category.NAME_STUDENT, "John Doe"),
    Span(18, 31, Category.PHONE_NUM, "(555)555-5555"),
]


def contract_check(doc: Document, spans: list[Span]) -> None:
    """Shared detector-contract conformance: sorted, non-overlapping, in scope."""
    validate_spans(doc.text, spans)
    assert all(isinstance(s.category, Category) for s in spans)


@pytest.fixture(scope="module")
def pools(fixture_paths):
    return load_name_pools(fixture_paths["pools"])


class TestRuleDetect:
    def test_email(self):
        doc = Document("x", "write to john.smith@example.com today")
        spans = rule_detect(doc)
        assert [s.surface for s in spans if s.category is Category.EMAIL] == [
            "john.smith@example.com"
        ]
        contract_check(doc, spans)

    def test_phone_grouped_digits(self):
        doc = Document("x", "Tel: (555)555-5555")
        spans = rule_detect(doc)
        assert [s.surface for s in spans] == ["(555)555-5555"]
        assert spans[0].category is Category.PHONE_NUM

    def test_phone_international(self):
        doc = Document("x", "call +1 555 867 5309 soon")
        spans = rule_detect(doc)
        assert any(
            s.category is Category.PHONE_NUM and s.surface.startswith("+1")
            for s in spans
        )

    def test_url_www(self):
        doc = Document("x", "see www.example.com for details")
        spans = rule_detect(doc)
        assert [s.surface for s in spans] == ["www.example.com"]
        assert spans[0].category is Category.URL_PERSONAL

    def test_url_scheme_trailing_punctuation_stripped(self):
        doc = Document("x", "read https://example.org/a/b, then reply")
        spans = rule_detect(doc)
        assert spans[0].surface == "https://example.org/a/b"

    def test_gazetteer_bigram(self, pools):
        doc = Document("x", "Thanks, Maria Garcia, for the notes")
        spans = rule_detect(doc, pools=pools)
        assert [s.surface for s in spans] == ["Maria Garcia"]
        assert spans[0].category is Category.NAME_STUDENT

    def test_lowercase_not_flagged(self, pools):
        doc = Document("x", "the newton method is used for optimization")
        assert rule_detect(doc, pools=pools) == []

    def test_capitalized_single_gazetteer_token(self, pools):
        doc = Document("x", "The Newton method is used for optimization")
        spans = rule_detect(doc, pools=pools)
        assert [s.surface for s in spans] == ["Newton"]

    def test_no_names_without_pools(self):
        doc = Document("x", "Thanks, Maria Garcia, for the notes")
        assert rule_detect(doc) == []

    def test_overlap_resolution_longest_earliest(self, pools):
        # Email wins over the URL-ish tail inside it.
        doc = Document("x", "ping maria.garcia@www.example.com now")
        spans = rule_detect(doc, pools=pools)
        assert len(spans) == 1
        assert spans[0].category is Category.EMAIL

    def test_deterministic_and_idempotent(self, pools, mini_docs):
        for doc in mini_docs.values():
            first = rule_detect(doc, pools=pools)
            second = rule_detect(doc, pools=pools)
            assert first == second
            contract_check(doc, first)


def all_pairs_overlaps(candidates: list[Span]) -> list[Span]:
    """The reference rule: keep each candidate that overlaps no span kept before it."""
    kept: list[Span] = []
    for span in sorted(candidates, key=lambda s: (s.start, -(s.end - s.start), s.category.value)):
        if all(span.start >= other.end or span.end <= other.start for other in kept):
            kept.append(span)
    return sorted(kept)


def random_candidates(rng: random.Random, n: int, width: int) -> list[Span]:
    out = []
    for _ in range(n):
        start = rng.randrange(width)
        end = rng.randrange(start + 1, start + 12)
        out.append(Span(start, end, rng.choice(list(Category)), "x" * (end - start)))
    return out


class TestResolveOverlaps:
    def test_matches_all_pairs_reference(self):
        rng = random.Random(3)
        for _ in range(1000):
            candidates = random_candidates(rng, rng.randrange(0, 40), rng.randrange(1, 60))
            assert _resolve_overlaps(candidates) == all_pairs_overlaps(candidates)

    def test_nested_and_equal_candidates(self):
        rng = random.Random(7)
        nested = [
            Span(i, 8000 - i, Category.NAME_STUDENT, "x" * (8000 - 2 * i)) for i in range(2000)
        ]
        equal = [Span(100, 200, rng.choice(list(Category)), "x" * 100) for _ in range(2000)]
        candidates = nested + equal
        rng.shuffle(candidates)
        assert _resolve_overlaps(candidates) == all_pairs_overlaps(candidates) == [nested[0]]


class TestFewshotPrompt:
    def test_message_shape(self):
        messages = build_fewshot_messages(TABLE_DOC)
        assert [m["role"] for m in messages] == ["system", "user"]
        assert TABLE_DOC.text in messages[1]["content"]

    def test_legend_contains_all_marker_pairs(self):
        messages = build_fewshot_messages(TABLE_DOC)
        for open_m, close_m in codec.MARKERS.values():
            assert open_m in messages[1]["content"]
            assert close_m in messages[1]["content"]
        assert MARKER_LEGEND in messages[1]["content"]

    def test_three_exemplars_embedded(self):
        messages = build_fewshot_messages(TABLE_DOC)
        for plain, marked in DEFAULT_FEWSHOT_EXEMPLARS:
            assert plain in messages[1]["content"]
            assert marked in messages[1]["content"]

    def test_default_exemplars_roundtrip(self):
        for plain, marked in DEFAULT_FEWSHOT_EXEMPLARS:
            assert codec.strip_markers(marked) == plain

    def test_target_lead_present(self):
        messages = build_fewshot_messages(TABLE_DOC)
        assert FEWSHOT_TARGET_LEAD in messages[1]["content"]


class TestFinetuneRecords:
    def test_table_doc_assistant_content(self):
        record = build_finetune_record(TABLE_DOC, TABLE_SPANS)
        roles = [m["role"] for m in record["messages"]]
        assert roles == ["system", "user", "assistant"]
        assert (
            record["messages"][2]["content"]
            == "Hi @@@John Doe###. Tel: %%%(555)555-5555~~~"
        )
        assert record["messages"][1]["content"].startswith(FINETUNE_USER_INSTRUCTION)

    def test_no_pii_is_identity(self):
        doc = Document("x", "nothing sensitive here")
        record = build_finetune_record(doc, [])
        assert record["messages"][2]["content"] == doc.text

    def test_file_lines_parse_and_strip_back(self, tmp_path, mini_docs, mini_gold):
        out = tmp_path / "train.jsonl"
        count = write_finetune_file(
            out, ((mini_docs[i], mini_gold[i]) for i in sorted(mini_docs))
        )
        lines = out.read_text(encoding="utf-8").splitlines()
        assert count == len(lines) == len(mini_docs)
        for line in lines:
            record = json.loads(line)
            user = record["messages"][1]["content"]
            embedded = user.split("\n", 1)[1]
            assert codec.strip_markers(record["messages"][2]["content"]) == embedded

    def test_record_count_matches_training_ids(self, tmp_path, mini_docs, mini_gold):
        ids = sorted(mini_docs)[:4]
        out = tmp_path / "subset.jsonl"
        count = write_finetune_file(out, ((mini_docs[i], mini_gold[i]) for i in ids))
        assert count == len(ids)


class EchoGoldClient:
    """In-process oracle endpoint: answers with the gold-marked text."""

    def __init__(self, gold_by_text):
        self.gold_by_text = gold_by_text

    def complete(self, messages, max_tokens=None):
        from deidkit.mockllm import extract_target_text

        text = extract_target_text(messages[-1]["content"])
        spans = self.gold_by_text.get(text, [])
        return codec.encode(Document("echo", text), list(spans))


class TestLlmDetect:
    def test_echo_gold_recovers_gold(self, mini_docs, mini_gold):
        client = EchoGoldClient({d.text: mini_gold[i] for i, d in mini_docs.items()})
        for doc_id, doc in mini_docs.items():
            report = llm_detect(doc, client, "finetuned")
            assert report.spans == mini_gold[doc_id]
            assert report.dropped == []
            contract_check(doc, report.spans)

    def test_fewshot_mode_same_oracle(self, mini_docs, mini_gold):
        client = EchoGoldClient({d.text: mini_gold[i] for i, d in mini_docs.items()})
        for doc_id, doc in mini_docs.items():
            assert llm_detect(doc, client, "fewshot").spans == mini_gold[doc_id]

    def test_reproducible_against_deterministic_mock(self, mini_docs, mini_gold):
        client = EchoGoldClient({d.text: mini_gold[i] for i, d in mini_docs.items()})
        for doc in mini_docs.values():
            first = llm_detect(doc, client, "finetuned")
            second = llm_detect(doc, client, "finetuned")
            assert first.spans == second.spans
            assert first.anchored_exact == second.anchored_exact

    def test_hallucination_lands_in_dropped(self, scripted_client):
        client = scripted_client(lambda messages: "Hi @@@Ghost Writer### there")
        report = llm_detect(Document("x", "Hi there"), client, "finetuned")
        assert report.spans == []
        assert len(report.dropped) == 1

    @pytest.mark.parametrize("text", ["", "  \n"])
    def test_blank_document_is_not_sent(self, scripted_client, text):
        client = scripted_client(lambda m: "x")
        for mode in ("finetuned", "fewshot"):
            report = llm_detect(Document("e", text), client, mode)
            assert report.spans == [] and report.dropped == []
        assert client.calls == []

    def test_unknown_mode_rejected(self, scripted_client):
        client = scripted_client(lambda m: "x")
        with pytest.raises(Exception):
            llm_detect(TABLE_DOC, client, "zero-shot")


class _CapturingHandler(BaseHTTPRequestHandler):
    captured: list = []
    ok_first: int = 0  # replies that succeed before the fail_first failures
    fail_first: int = 0
    fail_status: int = 503
    reply: dict = {"choices": [{"message": {"role": "assistant", "content": "ok"}}]}

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).captured.append(
            {"body": body, "auth": self.headers.get("Authorization")}
        )
        if type(self).ok_first > 0:
            type(self).ok_first -= 1
        elif type(self).fail_first > 0:
            type(self).fail_first -= 1
            self.send_response(type(self).fail_status)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        payload = json.dumps(type(self).reply).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def capture_server():
    handler = type("H", (_CapturingHandler,), {"captured": [], "fail_first": 0})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, handler
    server.shutdown()
    server.server_close()


class _KeepAliveHandler(_CapturingHandler):
    """HTTP/1.1 endpoint that keeps connections open and counts those it accepts."""

    protocol_version = "HTTP/1.1"
    connections = 0
    drop_after_reply = False

    def setup(self):
        super().setup()
        type(self).connections += 1

    def do_POST(self):
        super().do_POST()
        # Hang up without a Connection: close header, as a server that drops
        # an idle keep-alive connection does.
        self.close_connection = self.drop_after_reply


@pytest.fixture
def keepalive_server():
    handler = type("K", (_KeepAliveHandler,), {"captured": [], "fail_first": 0, "connections": 0})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, handler
    server.shutdown()
    server.server_close()


class TestChatClient:
    def make_client(self, server, **overrides) -> ChatClient:
        return ChatClient(
            base_url=f"http://127.0.0.1:{server.server_address[1]}/v1",
            model="test-model",
            **overrides,
        )

    def test_wire_format(self, capture_server, monkeypatch):
        server, handler = capture_server
        monkeypatch.setenv("DEIDKIT_API_KEY", "sk-test")
        client = self.make_client(server)
        out = client.complete([{"role": "user", "content": "hello"}], max_tokens=32)
        assert out == "ok"
        sent = handler.captured[0]
        assert sent["body"]["model"] == "test-model"
        assert sent["body"]["temperature"] == 0.0
        assert sent["body"]["messages"] == [{"role": "user", "content": "hello"}]
        assert sent["body"]["max_tokens"] == 32
        assert sent["auth"] == "Bearer sk-test"

    def test_retries_transient_errors(self, capture_server):
        server, handler = capture_server
        handler.fail_first = 2
        client = self.make_client(server, max_retries=3)
        client._backoff_base = 0.01
        assert client.complete([{"role": "user", "content": "x"}]) == "ok"
        assert len(handler.captured) == 3

    def test_transport_error_after_max_retries(self, capture_server):
        server, handler = capture_server
        handler.fail_first = 10
        client = self.make_client(server, max_retries=1)
        client._backoff_base = 0.01
        with pytest.raises(TransportError):
            client.complete([{"role": "user", "content": "x"}])

    def test_unreachable_endpoint(self):
        client = ChatClient(base_url="http://127.0.0.1:1/v1", model="m", max_retries=0)
        with pytest.raises(TransportError):
            client.complete([{"role": "user", "content": "x"}])

    def test_non_retryable_status_fails_after_one_request(self, capture_server):
        server, handler = capture_server
        handler.fail_first, handler.fail_status = 10, 401
        client = self.make_client(server, max_retries=3)
        with pytest.raises(TransportError, match="HTTP 401"):
            client.complete([{"role": "user", "content": "x"}])
        assert len(handler.captured) == 1

    def test_reply_without_choices_is_empty_completion(self, capture_server):
        server, handler = capture_server
        handler.reply = {"choices": []}
        client = self.make_client(server, max_retries=3)
        with pytest.raises(EmptyCompletion, match="malformed completion payload"):
            client.complete([{"role": "user", "content": "x"}])
        assert len(handler.captured) == 1

    def test_empty_completion_detected(self):
        with pytest.raises(EmptyCompletion):
            ChatClient._parse({"choices": [{"message": {"content": ""}}]})

    def test_config_validation(self):
        with pytest.raises(Exception):
            ChatClient(base_url="http://x", model="m", requests_per_minute=0)

    def test_usage_accumulates(self, capture_server):
        server, handler = capture_server
        client = self.make_client(server)
        client.complete([{"role": "user", "content": "h" * 40}])
        assert client.estimated_input_tokens == 10
        assert client.estimated_output_tokens >= 1

    def test_sequential_calls_share_one_connection(self, keepalive_server):
        server, handler = keepalive_server
        client = self.make_client(server)
        for _ in range(5):
            assert client.complete([{"role": "user", "content": "x"}]) == "ok"
        client.close()
        assert len(handler.captured) == 5
        assert handler.connections == 1

    def test_connection_dropped_while_idle_is_reopened_without_a_retry(self, keepalive_server):
        server, handler = keepalive_server
        handler.drop_after_reply = True
        client = self.make_client(server, max_retries=0)
        for _ in range(5):
            assert client.complete([{"role": "user", "content": "x"}]) == "ok"
        client.close()
        assert len(handler.captured) == 5
        assert handler.connections == 5

    def test_https_against_a_plain_http_port_is_transport_error(self, capture_server):
        server, handler = capture_server
        client = ChatClient(
            base_url=f"https://127.0.0.1:{server.server_address[1]}/v1", model="m", max_retries=0
        )
        with pytest.raises(TransportError):
            client.complete([{"role": "user", "content": "x"}])
        assert handler.captured == []

    def test_failing_stage_closes_its_connections(
        self, keepalive_server, fixture_paths, tmp_path, capsys
    ):
        # The suite's ResourceWarning filter fails a connection left open.
        server, handler = keepalive_server
        handler.ok_first, handler.fail_first, handler.fail_status = 1, 10**6, 401
        code = main([
            "verify", "--in", str(fixture_paths["corpus"]), "--spans", str(fixture_paths["gold"]),
            "--base-url", f"http://127.0.0.1:{server.server_address[1]}/v1", "--jobs", "2",
            "--out", str(tmp_path / "kept.json"),
        ])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("transport error:"), lines
        assert "HTTP 401" in lines[0]
        assert 1 <= handler.connections <= 2

    def test_non_http_base_url_exits_1(self, fixture_paths, tmp_path, capsys):
        code = main([
            "detect", "--detector", "llm-finetuned", "--in", str(fixture_paths["corpus"]),
            "--base-url", "ftp://x", "--out", str(tmp_path / "pred.json"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert "ftp://x" in lines[0]


def test_token_bucket_waits_once_its_minute_is_spent(monkeypatch):
    clock, sleeps = [100.0], []

    def sleep(seconds: float) -> None:
        sleeps.append(seconds)
        clock[0] += seconds

    fake_time = types.SimpleNamespace(monotonic=lambda: clock[0], sleep=sleep)
    monkeypatch.setattr(llm, "time", fake_time)
    bucket = _TokenBucket(per_minute=60)
    for _ in range(60):
        bucket.acquire()
    assert sleeps == []
    bucket.acquire()  # the 61st request in the same instant waits one token's time
    assert sleeps == [1.0]


def test_completion_budget_guard():
    from deidkit.detect import _completion_budget

    assert _completion_budget("x" * 400) == 2 * 100 + 64
    assert _completion_budget("") == 2 * 1 + 64
