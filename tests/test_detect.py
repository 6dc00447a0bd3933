from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from deidkit import codec
from deidkit.corpus import Category, Document, Span, validate_spans
from deidkit.detect import (
    ChatClient,
    ChatMessage,
    DEFAULT_FEWSHOT_EXEMPLARS,
    EmptyCompletion,
    ExemplarInconsistent,
    FEWSHOT_TARGET_LEAD,
    FINETUNE_USER_INSTRUCTION,
    LlmClientConfig,
    MARKER_LEGEND,
    TransportError,
    build_fewshot_messages,
    build_finetune_record,
    llm_detect,
    rule_detect,
    write_finetune_file,
)
from deidkit.hips import load_name_pools

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

    def test_category_filter(self, pools):
        doc = Document("x", "mail a@b.co or visit www.example.com")
        spans = rule_detect(doc, categories=[Category.EMAIL], pools=pools)
        assert {s.category for s in spans} == {Category.EMAIL}


class TestFewshotPrompt:
    def test_message_shape(self):
        messages = build_fewshot_messages(TABLE_DOC)
        assert [m.role for m in messages] == ["system", "user"]
        assert TABLE_DOC.text in messages[1].content

    def test_legend_contains_all_marker_pairs(self):
        messages = build_fewshot_messages(TABLE_DOC)
        for open_m, close_m in codec.MARKERS.values():
            assert open_m in messages[1].content
            assert close_m in messages[1].content
        assert MARKER_LEGEND in messages[1].content

    def test_three_exemplars_embedded(self):
        messages = build_fewshot_messages(TABLE_DOC)
        for plain, marked in DEFAULT_FEWSHOT_EXEMPLARS:
            assert plain in messages[1].content
            assert marked in messages[1].content

    def test_default_exemplars_roundtrip(self):
        for plain, marked in DEFAULT_FEWSHOT_EXEMPLARS:
            assert codec.strip_markers(marked) == plain

    def test_inconsistent_exemplar_rejected(self):
        bad = (("plain text", "@@@mismatched### text"),) + DEFAULT_FEWSHOT_EXEMPLARS[1:]
        with pytest.raises(ExemplarInconsistent):
            build_fewshot_messages(TABLE_DOC, bad)

    def test_target_lead_present(self):
        messages = build_fewshot_messages(TABLE_DOC)
        assert FEWSHOT_TARGET_LEAD in messages[1].content


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

        text = extract_target_text(messages[-1].content)
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

    def test_unknown_mode_rejected(self, scripted_client):
        client = scripted_client(lambda m: "x")
        with pytest.raises(Exception):
            llm_detect(TABLE_DOC, client, "zero-shot")


class _CapturingHandler(BaseHTTPRequestHandler):
    captured: list = []
    fail_first: int = 0

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).captured.append(
            {"body": body, "auth": self.headers.get("Authorization")}
        )
        if type(self).fail_first > 0:
            type(self).fail_first -= 1
            self.send_response(503)
            self.end_headers()
            return
        payload = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": "ok"}}]}
        ).encode()
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


class TestChatClient:
    def make_client(self, server, **overrides) -> ChatClient:
        config = LlmClientConfig(
            base_url=f"http://127.0.0.1:{server.server_address[1]}/v1",
            model="test-model",
            **overrides,
        )
        return ChatClient(config)

    def test_wire_format(self, capture_server, monkeypatch):
        server, handler = capture_server
        monkeypatch.setenv("DEIDKIT_API_KEY", "sk-test")
        client = self.make_client(server, temperature=0.0)
        out = client.complete([ChatMessage("user", "hello")], max_tokens=32)
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
        assert client.complete([ChatMessage("user", "x")]) == "ok"
        assert len(handler.captured) == 3

    def test_transport_error_after_max_retries(self, capture_server):
        server, handler = capture_server
        handler.fail_first = 10
        client = self.make_client(server, max_retries=1)
        client._backoff_base = 0.01
        with pytest.raises(TransportError):
            client.complete([ChatMessage("user", "x")])

    def test_unreachable_endpoint(self):
        config = LlmClientConfig(
            base_url="http://127.0.0.1:1/v1", model="m", max_retries=0
        )
        with pytest.raises(TransportError):
            ChatClient(config).complete([ChatMessage("user", "x")])

    def test_empty_completion_detected(self):
        with pytest.raises(EmptyCompletion):
            ChatClient._parse({"choices": [{"message": {"content": ""}}]})

    def test_config_validation(self):
        with pytest.raises(Exception):
            LlmClientConfig(base_url="http://x", model="m", requests_per_minute=0)
        with pytest.raises(Exception):
            LlmClientConfig(base_url="http://x", model="m", temperature=-1)

    def test_usage_accumulates(self, capture_server):
        server, handler = capture_server
        client = self.make_client(server)
        client.complete([ChatMessage("user", "h" * 40)])
        assert client.estimated_input_tokens == 10
        assert client.estimated_output_tokens >= 1


def test_completion_budget_guard():
    from deidkit.detect import _completion_budget

    assert _completion_budget("x" * 400) == 2 * 100 + 64
    assert _completion_budget("") == 2 * 1 + 64
