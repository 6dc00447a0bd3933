from __future__ import annotations

import gc
import json
import math
import random
import re
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress

import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import http_reply, one_error_line

from deidkit import codec, llm
from deidkit.cli import main
from deidkit.corpus import Category, Document, Span, validate_spans
from deidkit.detect import (
    DEFAULT_FEWSHOT_EXEMPLARS,
    FEWSHOT_TARGET_LEAD,
    FINETUNE_USER_INSTRUCTION,
    MARKER_LEGEND,
    _capitalised_words,
    _pattern_candidates,
    _resolve_overlaps,
    build_fewshot_messages,
    build_finetune_record,
    llm_detect,
    rule_detect,
    write_finetune_file,
)
from deidkit.hips import load_name_pools
from deidkit.llm import ChatClient, TransportError, _TokenBucket
from deidkit.mockllm import MockLlm

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

    # A run of [A-Za-z'-] is one word from its first letter on, and it is name
    # evidence only if that letter is a capital.
    @pytest.mark.parametrize("text, names", [
        ("met a-Dana today", []),
        ("met aDana today", []),
        ("met a--Dana today", []),
        ("met -Dana today", ["Dana"]),
        ("met 'Dana today", ["Dana"]),
        ("met --'Maria Garcia today", ["Maria Garcia"]),
        ("met O'Newton today", []),
        ("met Mary-Jane today", []),
        ("met Dana- today", []),
        ("met Dana-", []),
    ])
    def test_word_boundaries(self, pools, text, names):
        spans = rule_detect(Document("x", text), pools=pools)
        assert [s.surface for s in spans] == names

    def test_name_sets_are_built_once_per_pool(self, pools, mini_docs):
        names = pools.lowercase_names
        doc = mini_docs["379"]
        rule_detect(doc, pools=pools)
        rule_detect(doc, pools=pools)
        assert pools.lowercase_names is names


# The word scan before the capitalised-word regex: every word, then a filter.
_REFERENCE_WORD_RE = re.compile(r"[A-Za-z][A-Za-z'\-]*")


@seed(20251019)
@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="aBz-' .\n9@é", max_size=40))
def test_capitalised_words_are_the_words_that_start_upper(text):
    expected = [
        m.span() for m in _REFERENCE_WORD_RE.finditer(text) if m.group(0)[0].isupper()
    ]
    assert [m.span() for m in _capitalised_words(text)] == expected


@pytest.mark.parametrize("text, words", [
    ("d'Arcy", []),
    ("a'-Bob", []),
    ("'Bob'", ["Bob'"]),
    ("-'Ann", ["Ann"]),
    ("O'Brien-Smith", ["O'Brien-Smith"]),
    ("McDonald", ["McDonald"]),
    ("ÉBob", ["Bob"]),
    ("É Bob", ["Bob"]),
])
def test_capitalised_words_at_apostrophes_hyphens_and_non_ascii(text, words):
    expected = [
        m.span() for m in _REFERENCE_WORD_RE.finditer(text) if m.group(0)[0].isupper()
    ]
    assert [text[start:end] for start, end in expected] == words
    assert [m.span() for m in _capitalised_words(text)] == expected


# The pattern scan as it was before each pattern was guarded by a literal, verbatim:
# every pattern runs over every text.
_REFERENCE_EMAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
_REFERENCE_PHONE_RES = (
    re.compile(r"\(\d{3}\)\s?\d{3}[-.\s]?\d{4}"),
    re.compile(r"\+\d{1,3}(?:[-.\s]?\d{2,4}){2,4}"),
    re.compile(r"\b\d{3}[-.]\d{3}[-.]\d{4}\b"),
)
_REFERENCE_URL_RES = (
    re.compile(r"https?://[^\s<>\"']+"),
    re.compile(r"\bwww\.[A-Za-z0-9-]+(?:\.[A-Za-z0-9-]+)+(?:/[^\s<>\"']*)?"),
)
_REFERENCE_TRAILING_PUNCT = ".,;:!?)]}\"'"


def _reference_pattern_candidates(text: str) -> list[Span]:
    found: list[Span] = []
    for m in _REFERENCE_EMAIL_RE.finditer(text):
        found.append(Span(m.start(), m.end(), Category.EMAIL, m.group(0)))
    for pattern in _REFERENCE_PHONE_RES:
        for m in pattern.finditer(text):
            found.append(Span(m.start(), m.end(), Category.PHONE_NUM, m.group(0)))
    for pattern in _REFERENCE_URL_RES:
        for m in pattern.finditer(text):
            end = m.end()
            while end > m.start() and text[end - 1] in _REFERENCE_TRAILING_PUNCT:
                end -= 1
            if end > m.start():
                found.append(Span(m.start(), end, Category.URL_PERSONAL, text[m.start() : end]))
    return found


# Single characters, plus fragments that make a match likely in a short text.
_PATTERN_PIECES = st.one_of(
    st.sampled_from("@.w:/()+-_ 0123456789٠١٢٣٤٥٦٧٨٩éaZx\n"),
    st.sampled_from(["www.", "http://", "https://", ".com", "123", "4567", "(555)", "+44"]),
)


@seed(20251020)
@settings(max_examples=1500, deadline=None)
@given(st.lists(_PATTERN_PIECES, max_size=30).map("".join))
def test_guarded_patterns_find_what_the_unguarded_scan_finds(text):
    assert _pattern_candidates(text) == _reference_pattern_candidates(text)


@pytest.mark.parametrize("text, surfaces", [
    ("x@y.zz", [(Category.EMAIL, "x@y.zz")]),
    ("see www.a.bc/d.", [(Category.URL_PERSONAL, "www.a.bc/d")]),
    ("١٢٣-456-7890", [(Category.PHONE_NUM, "١٢٣-456-7890")]),
    ("a123-456-7890", []),
    ("é123-456-7890", []),
    ("123-456-7890", [(Category.PHONE_NUM, "123-456-7890")]),
    ("-123.456.78901", []),
])
def test_guarded_patterns_on_fixed_cases(text, surfaces):
    assert _pattern_candidates(text) == _reference_pattern_candidates(text)
    assert [(s.category, s.surface) for s in _pattern_candidates(text)] == surfaces


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

    def test_legend_text_is_pinned(self):
        # The fine-tuned model was trained on these exact bytes.
        assert MARKER_LEGEND == (
            "@@@, ### to label student name; &&&, $$$ to label personal URL; "
            "QQQ, ^^^ to label personal email; %%%, ~~~ to label phone number"
        )

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
        # A whitespace-only document has nothing to label: no record, and no count.
        blank = (Document("blank", " \n\t"), [])
        count = write_finetune_file(
            out, [blank, *((mini_docs[i], mini_gold[i]) for i in sorted(mini_docs))]
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


class TestLlmDetect:
    @pytest.fixture
    def echo_gold(self, scripted_client, mini_gold_by_text):
        mock = MockLlm("echo-gold", mini_gold_by_text)
        return scripted_client(lambda messages: mock.respond({"messages": messages}))

    def test_echo_gold_recovers_gold(self, echo_gold, mini_docs, mini_gold):
        for doc_id, doc in mini_docs.items():
            report = llm_detect(doc, echo_gold, "finetuned")
            assert report.spans == mini_gold[doc_id]
            assert report.dropped == []
            contract_check(doc, report.spans)

    def test_fewshot_mode_same_oracle(self, echo_gold, mini_docs, mini_gold):
        for doc_id, doc in mini_docs.items():
            assert llm_detect(doc, echo_gold, "fewshot").spans == mini_gold[doc_id]

    def test_reproducible_against_deterministic_mock(self, echo_gold, mini_docs):
        for doc in mini_docs.values():
            first = llm_detect(doc, echo_gold, "finetuned")
            second = llm_detect(doc, echo_gold, "finetuned")
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


_OK_REPLY = {"choices": [{"message": {"role": "assistant", "content": "ok"}}]}


def failing(fail_first: int, status: int = 503, ok_first: int = 0, version: bytes = b"1.0"):
    """An answer that fails the ``fail_first`` requests after the first ``ok_first`` with an
    empty ``status`` reply, and answers every other one "ok"."""
    def answer(i, body):
        if ok_first <= i < ok_first + fail_first:
            return http_reply(b"", status, version=version)
        return http_reply(_OK_REPLY, version=version)
    return answer


class TestChatClient:
    def make_client(self, endpoint, **overrides) -> ChatClient:
        return ChatClient(base_url=endpoint.base_url, model="test-model", **overrides)

    def test_wire_format(self, chat_endpoint, monkeypatch):
        endpoint = chat_endpoint(http_reply(_OK_REPLY, version=b"1.0"))
        monkeypatch.setenv("DEIDKIT_API_KEY", "sk-test")
        client = self.make_client(endpoint)
        out = client.complete([{"role": "user", "content": "hello"}], max_tokens=32)
        assert out == "ok"
        sent = endpoint.requests[0]
        assert sent.body["model"] == "test-model"
        assert sent.body["temperature"] == 0.0
        assert sent.body["messages"] == [{"role": "user", "content": "hello"}]
        assert sent.body["max_tokens"] == 32
        assert sent.auth == "Bearer sk-test"

    def test_retries_transient_errors(self, chat_endpoint):
        endpoint = chat_endpoint(failing(2))
        client = self.make_client(endpoint, max_retries=3)
        client._backoff_base = 0.01
        assert client.complete([{"role": "user", "content": "x"}]) == "ok"
        assert len(endpoint.requests) == 3

    def test_transport_error_after_max_retries(self, chat_endpoint):
        client = self.make_client(chat_endpoint(failing(10)), max_retries=1)
        client._backoff_base = 0.01
        with pytest.raises(TransportError):
            client.complete([{"role": "user", "content": "x"}])

    def test_unreachable_endpoint(self):
        client = ChatClient(base_url="http://127.0.0.1:1/v1", model="m", max_retries=0)
        with pytest.raises(TransportError):
            client.complete([{"role": "user", "content": "x"}])

    def test_non_retryable_status_fails_after_one_request(self, chat_endpoint):
        endpoint = chat_endpoint(failing(10, 401))
        client = self.make_client(endpoint, max_retries=3)
        with pytest.raises(TransportError, match="HTTP 401"):
            client.complete([{"role": "user", "content": "x"}])
        assert len(endpoint.requests) == 1

    def test_reply_without_choices_is_empty_completion(self, chat_endpoint):
        endpoint = chat_endpoint(http_reply({"choices": []}, version=b"1.0"))
        client = self.make_client(endpoint, max_retries=3)
        with pytest.raises(TransportError, match="malformed completion payload"):
            client.complete([{"role": "user", "content": "x"}])
        assert len(endpoint.requests) == 1

    def test_empty_completion_detected(self):
        with pytest.raises(TransportError, match="completion content is empty"):
            ChatClient._parse({"choices": [{"message": {"content": ""}}]})

    def test_config_validation(self):
        with pytest.raises(Exception):
            ChatClient(base_url="http://x", model="m", requests_per_minute=0)

    def test_usage_accumulates(self, chat_endpoint):
        client = self.make_client(chat_endpoint(http_reply(_OK_REPLY, version=b"1.0")))
        client.complete([{"role": "user", "content": "h" * 40}])
        assert client.estimated_input_tokens == 10
        assert client.estimated_output_tokens >= 1

    def test_sequential_calls_share_one_connection(self, chat_endpoint):
        endpoint = chat_endpoint(http_reply(_OK_REPLY))
        client = self.make_client(endpoint)
        for _ in range(5):
            assert client.complete([{"role": "user", "content": "x"}]) == "ok"
        client.close()
        assert len(endpoint.requests) == 5
        assert len(endpoint.connections) == 1

    def test_threads_reuse_idle_connections(self, chat_endpoint):
        endpoint = chat_endpoint(http_reply(_OK_REPLY))
        client = self.make_client(endpoint)
        start = threading.Barrier(2, timeout=10)

        def five_calls() -> list[str]:
            start.wait()  # both threads are in flight before either sends
            return [client.complete([{"role": "user", "content": "x"}]) for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the idle-list operations too
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(five_calls) for _ in range(2)]
                assert [reply for f in futures for reply in f.result(timeout=30)] == ["ok"] * 10
        finally:
            sys.setswitchinterval(interval)
        client.close()
        del client
        gc.collect()  # a connection close() missed would raise a ResourceWarning here
        assert len(endpoint.requests) == 10
        assert 1 <= len(endpoint.connections) <= 2

    def test_connection_dropped_while_idle_is_reopened_without_a_retry(self, chat_endpoint):
        # The endpoint hangs up without a Connection: close field, as a server that drops
        # an idle keep-alive connection does.
        endpoint = chat_endpoint(http_reply(_OK_REPLY), hang_up=True)
        client = self.make_client(endpoint, max_retries=0)
        for _ in range(5):
            assert client.complete([{"role": "user", "content": "x"}]) == "ok"
        client.close()
        assert len(endpoint.requests) == 5
        assert len(endpoint.connections) == 5

    def test_https_against_a_plain_http_port_is_transport_error(self, chat_endpoint):
        endpoint = chat_endpoint(http_reply(_OK_REPLY, version=b"1.0"))
        client = ChatClient(
            base_url=endpoint.base_url.replace("http:", "https:"), model="m", max_retries=0
        )
        with pytest.raises(TransportError):
            client.complete([{"role": "user", "content": "x"}])
        assert endpoint.requests == []

    def test_failing_stage_closes_its_connections(
        self, chat_endpoint, fixture_paths, tmp_path, capsys
    ):
        # The suite's ResourceWarning filter fails a connection left open.
        config = tmp_path / "config.json"
        config.write_text('{"pricing": {"usd_per_1m_input": 0.15, "usd_per_1m_output": 0.6}}')
        out = tmp_path / "kept.json"
        gold = str(fixture_paths["gold"])
        for stage, jobs in (
            (["verify", "--spans", gold, "--jobs", "2"], 2),
            (["--config", str(config), "detect", "--detector", "llm-finetuned", "--jobs", "2"], 2),
            (["make-verifier-data", "--variant", "with-cot", "--gold", gold,
              "--detections", gold], 1),
        ):
            endpoint = chat_endpoint(failing(10**6, 401, ok_first=1, version=b"1.1"))
            code = main([
                *stage, "--in", str(fixture_paths["corpus"]),
                "--base-url", endpoint.base_url, "--out", str(out),
            ])
            gc.collect()
            assert code == 2
            assert "HTTP 401" in one_error_line(capsys.readouterr().err, "transport error:")
            # The one reply that succeeds, then one failure from each document in flight.
            assert 2 <= len(endpoint.requests) <= 1 + jobs, stage
            assert 1 <= len(endpoint.connections) <= jobs
            assert not out.exists() and not (tmp_path / "kept.json.cost.json").exists()
            assert not (tmp_path / "kept.json.manifest.json").exists()

    def test_reply_cut_at_max_tokens_is_transport_error(
        self, chat_endpoint, fixture_paths, tmp_path, capsys
    ):
        stopped = {"choices": [{"message": {"content": "x"}, "finish_reason": "stop"}]}
        assert ChatClient._parse(stopped) == "x"
        endpoint = chat_endpoint(http_reply({"choices": [
            {"message": {"role": "assistant", "content": "ok"}, "finish_reason": "length"}
        ]}, version=b"1.0"))
        with pytest.raises(TransportError, match="cut at max_tokens"):
            self.make_client(endpoint, max_retries=3).complete([{"role": "user", "content": "x"}])
        assert len(endpoint.requests) == 1  # not retried: at temperature 0 it comes back the same
        out = tmp_path / "pred.json"
        code = main([
            "detect", "--detector", "llm-finetuned", "--in", str(fixture_paths["corpus"]),
            "--base-url", endpoint.base_url, "--out", str(out),
        ])
        assert code == 2
        assert "cut at max_tokens" in one_error_line(capsys.readouterr().err, "transport error:")
        assert not out.exists()

    @pytest.mark.parametrize("jobs, most", [(1, 1), (2, 2)])
    def test_no_document_starts_after_a_failure(
        self, chat_endpoint, fixture_paths, tmp_path, capsys, jobs, most
    ):
        endpoint = chat_endpoint(http_reply(
            {"choices": [{"message": {"content": "ok"}, "finish_reason": "length"}]}, version=b"1.0"))
        for _ in range(3):  # a document started after the failure was a race, not a certainty
            endpoint.requests.clear()
            code = main([
                "detect", "--detector", "llm-finetuned", "--in", str(fixture_paths["corpus"]),
                "--base-url", endpoint.base_url,
                "--jobs", str(jobs), "--out", str(tmp_path / "pred.json"),
            ])
            line = one_error_line(capsys.readouterr().err, "transport error:")
            assert code == 2 and "cut at max_tokens" in line, line
            assert 1 <= len(endpoint.requests) <= most

    def test_non_http_base_url_exits_1(self, fixture_paths, tmp_path, capsys):
        code = main([
            "detect", "--detector", "llm-finetuned", "--in", str(fixture_paths["corpus"]),
            "--base-url", "ftp://x", "--out", str(tmp_path / "pred.json"),
        ])
        assert code == 1
        assert "ftp://x" in one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("base_url, part", [
        ("https://x/openai?api-version=1", "query"),
        ("https://x/v1#frag", "fragment"),
        ("http://user:pw@host/v1", "credentials"),
        ("http://user:pw@host:99999/v1", "credentials"),  # the port error would echo the URL
        # and so would the scheme/host error, where the "//" is missing, misplaced or tripled;
        ("http:u:pw@host/v1", "credentials"),
        ("http:u:pw@host//v1", "credentials"),
        ("http:///u:pw@host/v1", "credentials"),
        # the request line would carry these paths as they are,
        ("http://127.0.0.1:1/v 1", "path"),
        ("http://127.0.0.1:1/v\u00e9", "path"),
        ("http://127.0.0.1:1/v\x7f", "path"),
        # and urlsplit drops a tab without a word.
        ("http://127.0.0.1:1/v\t1", "tab"),
        # such a host would reach the Host header or a name lookup;
        ("http://a b:1/v1", "host"),
        ("http://a\x00b:1/v1", "host"),
        # these were raised without the URL: the IDNA codec's error and urlsplit's.
        ("http://a..b:1/v1", "label empty"),
        ("http://[::1:1/v1", "IPv6"),
        ("http://u:pw@[::1/v1", "credentials"),
    ])
    def test_base_url_part_the_client_would_drop_exits_1(
        self, fixture_paths, tmp_path, capsys, base_url, part
    ):
        out = tmp_path / "out"
        out.mkdir()
        code = main([
            "detect", "--detector", "llm-finetuned", "--in", str(fixture_paths["corpus"]),
            "--base-url", base_url, "--out", str(out / "pred.json"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        line = one_error_line(err, "error: base URL")
        assert part in line, err
        assert "pw" not in err
        assert part == "credentials" or repr(base_url) in line
        assert not any(out.iterdir())  # no output and no manifest


_OK = json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode()
_SIZED_OK = http_reply(_OK)


@pytest.mark.parametrize("replies, hang_up, outcome", [
    # Two calls: what the first returns (or the error it raises) and the connections both take.
    ([_SIZED_OK], False, ("ok", 1)),
    ([b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x;note=1\r\n%s\r\n%x\r\n%s\r\n"
      b"0\r\nX-Trailer: 1\r\n\r\n" % (9, _OK[:9], len(_OK) - 9, _OK[9:])], False, ("ok", 1)),
    ([b"HTTP/1.1 200 OK\r\n\r\n" + _OK], True, ("ok", 2)),
    ([http_reply(_OK, 200, b"Connection: close")], False, ("ok", 2)),
    ([http_reply(_OK, version=b"1.0")], False, ("ok", 2)),
    ([b"HTTP/1.1 100 Continue\r\n\r\n" + _SIZED_OK], False, ("ok", 1)),
    ([b"HTTP/1.1 204 No Content\r\n\r\n", _SIZED_OK], False, ("HTTP 204", 1)),
    ([http_reply(_OK, 200, *[b"X-A: 1"] * 99)], False, ("ok", 1)),
    # Unreadable replies: the stage exits 2 after the retries, naming the fault.
    ([b"ICY 200 OK\r\n\r\n" + _OK], False, "not HTTP/1.x"),
    ([_SIZED_OK.replace(b"Length: ", b"Length: 9")], True, "cut short"),
    ([_SIZED_OK.replace(b"Length: ", b"Length: " + b"9" * 20)], True, "cut short"),
    ([_SIZED_OK.replace(b"Length: ", b"Length: -")], False, "bad Content-Length"),
    ([b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n" + _OK], False,
     "bad chunk size"),
    ([http_reply(_OK, 200, b"X-Long: " + b"a" * (65537 - 8))], False, "longer than 65536"),
    ([http_reply(_OK, 200, *[b"X-A: 1"] * 100)], False, "more than 100"),
    ([b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n"
      % (len(_OK) - 1, _OK)], False, "chunk longer than its size"),
    # A fresh connection closed before the status line is a counted attempt, not a free reopen.
    ([b""], True, "closed the connection before replying"),
], ids=["content-length", "chunked", "to-close", "connection-close", "http-1.0", "continue",
        "204", "100-fields", "status-line", "cut-short", "huge-length", "bad-length",
        "chunk-size", "long-line", "101-fields", "chunk-overrun", "closed-before-reply"])
def test_reply_framing(chat_endpoint, fixture_paths, tmp_path, capsys, replies, hang_up, outcome):
    # The last reply repeats past the end of the script.
    endpoint = chat_endpoint(lambda i, body: replies[min(i, len(replies) - 1)], hang_up=hang_up)
    if isinstance(outcome, tuple):
        first, connections = outcome
        results = []
        with ChatClient(endpoint.base_url, max_retries=0) as client:
            for _ in range(2):
                try:
                    results.append(client.complete([{"role": "user", "content": "x"}]))
                except TransportError as exc:
                    results.append(str(exc))
        assert first in results[0] and results[1] == "ok", results
        assert len(endpoint.requests) == 2
        assert len(endpoint.connections) == connections
    else:
        code = main([
            "detect", "--detector", "llm-finetuned", "--in", str(fixture_paths["corpus"]),
            "--base-url", endpoint.base_url, "--max-retries", "1",
            "--out", str(tmp_path / "pred.json"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert outcome in one_error_line(
            err, "transport error: chat endpoint unreachable after 2 attempts")
        assert len(endpoint.requests) == 2
        assert not (tmp_path / "pred.json").exists()


@pytest.mark.parametrize("key", ["sk-SECRET123\nX-Evil: 1", "sk-SECRET123\r\nX-Evil: 1",
                                 "sk-SECRET 123", "sk-SECRETé123"])
def test_api_key_a_header_cannot_carry_exits_1_unsent(
    chat_endpoint, fixture_paths, tmp_path, capsys, monkeypatch, key
):
    endpoint = chat_endpoint(http_reply(_OK_REPLY, version=b"1.0"))
    monkeypatch.setenv("DEIDKIT_KEY", key)
    code = main([
        "detect", "--detector", "llm-finetuned", "--in", str(fixture_paths["corpus"]),
        "--base-url", endpoint.base_url,
        "--api-key-env", "DEIDKIT_KEY", "--out", str(tmp_path / "pred.json"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "DEIDKIT_KEY" in one_error_line(err), err
    assert "SECRET" not in err
    assert endpoint.requests == []
    assert not any(tmp_path.iterdir())


#: Base-URL parts as (good, bad) pools. https is left out: the chat endpoint speaks plain
#: HTTP. So is a missing or zero port, which would reach another port of this machine.
_URL_PARTS = {
    "scheme": (["http://", "HTTP://"],
               ["ftp://", "ws://", "//", "http:/", "http:", "https//", "http:///"]),
    "userinfo": ([""], ["u:pw@", "u@", ":pw@", "u:pw@x@"]),
    "host": (["127.0.0.1", "[::1]"],
             ["a b", "a\x00b", "a\x7fb", "a\nb", "a..b", "[::1", "", "[127.0.0.1]"]),
    "port": (["{port}"], [":99999", ":abc", ":-1", ":1:2", ": 1"]),
    "path": (["", "/", "/v1", "/v1/", "//v1", "/a/b/", "/v%201", "/~u/v1;x=1"],
             ["/v 1", "/vé", "/v\x7f", "/v\t1", "/v\r\n1", "?q=1", "/v1?x", "/v1#f"]),
    "end": (["", "\n", "\r\n", "\t\n"], [" x", "\tx", "\nx"]),
}


def test_fuzzed_base_urls_exit_1_or_send_their_request_line(chat_endpoint, fixture_paths,
                                                            tmp_path, capsys, monkeypatch):
    # Each URL is built from good and bad parts. One with a bad part exits 1 with one
    # base-URL line, sends nothing and echoes no credentials; one of good parts only sends
    # its path plus /chat/completions and names its authority as the Host.
    monkeypatch.delenv("DEIDKIT_API_KEY", raising=False)
    rng = random.Random(31)
    faults = []
    endpoints = {"127.0.0.1": chat_endpoint(_SIZED_OK)}
    with suppress(OSError):  # a machine without an IPv6 loopback fuzzes IPv4 hosts only
        endpoints["[::1]"] = chat_endpoint(_SIZED_OK, host="::1")
    for case in range(80):
        parts, good = {}, True
        for name, (good_pool, bad_pool) in _URL_PARTS.items():
            pick_good = rng.random() < 0.85
            parts[name] = rng.choice(good_pool if pick_good else bad_pool)
            good = good and pick_good
        if parts["host"] == "[::1]" and parts["host"] not in endpoints:
            parts["host"] = "127.0.0.1"
        port = endpoints.get(parts["host"], endpoints["127.0.0.1"]).server_address[1]
        parts["port"] = parts["port"].format(port=f":{port}")
        base_url = "".join(parts.values())
        for endpoint in endpoints.values():
            endpoint.requests.clear()
        out = tmp_path / f"{case}.json"
        code = main(["detect", "--detector", "llm-finetuned", "--in",
                     str(fixture_paths["corpus"]), "--base-url", base_url,
                     "--max-retries", "0", "--out", str(out)])
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        path = parts["path"].rstrip("/") + "/chat/completions"
        authority = parts["host"] + parts["port"]
        sent = [(h[0], sorted(line.partition(b":")[0].lower() for line in h[1:-1]),
                 next(line for line in h if line.lower().startswith(b"host:")))
                for endpoint in endpoints.values() for h, _, _ in endpoint.requests]
        if good:
            ok = code == 0 and sent and all(s == (
                f"POST {path} HTTP/1.1\r\n".encode(),
                [b"accept-encoding", b"content-length", b"content-type", b"host"],
                f"Host: {authority}\r\n".encode()) for s in sent)
        else:
            ok = (code == 1 and len(lines) == 1 and lines[0].startswith("error: base URL")
                  and "pw" not in err and not sent and not out.exists())
        if not ok:
            faults.append((case, base_url, code, err.strip(), sent[:1]))
    assert not faults, faults


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


def polling_token_bucket(time):
    """The limiter as it was before it kept one timestamp, verbatim, on the given clock."""

    class _TokenBucket:
        """Request-rate limiter: capacity of one minute's worth of requests."""

        def __init__(self, per_minute: int):
            self._capacity = float(per_minute)
            self._tokens = float(per_minute)
            self._rate = per_minute / 60.0
            self._updated = time.monotonic()
            self._lock = threading.Lock()

        def acquire(self) -> None:
            while True:
                with self._lock:
                    now = time.monotonic()
                    self._tokens = min(self._capacity, self._tokens + (now - self._updated) * self._rate)
                    self._updated = now
                    if self._tokens >= 1.0:
                        self._tokens -= 1.0
                        return
                    wait = (1.0 - self._tokens) / self._rate
                time.sleep(wait)

    return _TokenBucket


class FakeClock:
    def __init__(self, now: float):
        self.now, self.sleeps = now, 0

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        # A real clock moves on during any sleep, even one too short to change
        # a float this large; the polling limiter would spin forever otherwise.
        self.sleeps += 1
        self.now = max(self.now + seconds, math.nextafter(self.now, math.inf))


@pytest.mark.parametrize("per_minute", [1, 7, 60, 1000, 10_000_000])
def test_token_bucket_starts_requests_when_the_polling_limiter_did(monkeypatch, per_minute):
    interval = 60.0 / per_minute
    for schedule in range(200):
        rng = random.Random(f"{per_minute}:{schedule}")
        # Bursts, arrivals faster and slower than the limit, and idle spells.
        mean_gap = interval * rng.choice([0.0, 0.3, 0.9, 1.5])
        idle = rng.choice([0.0, 0.02])  # the share of requests that follow an idle spell
        gaps = [
            (rng.expovariate(1 / mean_gap) if mean_gap else 0.0)
            + (rng.uniform(0, 120) if rng.random() < idle else 0.0)
            for _ in range(rng.randint(1, min(3 * per_minute + 5, 2500)))
        ]
        start = rng.uniform(0, 1e4)
        reference_clock, clock = FakeClock(start), FakeClock(start)
        reference = polling_token_bucket(reference_clock)(per_minute)
        monkeypatch.setattr(llm, "time", clock)
        bucket = _TokenBucket(per_minute)
        for gap in gaps:
            reference_clock.now += gap
            clock.now += gap
            reference.acquire()
            sleeps = clock.sleeps
            bucket.acquire()
            assert clock.sleeps - sleeps <= 1
            assert abs(clock.now - reference_clock.now) <= 1e-6, (schedule, clock.now, reference_clock.now)


def test_completion_budget_guard():
    from deidkit.detect import _completion_budget

    assert _completion_budget("x" * 400) == 2 * 100 + 64
    assert _completion_budget("") == 2 * 1 + 64
