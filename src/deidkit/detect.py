"""Per-document detection functions: rule recognizers and marker-protocol LLM calls.

Also builds the few-shot prompt, the fine-tuning training records, and hosts
the rate-limited chat-completion client shared with the verifier stage.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import ssl
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol, Sequence

from . import codec
from .corpus import Category, Document, Span, write_jsonl
from .hips import NamePool

Exemplar = tuple[str, str]  # (plain text, marker-labeled text)

_CATEGORY_PROMPT_NAMES: dict[Category, str] = {
    Category.NAME_STUDENT: "student name",
    Category.URL_PERSONAL: "personal URL",
    Category.EMAIL: "personal email",
    Category.PHONE_NUM: "phone number",
}

#: Marker legend used verbatim in every prompt, derived from the codec table
#: so the prompts and the decoder can never disagree.
MARKER_LEGEND = "; ".join(
    f"{MARKERS[0]}, {MARKERS[1]} to label {_CATEGORY_PROMPT_NAMES[cat]}"
    for cat, MARKERS in codec.MARKERS.items()
)

FEWSHOT_SYSTEM_PROMPT = (
    "You are an expert in labeling Personally Identifiable Information (PII). "
    "Start your response right away without adding any prefix (such as "
    '"Response:") or suffix. Use special identifiers to mark different types '
    "of PII in the given text."
)

FINETUNE_SYSTEM_PROMPT = (
    "You are an expert in labeling Personally Identifiable Information. "
    "Start your response right away without adding any prefix (such as "
    "Response:) or suffix."
)

FEWSHOT_USER_RULES = (
    f"Label the entity of the following text: {MARKER_LEGEND}. "
    "Ensure that the rest of the text remains unchanged, word for word. "
    "Maintain the original punctuation, quotation marks, spaces, and line "
    "breaks. If the text does not contain any PII, return it as is."
)

FINETUNE_USER_INSTRUCTION = f"Label the entity of the following text: {MARKER_LEGEND}."

FEWSHOT_TARGET_LEAD = "Please repeat this process with the following file:"

#: The three labeled (plain, marked) exemplars embedded in the few-shot prompt.
DEFAULT_FEWSHOT_EXEMPLARS: tuple[Exemplar, ...] = (
    (
        "My name is Carla Jones and you can reach me at carla.jones@example.com",
        "My name is @@@Carla Jones### and you can reach me at QQQcarla.jones@example.com^^^",
    ),
    (
        "See www.example.com/portfolio for the full write-up or call (555)123-4567",
        "See &&&www.example.com/portfolio$$$ for the full write-up or call %%%(555)123-4567~~~",
    ),
    (
        "We practiced storytelling and visualization on a real design brief",
        "We practiced storytelling and visualization on a real design brief",
    ),
)


class DetectError(ValueError):
    pass


class TransportError(RuntimeError):
    """The chat endpoint stayed unreachable after the configured retries."""


class EmptyCompletion(RuntimeError):
    pass


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise DetectError(f"invalid role {self.role!r}")
        if not self.content:
            raise DetectError("message content must be non-empty")

    def as_dict(self) -> dict[str, str]:
        return {"role": self.role, "content": self.content}


@dataclass
class LlmClientConfig:
    base_url: str
    model: str = "gpt-4o-mini"
    api_key_env: str = "DEIDKIT_API_KEY"
    temperature: float = 0.0
    requests_per_minute: int = 1000
    max_retries: int = 3

    def __post_init__(self):
        if self.requests_per_minute <= 0:
            raise DetectError("requests_per_minute must be positive")
        if self.temperature < 0:
            raise DetectError("temperature must be >= 0")


class SupportsComplete(Protocol):
    def complete(self, messages: Sequence[ChatMessage], max_tokens: int | None = None) -> str: ...


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


#: How a kept-alive connection that the server closed while idle fails before
#: any status line arrives.
_STALE_CONNECTION = (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError)


class ChatClient:
    """Thread-safe chat-completion client with rate limiting and retries.

    It does not cap concurrent requests itself: callers bound them by the
    number of threads they run (the CLI's ``--jobs``). Each thread keeps one
    keep-alive connection to the endpoint.

    Wire format: POST ``{base_url}/chat/completions`` with a JSON body of
    ``{model, messages, temperature[, max_tokens]}``; the completion is read
    from the first choice's message content. The API key, when the configured
    environment variable is set, travels as a bearer token.
    """

    def __init__(self, config: LlmClientConfig):
        self.config = config
        url = urllib.parse.urlsplit(config.base_url)
        try:
            port = url.port
        except ValueError as exc:
            raise DetectError(f"base URL {config.base_url!r}: {exc}") from exc
        if url.scheme not in ("http", "https") or not url.hostname:
            raise DetectError(f"base URL must look like http(s)://host/..., not {config.base_url!r}")
        self._host, self._port = url.hostname, port
        self._path = url.path.rstrip("/") + "/chat/completions"
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        self._local = threading.local()
        self._connections: list[http.client.HTTPConnection] = []
        self._connections_lock = threading.Lock()
        self._bucket = _TokenBucket(config.requests_per_minute)
        self._backoff_base = 0.25
        self._usage_lock = threading.Lock()
        self.estimated_input_tokens = 0
        self.estimated_output_tokens = 0

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            if self._tls is None:
                conn = http.client.HTTPConnection(self._host, self._port, timeout=120)
            else:
                conn = http.client.HTTPSConnection(
                    self._host, self._port, timeout=120, context=self._tls
                )
            self._local.conn = conn
            with self._connections_lock:
                self._connections.append(conn)
        return conn

    def close(self) -> None:
        """Close every thread's connection; call it once no request is in flight.

        A later request opens a new connection.
        """
        with self._connections_lock:
            connections, self._connections = self._connections, []
            self._local = threading.local()
        for conn in connections:
            conn.close()

    def _post(self, body: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """One attempt on this thread's connection: (status, response body).

        A reused connection that the server dropped while idle is reopened and
        the request sent again once; that is not a failed attempt. On any other
        failure the connection is closed, so the next attempt starts afresh.
        """
        conn = self._connection()
        try:
            reused = conn.sock is not None
            try:
                conn.request("POST", self._path, body, headers)
                response = conn.getresponse()
            except _STALE_CONNECTION:
                if not reused:
                    raise
                conn.close()
                conn.request("POST", self._path, body, headers)
                response = conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            raise

    def complete(self, messages: Sequence[ChatMessage], max_tokens: int | None = None) -> str:
        body = {
            "model": self.config.model,
            "messages": [m.as_dict() for m in messages],
            "temperature": self.config.temperature,
        }
        if max_tokens is not None:
            body["max_tokens"] = max_tokens
        payload = json.dumps(body).encode()
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            self._bucket.acquire()
            try:
                status, data = self._post(payload, headers)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
            else:
                if status == 200:
                    try:
                        reply = json.loads(data)
                    except ValueError as exc:  # not JSON, or not UTF-8
                        raise EmptyCompletion(f"completion body is not JSON: {exc}") from exc
                    content = self._parse(reply)
                    with self._usage_lock:
                        self.estimated_input_tokens += sum(
                            _estimate_tokens(m.content) for m in messages
                        )
                        self.estimated_output_tokens += _estimate_tokens(content)
                    return content
                if status not in (408, 409, 429, 500, 502, 503, 504):
                    raise TransportError(
                        f"chat endpoint returned HTTP {status}: "
                        f"{data.decode('utf-8', 'replace')[:200]}"
                    )
                last_error = TransportError(f"HTTP {status}")
            if attempt < self.config.max_retries:
                time.sleep(self._backoff_base * (2**attempt))
        raise TransportError(
            f"chat endpoint unreachable after {self.config.max_retries + 1} attempts: {last_error}"
        )

    @staticmethod
    def _parse(payload: dict) -> str:
        try:
            content = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise EmptyCompletion(f"malformed completion payload: {exc}") from exc
        if not content:
            raise EmptyCompletion("completion content is empty")
        return content


# ---------------------------------------------------------------------------
# Rule-based detection

_EMAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
# Recall-biased on purpose: downstream verification exists to clean up.
_PHONE_RES = (
    re.compile(r"\(\d{3}\)\s?\d{3}[-.\s]?\d{4}"),
    re.compile(r"\+\d{1,3}(?:[-.\s]?\d{2,4}){2,4}"),
    re.compile(r"\b\d{3}[-.]\d{3}[-.]\d{4}\b"),
)
_URL_RES = (
    re.compile(r"https?://[^\s<>\"']+"),
    re.compile(r"\bwww\.[A-Za-z0-9-]+(?:\.[A-Za-z0-9-]+)+(?:/[^\s<>\"']*)?"),
)
_TRAILING_PUNCT = ".,;:!?)]}\"'"
_WORD_RE = re.compile(r"[A-Za-z][A-Za-z'\-]*")


def _pattern_candidates(text: str) -> list[Span]:
    found: list[Span] = []
    for m in _EMAIL_RE.finditer(text):
        found.append(Span(m.start(), m.end(), Category.EMAIL, m.group(0)))
    for pattern in _PHONE_RES:
        for m in pattern.finditer(text):
            found.append(Span(m.start(), m.end(), Category.PHONE_NUM, m.group(0)))
    for pattern in _URL_RES:
        for m in pattern.finditer(text):
            end = m.end()
            while end > m.start() and text[end - 1] in _TRAILING_PUNCT:
                end -= 1
            if end > m.start():
                found.append(Span(m.start(), end, Category.URL_PERSONAL, text[m.start() : end]))
    return found


def _gazetteer_candidates(text: str, pools: NamePool) -> list[Span]:
    first = {n.lower() for n in pools.all_first_names()}
    last = {n.lower() for n in pools.all_last_names()}
    words = [
        (m.start(), m.end(), m.group(0))
        for m in _WORD_RE.finditer(text)
        if m.group(0)[0].isupper()  # lowercase mentions are not name evidence
    ]
    found: list[Span] = []
    for i, (start, end, word) in enumerate(words):
        if i + 1 < len(words):
            n_start, n_end, n_word = words[i + 1]
            adjacent = text[end:n_start] == " "
            if adjacent and word.lower() in first and n_word.lower() in last:
                found.append(
                    Span(start, n_end, Category.NAME_STUDENT, text[start:n_end])
                )
        if word.lower() in first or word.lower() in last:
            found.append(Span(start, end, Category.NAME_STUDENT, word))
    return found


def _resolve_overlaps(candidates: list[Span]) -> list[Span]:
    """Longest match wins; earlier start wins among equals."""
    kept: list[Span] = []
    for span in sorted(candidates, key=lambda s: (s.start, -(s.end - s.start), s.category.value)):
        if all(span.start >= other.end or span.end <= other.start for other in kept):
            kept.append(span)
    return sorted(kept)


def rule_detect(doc: Document, pools: NamePool | None = None) -> list[Span]:
    """Native recognizers: patterns for EMAIL/PHONE/URL, gazetteer for names."""
    candidates = _pattern_candidates(doc.text)
    if pools is not None:
        candidates.extend(_gazetteer_candidates(doc.text, pools))
    return _resolve_overlaps(candidates)


# ---------------------------------------------------------------------------
# Prompt builders

def build_fewshot_messages(doc: Document) -> list[ChatMessage]:
    """System instruction plus a user turn carrying legend, exemplars, and target."""
    blocks = [FEWSHOT_USER_RULES]
    lead = "For example, if the input is:"
    for plain, marked in DEFAULT_FEWSHOT_EXEMPLARS:
        blocks.append(f"{lead} {plain}\nThe output should be: {marked}")
        lead = "Another example:"
    blocks.append(f"{FEWSHOT_TARGET_LEAD} {doc.text}")
    return [
        ChatMessage("system", FEWSHOT_SYSTEM_PROMPT),
        ChatMessage("user", "\n".join(blocks)),
    ]


def build_finetune_messages(doc: Document) -> list[ChatMessage]:
    return [
        ChatMessage("system", FINETUNE_SYSTEM_PROMPT),
        ChatMessage("user", f"{FINETUNE_USER_INSTRUCTION}\n{doc.text}"),
    ]


def build_finetune_record(doc: Document, gold: Sequence[Span]) -> dict:
    """One training record: the marked text is the assistant's target output."""
    marked = codec.encode(doc, list(gold))
    messages = build_finetune_messages(doc) + [ChatMessage("assistant", marked)]
    return {"messages": [m.as_dict() for m in messages]}


def write_finetune_file(
    path: str | Path, docs_with_gold: Iterable[tuple[Document, Sequence[Span]]]
) -> int:
    return write_jsonl(path, (build_finetune_record(doc, gold) for doc, gold in docs_with_gold))


# ---------------------------------------------------------------------------
# LLM detection

def _estimate_tokens(text: str) -> int:
    # Four characters per token is the usual rough planning figure.
    return max(1, math.ceil(len(text) / 4))


def _completion_budget(text: str) -> int:
    # Output should be the input plus markers; cap it at twice the input
    # token estimate plus slack so a runaway completion cannot grow unbounded.
    return 2 * _estimate_tokens(text) + 64


def llm_detect(doc: Document, client: SupportsComplete, mode: str) -> codec.DecodeReport:
    """Send the document through the marker protocol and decode the reply."""
    if mode == "fewshot":
        messages = build_fewshot_messages(doc)
    elif mode == "finetuned":
        messages = build_finetune_messages(doc)
    else:
        raise DetectError(f"unknown llm mode {mode!r}")
    completion = client.complete(messages, max_tokens=_completion_budget(doc.text))
    return codec.decode(completion, doc)

