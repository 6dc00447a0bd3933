"""Chat-completion transport shared by the LLM detectors and the verifier.

A message is the wire format's ``{"role", "content"}`` dict; the client sends
the messages it is given as they are.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import ssl
import threading
import time
import urllib.parse
from typing import Protocol, Sequence


class TransportError(RuntimeError):
    """The chat endpoint failed: unreachable after the retries, or it refused the request."""


class EmptyCompletion(TransportError):
    """The endpoint answered, but not with a chat completion."""


class SupportsComplete(Protocol):
    def complete(self, messages: Sequence[dict[str, str]], max_tokens: int | None = None) -> str: ...


def estimate_tokens(text: str) -> int:
    # Four characters per token is the usual rough planning figure.
    return max(1, math.ceil(len(text) / 4))


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
    keep-alive connection to the endpoint; leaving a ``with`` block closes
    them all.

    Wire format: POST ``{base_url}/chat/completions`` with a JSON body of
    ``{model, messages, temperature[, max_tokens]}``, the temperature always
    0; the completion is read from the first choice's message content. The
    API key, when the ``api_key_env`` environment variable is set, travels as
    a bearer token.
    """

    def __init__(
        self,
        base_url: str,
        model: str = "gpt-4o-mini",
        api_key_env: str = "DEIDKIT_API_KEY",
        requests_per_minute: int = 1000,
        max_retries: int = 3,
    ):
        if requests_per_minute <= 0:
            raise ValueError("requests_per_minute must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        url = urllib.parse.urlsplit(base_url)
        try:
            port = url.port
        except ValueError as exc:
            raise ValueError(f"base URL {base_url!r}: {exc}") from exc
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base URL must look like http(s)://host/..., not {base_url!r}")
        self._model, self._api_key_env, self._max_retries = model, api_key_env, max_retries
        self._host, self._port = url.hostname, port
        self._path = url.path.rstrip("/") + "/chat/completions"
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        self._local = threading.local()
        self._connections: list[http.client.HTTPConnection] = []
        self._connections_lock = threading.Lock()
        self._bucket = _TokenBucket(requests_per_minute)
        self._backoff_base = 0.25
        self._usage_lock = threading.Lock()
        self.estimated_input_tokens = 0
        self.estimated_output_tokens = 0

    def __enter__(self) -> ChatClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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

    def complete(self, messages: Sequence[dict[str, str]], max_tokens: int | None = None) -> str:
        body = {"model": self._model, "messages": list(messages), "temperature": 0.0}
        if max_tokens is not None:
            body["max_tokens"] = max_tokens
        payload = json.dumps(body).encode()
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self._api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        last_error: Exception | None = None
        for attempt in range(self._max_retries + 1):
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
                            estimate_tokens(m["content"]) for m in messages
                        )
                        self.estimated_output_tokens += estimate_tokens(content)
                    return content
                if status not in (408, 409, 429, 500, 502, 503, 504):
                    raise TransportError(
                        f"chat endpoint returned HTTP {status}: "
                        f"{data.decode('utf-8', 'replace')[:200]}"
                    )
                last_error = TransportError(f"HTTP {status}")
            if attempt < self._max_retries:
                time.sleep(self._backoff_base * (2**attempt))
        raise TransportError(
            f"chat endpoint unreachable after {self._max_retries + 1} attempts: {last_error}"
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
