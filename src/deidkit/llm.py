"""Chat-completion transport shared by the LLM detectors and the verifier.

A message is the wire format's ``{"role", "content"}`` dict; the client sends
the messages it is given as they are.
"""

from __future__ import annotations

import functools
import http.client
import json
import math
import os
import re
import ssl
import threading
import time
import urllib.parse
from typing import Protocol, Sequence


class TransportError(RuntimeError):
    """The chat endpoint was unreachable after the retries, refused, or sent no completion."""


class SupportsComplete(Protocol):
    def complete(self, messages: Sequence[dict[str, str]], max_tokens: int | None = None) -> str: ...


def estimate_tokens(text: str) -> int:
    # Four characters per token is the usual rough planning figure.
    return max(1, math.ceil(len(text) / 4))


class _TokenBucket:
    """Request-rate limiter: a minute's worth of requests at once, then ``per_minute`` a minute.

    Each request takes the next ``60 / per_minute`` s slot, none earlier than
    now, and starts once its slot ends no more than a minute ahead.
    """

    def __init__(self, per_minute: int):
        self._interval = 60.0 / per_minute
        self._next = time.monotonic()  # where the next free slot starts
        self._lock = threading.Lock()

    def acquire(self) -> None:
        with self._lock:
            now = time.monotonic()
            self._next = max(self._next, now) + self._interval
            wait = self._next - now - 60.0
        if wait > 0:
            time.sleep(wait)


#: How a kept-alive connection that the server closed while idle fails before
#: any status line arrives.
_STALE_CONNECTION = (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError)


class ChatClient:
    """Thread-safe chat-completion client with rate limiting and retries.

    It does not cap concurrent requests itself: callers bound them by the
    number of threads they run (the CLI's ``--jobs``). A request reuses an idle
    keep-alive connection or opens one, so no more are open than requests were
    in flight at once; leaving a ``with`` block closes them.

    Wire format: POST ``{base_url}/chat/completions`` with a JSON body of
    ``{model, messages, temperature[, max_tokens]}``, the temperature always
    0; the completion is read from the first choice's message content, and a
    choice cut at ``max_tokens`` (``finish_reason: "length"``) is a
    ``TransportError``. The API key, when the ``api_key_env`` environment
    variable is set, travels as a bearer token.
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
        # Requests carry only the scheme, host, port and path, so any other part is refused;
        # credentials first, and without the URL, since the errors below echo it. The
        # authority is cut out by hand, because urlsplit may refuse it; all before it is
        # searched too, as are extra slashes, since a URL that garbles its "//" holds its
        # credentials there.
        head, _, rest = base_url.partition("//")
        if "@" in head + re.split("[/?#]", rest.lstrip("/"), maxsplit=1)[0]:
            raise ValueError("base URL must not hold credentials: the API key comes from api_key_env")
        try:  # a bracket left open, a port that is no number, or a host that does not IDNA-encode
            url = urllib.parse.urlsplit(base_url)
            port, host = url.port, (url.hostname or "").encode("idna").decode("ascii")
        except ValueError as exc:
            raise ValueError(f"base URL {base_url!r}: {exc}") from exc
        if url.scheme not in ("http", "https") or not host:
            raise ValueError(f"base URL must look like http(s)://host/..., not {base_url!r}")
        if url.query or url.fragment:
            raise ValueError(f"base URL {base_url!r}: requests would drop its query or fragment")
        # urlsplit drops a tab or a line break unasked, and http.client sends the host and
        # the path as they are.
        if any(c in base_url.strip() for c in "\t\r\n") or not all(
            " " < c < "\x7f" for c in host + url.path
        ):
            raise ValueError(f"base URL {base_url!r} must hold no tab or line break, its host and "
                             "path no space, DEL or other control character, and its path no "
                             "non-ASCII one")
        self._model, self._api_key_env, self._max_retries = model, api_key_env, max_retries
        self._host, self._port = url.hostname, port
        self._path = url.path.rstrip("/") + "/chat/completions"
        self._connect = http.client.HTTPConnection
        if url.scheme == "https":
            tls = ssl.create_default_context()
            self._connect = functools.partial(http.client.HTTPSConnection, context=tls)
        self._idle: list[http.client.HTTPConnection] = []
        self._bucket = _TokenBucket(requests_per_minute)
        self._backoff_base = 0.25
        self._usage_lock = threading.Lock()
        self.estimated_input_tokens = 0
        self.estimated_output_tokens = 0

    def __enter__(self) -> ChatClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close the idle connections; call it once no request is in flight.

        A later request opens a new connection.
        """
        while self._idle:
            self._idle.pop().close()

    def _post(self, body: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """One attempt on an idle connection, or a new one: (status, response body).

        A reused connection that the server dropped while idle is reopened and
        the request sent again once; that is not a failed attempt. On any other
        failure the connection is closed and dropped; otherwise it is idle again.
        """
        try:
            conn = self._idle.pop()  # list.pop and list.append are atomic
        except IndexError:
            conn = self._connect(self._host, self._port, timeout=120)
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
            reply = response.status, response.read()
        except BaseException:
            conn.close()
            raise
        self._idle.append(conn)
        return reply

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
                    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or too deep
                        raise TransportError(f"completion body is not JSON: {exc}") from exc
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
            choice = payload["choices"][0]
            content = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion payload: {exc}") from exc
        if choice.get("finish_reason") == "length":
            raise TransportError("completion cut at max_tokens")
        if not content:
            raise TransportError("completion content is empty")
        if not isinstance(content, str):
            raise TransportError(f"completion content must be a string, not {type(content).__name__}")
        return content
