"""Chat-completion transport shared by the LLM detectors and the verifier.

A message is the wire format's ``{"role", "content"}`` dict; the client sends
the messages it is given as they are.
"""

from __future__ import annotations

import json
import math
import os
import re
import socket
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
_STALE_CONNECTION = (BrokenPipeError, ConnectionResetError)
#: The longest reply line and the most header fields a reply may hold.
_MAX_LINE, _MAX_FIELDS = 65536, 100
_STATUS_LINE = re.compile(rb"HTTP/1\.(\d) ([1-9]\d\d)\b")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]+")


def _read_line(rfile) -> bytes:
    line = rfile.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise OSError(f"reply line longer than {_MAX_LINE} bytes")
    return line


def _read_fields(rfile) -> dict[bytes, bytes]:
    """Header or trailer fields up to the blank line, by lower-case name; the last one wins."""
    fields = {}
    for _ in range(_MAX_FIELDS + 1):
        line = _read_line(rfile)
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, _, value = line.partition(b":")
        fields[name.strip().lower()] = value.strip()
    raise OSError(f"reply holds more than {_MAX_FIELDS} header fields")


def _read_exactly(rfile, size: int) -> bytes:
    # A read allocates the size it asks for, so a length that no reply reaches
    # is read a mebibyte at a time.
    parts = []
    while size:
        part = rfile.read(min(size, 1 << 20))
        if not part:
            raise OSError("reply body cut short")
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _read_reply(rfile) -> tuple[int, bytes, bool]:
    """(status, body, whether the connection can carry the next request).

    The framing of RFC 9112 section 6.3: a 1xx reply is skipped; 204 and 304
    have no body; a chunked body is read chunk by chunk, its extensions and
    trailers dropped; else ``Content-Length`` gives the length; else the body
    runs to the close. Only HTTP/1.1 without ``Connection: close`` and with a
    body of known length keeps the connection.
    """
    status = 100
    while status < 200:
        line = _read_line(rfile)
        if not line:
            raise ConnectionResetError("chat endpoint closed the connection before replying")
        status_line = _STATUS_LINE.match(line)
        if not status_line:
            raise OSError(f"reply status line is not HTTP/1.x: {line[:80]!r}")
        status = int(status_line[2])
        fields = _read_fields(rfile)
    keep = status_line[1] != b"0" and b"close" not in fields.get(b"connection", b"").lower()
    if status in (204, 304):
        return status, b"", keep
    if fields.get(b"transfer-encoding", b"").rpartition(b",")[2].strip().lower() == b"chunked":
        chunks = []
        while True:
            line = _read_line(rfile).partition(b";")[0].strip()
            if not _CHUNK_SIZE.fullmatch(line):
                raise OSError(f"bad chunk size {line[:80]!r}")
            size = int(line, 16)
            if not size:
                break
            chunks.append(_read_exactly(rfile, size))
            if _read_line(rfile) not in (b"\r\n", b"\n"):
                raise OSError("chunk longer than its size")
        _read_fields(rfile)
        return status, b"".join(chunks), keep
    length = fields.get(b"content-length")
    if length is None:
        return status, rfile.read(), False
    if not length.isdigit():
        raise OSError(f"bad Content-Length {length[:80]!r}")
    return status, _read_exactly(rfile, int(length)), keep


class _Connection:
    """One HTTP/1.1 connection; a request goes out in one write."""

    def __init__(self, sock: socket.socket):
        self.sock, self.rfile = sock, sock.makefile("rb")

    def exchange(self, request: bytes) -> tuple[int, bytes, bool]:
        self.sock.sendall(request)
        return _read_reply(self.rfile)

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


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
    variable is set as the client is built, travels as a bearer token. The
    client writes each request as HTTP/1.1 itself, in one write.
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
        # urlsplit drops a tab or a line break unasked, and the request carries the host and
        # the path as they are.
        if any(c in base_url.strip() for c in "\t\r\n") or not all(
            " " < c < "\x7f" for c in host + url.path
        ):
            raise ValueError(f"base URL {base_url!r} must hold no tab or line break, its host and "
                             "path no space, DEL or other control character, and its path no "
                             "non-ASCII one")
        # The key goes into a header line by the same rule; the error never shows it.
        api_key = os.environ.get(api_key_env)
        if api_key and not all(" " < c < "\x7f" for c in api_key):
            raise ValueError(f"the API key in {api_key_env} (--api-key-env) must be printable "
                             "ASCII with no space")
        self._model, self._max_retries = model, max_retries
        tls = url.scheme == "https"
        self._address = (host, (443 if tls else 80) if port is None else port)
        self._tls = None
        if tls:
            import ssl  # only an https endpoint loads it

            self._tls = ssl.create_default_context()
        authority = f"[{host}]" if ":" in host else host
        if port is not None:
            authority += f":{port}"
        lines = (f"POST {url.path.rstrip('/')}/chat/completions HTTP/1.1\r\nHost: {authority}\r\n"
                 "Accept-Encoding: identity\r\nContent-Type: application/json\r\n")
        if api_key:
            lines += f"Authorization: Bearer {api_key}\r\n"
        self._head = f"{lines}Content-Length: ".encode("ascii")  # the length and the body follow
        self._idle: list[_Connection] = []
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

    def _open(self) -> _Connection:
        sock = socket.create_connection(self._address, timeout=120)
        try:
            # A request is one write, but one longer than a segment would wait for an ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        return _Connection(sock)

    def _post(self, request: bytes) -> tuple[int, bytes]:
        """One attempt on an idle connection, or a new one: (status, response body).

        A reused connection that the server dropped while idle is reopened and
        the request sent again once; that is not a failed attempt. On any other
        failure the connection is closed and dropped, and so is one that the
        reply leaves unfit for another request; otherwise it is idle again.
        """
        try:
            conn, reused = self._idle.pop(), True  # list.pop and list.append are atomic
        except IndexError:
            conn, reused = self._open(), False
        try:
            try:
                status, body, keep = conn.exchange(request)
            except _STALE_CONNECTION:
                if not reused:
                    raise
                conn.close()
                conn = self._open()
                status, body, keep = conn.exchange(request)
        except BaseException:
            conn.close()
            raise
        if keep:
            self._idle.append(conn)
        else:
            conn.close()
        return status, body

    def complete(self, messages: Sequence[dict[str, str]], max_tokens: int | None = None) -> str:
        body = {"model": self._model, "messages": list(messages), "temperature": 0.0}
        if max_tokens is not None:
            body["max_tokens"] = max_tokens
        payload = json.dumps(body).encode()
        request = b"%s%d\r\n\r\n%s" % (self._head, len(payload), payload)

        last_error: Exception | None = None
        for attempt in range(self._max_retries + 1):
            self._bucket.acquire()
            try:
                status, data = self._post(request)
            except OSError as exc:
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
