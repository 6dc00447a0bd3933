from __future__ import annotations

import json
import socket
import socketserver
import sys
import threading
from contextlib import suppress
from http.client import responses
from pathlib import Path
from typing import Any, NamedTuple

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import minicorpus  # noqa: E402

from deidkit import corpus, mockllm  # noqa: E402


@pytest.fixture(scope="session")
def fixture_paths(tmp_path_factory) -> dict[str, Path]:
    root = tmp_path_factory.mktemp("minicorpus")
    return minicorpus.materialize(root)


@pytest.fixture(scope="session")
def mini_docs(fixture_paths) -> dict[str, corpus.Document]:
    return corpus.read_documents(fixture_paths["corpus"])


@pytest.fixture(scope="session")
def mini_gold(fixture_paths) -> dict[str, list[corpus.Span]]:
    return corpus.read_standoff(fixture_paths["gold"])


@pytest.fixture(scope="session")
def mini_gold_by_text(mini_docs, mini_gold) -> dict[str, list[corpus.Span]]:
    """The gold spans of each fixture document by its text, as ``MockLlm`` takes them."""
    return {doc.text: mini_gold.get(doc.id, []) for doc in mini_docs.values()}


def one_error_line(err: str, prefix: str = "error:") -> str:
    """The one line of the stderr text ``err``: it starts with ``prefix``, and no traceback."""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix) and "Traceback" not in err, err
    return lines[0]


class ScriptedClient:
    """Fake chat client answering from a callable; records every call."""

    def __init__(self, responder):
        self.responder = responder
        self.calls: list[list] = []

    def complete(self, messages, max_tokens=None):
        self.calls.append(list(messages))
        return self.responder(messages)


@pytest.fixture
def scripted_client():
    return ScriptedClient


class Request(NamedTuple):
    head: list[bytes]  # the request line and the field lines as sent, then the blank line
    body: Any  # the JSON body, parsed
    auth: str | None  # the Authorization field's value


def http_reply(payload, status: int = 200, *headers: bytes, version: bytes = b"1.1") -> bytes:
    """A reply framed by ``Content-Length``. ``payload`` is bytes, or a value sent as JSON;
    ``headers`` are extra field lines without their CRLF."""
    if not isinstance(payload, bytes):
        payload = json.dumps(payload).encode()
    status_line = b"HTTP/%s %d %s" % (version, status, responses.get(status, "").encode())
    return b"\r\n".join((status_line, *headers, b"Content-Length: %d" % len(payload), b"", payload))


class _EndpointHandler(socketserver.StreamRequestHandler):
    # A client that reads a reply to its close gets the close in seconds, not after
    # its own 120 s socket timeout.
    timeout = 5

    def handle(self):
        endpoint = self.server
        endpoint.connections.append(self.client_address)
        with suppress(OSError):  # a client that hung up, or went quiet past the timeout
            while (start := self.rfile.read(5)) == b"POST ":  # anything else is closed at once
                head = [start + self.rfile.readline()]
                while head[-1] not in (b"\r\n", b""):
                    head.append(self.rfile.readline())
                fields = {name.lower(): value.strip()
                          for name, _, value in (line.partition(b":") for line in head[1:-1])}
                body = json.loads(self.rfile.read(int(fields[b"content-length"])))
                auth = fields.get(b"authorization")
                with endpoint.lock:
                    endpoint.requests.append(Request(head, body, auth and auth.decode()))
                    number = len(endpoint.requests) - 1
                self.wfile.write(endpoint.answer(number, body))
                if endpoint.hang_up:
                    return


class ChatEndpoint(socketserver.ThreadingTCPServer):
    """A scripted chat endpoint on a free port of ``host``, serving from threads of its own.

    It answers the i-th request in ``requests`` (from 0) with the bytes ``answer(i, body)``
    returns, or with ``answer`` itself when that is bytes, and with ``hang_up`` closes the
    connection after each reply. ``connections`` holds the client address of each
    connection accepted, ``errors`` each exception a handler raised.
    """

    daemon_threads = True

    def __init__(self, answer, host: str, hang_up: bool):
        self.address_family = socket.AF_INET6 if ":" in host else socket.AF_INET
        super().__init__((host, 0), _EndpointHandler)
        self.answer = answer if callable(answer) else lambda i, body: answer
        self.hang_up, self.lock = hang_up, threading.Lock()
        self.requests: list[Request] = []
        self.connections: list = []
        self.errors: list[BaseException] = []
        authority = f"[{host}]" if ":" in host else host
        self.base_url = f"http://{authority}:{self.server_address[1]}/v1"
        # shutdown() waits out one poll interval, which is 0.5 s by default.
        threading.Thread(target=self.serve_forever, args=(0.05,), daemon=True).start()

    def handle_error(self, request, client_address):
        self.errors.append(sys.exc_info()[1])


@pytest.fixture
def chat_endpoint():
    """Starts a ``ChatEndpoint`` per call of ``chat_endpoint(answer, host=, hang_up=)``.

    Teardown closes each one, and fails the test on any exception a handler raised.
    """
    endpoints: list[ChatEndpoint] = []

    def start(answer, host: str = "127.0.0.1", hang_up: bool = False) -> ChatEndpoint:
        endpoints.append(ChatEndpoint(answer, host, hang_up))
        return endpoints[-1]

    yield start
    for endpoint in endpoints:
        endpoint.shutdown()
        endpoint.server_close()
    errors = [exc for endpoint in endpoints for exc in endpoint.errors]
    assert not errors, f"the chat endpoint failed: {errors!r}"


@pytest.fixture
def mock_endpoint():
    """Serves a ``MockLlm`` per call of ``mock_endpoint(mock)`` from a daemon thread.

    Each call returns the ``mockllm.make_server`` server with its ``base_url`` set. Teardown
    shuts each one down and closes it.
    """
    servers = []

    def start(mock: mockllm.MockLlm):
        server = mockllm.make_server(mock)
        server.base_url = "http://%s:%d/v1" % server.server_address[:2]
        # shutdown() waits out one poll interval, which is 0.5 s by default.
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()
