"""Chat-completion endpoint the benchmark runs as its own process.

Standard library only: it shares no code with ``deidkit`` (not ``mockllm``,
not ``codec``), so a change to the program cannot change the load it
receives. It knows the published marker table and nothing else about the
program.

Behaviours, chosen per request and per essay from the answer key:

- detection requests (the essay text follows the first line of the user
  message) get the essay back with every gold entity marked; essays with a
  drift seed also get 5 % character drift (substitutions, insertions and
  deletions of letters) outside the entities, the same on every request;
- verification requests (``Determine if <entity> is ... context: <context>``)
  get ``T`` exactly when the entity is gold in that context, else ``F``.

Answers are precomputed at start-up, so the service time per request is the
HTTP round trip and a dictionary lookup. ``GET /stats`` returns request
counts and summed service time.

Usage: python3 endpoint.py --keys KEYS.json [--port 0]
Prints ``listening PORT`` once it accepts connections.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import string
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

#: The published marker table (open, close) per category.
MARKERS = {
    "NAME_STUDENT": ("@@@", "###"),
    "URL_PERSONAL": ("&&&", "$$$"),
    "EMAIL": ("QQQ", "^^^"),
    "PHONE_NUM": ("%%%", "~~~"),
}
DRIFT_RATE = 0.05
CONTEXT_WINDOW = 150  # the verifier's default context, characters each side
_VERIFY_RE = re.compile(
    r"^Determine if (?P<entity>.+?) is a privately identifiable information in its "
    r"context: (?P<context>.*?)(?:, think carefully|\. Think step-by-step)",
    re.S,
)


def marked_answer(text: str, spans, drift_seed: int | None) -> str:
    """The essay with gold entities marked, drifted outside them if seeded.

    Drift edits exactly DRIFT_RATE of the letters outside the entities, a
    third each by substitution, insertion after the letter, and deletion.
    """
    edits: dict[int, str] = {}
    if drift_seed is not None:
        rng = random.Random(drift_seed)
        inside = {i for start, end, _ in spans for i in range(start, end)}
        letters = [i for i, ch in enumerate(text) if ch.isalpha() and i not in inside]
        for k, i in enumerate(rng.sample(letters, round(len(letters) * DRIFT_RATE))):
            ch = text[i]
            if k % 3 == 0:
                edits[i] = rng.choice([c for c in string.ascii_lowercase if c != ch])
            elif k % 3 == 1:
                edits[i] = ch + rng.choice(string.ascii_lowercase)
            else:
                edits[i] = ""
    opens = {start: MARKERS[category][0] for start, _, category in spans}
    closes = {end: MARKERS[category][1] for _, end, category in spans}
    out = []
    for i, ch in enumerate(text):
        out += [closes.get(i, ""), opens.get(i, ""), edits.get(i, ch)]
    out.append(closes.get(len(text), ""))
    return "".join(out)


class AnswerKey:
    def __init__(self, essays: list[dict]):
        self.detections: dict[str, str] = {}
        self.gold_contexts: set[tuple[str, str]] = set()
        for essay in essays:
            text = essay["text"]
            self.detections[text] = marked_answer(text, essay["spans"], essay["drift_seed"])
            for start, end, _ in essay["spans"]:
                context = text[max(0, start - CONTEXT_WINDOW) : end + CONTEXT_WINDOW]
                self.gold_contexts.add((text[start:end], context))

    def respond(self, user_content: str) -> tuple[str, str]:
        """Return (answer, kind); kind is detect, verify or unknown."""
        match = _VERIFY_RE.match(user_content)
        if match:
            gold = (match["entity"], match["context"]) in self.gold_contexts
            return ("T" if gold else "F"), "verify"
        _, _, text = user_content.partition("\n")
        if text in self.detections:
            return self.detections[text], "detect"
        return text or user_content, "unknown"


class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self.counts = {"requests": 0, "detect": 0, "verify": 0, "unknown": 0}
        self.service_s = 0.0

    def record(self, kind: str, seconds: float) -> None:
        with self._lock:
            self.counts["requests"] += 1
            self.counts[kind] += 1
            self.service_s += seconds

    def snapshot(self) -> dict:
        with self._lock:
            return {**self.counts, "service_s": self.service_s}


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive: one thread per client connection
    disable_nagle_algorithm = True  # headers and body go out in separate writes
    key: AnswerKey
    stats: Stats

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def do_GET(self):  # noqa: N802 (http.server API)
        self._send(200, self.stats.snapshot())

    def do_POST(self):  # noqa: N802 (http.server API)
        started = time.perf_counter()
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", "0"))))
        user = next(m["content"] for m in reversed(body["messages"]) if m["role"] == "user")
        answer, kind = self.key.respond(user)
        self._send(200, {
            "object": "chat.completion",
            "choices": [{"index": 0, "message": {"role": "assistant", "content": answer},
                         "finish_reason": "stop"}],
        })
        self.stats.record(kind, time.perf_counter() - started)

    def log_message(self, fmt, *args):
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keys", required=True)
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args()
    with open(args.keys, encoding="utf-8") as handle:
        key = AnswerKey(json.load(handle))
    handler = type("BoundHandler", (Handler,), {"key": key, "stats": Stats()})
    server = ThreadingHTTPServer(("127.0.0.1", args.port), handler)
    server.daemon_threads = True
    print(f"listening {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
