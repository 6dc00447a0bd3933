"""Offline stand-in for the chat endpoint so nothing in CI needs a network.

Serves the chat-completion wire format on localhost. Three behaviors:

- ``echo-gold``: answer with the document's gold-marked text (a perfect
  detector) and confirm every verification question.
- ``perturb``: like echo-gold, but then substitute, insert or delete ~5% of
  the letters outside marked entities, imitating an LLM that does not copy
  faithfully.
- ``deny-all``: detect nothing and reject every verification question.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import string
from typing import Mapping, Sequence

from . import codec
from .corpus import Document, Span
from .detect import FEWSHOT_TARGET_LEAD, FINETUNE_USER_INSTRUCTION
from .verify import VERIFIER_PROMPT_HEAD

MODES = ("echo-gold", "perturb", "deny-all")
PERTURB_RATE = 0.05


def extract_target_text(user_content: str) -> str:
    """Pull the document text back out of a detection prompt."""
    if FEWSHOT_TARGET_LEAD in user_content:
        tail = user_content.rsplit(FEWSHOT_TARGET_LEAD, 1)[1]
        return tail[1:] if tail[:1] in (" ", "\n") else tail
    if user_content.startswith(FINETUNE_USER_INSTRUCTION):
        remainder = user_content[len(FINETUNE_USER_INSTRUCTION) :]
        return remainder[1:] if remainder.startswith("\n") else remainder
    return user_content


#: One marked region: an open marker through the first close of its category.
_REGION_RE = re.compile(
    "|".join(f"{re.escape(o)}.*?{re.escape(c)}" for o, c in codec.MARKERS.values()), re.DOTALL
)


def perturb_outside_regions(marked: str, seed: int) -> str:
    """Drift ~5% of the letters outside marked regions, changing lengths.

    A third of the chosen letters are substituted, a third get a letter
    inserted after them and a third are deleted; marked regions (markers and
    inner text) are left alone.
    """
    inside = {i for m in _REGION_RE.finditer(marked) for i in range(m.start(), m.end())}
    letters = [i for i, ch in enumerate(marked) if ch.isalpha() and i not in inside]
    rng = random.Random(seed)
    edits: dict[int, str] = {}
    for k, i in enumerate(rng.sample(letters, round(len(letters) * PERTURB_RATE))):
        if k % 3 == 0:
            edits[i] = rng.choice([c for c in string.ascii_lowercase if c != marked[i]])
        elif k % 3 == 1:
            edits[i] = marked[i] + rng.choice(string.ascii_lowercase)
        else:
            edits[i] = ""
    return "".join(edits.get(i, ch) for i, ch in enumerate(marked))


class MockLlm:
    """Request-independent response logic, reusable without the HTTP layer."""

    def __init__(
        self,
        mode: str,
        gold_by_text: Mapping[str, Sequence[Span]],
        seed: int = 0,
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.mode = mode
        self.gold_by_text = dict(gold_by_text)
        self.seed = seed

    def respond(self, body: Mapping) -> str:
        messages = body.get("messages", [])
        user_content = next(
            (m.get("content", "") for m in reversed(messages) if m.get("role") == "user"),
            "",
        )
        if user_content.startswith(VERIFIER_PROMPT_HEAD):
            return "F" if self.mode == "deny-all" else "T"

        text = extract_target_text(user_content)
        spans = list(self.gold_by_text.get(text, ()))
        if self.mode == "deny-all" or not spans:
            return text
        marked = codec.encode(Document(id="mock", text=text), spans)
        if self.mode == "perturb":
            # Seeded by content so replays of the same request are identical.
            digest = hashlib.sha256(text.encode("utf-8")).digest()
            marked = perturb_outside_regions(marked, self.seed ^ int.from_bytes(digest[:8], "big"))
        return marked


def _completion_payload(content: str) -> dict:
    return {
        "id": "mock-completion",
        "object": "chat.completion",
        "model": "mock",
        "choices": [
            {
                "index": 0,
                "message": {"role": "assistant", "content": content},
                "finish_reason": "stop",
            }
        ],
    }


def make_server(mock: MockLlm, port: int = 0):
    """A ``ThreadingHTTPServer`` on localhost that answers as ``mock`` does; it does not serve yet."""
    # Imported here, so that a stage which only reads MODES does not load the server.
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive; every response sends Content-Length
        disable_nagle_algorithm = True  # else the body, a second write, waits for a delayed ACK

        def do_POST(self):  # noqa: N802 (http.server API)
            try:
                length = int(self.headers.get("Content-Length", "0"))
                if length < 0:  # read(-1) would wait for the client to close
                    raise ValueError(f"Content-Length must not be negative, not {length}")
                body = json.loads(self.rfile.read(length) or b"{}")
                status, reply = 200, _completion_payload(mock.respond(body))
            except Exception as exc:  # a broken request must not kill the server
                status, reply = 400, {"error": str(exc)}
            payload = json.dumps(reply).encode("utf-8")
            self.send_response(status)
            if status != 200:  # the body may be unread, so the next request could not be found
                self.send_header("Connection", "close")
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, fmt, *args):  # silence per-request stderr noise
            pass

    return ThreadingHTTPServer(("127.0.0.1", port), Handler)
