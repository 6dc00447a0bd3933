"""Seeded fuzz of the chat endpoint's reply, the one input every LLM stage reads.

Each case changes one thing in every reply of an in-process endpoint that
otherwise answers like ``mock-llm --mode echo-gold``: the status, the body's
bytes, the shape of ``choices``, the content's JSON type, ``finish_reason``,
``usage``, or the content itself (a marker soup, drifted text, a noisy
verdict). It then runs ``detect`` in both LLM modes and ``verify`` in both
variants against it with ``--max-retries 0``. Each run exits 0 or 2 with at
most one error line, and nothing escapes ``cli.main``. Exit 2 writes no
``--out`` and no cost ledger. Exit 0 writes spans that fit their documents,
and verification only removes spans.
"""

from __future__ import annotations

import json
import random
import string
import time

from conftest import http_reply
from deidkit import codec, corpus, mockllm
from test_cli import run_cli

CASES = 72
SEED = 23

_KINDS = ("status", "body", "choices", "content", "finish_reason", "usage", "soup", "drift", "verdict")
_STATUSES = (201, 204, 301, 400, 401, 404, 408, 409, 422, 429, 500, 502, 503, 504, 599)
_BODIES = (b"", b"{", b"<html>busy</html>", b"null", b"[]", b"7", b'"T"', b"\xff\xfe{}",
           b'{"choices": [{"message": {"content": "\xff"}}]}')
_JSON_VALUES = (None, True, False, 0, 5, 2.5, "", "T", [], ["T"], {}, {"content": "T"})
_MISSING = object()
_FINISH_REASONS = (_MISSING, None, "stop", "length", "content_filter", "tool_calls", 5, [], {})
_USAGES = ("x", 5, [], None, True, {"prompt_tokens": "x"}, {"total_tokens": -1})
_VERDICT_NOISE = ("T.", "f", "maybe", "", " T ", "F\n", "t", "TF", "T F", "¿T?")
_MARKERS = [m for pair in codec.MARKERS.values() for m in pair]


def _marker_soup(rng: random.Random, text: str) -> str:
    pieces = _MARKERS + (text.split() or ["x"])
    return rng.choice(("", " ")).join(rng.choice(pieces) for _ in range(rng.randrange(1, 40)))


def _drift(rng: random.Random, text: str) -> str:
    """``text`` with ~5% of its characters, markers included, substituted, doubled or deleted."""
    out = []
    for ch in text:
        roll = rng.random()
        out.append(ch if roll >= 0.05 else rng.choice((rng.choice(string.printable), ch * 2, "")))
    return "".join(out)


def _choices(rng: random.Random, choice: dict):
    return rng.choice((_MISSING, [], "abc", 5, None, [None], [[]], [{}], [{"message": None}],
                       [{"message": "T"}], {"0": choice}, [choice, choice]))


def _reply(kind: str, rng: random.Random, content: str, text: str) -> tuple[int, bytes]:
    """The status and body answering one request whose faithful content is ``content``."""
    choice = {"index": 0, "message": {"role": "assistant", "content": content}, "finish_reason": "stop"}
    payload = {"object": "chat.completion", "choices": [choice]}
    if kind == "status":
        return rng.choice(_STATUSES), b'{"error": "refused"}'
    if kind == "body":
        return 200, rng.choice(_BODIES)
    if kind == "choices":
        payload["choices"] = _choices(rng, choice)
    elif kind == "content":
        choice["message"]["content"] = rng.choice(_JSON_VALUES)
    elif kind == "finish_reason":
        choice["finish_reason"] = rng.choice(_FINISH_REASONS)
    elif kind == "usage":
        payload["usage"] = rng.choice(_USAGES)
    elif kind == "soup":
        choice["message"]["content"] = _marker_soup(rng, text)
    elif kind == "drift":
        drifted = mockllm.perturb_outside_regions(content, rng.getrandbits(32))
        choice["message"]["content"] = rng.choice((drifted, _drift(rng, content)))
    else:
        choice["message"]["content"] = rng.choice(_VERDICT_NOISE)
    for node in (payload, choice):
        for key in [k for k, v in node.items() if v is _MISSING]:
            del node[key]
    return 200, json.dumps(payload).encode()


def _is_ordered_sublist(kept: list, spans: list) -> bool:
    remaining = iter(spans)
    return all(span in remaining for span in kept)


def test_fuzzed_replies_exit_0_or_2_and_keep_the_stage_contracts(
    chat_endpoint, fixture_paths, tmp_path, capsys
):
    docs_path, gold_path = tmp_path / "docs.jsonl", tmp_path / "gold.json"
    assert run_cli("ingest", "--in", str(fixture_paths["corpus"]), "--out-docs", str(docs_path),
                   "--out-gold", str(gold_path)) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pricing": {"usd_per_1m_input": 0.15}}), encoding="utf-8")
    docs, gold = corpus.read_documents(docs_path), corpus.read_standoff(gold_path)
    mock = mockllm.MockLlm("echo-gold", {d.text: gold.get(i, []) for i, d in docs.items()})
    fuzz = {"kind": "status", "seed": 0}  # the case being run

    def answer(i, body):
        user = body["messages"][-1]["content"]
        # Seeded by the case and the request, so a rerun of a case sees the same replies.
        rng = random.Random(f"{fuzz['seed']}:{user}")
        status, reply = _reply(
            fuzz["kind"], rng, mock.respond(body), mockllm.extract_target_text(user)
        )
        return http_reply(reply, status, version=b"1.0")

    out_dir = tmp_path / "out"
    out = out_dir / "out.json"
    llm_flags = ["--base-url", chat_endpoint(answer).base_url,
                 "--max-retries", "0", "--out", str(out)]
    runs = {
        **{f"detect-{mode}": ["detect", "--detector", f"llm-{mode}"] for mode in ("fewshot", "finetuned")},
        **{f"verify-{variant}": ["verify", "--spans", str(gold_path), "--variant", variant]
           for variant in ("without-cot", "with-cot")},
    }
    capsys.readouterr()

    rng = random.Random(SEED)
    faults, codes = [], {0: set(), 2: set()}
    started = time.process_time()
    for case in range(CASES):
        fuzz["kind"], fuzz["seed"] = _KINDS[case % len(_KINDS)], rng.getrandbits(32)
        for name, argv in runs.items():
            out_dir.mkdir()
            try:
                code = run_cli("--config", str(config), *argv, "--in", str(docs_path), *llm_flags)
            except BaseException as exc:  # anything out of main is the finding
                code = f"{type(exc).__name__}: {exc}"
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines() if "error:" in line]
            fault = code not in (0, 2) or len(errors) != (code == 2) or "Traceback" in err
            if code == 2:
                fault = fault or any(out_dir.iterdir())
            elif code == 0 and name.startswith("detect"):
                try:
                    for doc_id, spans in corpus.read_standoff(out).items():
                        corpus.validate_spans(docs[doc_id].text, spans)
                except ValueError as exc:
                    fault, err = True, str(exc)
            elif code == 0:
                kept = corpus.read_standoff(out)
                fault = fault or kept.keys() != gold.keys() or not all(
                    _is_ordered_sublist(kept[i], gold[i]) for i in gold
                )
            if fault:
                faults.append((case, fuzz["kind"], fuzz["seed"], name, code, err.strip()[-300:]))
            else:
                codes[code].add(fuzz["kind"])
            for path in out_dir.iterdir():
                path.unlink()
            out_dir.rmdir()
    assert not faults, faults
    assert codes[0] and codes[2], codes  # the changes reach both outcomes
    assert time.process_time() - started < 10
