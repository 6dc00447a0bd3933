"""Spans around the pipeline's calls into each deidkit module (traced runs only).

``install`` replaces each traced function at the name its caller looks up:
``cli.py`` binds most of them with ``from ... import``, so patching only the
defining module would miss those calls. Nothing under ``src/`` changes.

A span records name, start, end, parent span, document id and the counts
taken from the call's arguments and result. Spans are kept in memory and
written once, when the pipeline process ends. Worker threads have no span
of their own on the stack, so their spans hang off the running stage.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager

from deidkit.corpus import Document, TokenRecord


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stage: tuple[int, str | None] | None = None

    def _stack(self) -> list[tuple[int, str | None]]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, doc: str | None = None):
        stack = self._stack()
        parent, parent_doc = stack[-1] if stack else (self._stage or (None, None))
        record = {"id": next(self._ids), "parent": parent, "name": name, "doc": doc or parent_doc}
        stack.append((record["id"], record["doc"]))
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    @contextmanager
    def stage(self, name: str):
        """Root span for one ``cli.main`` call; worker threads attach to it."""
        with self.span(f"cli.{name}") as record:
            self._stage = (record["id"], None)
            try:
                yield record
            finally:
                self._stage = None

    def wrap(self, owner, attr: str, name: str, counts=None, eager: bool = False) -> None:
        """Replace ``owner.attr`` with a version that records a span per call.

        ``counts(args, kwargs, result)`` returns the counters stored on the
        span. ``eager`` drains a generator inside the span, so the time spent
        reading is attributed to the call.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, _doc_id(args, kwargs)) as record:
                result = original(*args, **kwargs)
                if eager:
                    result = iter(list(result))
                if counts is not None:
                    try:
                        record["counts"] = counts(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError) as exc:
                        record["counts_error"] = f"{type(exc).__name__}: {exc}"
            return result

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _doc_id(args, kwargs) -> str | None:
    for value in itertools.chain(args, kwargs.values()):
        if isinstance(value, Document):
            return value.id
        if isinstance(value, TokenRecord):
            return value.document_id
    return None


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the pipeline."""
    from deidkit import cli, codec, corpus, detect

    wrap = tracer.wrap
    wrap(detect, "rule_detect", "detect.rule_detect", lambda a, k, r: {"spans": len(r)})
    wrap(detect, "llm_detect", "detect.llm_detect")
    wrap(codec, "decode", "codec.decode", lambda a, k, r: {
        "anchored_exact": r.anchored_exact,
        "anchored_fuzzy": r.anchored_fuzzy,
        "dropped": len(r.dropped),
    })
    wrap(detect.ChatClient, "complete", "client.complete")
    wrap(cli, "verify_spans", "verify.verify_spans", lambda a, k, r: {
        "spans_in": len(_arg(a, k, 1, "spans")),
        "spans_kept": len(r),
    })
    wrap(cli, "apply_hips", "hips.apply_hips", lambda a, k, r: {
        "replacements": len(r.replacements),
        "identity_surrogates": sum(x.surrogate == x.original for x in r.replacements),
    })
    wrap(cli, "evaluate_documents", "eval.evaluate_documents")
    wrap(cli, "load_name_pools", "hips.load_name_pools")
    wrap(corpus, "read_crapii_jsonl", "corpus.read_crapii_jsonl", eager=True)
    for name in ("read_documents", "read_standoff", "write_documents", "write_standoff",
                 "reconstruct_text", "bio_to_spans", "split_corpus"):
        wrap(corpus, name, f"corpus.{name}")
