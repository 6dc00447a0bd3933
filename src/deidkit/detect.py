"""Per-document detection functions: rule recognizers and marker-protocol LLM calls.

Also builds the few-shot prompt and the fine-tuning training records.
"""

from __future__ import annotations

import re
import string
from pathlib import Path
from typing import Iterable, Sequence

from . import codec
from .corpus import Category, Document, Span, write_jsonl
from .hips import NamePool
# ChatClient stays bound here for the benchmark tracer, which wraps
# detect.ChatClient.complete.
from .llm import ChatClient, SupportsComplete, estimate_tokens  # noqa: F401

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


# ---------------------------------------------------------------------------
# Rule-based detection

# (category, pattern, a literal that every match of the pattern holds): a text
# without the literal is not scanned; "" is in every text.
_PATTERNS = (
    (Category.EMAIL, re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"), "@"),
    # Recall-biased on purpose: downstream verification exists to clean up.
    (Category.PHONE_NUM, re.compile(r"\(\d{3}\)\s?\d{3}[-.\s]?\d{4}"), "("),
    (Category.PHONE_NUM, re.compile(r"\+\d{1,3}(?:[-.\s]?\d{2,4}){2,4}"), "+"),
    # \b\d{3}[-.]\d{3}[-.]\d{4}\b, written to start on a digit: a leading \b or
    # lookbehind turns off the regex engine's scan for the first character, so
    # the "not after a word character" test comes after the first digit.
    (Category.PHONE_NUM, re.compile(r"\d(?<!\w\d)\d\d[-.]\d{3}[-.]\d{4}\b"), ""),
    (Category.URL_PERSONAL, re.compile(r"https?://[^\s<>\"']+"), "://"),
    (
        Category.URL_PERSONAL,
        re.compile(r"\bwww\.[A-Za-z0-9-]+(?:\.[A-Za-z0-9-]+)+(?:/[^\s<>\"']*)?"),
        "www.",
    ),
)
_URL_TRAILING_PUNCT = ".,;:!?)]}\"'"
# A word is a run of [A-Za-z'-] from its first letter on; a capitalised word is
# one whose first letter is a capital (lowercase mentions are not name evidence).
# The scan starts on a capital that no ASCII letter precedes; the lookbehind
# sits after the capital so the engine can scan for the first character.
_CAPITAL_START_RE = re.compile(r"[A-Z](?<![A-Za-z].)[A-Za-z'\-]*")


def _pattern_candidates(text: str) -> list[Span]:
    found: list[Span] = []
    for category, pattern, literal in _PATTERNS:
        if literal not in text:
            continue
        for m in pattern.finditer(text):
            start, end = m.span()
            if category is Category.URL_PERSONAL:
                end = start + len(m.group().rstrip(_URL_TRAILING_PUNCT))
            if end > start:
                found.append(Span(start, end, category, text[start:end]))
    return found


def _capitalised_words(text: str) -> list[re.Match[str]]:
    """The match of every capitalised word of ``text``, in order.

    Only ' and - may precede the first letter of a word: "a-Bob" holds no
    capitalised word, "-Bob" holds "Bob".
    """
    words = []
    for m in _CAPITAL_START_RE.finditer(text):
        start = m.start()
        if start and text[start - 1] in "'-":
            before = start - 1
            while before and text[before - 1] in "'-":
                before -= 1
            if before and text[before - 1] in string.ascii_letters:
                continue
        words.append(m)
    return words


def _gazetteer_candidates(text: str, pools: NamePool) -> list[Span]:
    first, last = pools.lowercase_names
    words = [(m.start(), m.end(), m.group().lower()) for m in _capitalised_words(text)]
    found: list[Span] = []
    for i, (start, end, word) in enumerate(words):
        if i + 1 < len(words):
            n_start, n_end, n_word = words[i + 1]
            if text[end:n_start] == " " and word in first and n_word in last:
                found.append(Span(start, n_end, Category.NAME_STUDENT, text[start:n_end]))
        if word in first or word in last:
            found.append(Span(start, end, Category.NAME_STUDENT, text[start:end]))
    return found


def _resolve_overlaps(candidates: list[Span]) -> list[Span]:
    """Keep each candidate that overlaps none kept before it.

    Candidates are taken earliest start first, then longest, then by category
    name, so a shorter candidate that starts earlier beats a longer one. Kept
    spans come out in start order, so a (non-empty) candidate overlaps one of
    them iff it starts before the last kept end.
    """
    kept: list[Span] = []
    for span in sorted(candidates, key=lambda s: (s.start, -(s.end - s.start), s.category.value)):
        if not kept or span.start >= kept[-1].end:
            kept.append(span)
    return kept


def rule_detect(doc: Document, pools: NamePool | None = None) -> list[Span]:
    """Native recognizers: patterns for EMAIL/PHONE/URL, gazetteer for names."""
    candidates = _pattern_candidates(doc.text)
    if pools is not None:
        candidates.extend(_gazetteer_candidates(doc.text, pools))
    return _resolve_overlaps(candidates)


# ---------------------------------------------------------------------------
# Prompt builders

def build_fewshot_messages(doc: Document) -> list[dict[str, str]]:
    """System instruction plus a user turn carrying legend, exemplars, and target."""
    blocks = [FEWSHOT_USER_RULES]
    lead = "For example, if the input is:"
    for plain, marked in DEFAULT_FEWSHOT_EXEMPLARS:
        blocks.append(f"{lead} {plain}\nThe output should be: {marked}")
        lead = "Another example:"
    blocks.append(f"{FEWSHOT_TARGET_LEAD} {doc.text}")
    return [
        {"role": "system", "content": FEWSHOT_SYSTEM_PROMPT},
        {"role": "user", "content": "\n".join(blocks)},
    ]


def build_finetune_messages(doc: Document) -> list[dict[str, str]]:
    return [
        {"role": "system", "content": FINETUNE_SYSTEM_PROMPT},
        {"role": "user", "content": f"{FINETUNE_USER_INSTRUCTION}\n{doc.text}"},
    ]


def build_finetune_record(doc: Document, gold: Sequence[Span]) -> dict:
    """One training record: the marked text is the assistant's target output."""
    marked = codec.encode(doc, list(gold))
    return {"messages": build_finetune_messages(doc) + [{"role": "assistant", "content": marked}]}


def write_finetune_file(
    path: str | Path, docs_with_gold: Iterable[tuple[Document, Sequence[Span]]]
) -> int:
    # A document with no text has nothing to label, and an empty target teaches nothing.
    records = (build_finetune_record(doc, gold) for doc, gold in docs_with_gold if doc.text.strip())
    return write_jsonl(path, records)


# ---------------------------------------------------------------------------
# LLM detection

#: Prompt builder of each LLM detection mode; ``--detector llm-<mode>`` picks one.
PROMPT_BUILDERS = {"fewshot": build_fewshot_messages, "finetuned": build_finetune_messages}


def _completion_budget(text: str) -> int:
    # Output should be the input plus markers; cap it at twice the input
    # token estimate plus slack so a runaway completion cannot grow unbounded.
    return 2 * estimate_tokens(text) + 64


def llm_detect(doc: Document, client: SupportsComplete, mode: str) -> codec.DecodeReport:
    """Send the document through the marker protocol and decode the reply.

    A document with no non-whitespace text holds no PII and is not sent (for
    an empty one the prompt asks for an empty reply, which the client rejects).
    """
    if mode not in PROMPT_BUILDERS:
        raise ValueError(f"unknown llm mode {mode!r}")
    if not doc.text.strip():
        return codec.DecodeReport()
    messages = PROMPT_BUILDERS[mode](doc)
    completion = client.complete(messages, max_tokens=_completion_budget(doc.text))
    return codec.decode(completion, doc)
