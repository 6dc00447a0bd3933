"""Corpus ingestion and splitting.

Turns BIO-labeled token records and role/text transcripts into documents with
character-offset spans, and produces the stratified base/verifier/test split.
All offsets are Unicode scalar-value indices into the reconstructed text.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence


class Category(str, Enum):
    """The four in-scope PII categories."""

    NAME_STUDENT = "NAME_STUDENT"
    URL_PERSONAL = "URL_PERSONAL"
    EMAIL = "EMAIL"
    PHONE_NUM = "PHONE_NUM"


IN_SCOPE_CATEGORIES: tuple[Category, ...] = tuple(Category)

# Short tags seen in public releases of the source corpus map onto the
# canonical category names; anything else is counted and dropped.
LABEL_ALIASES: dict[str, str] = {
    "NAME": Category.NAME_STUDENT.value,
    "URL": Category.URL_PERSONAL.value,
    "PHONE": Category.PHONE_NUM.value,
}

# Transcript placeholder names that stand for person names.
NAME_KIND_PLACEHOLDERS = frozenset({"STUDENT", "TEACHER"})

_PLACEHOLDER_RE = re.compile("〈([^〈〉]+)〉")
_TSCC_LINE_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_ -]*):\s?(.*)$")


class CorpusError(ValueError):
    """Base class for corpus validation failures."""


class LengthMismatch(CorpusError):
    pass


class ReconstructionMismatch(CorpusError):
    def __init__(self, document_id: str, offset: int):
        self.document_id = document_id
        self.offset = offset
        super().__init__(
            f"document {document_id!r}: reconstructed text diverges from "
            f"full_text at offset {offset}"
        )


class MalformedBIO(CorpusError):
    def __init__(self, index: int, label: str):
        self.index = index
        self.label = label
        super().__init__(f"label {label!r} at token index {index} continues no open entity")


class MalformedLine(CorpusError):
    def __init__(self, lineno: int, line: str):
        self.lineno = lineno
        super().__init__(f"line {lineno} does not match 'role: text': {line!r}")


class InfeasibleStratification(CorpusError):
    pass


class OverlappingSpans(CorpusError):
    pass


@dataclass(frozen=True, order=True)
class Span:
    """Half-open character interval [start, end) with category and surface text."""

    start: int
    end: int
    category: Category
    surface: str


@dataclass(frozen=True)
class Placeholder:
    """A transcript placeholder category, e.g. STUDENT or INSTAGRAM ACCOUNT."""

    name: str
    name_kind: bool


@dataclass(frozen=True, order=True)
class PlaceholderSpan:
    start: int
    end: int
    category: Placeholder
    surface: str


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    source: str = "raw"  # crapii | tscc | raw


@dataclass
class TokenRecord:
    """One BIO-labeled record: parallel token/label/whitespace arrays."""

    document_id: str
    tokens: list[str]
    labels: list[str]
    trailing_whitespace: list[bool]
    full_text: str | None = None


@dataclass
class BioConversion:
    """Spans kept by bio_to_spans plus bookkeeping about what was not kept."""

    spans: list[Span]
    dropped_categories: Counter = field(default_factory=Counter)
    repaired_continuations: int = 0

    @property
    def total_runs(self) -> int:
        return len(self.spans) + sum(self.dropped_categories.values())


@dataclass
class CorpusSplit:
    base_train: set[str]
    verifier_train: set[str]
    test: set[str]

    def as_dict(self) -> dict[str, list[str]]:
        return {
            "base_train": sorted(self.base_train),
            "verifier_train": sorted(self.verifier_train),
            "test": sorted(self.test),
        }


def reconstruct_text(rec: TokenRecord) -> str:
    """Rebuild document text: each token, then one space iff its flag is set.

    If the record carries a full_text, the reconstruction must equal it
    byte-for-byte; the first divergent offset is reported otherwise.
    """
    n = len(rec.tokens)
    if len(rec.labels) != n or len(rec.trailing_whitespace) != n:
        raise LengthMismatch(
            f"document {rec.document_id!r}: tokens={n} labels={len(rec.labels)} "
            f"trailing_whitespace={len(rec.trailing_whitespace)}"
        )
    parts: list[str] = []
    for token, ws in zip(rec.tokens, rec.trailing_whitespace):
        parts.append(token)
        if ws:
            parts.append(" ")
    text = "".join(parts)
    if rec.full_text is not None and text != rec.full_text:
        offset = next(
            (i for i, (a, b) in enumerate(zip(text, rec.full_text)) if a != b),
            min(len(text), len(rec.full_text)),
        )
        raise ReconstructionMismatch(rec.document_id, offset)
    return text


def _canonical_category(tag: str) -> str:
    return LABEL_ALIASES.get(tag, tag)


def bio_to_spans(rec: TokenRecord, strict: bool = False) -> BioConversion:
    """Convert a BIO-labeled record into character-offset spans.

    One span per maximal B/I run of an in-scope category; the span surface
    excludes the trailing whitespace of its final token. Out-of-scope
    categories are dropped with a counter. An I tag continuing nothing is an
    error in strict mode and is promoted to B (and counted) otherwise.
    """
    text = reconstruct_text(rec)  # validates lengths and full_text agreement
    result = BioConversion(spans=[])

    offset = 0
    open_cat: str | None = None
    open_start = 0
    open_end = 0  # end of last token in the open run, whitespace excluded
    for i, (token, label, ws) in enumerate(
        zip(rec.tokens, rec.labels, rec.trailing_whitespace)
    ):
        tok_start = offset
        tok_end = offset + len(token)
        offset = tok_end + (1 if ws else 0)

        if label == "O" or label == "":
            if open_cat is not None:
                _emit(result, text, open_cat, open_start, open_end)
                open_cat = None
            continue

        if len(label) < 3 or label[1] != "-" or label[0] not in "BI":
            raise MalformedBIO(i, label)
        prefix, raw_cat = label[0], label[2:]
        cat = _canonical_category(raw_cat)

        if prefix == "I" and open_cat == cat:
            open_end = tok_end
            continue

        if prefix == "I":
            # I after O or after a different category.
            if strict:
                raise MalformedBIO(i, label)
            result.repaired_continuations += 1
            prefix = "B"

        if open_cat is not None:
            _emit(result, text, open_cat, open_start, open_end)
        open_cat = cat
        open_start = tok_start
        open_end = tok_end

    if open_cat is not None:
        _emit(result, text, open_cat, open_start, open_end)

    return result


def _emit(result: BioConversion, text: str, cat: str, start: int, end: int) -> None:
    if cat in Category.__members__:
        result.spans.append(Span(start, end, Category(cat), text[start:end]))
    else:
        result.dropped_categories[cat] += 1


def validate_spans(text: str, spans: Sequence[Span | PlaceholderSpan]) -> None:
    """Check bounds, surface consistency, ordering, and non-overlap."""
    prev_end = -1
    prev_start = -1
    for span in spans:
        if not (0 <= span.start < span.end <= len(text)):
            raise CorpusError(f"span {span} out of bounds for text of length {len(text)}")
        if text[span.start : span.end] != span.surface:
            raise CorpusError(
                f"span surface {span.surface!r} != text[{span.start}:{span.end}] "
                f"{text[span.start:span.end]!r}"
            )
        if span.start < prev_start:
            raise CorpusError("spans are not sorted by start")
        if span.start < prev_end:
            raise OverlappingSpans(f"span {span} overlaps previous span ending at {prev_end}")
        prev_start, prev_end = span.start, span.end


def ingest_tscc(
    transcript: str | Iterable[str], document_id: str
) -> tuple[Document, list[PlaceholderSpan]]:
    """Ingest a role/text transcript, returning the document and its placeholders.

    Each line must match ``role: text``; blank lines are skipped. Every
    〈PLACEHOLDER〉 token becomes a PlaceholderSpan; STUDENT and TEACHER are
    name-kind, every other placeholder category is not.
    """
    if isinstance(transcript, str):
        lines = transcript.splitlines()
    else:
        lines = [line.rstrip("\n") for line in transcript]

    kept: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if not _TSCC_LINE_RE.match(line):
            raise MalformedLine(lineno, line)
        kept.append(line)

    text = "\n".join(kept)
    spans = [
        PlaceholderSpan(
            start=m.start(),
            end=m.end(),
            category=Placeholder(m.group(1), m.group(1) in NAME_KIND_PLACEHOLDERS),
            surface=m.group(0),
        )
        for m in _PLACEHOLDER_RE.finditer(text)
    ]
    return Document(id=document_id, text=text, source="tscc"), spans


def split_corpus(
    entity_counts: Mapping[str, Mapping[str, int]],
    ratios: tuple[float, float, float] = (0.25, 0.15, 0.60),
    seed: int = 0,
    stratify: bool = True,
) -> CorpusSplit:
    """Partition document ids into base-train / verifier-train / test sets.

    ``entity_counts`` maps each document id to its gold entity count per
    category (documents without entities map to an empty mapping). Split
    sizes are round(N * ratio) for the first two sets with the remainder
    going to test. When ``stratify`` is set, every category whose corpus
    total is at least 3 is guaranteed at least one gold entity in every
    split; a category concentrated in fewer than 3 documents makes that
    impossible and raises InfeasibleStratification.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise CorpusError(f"ratios {ratios} do not sum to 1")

    counts_by_doc: dict[str, dict[str, int]] = {
        str(doc_id): {
            (k.value if isinstance(k, Category) else str(k)): int(v)
            for k, v in counts.items()
        }
        for doc_id, counts in entity_counts.items()
    }
    doc_ids = sorted(counts_by_doc)
    n = len(doc_ids)
    targets = [round(n * ratios[0]), round(n * ratios[1])]
    targets.append(n - targets[0] - targets[1])
    if min(targets) < 0:
        raise CorpusError(f"ratios {ratios} produce negative split sizes for N={n}")

    rng = random.Random(seed)
    shuffled = list(doc_ids)
    rng.shuffle(shuffled)

    assigned: dict[str, int] = {}
    sizes = [0, 0, 0]

    if stratify:
        totals: Counter = Counter()
        carriers: dict[str, list[str]] = {}
        for doc_id in shuffled:
            for cat, count in counts_by_doc[doc_id].items():
                if count > 0:
                    totals[cat] += count
                    carriers.setdefault(cat, []).append(doc_id)

        # Rarest categories get seeded first so their few carrier documents
        # are still unassigned when needed.
        for cat in sorted(totals, key=lambda c: (len(carriers[c]), c)):
            if totals[cat] < 3:
                continue  # the guarantee only applies from 3 entities up
            if len(carriers[cat]) < 3:
                raise InfeasibleStratification(
                    f"category {cat} has {totals[cat]} entities in only "
                    f"{len(carriers[cat])} documents; cannot cover 3 splits"
                )
            for split_idx in range(3):
                if any(
                    counts_by_doc[d].get(cat, 0) > 0
                    for d, s in assigned.items()
                    if s == split_idx
                ):
                    continue
                if sizes[split_idx] >= targets[split_idx]:
                    raise InfeasibleStratification(
                        f"split {split_idx} is full before category {cat} could be placed"
                    )
                picked = next((d for d in carriers[cat] if d not in assigned), None)
                if picked is None:
                    raise InfeasibleStratification(
                        f"no unassigned document carries category {cat} for split {split_idx}"
                    )
                assigned[picked] = split_idx
                sizes[split_idx] += 1

    split_order = [0, 1, 2]
    for doc_id in shuffled:
        if doc_id in assigned:
            continue
        for split_idx in split_order:
            if sizes[split_idx] < targets[split_idx]:
                assigned[doc_id] = split_idx
                sizes[split_idx] += 1
                break

    groups: list[set[str]] = [set(), set(), set()]
    for doc_id, split_idx in assigned.items():
        groups[split_idx].add(doc_id)
    return CorpusSplit(base_train=groups[0], verifier_train=groups[1], test=groups[2])


# ---------------------------------------------------------------------------
# File formats


def read_crapii_jsonl(path: str | Path) -> Iterator[TokenRecord]:
    """Read token records from JSON-Lines with the public corpus schema."""
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                yield TokenRecord(
                    document_id=str(obj["document"]),
                    tokens=list(obj["tokens"]),
                    labels=list(obj["labels"]),
                    trailing_whitespace=[bool(x) for x in obj["trailing_whitespace"]],
                    full_text=obj.get("full_text"),
                )
            except KeyError as exc:
                raise CorpusError(f"{path}:{lineno}: missing key {exc}") from exc


def _span_to_entry(span: Span | PlaceholderSpan) -> dict:
    entry = {"start": span.start, "end": span.end, "text": span.surface}
    if isinstance(span, PlaceholderSpan):
        entry.update(placeholder=span.category.name, name_kind=span.category.name_kind)
    else:
        entry["category"] = span.category.value
    return entry


def _entry_to_span(entry: Mapping) -> Span | PlaceholderSpan:
    start, end, surface = int(entry["start"]), int(entry["end"]), entry["text"]
    if "placeholder" in entry:
        placeholder = Placeholder(entry["placeholder"], bool(entry["name_kind"]))
        return PlaceholderSpan(start, end, placeholder, surface)
    return Span(start, end, Category(entry["category"]), surface)


def spans_to_standoff(document_id: str, spans: Sequence[Span | PlaceholderSpan]) -> dict:
    return {"document": document_id, "spans": [_span_to_entry(s) for s in spans]}


def standoff_to_spans(obj: Mapping) -> tuple[str, list[Span | PlaceholderSpan]]:
    """Parse one document's entry; each span is a category or a placeholder span."""
    doc_id = obj.get("document") if isinstance(obj, Mapping) else None
    try:
        return str(obj["document"]), [_entry_to_span(e) for e in obj["spans"]]
    except KeyError as exc:
        raise CorpusError(f"document {doc_id!r}: span entry lacks key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CorpusError(f"document {doc_id!r}: malformed span entry: {exc}") from exc


def write_standoff(
    path: str | Path, spans_by_doc: Mapping[str, Sequence[Span | PlaceholderSpan]]
) -> None:
    payload = [
        spans_to_standoff(doc_id, spans_by_doc[doc_id]) for doc_id in sorted(spans_by_doc)
    ]
    Path(path).write_text(
        json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def read_spans(path: str | Path) -> dict[str, list[Span]] | dict[str, list[PlaceholderSpan]]:
    """Read a span file whose entries are all category spans or all placeholder spans."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(payload, dict):
        payload = [payload]
    out: dict = {}
    for obj in payload:
        try:
            doc_id, spans = standoff_to_spans(obj)
        except CorpusError as exc:
            raise CorpusError(f"{path}: {exc}") from exc
        out[doc_id] = spans
    if len({type(s) for spans in out.values() for s in spans}) > 1:
        raise CorpusError(f"{path}: mixes category and placeholder span entries")
    return out


def read_standoff(path: str | Path) -> dict[str, list[Span]]:
    out = read_spans(path)
    if any(isinstance(s, PlaceholderSpan) for spans in out.values() for s in spans):
        raise CorpusError(f"{path}: holds placeholder spans where category spans are expected")
    return out


def write_documents(path: str | Path, docs: Iterable[Document]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for doc in docs:
            handle.write(
                json.dumps(
                    {"id": doc.id, "text": doc.text, "source": doc.source},
                    ensure_ascii=False,
                )
                + "\n"
            )


def read_documents(path: str | Path) -> list[Document]:
    """Read documents from JSONL; accepts both ingested docs and raw token records."""
    docs: list[Document] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            obj = json.loads(line)
            if "tokens" in obj:
                rec = TokenRecord(
                    document_id=str(obj["document"]),
                    tokens=list(obj["tokens"]),
                    labels=list(obj["labels"]),
                    trailing_whitespace=[bool(x) for x in obj["trailing_whitespace"]],
                    full_text=obj.get("full_text"),
                )
                docs.append(Document(rec.document_id, reconstruct_text(rec), "crapii"))
            else:
                docs.append(
                    Document(str(obj["id"]), obj["text"], obj.get("source", "raw"))
                )
    return docs
