"""Corpus ingestion and splitting.

Turns BIO-labeled token records and role/text transcripts into documents with
character-offset spans, and produces the stratified base/verifier/test split.
All offsets are Unicode scalar-value indices into the reconstructed text.
"""

from __future__ import annotations

import csv
import json
import os
import random
import re
import sys
from collections import Counter
from enum import Enum
from itertools import accumulate, islice
from operator import add, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar


class Category(str, Enum):
    """The four in-scope PII categories."""

    NAME_STUDENT = "NAME_STUDENT"
    URL_PERSONAL = "URL_PERSONAL"
    EMAIL = "EMAIL"
    PHONE_NUM = "PHONE_NUM"


# Short tags seen in public releases of the source corpus map onto the
# canonical category names; anything else is counted and dropped.
LABEL_ALIASES: dict[str, str] = {
    "NAME": Category.NAME_STUDENT.value,
    "URL": Category.URL_PERSONAL.value,
    "PHONE": Category.PHONE_NUM.value,
}

# Transcript placeholder names that stand for person names.
NAME_KIND_PLACEHOLDERS = frozenset({"STUDENT", "TEACHER"})

T = TypeVar("T")

_PLACEHOLDER_RE = re.compile("〈([^〈〉]+)〉")
_TSCC_LINE_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_ -]*):\s?(.*)$")


class CorpusError(ValueError):
    """A corpus validation failure."""


class Placeholder(NamedTuple):
    """A transcript placeholder category, e.g. STUDENT or INSTAGRAM ACCOUNT."""

    name: str
    name_kind: bool

    @property
    def value(self) -> str:
        """The label audit records carry, as ``Category.value`` is for a category."""
        return f"PLACEHOLDER:{self.name}"


class Span(NamedTuple):
    """Half-open character interval [start, end) with category and surface text."""

    start: int
    end: int
    category: Category | Placeholder
    surface: str


class Document(NamedTuple):
    id: str
    text: str
    source: str = "raw"  # crapii | tscc | raw


Documents = Mapping[str, Document]  # by id, as read_documents returns them


class TokenRecord(NamedTuple):
    """One BIO-labeled record: parallel token/label/whitespace arrays."""

    document_id: str
    tokens: list[str]
    labels: list[str]
    trailing_whitespace: list[bool]
    full_text: str | None = None


class BioConversion(NamedTuple):
    """A record's text, the spans bio_to_spans kept, and what it did not keep."""

    text: str
    spans: list[Span]
    dropped_categories: Counter
    repaired_continuations: int


class CorpusSplit(NamedTuple):
    base_train: set[str]
    verifier_train: set[str]
    test: set[str]

    def as_dict(self) -> dict[str, list[str]]:
        return {name: sorted(ids) for name, ids in self._asdict().items()}


def reconstruct_text(rec: TokenRecord) -> str:
    """Rebuild document text: each token, then one space iff its flag is set.

    If the record carries a full_text, the reconstruction must equal it
    byte-for-byte; the first divergent offset is reported otherwise.
    """
    n = len(rec.tokens)
    if len(rec.labels) != n or len(rec.trailing_whitespace) != n:
        raise CorpusError(
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
        offset = len(os.path.commonprefix([text, rec.full_text]))
        raise CorpusError(
            f"document {rec.document_id!r}: reconstructed text diverges from "
            f"full_text at offset {offset}"
        )
    return text


def _malformed_bio(index: int, label: str) -> CorpusError:
    return CorpusError(f"label {label!r} at token index {index} continues no open entity")


def bio_to_spans(rec: TokenRecord, strict: bool = False) -> BioConversion:
    """Convert a BIO-labeled record into character-offset spans.

    One span per maximal B/I run of an in-scope category; the span surface
    excludes the trailing whitespace of its final token. Out-of-scope
    categories are dropped with a counter. An I tag continuing nothing is an
    error in strict mode and is promoted to B (and counted) otherwise.
    """
    text = reconstruct_text(rec)  # validates lengths and full_text agreement
    starts = list(accumulate(map(add, map(len, rec.tokens), rec.trailing_whitespace), initial=0))
    runs: list[list] = []  # [category, first token, last token] per B/I run
    repaired = 0
    for i, label in enumerate(rec.labels):
        if label == "O" or label == "":
            continue
        if len(label) < 3 or label[1] != "-" or label[0] not in "BI":
            raise _malformed_bio(i, label)
        cat = LABEL_ALIASES.get(label[2:], label[2:])
        if label[0] == "I":
            if runs and runs[-1][2] == i - 1 and runs[-1][0] == cat:
                runs[-1][2] = i
                continue
            if strict:  # I after O or after a different category
                raise _malformed_bio(i, label)
            repaired += 1
        runs.append([cat, i, i])

    spans: list[Span] = []
    dropped: Counter = Counter()
    for cat, first, last in runs:
        if cat in Category.__members__:
            start, end = starts[first], starts[last] + len(rec.tokens[last])
            spans.append(Span(start, end, Category(cat), text[start:end]))
        else:
            dropped[cat] += 1
    return BioConversion(text, spans, dropped, repaired)


def validate_spans(text: str, spans: Sequence[Span]) -> None:
    """Check bounds, surface consistency, ordering, and non-overlap.

    Spans are non-empty, so one that starts before the previous start also
    starts before the previous end: the overlap check rejects it.
    """
    prev_end = -1
    for span in spans:
        if not (0 <= span.start < span.end <= len(text)):
            raise CorpusError(f"span {span} out of bounds for text of length {len(text)}")
        if text[span.start : span.end] != span.surface:
            raise CorpusError(
                f"span surface {span.surface!r} != text[{span.start}:{span.end}] "
                f"{text[span.start:span.end]!r}"
            )
        if span.start < prev_end:
            raise CorpusError(f"span {span} overlaps previous span ending at {prev_end}")
        prev_end = span.end


def ingest_tscc(transcript: str, document_id: str) -> tuple[Document, list[Span]]:
    """Ingest a role/text transcript, returning the document and its placeholders.

    Each line must match ``role: text``, and only LF, CRLF and CR end a line;
    blank lines are skipped. Every 〈PLACEHOLDER〉 token becomes a span whose
    category is a Placeholder; STUDENT and TEACHER are name-kind, every other
    placeholder is not.
    """
    kept: list[str] = []
    # str.splitlines would also end a line at U+2028, a form feed and more.
    for lineno, line in enumerate(re.split(r"\r\n?|\n", transcript), start=1):
        if not line.strip():
            continue
        if not _TSCC_LINE_RE.match(line):
            raise CorpusError(f"line {lineno} does not match 'role: text': {line!r}")
        kept.append(line)

    text = "\n".join(kept)
    spans = [
        Span(
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
    gold: str | Path | None = None,
) -> CorpusSplit:
    """Partition document ids into base-train / verifier-train / test sets.

    ``entity_counts`` maps each document id to its gold entity count per
    category (documents without entities map to an empty mapping). Split
    sizes are round(N * ratio) for the first two sets with the remainder
    going to test. Every category whose corpus total is at least 3 is
    guaranteed at least one gold entity in every split; a category
    concentrated in fewer than 3 documents makes that impossible and raises
    CorpusError that names ``gold``, the file the counts came from, if given.
    """
    if not abs(sum(ratios) - 1.0) <= 1e-9:  # a NaN sum (NaN, or inf and -inf) fails too
        raise CorpusError(f"ratios {ratios} do not sum to 1")

    shuffled = sorted(entity_counts)
    n = len(shuffled)
    targets = [round(n * ratios[0]), round(n * ratios[1])]
    targets.append(n - targets[0] - targets[1])
    if min(targets) < 0:
        raise CorpusError(f"ratios {ratios} produce negative split sizes for N={n}")
    random.Random(seed).shuffle(shuffled)

    totals: Counter = Counter()
    carriers: dict[str, list[str]] = {}
    for doc_id in shuffled:
        for cat, count in entity_counts[doc_id].items():
            if count > 0:
                totals[cat] += count
                carriers.setdefault(cat, []).append(doc_id)

    where = f"{gold}: " if gold else ""  # a category that cannot be placed is the gold's fault
    splits: list[set[str]] = [set(), set(), set()]
    # Rarest categories get seeded first so their few carrier documents
    # are still unassigned when needed.
    for cat in sorted(totals, key=lambda c: (len(carriers[c]), c)):
        if totals[cat] < 3:
            continue  # the guarantee only applies from 3 entities up
        if len(carriers[cat]) < 3:
            raise CorpusError(
                f"{where}category {cat} has {totals[cat]} entities in only "
                f"{len(carriers[cat])} documents; cannot cover 3 splits"
            )
        for split_idx, split in enumerate(splits):
            if not split.isdisjoint(carriers[cat]):
                continue
            if len(split) >= targets[split_idx]:
                raise CorpusError(
                    f"{where}split {split_idx} is full before category {cat} could be placed"
                )
            picked = next((d for d in carriers[cat] if not any(d in s for s in splits)), None)
            if picked is None:
                raise CorpusError(
                    f"{where}no unassigned document carries category {cat} for split {split_idx}"
                )
            split.add(picked)

    # The other documents, in shuffled order, fill base-train, then verifier-train, then test.
    rest = iter([d for d in shuffled if not any(d in s for s in splits)])
    for split, target in zip(splits, targets):
        split.update(islice(rest, target - len(split)))
    return CorpusSplit(*splits)


# ---------------------------------------------------------------------------
# File formats: every file is read and written through the functions below, so
# a malformed input is one CorpusError naming its path (and line). Given the id
# map read_documents returns, read_spans and read_standoff check that each span
# lies in its document (validate_spans), and read_split that each id is in it.


def _not_a_number(constant: str) -> None:
    raise ValueError(f"{constant} is not a number")


_JSON = json.JSONDecoder(parse_constant=_not_a_number)  # NaN and Infinity are not JSON
#: The escape of a surrogate code point (U+D800 to U+DFFF): UTF-8 text cannot spell one
#: otherwise, so a line without it skips the exact check.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _decode(text: str) -> Any:
    """``text`` as JSON; a key or string that is not Unicode text is a ValueError."""
    value = _JSON.decode(text)
    if _SURROGATE_ESCAPE.search(text):  # a pair is one character; a lone one fails to encode
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            surrogate = exc.object[exc.start]
            raise ValueError(f"lone surrogate {surrogate!r} is not Unicode text") from None
    return value


#: Every text input is read as UTF-8. A leading byte order mark, as Excel's
#: "CSV UTF-8" writes, is not data; one later in the text stays text.
READ_ENCODING = "utf-8-sig"


def read_json(path: str | Path) -> Any:
    try:
        return _decode(Path(path).read_text(encoding=READ_ENCODING))
    except (ValueError, RecursionError) as exc:  # not JSON or UTF-8, too deep, NaN or Infinity
        raise CorpusError(f"{path}: invalid JSON: {exc}") from exc


def write_json(path: str | Path, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, ensure_ascii=False, indent=2, sort_keys=True)
        handle.write("\n")


def _text_lines(path: str | Path, newline: str | None = None) -> Iterator[str]:
    """Yield the lines of a UTF-8 text file; bytes that do not decode name the file."""
    with open(path, encoding=READ_ENCODING, newline=newline) as handle:
        try:
            yield from handle
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}: {exc}") from exc


def read_jsonl(
    path: str | Path, parse: Callable[[Any], T], document_id: Callable[[T], str]
) -> Iterator[T]:
    """Yield ``parse(obj)`` per non-blank line; a fault is a CorpusError naming the line.

    Each line is one document, so a ``document_id`` seen on an earlier line is a fault.
    """
    seen: set[str] = set()
    for lineno, line in enumerate(_text_lines(path), start=1):
        if not line.strip():
            continue
        try:
            item = parse(_decode(line))
            if document_id(item) in seen:
                raise CorpusError(f"document {document_id(item)!r} is listed twice")
            seen.add(document_id(item))
        except CorpusError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # not JSON, nested too deep, NaN or Infinity
            raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        except KeyError as exc:
            raise CorpusError(f"{path}:{lineno}: missing key {exc}") from exc
        except (TypeError, AttributeError) as exc:  # a field, or the line, of the wrong type
            raise CorpusError(f"{path}:{lineno}: malformed record: {exc}") from exc
        yield item


def write_jsonl(path: str | Path, objects: Iterable[Any]) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for obj in objects:
            handle.write(json.dumps(obj, ensure_ascii=False) + "\n")
            count += 1
    return count


def read_csv(
    path: str | Path, columns: Sequence[str], optional: Sequence[str] = ()
) -> Iterator[tuple[str, ...]]:
    """Yield each CSV row as a tuple: its ``columns`` fields, then its ``optional`` ones.

    The header must name every one of ``columns``; an ``optional`` column it does
    not name reads "". As with ``csv.DictReader``, a blank line is skipped, a short
    row reads "" for its missing fields, fields past the header are ignored, and a
    name the header repeats reads its last field. A line the csv module rejects
    (a field over its size limit, say) is a CorpusError naming the file and line.
    """
    reader = csv.reader(_text_lines(path, newline=""))
    try:
        index = {name: i for i, name in enumerate(next(reader, ()))}
        missing = [c for c in columns if c not in index]
        if missing:
            raise CorpusError(f"{path}: missing column(s) {missing}")
        # An absent optional column points past every row, so it reads "" as a short row does.
        picks = [index.get(c, sys.maxsize) for c in (*columns, *optional)]
        # A row that holds every pick is picked in C; itemgetter of one index gives no tuple.
        pick = itemgetter(*picks) if len(picks) > 1 else lambda row: tuple([row[i] for i in picks])
        needed = max(picks, default=0) + 1
        for row in reader:
            if len(row) >= needed:
                yield pick(row)
            elif row:
                width = len(row)
                yield tuple([row[i] if i < width else "" for i in picks])
    except csv.Error as exc:
        raise CorpusError(f"{path}:{reader.line_num}: {exc}") from exc


def _list_of(obj: Mapping, key: str, kind: type) -> list:
    value = obj[key]
    if not isinstance(value, list) or not set(map(type, value)) <= {kind}:
        raise CorpusError(f"{key} must be a list of {kind.__name__}")
    return value


def _document_id(value: Any) -> str:
    """A document id is a string, or an integer as the public corpus writes it."""
    if type(value) not in (str, int):  # a bool is an int, but no id
        raise CorpusError(f"document id must be a string or an integer, not {type(value).__name__}")
    return str(value)


def _token_record(obj: Mapping) -> TokenRecord:
    full_text = obj.get("full_text")
    if full_text is not None and not isinstance(full_text, str):
        raise CorpusError(f"full_text must be a string or null, not {type(full_text).__name__}")
    return TokenRecord(
        document_id=_document_id(obj["document"]),
        tokens=_list_of(obj, "tokens", str),
        labels=_list_of(obj, "labels", str),
        trailing_whitespace=_list_of(obj, "trailing_whitespace", bool),
        full_text=full_text,
    )


def read_crapii_jsonl(
    path: str | Path, strict: bool = False
) -> Iterator[tuple[TokenRecord, BioConversion]]:
    """Read token records with the public corpus schema, each with its ``bio_to_spans``."""

    def convert(obj: Mapping) -> tuple[TokenRecord, BioConversion]:
        rec = _token_record(obj)
        return rec, bio_to_spans(rec, strict)

    return read_jsonl(path, convert, lambda pair: pair[0].document_id)


def _span_to_entry(span: Span) -> dict:
    entry = {"start": span.start, "end": span.end, "text": span.surface}
    if isinstance(span.category, Placeholder):
        entry.update(placeholder=span.category.name, name_kind=span.category.name_kind)
    else:
        entry["category"] = span.category.value
    return entry


def _entry_to_span(entry: Mapping) -> Span:
    start, end, surface = entry["start"], entry["end"], entry["text"]
    if type(start) is not int or type(end) is not int:  # a bool is an int, but no offset
        raise CorpusError(f"span offsets must be integers, not {start!r} and {end!r}")
    if not isinstance(surface, str):
        raise CorpusError(f"span text must be a string, not {type(surface).__name__}")
    if "placeholder" in entry:
        if not isinstance(entry["placeholder"], str) or type(entry["name_kind"]) is not bool:
            raise CorpusError("a placeholder must be a string and its name_kind a bool")
        category = Placeholder(entry["placeholder"], entry["name_kind"])
    else:
        category = Category(entry["category"])
    return Span(start, end, category, surface)


def write_standoff(path: str | Path, spans_by_doc: Mapping[str, Sequence[Span]]) -> None:
    write_json(path, [
        {"document": doc_id, "spans": [_span_to_entry(s) for s in spans_by_doc[doc_id]]}
        for doc_id in sorted(spans_by_doc)
    ])


def read_spans(path: str | Path, docs: Documents | None = None) -> dict[str, list[Span]]:
    """Read a span file of all category or all placeholder spans, sorted by offset per document."""
    payload = read_json(path)
    if not isinstance(payload, list):
        raise CorpusError(f"{path}: expected a list of document span entries")
    out: dict = {}
    for obj in payload:
        doc_id = obj.get("document") if isinstance(obj, Mapping) else None
        try:
            doc_id, spans = _document_id(obj["document"]), [_entry_to_span(e) for e in obj["spans"]]
            spans.sort(key=lambda span: (span.start, span.end))  # Placeholder has no order
        except KeyError as exc:
            raise CorpusError(f"{path}: document {doc_id!r}: span entry lacks key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise CorpusError(f"{path}: document {doc_id!r}: malformed span entry: {exc}") from exc
        if doc_id in out:
            raise CorpusError(f"{path}: document {doc_id!r} is listed twice")
        out[doc_id] = spans
    if len({type(s.category) for spans in out.values() for s in spans}) > 1:
        raise CorpusError(f"{path}: mixes category and placeholder span entries")
    if docs is None:
        return out
    for doc_id, spans in out.items():
        if doc_id not in docs:
            raise CorpusError(f"{path}: spans reference unknown document {doc_id!r}")
        try:
            validate_spans(docs[doc_id].text, spans)
        except CorpusError as exc:
            raise CorpusError(f"{path}: document {doc_id!r}: {exc}") from exc
    return out


def read_standoff(path: str | Path, docs: Documents | None = None) -> dict[str, list[Span]]:
    out = read_spans(path, docs)
    if any(isinstance(s.category, Placeholder) for spans in out.values() for s in spans):
        raise CorpusError(f"{path}: holds placeholder spans where category spans are expected")
    return out


def write_documents(path: str | Path, docs: Iterable[Document]) -> None:
    write_jsonl(path, ({"id": d.id, "text": d.text, "source": d.source} for d in docs))


def _document(obj: Mapping) -> Document:
    if "tokens" in obj:
        rec = _token_record(obj)
        return Document(rec.document_id, reconstruct_text(rec), "crapii")
    text, source = obj["text"], obj.get("source", "raw")
    if not isinstance(text, str):
        raise CorpusError(f"document text must be a string, not {type(text).__name__}")
    if not isinstance(source, str):
        raise CorpusError(f"document source must be a string, not {type(source).__name__}")
    return Document(_document_id(obj["id"]), text, source)


def read_documents(path: str | Path) -> dict[str, Document]:
    """Read documents from JSONL by id; accepts both ingested docs and raw token records."""
    return {doc.id: doc for doc in read_jsonl(path, _document, lambda doc: doc.id)}


def read_split(path: str | Path | None, name: str, docs: Documents) -> list[str]:
    """Read the set ``name`` of a split file: distinct ids of ``docs``; all of them if no file."""
    if not path:
        return sorted(docs)
    split = read_json(path)
    ids = split.get(name) if isinstance(split, dict) else None
    if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
        raise CorpusError(f"{path}: no list of document ids named {name!r}")
    missing = [i for i in ids if i not in docs]
    if missing:
        raise CorpusError(f"{path}: split references unknown documents: {missing[:5]}")
    repeated = [i for i, n in Counter(ids).items() if n > 1]
    if repeated:
        raise CorpusError(f"{path}: document {repeated[0]!r} is listed twice in {name!r}")
    return ids
