"""Marker codec: spans to marked text and (possibly drifted) marked text back.

The four category marker pairs are a bit-exact public contract shared by the
prompt builders and this decoder. Decode is total: model output may be
arbitrarily corrupted and every failure is reported, never raised.
"""

from __future__ import annotations

import bisect
import difflib
import re
from collections import Counter
from typing import NamedTuple

from .corpus import Category, Document, Span, validate_spans

#: Open/close marker pair per category. Do not edit: prompts, fine-tuning
#: records, and the decoder all rely on these exact strings.
MARKERS: dict[Category, tuple[str, str]] = {
    Category.NAME_STUDENT: ("@@@", "###"),
    Category.URL_PERSONAL: ("&&&", "$$$"),
    Category.EMAIL: ("QQQ", "^^^"),
    Category.PHONE_NUM: ("%%%", "~~~"),
}

ALL_MARKER_STRINGS: tuple[str, ...] = tuple(
    m for pair in MARKERS.values() for m in pair
)

_MARKER_RE = re.compile("|".join(re.escape(m) for m in ALL_MARKER_STRINGS))
_OPEN_TO_CATEGORY = {pair[0]: cat for cat, pair in MARKERS.items()}
_CLOSE_TO_CATEGORY = {pair[1]: cat for cat, pair in MARKERS.items()}

DROP_NOT_IN_ORIGINAL = "not_in_original"
DROP_INTERLEAVED = "interleaved"
DROP_OVERLAP = "overlaps_prior_span"
DROP_EMPTY = "empty_region"


class DroppedRegion(NamedTuple):
    surface: str
    category: Category
    reason: str


class DecodeReport(NamedTuple):
    """Spans recovered against the original document plus anchoring stats."""

    spans: list[Span]
    anchored_exact: int
    anchored_fuzzy: int
    dropped: list[DroppedRegion]


def encode(doc: Document, spans: list[Span]) -> str:
    """Insert category markers around each span of the document text.

    Deleting all inserted markers recovers the text exactly. Spans whose
    surface already contains a marker string cannot round-trip; they are
    skipped.
    """
    ordered = sorted(spans)
    validate_spans(doc.text, ordered)
    encodable = [s for s in ordered if not _MARKER_RE.search(s.surface)]

    parts: list[str] = []
    cursor = 0
    for span in encodable:
        open_m, close_m = MARKERS[span.category]
        parts.append(doc.text[cursor : span.start])
        parts.append(open_m)
        parts.append(doc.text[span.start : span.end])
        parts.append(close_m)
        cursor = span.end
    parts.append(doc.text[cursor:])
    return "".join(parts)


def strip_markers(marked: str) -> str:
    """Remove every marker string, paired or not."""
    return _MARKER_RE.sub("", marked)


def _scan_regions(marked: str) -> tuple[str, list[tuple[Category, str, int]], list[DroppedRegion]]:
    """Pair up marker occurrences and compute the marker-free text.

    Each region is ``(category, inner text, offset of the inner text in the
    marker-free text)``, in order of its open marker.

    Close markers bind to the most recent open of the same category; opens
    trapped inside a closed pair lose to the earliest-closed pair and are
    discarded along with their markers. Unmatched markers stay literal text.
    The count of pending opens per category lets an unmatched close skip the
    search, and every open a search walks past is trapped and deleted, so
    pairing is linear overall.
    """
    occurrences = list(_MARKER_RE.finditer(marked))
    pairs: list[tuple[int, int, Category]] = []  # (open idx, close idx, category)
    noise: list[tuple[int, int, Category]] = []  # (trapped open idx, close idx, category)
    pending: list[tuple[int, Category]] = []
    open_count = dict.fromkeys(MARKERS, 0)
    for idx, match in enumerate(occurrences):
        if match[0] in _OPEN_TO_CATEGORY:
            cat = _OPEN_TO_CATEGORY[match[0]]
            pending.append((idx, cat))
            open_count[cat] += 1
            continue
        cat = _CLOSE_TO_CATEGORY[match[0]]
        if not open_count[cat]:
            continue  # unmatched close stays literal
        k = next(k for k in reversed(range(len(pending))) if pending[k][1] == cat)
        pairs.append((pending[k][0], idx, cat))
        noise.extend((open_idx, idx, open_cat) for open_idx, open_cat in pending[k + 1 :])
        for _, open_cat in pending[k:]:
            open_count[open_cat] -= 1
        del pending[k:]

    # Drop the paired and trapped markers, recording where each marker sits
    # in the marker-free text.
    deleted = {idx for o, c, _ in pairs + noise for idx in (o, c)}
    parts: list[str] = []
    offsets: list[int] = []
    cursor = removed = 0
    for idx, match in enumerate(occurrences):
        offsets.append(match.start() - removed)
        if idx in deleted:
            parts.append(marked[cursor : match.start()])
            cursor = match.end()
            removed += len(match[0])
    parts.append(marked[cursor:])
    stripped = "".join(parts)

    def inner(open_idx: int, close_idx: int) -> str:
        return stripped[offsets[open_idx] : offsets[close_idx]]

    regions = [(cat, inner(o, c), offsets[o]) for o, c, cat in sorted(pairs)]
    dropped = [DroppedRegion(inner(o, c), cat, DROP_INTERLEAVED) for o, c, cat in noise]
    return stripped, regions, dropped


_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def _align(stripped: str, original: str) -> list[tuple[int, int]]:
    """Anchors ``(stripped pos, original pos)`` where equal text starts, in order.

    Identical texts share one anchor at 0. Otherwise whole tokens (words and
    single punctuation marks; whitespace is ignored) are aligned as in patience
    diff: the longest in-order chain of tokens that occur once in each text is
    matched and grown over equal neighbours, then ``SequenceMatcher`` aligns
    the gaps. Every matched token is an anchor; both text ends close the list.
    """
    if stripped == original:
        return [(0, 0), (len(stripped), len(original))]
    a = list(_TOKEN_RE.finditer(stripped))
    b = list(_TOKEN_RE.finditer(original))
    # An end sentinel ("", once in each text) closes the chain and the pairs.
    ta = [m[0] for m in a] + [""]
    tb = [m[0] for m in b] + [""]
    count_a, count_b = Counter(ta), Counter(tb)
    in_b = {t: j for j, t in enumerate(tb) if count_b[t] == 1}
    unique = [(i, in_b[t]) for i, t in enumerate(ta) if count_a[t] == 1 and t in in_b]
    # Patience sorting: tops[p] is the (j, i, previous node) that ends the best
    # chain of p + 1 unique matches seen so far.
    tops: list[tuple] = []
    for i, j in unique:
        p = bisect.bisect_left(tops, j, key=lambda node: node[0])
        tops[p : p + 1] = [(j, i, tops[p - 1] if p else None)]
    chain, node = [], tops[-1]
    while node:
        chain.append((node[1], node[0]))
        node = node[2]
    pairs: list[tuple[int, int]] = []
    lo_a = lo_b = 0
    for i, j in reversed(chain):
        # Grow the unique matches, not the text ends, over equal neighbours.
        while 0 < lo_a < i and lo_b < j and ta[lo_a] == tb[lo_b]:
            pairs.append((lo_a, lo_b))
            lo_a, lo_b = lo_a + 1, lo_b + 1
        hi_a, hi_b = i, j
        while len(a) > hi_a > lo_a and hi_b > lo_b and ta[hi_a - 1] == tb[hi_b - 1]:
            hi_a, hi_b = hi_a - 1, hi_b - 1
        sm = difflib.SequenceMatcher(a=ta[lo_a:hi_a], b=tb[lo_b:hi_b], autojunk=False)
        for x, y, size in sm.get_matching_blocks():
            pairs += [(lo_a + x + k, lo_b + y + k) for k in range(size)]
        pairs += [(hi_a + k, hi_b + k) for k in range(i - hi_a + 1)]
        lo_a, lo_b = i + 1, j + 1
    return [(a[i].start(), b[j].start()) for i, j in pairs[:-1]] + [(len(stripped), len(original))]


def _map_position(anchors: list[tuple[int, int]], pos: int) -> int:
    """Map a position in the stripped text onto the original, monotonically.

    A position keeps its distance from the last anchor at or before it, but
    never passes the next anchor; past the end it maps to the original's end.
    """
    i = bisect.bisect_right(anchors, pos, key=lambda anchor: anchor[0])
    a, b = anchors[i - 1] if i else (0, 0)
    return min(b + pos - a, anchors[min(i, len(anchors) - 1)][1])


def decode(marked: str, original: Document) -> DecodeReport:
    """Recover exact-offset spans in the original document from marked output.

    Each balanced marked region's start is mapped onto the original through
    a monotone alignment of the marker-free output with the original
    (offsets map 1:1 when the two are identical, otherwise whole word and
    punctuation tokens are aligned). The candidate offsets are the mapped
    one if the original has the inner text there (an exact anchor), else
    every exact occurrence of the inner text (a fuzzy anchor). The candidate
    nearest the mapped offset that overlaps no span already kept wins, earliest
    on ties. A region with no such candidate is dropped: as an overlap if
    any candidate existed, else as not in the original. A span is only ever
    emitted when the original text matches the inner text exactly.
    """
    stripped, regions, dropped = _scan_regions(marked)
    text = original.text
    # Only a region with inner text is mapped, so a reply without one needs no alignment.
    anchors = _align(stripped, text) if any(inner for _, inner, _ in regions) else []
    taken = bytearray(len(text))  # 1 wherever a kept span lies
    spans: list[Span] = []
    exact_count = 0
    for cat, inner, strip_start in regions:
        if not inner:
            dropped.append(DroppedRegion("", cat, DROP_EMPTY))
            continue
        mapped = _map_position(anchors, strip_start)
        exact = text.startswith(inner, mapped)
        if exact:
            candidates = [mapped]
        else:  # every occurrence, overlapping ones included
            candidates = []
            hit = text.find(inner)
            while hit >= 0:
                candidates.append(hit)
                hit = text.find(inner, hit + 1)
        usable = [c for c in candidates if taken.find(1, c, c + len(inner)) < 0]
        if not usable:
            reason = DROP_OVERLAP if candidates else DROP_NOT_IN_ORIGINAL
            dropped.append(DroppedRegion(inner, cat, reason))
            continue
        best = min(usable, key=lambda c: (abs(c - mapped), c))
        spans.append(Span(best, best + len(inner), cat, inner))
        taken[best : best + len(inner)] = b"\x01" * len(inner)
        exact_count += exact
    return DecodeReport(sorted(spans), exact_count, len(spans) - exact_count, dropped)
