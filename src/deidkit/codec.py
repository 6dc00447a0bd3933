"""Marker codec: spans to marked text and (possibly drifted) marked text back.

The four category marker pairs are a bit-exact public contract shared by the
prompt builders and this decoder. Decode is total: model output may be
arbitrarily corrupted and every failure is reported, never raised.
"""

from __future__ import annotations

import bisect
import difflib
import re
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class DroppedRegion:
    surface: str
    category: Category
    reason: str


@dataclass
class DecodeReport:
    """Spans recovered against the original document plus anchoring stats."""

    spans: list[Span] = field(default_factory=list)
    anchored_exact: int = 0
    anchored_fuzzy: int = 0
    dropped: list[DroppedRegion] = field(default_factory=list)


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


@dataclass(frozen=True)
class _Region:
    category: Category
    inner: str
    strip_start: int  # offset of the inner text within the stripped output


def _scan_regions(marked: str) -> tuple[str, list[_Region], list[DroppedRegion]]:
    """Pair up marker occurrences and compute the marker-free text.

    Close markers bind to the most recent open of the same category; opens
    trapped inside a closed pair lose to the earliest-closed pair and are
    discarded along with their markers. Unmatched markers stay literal text.
    """
    occurrences = list(_MARKER_RE.finditer(marked))
    consumed: set[int] = set()  # indices into occurrences
    pairs: list[tuple[int, int, Category]] = []  # (open idx, close idx, category)
    noise: list[tuple[int, int, Category]] = []  # (open idx, losing close idx, category)
    pending: list[tuple[int, Category]] = []

    for idx, match in enumerate(occurrences):
        marker = match.group(0)
        if marker in _OPEN_TO_CATEGORY:
            pending.append((idx, _OPEN_TO_CATEGORY[marker]))
            continue
        close_cat = _CLOSE_TO_CATEGORY[marker]
        open_pos = next(
            (k for k in range(len(pending) - 1, -1, -1) if pending[k][1] == close_cat),
            None,
        )
        if open_pos is None:
            continue  # unmatched close stays literal
        open_idx, _ = pending[open_pos]
        interleaved = pending[open_pos + 1 :]
        pending = pending[:open_pos]
        consumed.add(open_idx)
        consumed.add(idx)
        for noise_idx, noise_cat in interleaved:
            consumed.add(noise_idx)
            noise.append((noise_idx, idx, noise_cat))
        pairs.append((open_idx, idx, close_cat))

    # Rebuild the marker-free text, tracking where each pair's inner text lands.
    stripped_parts: list[str] = []
    stripped_len = 0
    occ_strip_pos: dict[int, int] = {}  # occurrence idx -> stripped offset at its site
    cursor = 0
    for idx, match in enumerate(occurrences):
        stripped_parts.append(marked[cursor : match.start()])
        stripped_len += match.start() - cursor
        occ_strip_pos[idx] = stripped_len
        if idx in consumed:
            cursor = match.end()
        else:
            stripped_parts.append(match.group(0))
            stripped_len += len(match.group(0))
            cursor = match.end()
    stripped_parts.append(marked[cursor:])
    stripped = "".join(stripped_parts)

    regions: list[_Region] = []
    for open_idx, close_idx, cat in sorted(pairs):
        start = occ_strip_pos[open_idx]
        end = occ_strip_pos[close_idx]
        regions.append(_Region(category=cat, inner=stripped[start:end], strip_start=start))
    dropped = [
        DroppedRegion(
            surface=stripped[occ_strip_pos[open_idx] : occ_strip_pos[close_idx]],
            category=cat,
            reason=DROP_INTERLEAVED,
        )
        for open_idx, close_idx, cat in noise
    ]
    return stripped, regions, dropped


_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def _align(stripped: str, original: str) -> list[tuple[int, int]]:
    """Anchors ``(stripped pos, original pos)`` where equal text starts, in order.

    Identical texts share one anchor at 0. Otherwise the texts are aligned by
    whole tokens (words and single punctuation marks; whitespace is ignored)
    and every matched token is an anchor. Both text ends close the list.
    """
    if stripped == original:
        return [(0, 0), (len(stripped), len(original))]
    a = list(_TOKEN_RE.finditer(stripped))
    b = list(_TOKEN_RE.finditer(original))
    sm = difflib.SequenceMatcher(a=[m[0] for m in a], b=[m[0] for m in b], autojunk=False)
    anchors = [
        (a[i + k].start(), b[j + k].start())
        for i, j, size in sm.get_matching_blocks()
        for k in range(size)
    ]
    return anchors + [(len(stripped), len(original))]


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

    Each balanced marked region is located in the original first through a
    monotone alignment of the marker-free output with the original (offsets
    map 1:1 when the two are identical, otherwise whole word and punctuation
    tokens are aligned), then by searching for exact occurrences of the inner
    text nearest to the aligned position. A span is only ever emitted when the
    original text matches the inner text exactly.
    """
    report = DecodeReport()
    stripped, regions, interleaved = _scan_regions(marked)
    report.dropped.extend(interleaved)

    anchors = _align(stripped, original.text)

    accepted: list[Span] = []

    def overlaps_accepted(start: int, end: int) -> bool:
        return any(s.start < end and start < s.end for s in accepted)

    for region in regions:
        if not region.inner:
            report.dropped.append(DroppedRegion("", region.category, DROP_EMPTY))
            continue
        mapped = _map_position(anchors, region.strip_start)
        end = mapped + len(region.inner)
        if original.text[mapped:end] == region.inner:
            if overlaps_accepted(mapped, end):
                report.dropped.append(
                    DroppedRegion(region.inner, region.category, DROP_OVERLAP)
                )
                continue
            accepted.append(Span(mapped, end, region.category, region.inner))
            report.anchored_exact += 1
            continue

        # Alignment missed: fall back to exact occurrences of the inner text,
        # preferring the one closest to the aligned position (earliest on ties).
        candidates: list[int] = []
        search_from = 0
        while True:
            hit = original.text.find(region.inner, search_from)
            if hit < 0:
                break
            candidates.append(hit)
            search_from = hit + 1
        usable = [
            c for c in candidates if not overlaps_accepted(c, c + len(region.inner))
        ]
        if not usable:
            reason = DROP_OVERLAP if candidates else DROP_NOT_IN_ORIGINAL
            report.dropped.append(DroppedRegion(region.inner, region.category, reason))
            continue
        best = min(usable, key=lambda c: (abs(c - mapped), c))
        accepted.append(
            Span(best, best + len(region.inner), region.category, region.inner)
        )
        report.anchored_fuzzy += 1

    report.spans = sorted(accepted)
    return report
