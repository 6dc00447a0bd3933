from __future__ import annotations

import difflib
import random
import time

import pytest
from hypothesis import given, strategies as st

from deidkit import codec
from deidkit.codec import (
    _TOKEN_RE,
    ALL_MARKER_STRINGS,
    DROP_EMPTY,
    DROP_INTERLEAVED,
    DROP_NOT_IN_ORIGINAL,
    DROP_OVERLAP,
    MARKERS,
    DecodeReport,
    DroppedRegion,
    decode,
    encode,
    strip_markers,
)
from deidkit.corpus import Category, CorpusError, Document, Span, validate_spans

TABLE_DOC = Document("379", "Hi John Doe. Tel: (555)555-5555", "crapii")
TABLE_SPANS = [
    Span(3, 11, Category.NAME_STUDENT, "John Doe"),
    Span(18, 31, Category.PHONE_NUM, "(555)555-5555"),
]

WORDS = (
    "the quick brown fox jumps over lazy dog project design week still "
    "topic review student draft October thanks module brief final plan"
).split()

FIRST_NAMES = "Kara Liam Noor Ravi Sofia Tomas Yuki Zane Petra Omar".split()
LAST_NAMES = "Voss Abara Lindqvist Okada Marsh Ferreira Huang Bell Novak Said".split()


def random_surface(rng: random.Random, category: Category) -> str:
    if category is Category.NAME_STUDENT:
        if rng.random() < 0.2:
            return rng.choice(FIRST_NAMES)
        return f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}"
    if category is Category.EMAIL:
        local = "".join(rng.choice("abcdefghijk") for _ in range(rng.randrange(3, 9)))
        return f"{local}@example.{rng.choice(('com', 'org', 'net'))}"
    if category is Category.PHONE_NUM:
        d = lambda n: "".join(rng.choice("0123456789") for _ in range(n))
        return rng.choice(
            (
                f"({d(3)}){d(3)}-{d(4)}",
                f"+{d(1)} {d(3)} {d(3)} {d(4)}",
                f"{d(3)}-{d(3)}-{d(4)}",
            )
        )
    slug = "".join(rng.choice("abcdefghij") for _ in range(rng.randrange(3, 9)))
    return rng.choice((f"www.{slug}.example", f"https://example.org/{slug}"))


def random_case(rng: random.Random, max_spans: int = 4) -> tuple[Document, list[Span]]:
    """A random document with realistic entity surfaces at known offsets."""
    pieces: list[str] = [rng.choice(WORDS) for _ in range(rng.randrange(3, 12))]
    entity_slots: list[tuple[int, Category]] = []  # (piece index, category)
    for _ in range(rng.randrange(0, max_spans + 1)):
        category = rng.choice(list(Category))
        index = rng.randrange(0, len(pieces) + 1)
        pieces.insert(index, random_surface(rng, category))
        entity_slots = [
            (i + 1 if i >= index else i, c) for i, c in entity_slots
        ]
        entity_slots.append((index, category))
        pieces.insert(index + 1, rng.choice(WORDS))  # keep entities separated
        entity_slots = [
            (i + 1 if i > index else i, c) for i, c in entity_slots
        ]
    text = " ".join(pieces)
    starts = []
    pos = 0
    for piece in pieces:
        starts.append(pos)
        pos += len(piece) + 1
    spans = [
        Span(starts[i], starts[i] + len(pieces[i]), category, pieces[i])
        for i, category in entity_slots
    ]
    spans.sort()
    return Document(f"r{rng.random():.12f}", text), spans


def long_case(rng: random.Random, min_words: int) -> tuple[Document, list[Span]]:
    """``random_case`` pieces joined into one document of at least ``min_words`` words."""
    texts: list[str] = []
    spans: list[Span] = []
    offset = words = 0
    while words < min_words:
        doc, piece_spans = random_case(rng)
        spans += [Span(s.start + offset, s.end + offset, s.category, s.surface) for s in piece_spans]
        texts.append(doc.text)
        offset += len(doc.text) + 1
        words += len(doc.text.split())
    return Document(f"long{min_words}", " ".join(texts)), spans


def protected_ranges(spans: list[Span]) -> list[tuple[int, int]]:
    """Marked-coordinate ranges covering open+inner+close for each span."""
    out = []
    for i, span in enumerate(sorted(spans)):
        shift = 6 * i  # each earlier span inserted two 3-char markers
        out.append((span.start + shift, span.end + shift + 6))
    return out


def perturb_marked(marked: str, spans: list[Span], rng: random.Random, rate: float = 0.05) -> str:
    """Edit (substitute/insert/delete) chars outside the protected ranges."""
    ranges = protected_ranges(spans)
    pieces: list[str] = []
    cursor = 0

    def mutate(segment: str) -> str:
        out: list[str] = []
        for ch in segment:
            if rng.random() >= rate:
                out.append(ch)
                continue
            op = rng.choice(("sub", "ins", "del"))
            if op == "sub":
                out.append(rng.choice("abcdefghijklmnopqrstuvwxyz"))
            elif op == "ins":
                out.append(ch)
                out.append(rng.choice("abcdefghijklmnopqrstuvwxyz"))
            # del: drop the char
        return "".join(out)

    for start, end in ranges:
        pieces.append(mutate(marked[cursor:start]))
        pieces.append(marked[start:end])
        cursor = end
    pieces.append(mutate(marked[cursor:]))
    return "".join(pieces)


class TestEncode:
    def test_table_example(self):
        assert (
            encode(TABLE_DOC, TABLE_SPANS)
            == "Hi @@@John Doe###. Tel: %%%(555)555-5555~~~"
        )

    def test_empty_spans_is_identity(self):
        assert encode(TABLE_DOC, []) == TABLE_DOC.text

    def test_adjacent_spans(self):
        doc = Document("x", "ab")
        spans = [
            Span(0, 1, Category.NAME_STUDENT, "a"),
            Span(1, 2, Category.EMAIL, "b"),
        ]
        marked = encode(doc, spans)
        assert marked == "@@@a###QQQb^^^"
        assert strip_markers(marked) == "ab"

    def test_overlapping_spans_rejected(self):
        doc = Document("x", "abcd")
        spans = [
            Span(0, 3, Category.NAME_STUDENT, "abc"),
            Span(2, 4, Category.EMAIL, "cd"),
        ]
        with pytest.raises(CorpusError, match="overlaps previous span"):
            encode(doc, spans)

    def test_marker_collision_skips_region_by_default(self):
        doc = Document("x", "legit @@@ art plus Bo Li")
        colliding = Span(6, 9, Category.NAME_STUDENT, "@@@")
        clean = Span(19, 24, Category.NAME_STUDENT, "Bo Li")
        marked = encode(doc, [colliding, clean])
        assert marked == "legit @@@ art plus @@@Bo Li###"

    def test_non_entity_text_preserved(self):
        rng = random.Random(2)
        for _ in range(200):
            doc, spans = random_case(rng)
            assert strip_markers(encode(doc, spans)) == doc.text


class TestStripMarkers:
    def test_single_pair(self):
        assert strip_markers("@@@John Doe###") == "John Doe"

    def test_no_markers(self):
        assert strip_markers("no markers") == "no markers"

    def test_all_marker_strings_removed(self):
        assert strip_markers("".join(ALL_MARKER_STRINGS)) == ""


class TestDecode:
    def test_roundtrip_table(self):
        report = decode(encode(TABLE_DOC, TABLE_SPANS), TABLE_DOC)
        assert report.spans == TABLE_SPANS
        assert report.dropped == []
        assert report.anchored_exact == len(TABLE_SPANS)

    def test_roundtrip_random(self):
        rng = random.Random(9)
        for _ in range(300):
            doc, spans = random_case(rng)
            report = decode(encode(doc, spans), doc)
            assert report.spans == spans
            assert report.dropped == []
            assert report.anchored_exact == len(spans)

    def test_model_rewrite_outside_markers_keeps_offsets(self):
        # The model changed "Tel:" to "Tel -" but kept the marked phone intact.
        marked = "Hi @@@John Doe###. Tel - %%%(555)555-5555~~~"
        report = decode(marked, TABLE_DOC)
        phone = [s for s in report.spans if s.category is Category.PHONE_NUM]
        assert phone == [Span(18, 31, Category.PHONE_NUM, "(555)555-5555")]

    def test_hallucinated_entity_dropped(self):
        marked = "Hi @@@Ghost Name### everyone"
        report = decode(marked, Document("x", "Hi everyone"))
        assert report.spans == []
        assert [d.reason for d in report.dropped] == [DROP_NOT_IN_ORIGINAL]
        assert report.dropped[0].surface == "Ghost Name"

    def test_never_emits_mismatching_surface(self):
        rng = random.Random(13)
        for _ in range(300):
            doc, spans = random_case(rng)
            marked = perturb_marked(encode(doc, spans), spans, rng)
            report = decode(marked, doc)
            for span in report.spans:
                assert doc.text[span.start : span.end] == span.surface

    def test_perturbation_recovery_smoke(self):
        rng = random.Random(4)
        total = recovered = 0
        for _ in range(200):
            doc, spans = random_case(rng)
            marked = perturb_marked(encode(doc, spans), spans, rng)
            report = decode(marked, doc)
            total += len(spans)
            recovered += sum(1 for s in spans if s in report.spans)
        assert total > 0
        assert recovered / total >= 0.99

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("words", [700, 2000])
    def test_drifted_document_at_essay_length(self, words, seed):
        rng = random.Random(words * 10 + seed)
        doc, spans = long_case(rng, words)
        marked = perturb_marked(encode(doc, spans), spans, rng)
        report = decode(marked, doc)
        assert set(spans) <= set(report.spans)
        for span in report.spans:
            assert doc.text[span.start : span.end] == span.surface

    @pytest.mark.parametrize("region, dropped", [
        pytest.param("", [], id="no-region"),
        pytest.param("@@@###", [DroppedRegion("", Category.NAME_STUDENT, DROP_EMPTY)],
                     id="empty-region"),
    ])
    def test_reply_that_marks_no_text_is_not_aligned(self, monkeypatch, region, dropped):
        # Only a region with inner text is mapped onto the original, so aligning
        # such a reply is wasted work.
        rng = random.Random(11)
        doc, _ = long_case(rng, 1000)
        marked = perturb_marked(doc.text, [], rng)
        middle = marked.index(" ", len(marked) // 2)
        marked = f"{marked[:middle]} {region}{marked[middle:]}"

        def no_align(stripped, original):
            raise AssertionError("a reply that marks no text was aligned")

        monkeypatch.setattr(codec, "_align", no_align)
        assert decode(marked, doc) == DecodeReport([], 0, 0, dropped)

    def test_reply_with_one_marked_region_is_aligned_once(self, monkeypatch):
        rng = random.Random(12)
        doc, spans = long_case(rng, 1000)
        marked = perturb_marked(encode(doc, spans[:1]), spans[:1], rng)
        calls = []
        align = codec._align
        monkeypatch.setattr(codec, "_align", lambda *texts: calls.append(texts) or align(*texts))
        assert decode(marked, doc).spans == spans[:1]
        assert len(calls) == 1

    def test_clean_long_document_anchors_every_span_exactly(self):
        doc, spans = long_case(random.Random(5), 5000)
        report = decode(encode(doc, spans), doc)
        assert report.spans == spans
        assert report.anchored_exact == len(spans)
        assert report.dropped == []

    def test_fuzzy_fallback_on_misaligned_region(self):
        # The alignment maps the region onto "Kara", which mismatches the
        # inner text; the exact-occurrence search must recover "Voss" at 5.
        doc = Document("x", "Kara Voss")
        report = decode("@@@Voss### Kara Voss", doc)
        assert report.spans == [Span(5, 9, Category.NAME_STUDENT, "Voss")]
        assert report.anchored_fuzzy == 1
        assert report.anchored_exact == 0

    def test_region_in_a_merged_token_keeps_its_offset(self):
        # The model dropped the space between two marked names, so "NoorNoor"
        # matches no token of the original. Each region must be placed from
        # the text before it; placing it at the next matched token ("Abara")
        # sends the first name onto the second and drops "Noor Abara".
        doc = Document("x", "see Noor Noor Abara now")
        report = decode("see @@@Noor###@@@Noor Abara### now", doc)
        assert report.spans == [
            Span(4, 8, Category.NAME_STUDENT, "Noor"),
            Span(9, 19, Category.NAME_STUDENT, "Noor Abara"),
        ]

    def test_unbalanced_markers_treated_as_literal(self):
        doc = Document("x", "price ### drop QQQ here")
        report = decode("price ### drop QQQ here", doc)
        assert report.spans == []
        assert report.dropped == []

    def test_interleaved_pairs_earliest_close_wins(self):
        # open NAME, open EMAIL, close NAME: the NAME pair is authoritative.
        doc = Document("x", "call Ada Lin now")
        marked = "call @@@Ada QQQLin### now"
        report = decode(marked, doc)
        assert [d.reason for d in report.dropped] == [DROP_INTERLEAVED]
        # The name region still resolves against the original text.
        assert report.spans == [Span(5, 12, Category.NAME_STUDENT, "Ada Lin")]

    def test_duplicate_region_dropped_as_overlap(self):
        doc = Document("x", "see Bo Li today")
        marked = "see @@@Bo Li###@@@Bo Li### today"
        report = decode(marked, doc)
        assert report.spans == [Span(4, 9, Category.NAME_STUDENT, "Bo Li")]
        assert len(report.dropped) == 1

    def test_overlapping_aligned_hit_is_dropped_not_moved(self):
        # The second region's aligned hit is the accepted "Ann" at 0; searching
        # every occurrence instead would move it onto the free "Ann" at 4.
        doc = Document("x", "Ann Ann")
        report = decode("@@@Ann###@@@Ann### Ann", doc)
        assert report.spans == [Span(0, 3, Category.NAME_STUDENT, "Ann")]
        assert (report.anchored_exact, report.anchored_fuzzy) == (1, 0)
        assert [d.reason for d in report.dropped] == [DROP_OVERLAP]

    def test_unmatched_close_stays_literal_and_trapped_open_drops_its_surface(self):
        # "~~~" closes no open PHONE_NUM, so it stays in the text; the EMAIL
        # open trapped inside the NAME pair is dropped with its surface.
        doc = Document("x", "call Ada ~~~Lin now")
        report = decode("call @@@Ada QQQ~~~Lin### now", doc)
        assert report.spans == [Span(5, 15, Category.NAME_STUDENT, "Ada ~~~Lin")]
        assert report.anchored_exact == 1
        assert report.dropped == [DroppedRegion("~~~Lin", Category.EMAIL, DROP_INTERLEAVED)]

    def test_many_unmatched_markers_decode_in_linear_time(self):
        # Each close has no pending open of its category; searching the
        # 8,000 pending opens for every close took seconds.
        started = time.process_time()
        report = decode("QQQ" * 8000 + "###" * 8000, Document("x", "x"))
        assert time.process_time() - started < 1.0
        assert report.spans == []
        assert report.dropped == []

    def test_many_marked_regions_decode_in_linear_time(self):
        # Checking every candidate against every accepted span took seconds.
        doc = Document("x", " ".join(["Ann"] * 8000))
        spans = [Span(4 * i, 4 * i + 3, Category.NAME_STUDENT, "Ann") for i in range(8000)]
        marked = encode(doc, spans)
        started = time.process_time()
        report = decode(marked, doc)
        assert time.process_time() - started < 1.0
        assert report.spans == spans
        assert report.anchored_exact == 8000

    def test_decode_is_total_on_garbage(self):
        doc = Document("x", "anything at all")
        for junk in ("", "###@@@", "@@@", "%%%~~~", "@@@@@@######"):
            report = decode(junk, doc)
            assert isinstance(report.spans, list)


# The previous _align, kept verbatim so the unique-token alignment can be checked
# against it: one SequenceMatcher over the whole token lists.
def _reference_align(stripped: str, original: str) -> list[tuple[int, int]]:
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


def test_decode_matches_the_reference_alignment(monkeypatch):
    """Same spans, drops and anchoring counters as the whole-text alignment.

    The reference is slow on long drifted documents (about 0.05 s per
    thousand words on a 2-core host), so the set holds few of them.
    """
    kinds = dict.fromkeys(("drifted long", "fuzzy"), 0)
    for trial in range(1200):
        rng = random.Random(trial)
        long = rng.random() < 0.02
        doc, spans = long_case(rng, rng.randrange(700, 2301)) if long else random_case(rng)
        marked = encode(doc, spans)
        drifted = rng.random() < 0.5
        if drifted:
            marked = perturb_marked(marked, spans, rng)
        report = decode(marked, doc)
        with monkeypatch.context() as m:
            m.setattr(codec, "_align", _reference_align)
            assert decode(marked, doc) == report, trial
        kinds["drifted long"] += long and drifted
        kinds["fuzzy"] += report.anchored_fuzzy > 0
    assert all(kinds.values()), kinds


def test_drifted_5000_word_document_decodes_within_budget():
    # The whole-text SequenceMatcher took 0.8-1.7 s of process time on this
    # document; aligning only the gaps between unique tokens takes under 0.1 s.
    rng = random.Random(8)
    doc, spans = long_case(rng, 5000)
    marked = perturb_marked(encode(doc, spans), spans, rng)
    started = time.process_time()
    report = decode(marked, doc)
    assert time.process_time() - started < 0.5
    assert set(spans) <= set(report.spans)


@given(st.integers(0, 2**32 - 1))
def test_roundtrip_property(seed):
    rng = random.Random(seed)
    doc, spans = random_case(rng)
    report = decode(encode(doc, spans), doc)
    assert report.spans == spans
    assert report.dropped == []


# Replies built from the eight markers, lone marker characters, names, marked names,
# spaces, newlines and dots.
_MARKER_SOUP = st.lists(
    st.sampled_from([
        *ALL_MARKER_STRINGS, "@", "#", "Ann", "Lee", "Bo Ray", " ", "\n", ".",
        "@@@Ann###", "@@@Bo Ray###", "QQQLee^^^",
    ]),
    max_size=40,
).map("".join)


@given(_MARKER_SOUP, st.one_of(st.none(), _MARKER_SOUP))
def test_any_marker_soup_decodes_to_spans_that_fit_the_text(marked, text):
    """Whatever the reply and the document, every decoded span passes validate_spans."""
    text = strip_markers(marked) if text is None else text
    validate_spans(text, decode(marked, Document("x", text)).spans)


def test_markers_are_pairwise_distinct_and_not_substrings():
    for a in ALL_MARKER_STRINGS:
        for b in ALL_MARKER_STRINGS:
            if a is not b:
                assert a not in b
    assert len(set(ALL_MARKER_STRINGS)) == 8
    assert MARKERS[Category.NAME_STUDENT] == ("@@@", "###")
    assert MARKERS[Category.URL_PERSONAL] == ("&&&", "$$$")
    assert MARKERS[Category.EMAIL] == ("QQQ", "^^^")
    assert MARKERS[Category.PHONE_NUM] == ("%%%", "~~~")
