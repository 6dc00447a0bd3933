from __future__ import annotations

import csv
import json
import random
import re
import tracemalloc
from collections import Counter
from typing import Mapping

import pytest

import minicorpus
from deidkit.corpus import (
    LABEL_ALIASES,
    BioConversion,
    Category,
    CorpusError,
    CorpusSplit,
    Span,
    TokenRecord,
    _malformed_bio,
    bio_to_spans,
    ingest_tscc,
    read_crapii_jsonl,
    read_csv,
    read_documents,
    read_spans,
    read_standoff,
    reconstruct_text,
    split_corpus,
    validate_spans,
    write_json,
    write_standoff,
)

TABLE_RECORD = TokenRecord(
    document_id="379",
    tokens=["Hi", "John", "Doe", ".", "Tel", ":", "(555)555-5555"],
    labels=["O", "B-NAME", "I-NAME", "O", "O", "O", "B-PHONE_NUM"],
    trailing_whitespace=[True, True, False, True, False, True, False],
    full_text="Hi John Doe. Tel: (555)555-5555",
)


def naive_join(tokens: list[str], trailing: list[bool]) -> str:
    # Independent oracle for reconstruction: the plainest possible loop.
    out = ""
    for tok, ws in zip(tokens, trailing):
        out += tok
        if ws:
            out += " "
    return out


def oracle_spans(rec: TokenRecord) -> list[tuple[int, int, str]]:
    """Offset oracle: walk tokens, tracking offsets, collecting B/I runs."""
    pos = 0
    runs: list[tuple[int, int, str]] = []
    open_run: tuple[int, int, str] | None = None
    for tok, label, ws in zip(rec.tokens, rec.labels, rec.trailing_whitespace):
        ts, te = pos, pos + len(tok)
        pos = te + (1 if ws else 0)
        if label.startswith("B-"):
            if open_run:
                runs.append(open_run)
            open_run = (ts, te, label[2:])
        elif label.startswith("I-") and open_run and open_run[2] == label[2:]:
            open_run = (open_run[0], te, open_run[2])
        else:
            if open_run:
                runs.append(open_run)
            open_run = None
    if open_run:
        runs.append(open_run)
    return runs


class TestReconstructText:
    def test_table_record(self):
        assert reconstruct_text(TABLE_RECORD) == "Hi John Doe. Tel: (555)555-5555"

    def test_empty(self):
        assert reconstruct_text(TokenRecord("x", [], [], [])) == ""

    def test_trailing_space_retained(self):
        rec = TokenRecord("x", ["a"], ["O"], [True])
        assert reconstruct_text(rec) == "a "

    def test_against_naive_join_oracle(self):
        rng = random.Random(42)
        alphabet = "abcXYZ09.,()@-"
        for _ in range(1000):
            n = rng.randrange(0, 12)
            tokens = [
                "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 6)))
                for _ in range(n)
            ]
            trailing = [rng.random() < 0.5 for _ in range(n)]
            rec = TokenRecord("x", tokens, ["O"] * n, trailing)
            assert reconstruct_text(rec) == naive_join(tokens, trailing)

    def test_length_mismatch(self):
        with pytest.raises(CorpusError, match="tokens=2 labels=1"):
            reconstruct_text(TokenRecord("x", ["a", "b"], ["O"], [True, False]))

    def test_reconstruction_mismatch_reports_offset(self):
        rec = TokenRecord("x", ["ab", "cd"], ["O", "O"], [True, False], full_text="ab xd")
        with pytest.raises(CorpusError, match="at offset 3$"):
            reconstruct_text(rec)


# The previous bio_to_spans, kept verbatim (with its two helpers) so the current
# one can be checked against it on random records.
def _reference_bio_to_spans(rec: TokenRecord, strict: bool = False) -> BioConversion:
    """Convert a BIO-labeled record into character-offset spans.

    One span per maximal B/I run of an in-scope category; the span surface
    excludes the trailing whitespace of its final token. Out-of-scope
    categories are dropped with a counter. An I tag continuing nothing is an
    error in strict mode and is promoted to B (and counted) otherwise.
    """
    text = reconstruct_text(rec)  # validates lengths and full_text agreement
    result = BioConversion(text)

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
                _reference_emit(result, text, open_cat, open_start, open_end)
                open_cat = None
            continue

        if len(label) < 3 or label[1] != "-" or label[0] not in "BI":
            raise _malformed_bio(i, label)
        prefix, raw_cat = label[0], label[2:]
        cat = _reference_canonical_category(raw_cat)

        if prefix == "I" and open_cat == cat:
            open_end = tok_end
            continue

        if prefix == "I":
            # I after O or after a different category.
            if strict:
                raise _malformed_bio(i, label)
            result.repaired_continuations += 1
            prefix = "B"

        if open_cat is not None:
            _reference_emit(result, text, open_cat, open_start, open_end)
        open_cat = cat
        open_start = tok_start
        open_end = tok_end

    if open_cat is not None:
        _reference_emit(result, text, open_cat, open_start, open_end)

    return result


def _reference_canonical_category(tag: str) -> str:
    return LABEL_ALIASES.get(tag, tag)


def _reference_emit(result: BioConversion, text: str, cat: str, start: int, end: int) -> None:
    if cat in Category.__members__:
        result.spans.append(Span(start, end, Category(cat), text[start:end]))
    else:
        result.dropped_categories[cat] += 1


class TestBioToSpans:
    def test_table_record_offsets(self):
        expected = oracle_spans(TABLE_RECORD)
        assert expected == [(3, 11, "NAME"), (18, 31, "PHONE_NUM")]
        got = bio_to_spans(TABLE_RECORD).spans
        assert got == [
            Span(3, 11, Category.NAME_STUDENT, "John Doe"),
            Span(18, 31, Category.PHONE_NUM, "(555)555-5555"),
        ]

    def test_all_outside(self):
        rec = TokenRecord("x", ["a", "b"], ["O", "O"], [True, False])
        assert bio_to_spans(rec).spans == []

    def test_single_email_token_at_start(self):
        rec = TokenRecord("x", ["a@b.co", "ok"], ["B-EMAIL", "O"], [True, False])
        assert bio_to_spans(rec).spans == [Span(0, 6, Category.EMAIL, "a@b.co")]

    def test_lenient_promotes_bare_continuation(self):
        rec = TokenRecord("x", ["a", "b"], ["O", "I-EMAIL"], [True, False])
        conversion = bio_to_spans(rec)
        assert conversion.repaired_continuations == 1
        assert conversion.spans == [Span(2, 3, Category.EMAIL, "b")]

    def test_strict_raises_on_bare_continuation(self):
        rec = TokenRecord("x", ["a", "b"], ["O", "I-EMAIL"], [True, False])
        with pytest.raises(CorpusError, match="at token index 1 "):
            bio_to_spans(rec, strict=True)

    def test_category_switch_closes_run(self):
        rec = TokenRecord(
            "x", ["a", "b"], ["B-EMAIL", "I-PHONE_NUM"], [True, False]
        )
        conversion = bio_to_spans(rec)
        assert [s.category for s in conversion.spans] == [
            Category.EMAIL,
            Category.PHONE_NUM,
        ]
        assert conversion.repaired_continuations == 1

    def test_out_of_scope_dropped_with_counter(self):
        rec = TokenRecord(
            "x",
            ["u1", "name", "str"],
            ["B-USERNAME", "B-NAME_STUDENT", "B-STREET_ADDRESS"],
            [True, True, False],
        )
        conversion = bio_to_spans(rec)
        assert len(conversion.spans) == 1
        assert conversion.dropped_categories == {"USERNAME": 1, "STREET_ADDRESS": 1}

    def test_dropped_plus_kept_equals_total_runs(self):
        rng = random.Random(7)
        tags = ["O", "B-NAME", "I-NAME", "B-EMAIL", "B-ID_NUM", "I-ID_NUM", "B-URL_PERSONAL"]
        for _ in range(300):
            n = rng.randrange(1, 15)
            tokens = ["t" * rng.randrange(1, 4) for _ in range(n)]
            labels = [rng.choice(tags) for _ in range(n)]
            rec = TokenRecord("x", tokens, labels, [True] * n)
            conversion = bio_to_spans(rec)
            b_runs = oracle_spans(rec)
            # Every B-run is kept or dropped; promotions add exactly one run each.
            total_runs = len(conversion.spans) + sum(conversion.dropped_categories.values())
            assert total_runs == len(b_runs) + conversion.repaired_continuations
            # Spans remain sorted, non-overlapping, surface-consistent.
            validate_spans(reconstruct_text(rec), conversion.spans)

    def test_mini_corpus_spans_surface_consistent(self, fixture_paths, mini_gold):
        for rec, _ in read_crapii_jsonl(fixture_paths["corpus"]):
            text = reconstruct_text(rec)
            conversion = bio_to_spans(rec)
            validate_spans(text, conversion.spans)
            assert conversion.spans == mini_gold[rec.document_id]

    def test_matches_the_reference_conversion(self):
        """Same conversion, or the same error, as the previous implementation."""
        in_scope = ["NAME", "NAME_STUDENT", "EMAIL", "URL", "URL_PERSONAL", "PHONE", "PHONE_NUM"]
        tags = in_scope + ["ID_NUM", "USERNAME", "-"]  # the last three are out of scope
        malformed = ["B", "I-", "B-", "X-NAME", "b-NAME", "BNAME", "O-EMAIL"]
        kinds: Counter = Counter()
        for trial in range(5000):
            rng = random.Random(trial)
            n = rng.randrange(0, 30)
            tokens = ["".join(rng.choices("ab é.", k=rng.randrange(0, 4))) for _ in range(n)]
            labels = [
                rng.choice(malformed) if rng.random() < 0.01
                else rng.choice(["O", ""]) if rng.random() < 0.4
                else rng.choice("BI") + "-" + rng.choice(tags)
                for _ in range(n)
            ]
            trailing = [rng.random() < 0.6 for _ in range(n)]
            full_text = rng.choice([None, naive_join(tokens, trailing)])
            rec = TokenRecord("x", tokens, labels, trailing, full_text)
            strict = rng.random() < 0.5

            def outcome(convert) -> object:
                try:
                    result = convert(rec, strict)
                except CorpusError as exc:
                    return str(exc)
                return result, list(result.dropped_categories.items())

            expected = outcome(_reference_bio_to_spans)
            assert outcome(bio_to_spans) == expected, trial
            if isinstance(expected, str):
                bad = labels[int(re.search(r"at token index (\d+)", expected).group(1))]
                kinds["malformed label" if bad in malformed else "strict continuation"] += 1
            else:
                kinds["repaired continuation"] += expected[0].repaired_continuations > 0
                kinds["dropped category"] += bool(expected[0].dropped_categories)
                kinds["kept span"] += bool(expected[0].spans)
        assert all(kinds[k] for k in (
            "malformed label", "strict continuation", "repaired continuation",
            "dropped category", "kept span",
        )), kinds


def test_fixture_tokenizer_roundtrips_mini_corpus(fixture_paths):
    # reconstruct_text(tokenize(text)) is the identity on the bundled corpus.
    for rec, _ in read_crapii_jsonl(fixture_paths["corpus"]):
        text = reconstruct_text(rec)
        tokens, trailing = minicorpus.tokenize(text)
        rebuilt = TokenRecord("x", tokens, ["O"] * len(tokens), trailing)
        assert reconstruct_text(rebuilt) == text


# The previous split_corpus, kept verbatim (stratify defaults to True) so the
# current one can be checked against it on random corpora.
def _reference_split_corpus(
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
    impossible and raises CorpusError.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise CorpusError(f"ratios {ratios} do not sum to 1")

    counts_by_doc: dict[str, dict[str, int]] = {
        str(doc_id): {str(k): int(v) for k, v in counts.items()}
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
                raise CorpusError(
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
                    raise CorpusError(
                        f"split {split_idx} is full before category {cat} could be placed"
                    )
                picked = next((d for d in carriers[cat] if d not in assigned), None)
                if picked is None:
                    raise CorpusError(
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


class TestSplitCorpus:
    @staticmethod
    def random_corpus(rng: random.Random, n_docs: int) -> dict[str, dict[str, int]]:
        cats = [c.value for c in Category]
        return {
            f"d{i}": {
                c: rng.randrange(0, 3)
                for c in rng.sample(cats, rng.randrange(0, len(cats) + 1))
            }
            for i in range(n_docs)
        }

    def test_paper_scale_sizes(self):
        counts = {f"d{i}": {} for i in range(22_688)}
        split = split_corpus(counts, seed=11)
        assert len(split.base_train) == 5_672
        assert len(split.verifier_train) == 3_403
        assert len(split.test) == 13_613

    def test_partition_invariants_random(self):
        rng = random.Random(3)
        ran = 0
        for trial in range(1000):
            counts = self.random_corpus(rng, rng.randrange(1, 40))
            try:
                split = split_corpus(counts, seed=trial)
            except CorpusError:
                continue  # no stratified split exists for this corpus
            ran += 1
            ids = set(counts)
            assert split.base_train | split.verifier_train | split.test == ids
            assert not split.base_train & split.verifier_train
            assert not split.base_train & split.test
            assert not split.verifier_train & split.test
        assert ran >= 100

    def test_same_seed_is_byte_identical(self):
        rng = random.Random(5)
        counts = self.random_corpus(rng, 200)
        a = split_corpus(counts, seed=99)
        b = split_corpus(counts, seed=99)
        assert json.dumps(a.as_dict()) == json.dumps(b.as_dict())

    def test_forced_three_way_partition(self):
        counts = {
            "a": {"NAME_STUDENT": 1},
            "b": {"EMAIL": 1},
            "c": {"PHONE_NUM": 1},
        }
        split = split_corpus(counts, ratios=(1 / 3, 1 / 3, 1 / 3), seed=0)
        assert len(split.base_train) == len(split.verifier_train) == len(split.test) == 1

    def test_stratification_covers_rare_category(self):
        counts = {f"d{i}": {} for i in range(60)}
        for i in (3, 17, 41):  # three carriers, one per split required
            counts[f"d{i}"] = {"PHONE_NUM": 5}
        split = split_corpus(counts, seed=4)
        for group in (split.base_train, split.verifier_train, split.test):
            assert any(counts[d].get("PHONE_NUM", 0) for d in group)

    def test_infeasible_when_carriers_too_few(self):
        counts = {f"d{i}": {} for i in range(30)}
        counts["d0"] = {"EMAIL": 4}
        counts["d1"] = {"EMAIL": 2}
        with pytest.raises(CorpusError, match="in only 2 documents"):
            split_corpus(counts, seed=0)

    def test_matches_the_reference_split(self):
        """Same split, or the same error, as the previous implementation."""
        ratio_choices = [
            (0.25, 0.15, 0.60), (1 / 3, 1 / 3, 1 / 3), (0.1, 0.1, 0.8), (0.6, 0.3, 0.1),
            (0.05, 0.05, 0.9), (0.9, 0.9, -0.8), (0.5, 0.4, 0.2),
        ]
        messages = (
            "do not sum to 1", "negative split sizes", "cannot cover 3 splits",
            "is full before", "no unassigned document",
        )
        outcomes: Counter = Counter()
        for trial in range(3000):
            rng = random.Random(trial)
            # A few categories on a few shared carriers make every infeasible case likely.
            counts: dict[str, dict[str, int]] = {f"d{i}": {} for i in range(rng.randrange(0, 80))}
            carriers = rng.sample(sorted(counts), min(len(counts), rng.randrange(2, 8)))
            for k in range(rng.randrange(0, 6)):
                for doc_id in rng.sample(carriers, min(len(carriers), rng.choice([2, 3, 3, 4]))):
                    counts[doc_id][f"c{k}"] = rng.randrange(1, 3)
            ratios = rng.choice(ratio_choices)

            def outcome(split) -> object:
                try:
                    return split(counts, ratios=ratios, seed=trial).as_dict()
                except CorpusError as exc:
                    return str(exc)

            expected = outcome(_reference_split_corpus)
            assert outcome(split_corpus) == expected, trial
            if isinstance(expected, str):
                outcomes[next(m for m in messages if m in expected)] += 1
        assert set(outcomes) == set(messages), outcomes

    def test_bad_ratios_rejected(self):
        with pytest.raises(CorpusError):
            split_corpus({"a": {}}, ratios=(0.5, 0.4, 0.2))


class TestIngestTscc:
    def test_name_kind_placeholder(self):
        doc, spans = ingest_tscc("teacher: Hi there 〈STUDENT〉, all OK?", "t1")
        assert doc.text == "teacher: Hi there 〈STUDENT〉, all OK?"
        assert len(spans) == 1
        span = spans[0]
        assert span.surface == "〈STUDENT〉"
        assert span.category.name == "STUDENT"
        assert span.category.name_kind
        assert doc.text[span.start : span.end] == span.surface

    def test_line_without_placeholder(self):
        _, spans = ingest_tscc("teacher: welcome back everyone", "t2")
        assert spans == []

    def test_non_name_placeholder(self):
        _, spans = ingest_tscc(
            "student: my 〈INSTAGRAM ACCOUNT〉 is private", "t3"
        )
        assert len(spans) == 1
        assert not spans[0].category.name_kind

    def test_blank_lines_are_skipped(self):
        doc, spans = ingest_tscc("teacher: hi 〈STUDENT〉\n\n   \nstudent: hello\n", "t5")
        assert doc.text == "teacher: hi 〈STUDENT〉\nstudent: hello"
        assert [s.surface for s in spans] == ["〈STUDENT〉"]

    @pytest.mark.parametrize("inner", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_only_a_newline_ends_a_line(self, inner):
        # str.splitlines would end the line here too, and fail on " student: ..." or make it a turn.
        doc, spans = ingest_tscc(f"teacher: hi{inner} student: 〈STUDENT〉", "t6")
        assert doc.text == f"teacher: hi{inner} student: 〈STUDENT〉"
        assert [s.surface for s in spans] == ["〈STUDENT〉"]

    def test_crlf_and_cr_end_lines(self):
        doc, _ = ingest_tscc("teacher: hi\r\nstudent: 〈STUDENT〉\rteacher: ok\r\n", "t7")
        assert doc.text == "teacher: hi\nstudent: 〈STUDENT〉\nteacher: ok"

    def test_malformed_line(self):
        with pytest.raises(CorpusError, match="^line 2 "):
            ingest_tscc("teacher: hello\njust text without a role", "t4")

    def test_sample_transcript(self, fixture_paths):
        doc, spans = ingest_tscc(
            fixture_paths["tscc"].read_text(encoding="utf-8"), "tscc-1"
        )
        assert doc.source == "tscc"
        assert [s.category.name for s in spans] == [
            "STUDENT",
            "TEACHER",
            "INSTAGRAM ACCOUNT",
        ]
        assert [s.category.name_kind for s in spans] == [True, True, False]


def test_standoff_roundtrip(mini_gold, tmp_path):
    path = tmp_path / "gold.json"
    write_standoff(path, mini_gold)
    assert read_standoff(path) == mini_gold


def test_placeholder_span_file_roundtrip(fixture_paths, tmp_path):
    doc, spans = ingest_tscc(fixture_paths["tscc"].read_text(encoding="utf-8"), "tscc-1")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    write_standoff(first, {doc.id: spans})
    back = read_spans(first)
    assert back == {doc.id: spans}
    write_standoff(second, back)
    assert second.read_bytes() == first.read_bytes()


def test_read_documents_names_the_line_and_keeps_the_error_class(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"id": "a", "text": "fine"}\n' + json.dumps({
        "document": "d", "tokens": ["hi"], "labels": ["O"],
        "trailing_whitespace": [False], "full_text": "ho",
    }) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as excinfo:
        read_documents(path)
    assert str(excinfo.value).startswith(f"{path}:2: document 'd'")
    assert str(excinfo.value).endswith("at offset 1")


def test_read_documents_skips_blank_lines_and_counts_them(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('\n{"id": "a", "text": "x"}\n  \n{"id": "a", "text": "y"}\n', encoding="utf-8")
    with pytest.raises(CorpusError, match=r":4: document 'a' is listed twice"):
        read_documents(path)
    path.write_text('\n{"id": "a", "text": "x"}\n  \n{"id": "b", "text": "y"}\n', encoding="utf-8")
    assert [d.text for d in read_documents(path).values()] == ["x", "y"]


def test_read_documents_accepts_both_schemas(fixture_paths, tmp_path):
    docs = read_documents(fixture_paths["corpus"])
    assert "379" in docs
    plain = tmp_path / "docs.jsonl"
    plain.write_text('{"id": "a", "text": "hello", "source": "raw"}\n', encoding="utf-8")
    assert read_documents(plain)["a"].text == "hello"


def test_integer_document_ids_read_as_strings(tmp_path):
    # The public corpus writes its ids as integers.
    docs, records, spans = tmp_path / "docs.jsonl", tmp_path / "records.jsonl", tmp_path / "spans.json"
    docs.write_text('{"id": 7, "text": "hi"}\n', encoding="utf-8")
    records.write_text(json.dumps({
        "document": 8, "tokens": ["hi"], "labels": ["O"], "trailing_whitespace": [False],
    }) + "\n", encoding="utf-8")
    spans.write_text('[{"document": 7, "spans": []}]', encoding="utf-8")
    assert list(read_documents(docs)) == ["7"]
    assert [rec.document_id for rec, _ in read_crapii_jsonl(records)] == ["8"]
    assert read_spans(spans, read_documents(docs)) == {"7": []}


def test_write_json_writes_the_bytes_of_one_dumps(tmp_path):
    payload = {"z": [1, 2.5, None, True], "é": {"b": "naïve — 名前", "a": []}, "m": {"k": [{"x": "y"}]}}
    write_json(tmp_path / "out.json", payload)
    expected = json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "out.json").read_bytes() == expected.encode("utf-8")


def test_write_json_streams_instead_of_building_the_text(tmp_path):
    # A span file's shape: a list of per-document entries.
    entry = {"start": 3, "end": 12, "text": "Ana María", "category": "NAME_STUDENT"}
    payload = [{"document": f"doc{i}", "spans": [entry] * 4} for i in range(5_000)]
    tracemalloc.start()
    try:
        write_json(tmp_path / "big.json", payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "big.json").stat().st_size
    assert size > 2_000_000
    assert peak < size / 10, (peak, size)


def _dict_reader_rows(path, columns, optional=()):
    """The rows ``csv.DictReader`` gives, as tuples: the reference for ``read_csv``."""
    with open(path, encoding="utf-8", newline="") as handle:
        return [
            tuple([row[c] for c in columns] + [row.get(c) or "" for c in optional])
            for row in csv.DictReader(handle, restval="")
        ]


@pytest.mark.parametrize("content, columns, optional", [
    pytest.param("name,extra,kind,gender,culture\nAnn,x,first,Female,Africa\n"
                 "Bob,y,last,Male,Asia,surplus,fields\n",
                 ("gender", "culture", "kind", "name"), (), id="reordered-header-extra-columns"),
    pytest.param("gender,culture,kind,name\n\nFemale,Africa\n\n\nMale,Asia,last,Lee\nMale\n",
                 ("gender", "culture", "kind", "name"), (), id="short-rows-and-blank-lines"),
    pytest.param("name,kind,name\nAnn,first,Bob\nCid,last\n", ("kind", "name"), (),
                 id="repeated-header-name-reads-its-last-field"),
    pytest.param("first_name,gender\nAlex,Female,3\nKim,Male\n", ("first_name", "gender"),
                 ("count",), id="optional-count-absent"),
    pytest.param("first_name,gender,count\nAlex,Female,\nAlex,Male\nKim,Female,2\n",
                 ("first_name", "gender"), ("count",), id="optional-count-cell-empty-or-short"),
    pytest.param('gender,kind\n"Fe\nmale","first, ""x"""\n', ("gender", "kind"), (),
                 id="quoted-fields"),
    pytest.param("kind,name\nfirst,Ann\nlast\n\nlast,Lee,x\n", ("name",), (), id="one-column"),
])
def test_read_csv_reads_what_dict_reader_reads(tmp_path, content, columns, optional):
    path = tmp_path / "table.csv"
    path.write_text(content, encoding="utf-8")
    expected = _dict_reader_rows(path, columns, optional)
    assert expected  # each case has rows to read
    assert list(read_csv(path, columns, optional)) == expected


@pytest.mark.parametrize("content", ["first_name,count\nAmina,3\n", "", "\nfirst_name,gender\n"])
def test_read_csv_names_the_missing_columns(tmp_path, content):
    path = tmp_path / "table.csv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(CorpusError) as excinfo:
        list(read_csv(path, ("first_name", "gender"), ("count",)))
    missing = [c for c in ("first_name", "gender") if c not in content.split("\n")[0].split(",")]
    assert str(excinfo.value) == f"{path}: missing column(s) {missing}"


def test_read_csv_names_the_file_and_line_the_csv_module_rejects(tmp_path):
    path = tmp_path / "pools.csv"
    big = "A" * (csv.field_size_limit() + 1)
    path.write_text(f"gender,culture,kind,name\nFemale,Africa,first,Ann\nFemale,Africa,first,{big}\n",
                    encoding="utf-8")
    with pytest.raises(CorpusError) as excinfo:
        list(read_csv(path, ("gender", "culture", "kind", "name")))
    assert str(excinfo.value) == (
        f"{path}:3: field larger than field limit ({csv.field_size_limit()})"
    )
