from __future__ import annotations

import json
import random

import pytest

import minicorpus
from deidkit.corpus import (
    Category,
    CorpusError,
    InfeasibleStratification,
    LengthMismatch,
    MalformedBIO,
    MalformedLine,
    ReconstructionMismatch,
    Span,
    TokenRecord,
    bio_to_spans,
    ingest_tscc,
    read_crapii_jsonl,
    read_documents,
    read_standoff,
    reconstruct_text,
    spans_to_standoff,
    split_corpus,
    standoff_to_spans,
    validate_spans,
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
        with pytest.raises(LengthMismatch):
            reconstruct_text(TokenRecord("x", ["a", "b"], ["O"], [True, False]))

    def test_reconstruction_mismatch_reports_offset(self):
        rec = TokenRecord("x", ["ab", "cd"], ["O", "O"], [True, False], full_text="ab xd")
        with pytest.raises(ReconstructionMismatch) as excinfo:
            reconstruct_text(rec)
        assert excinfo.value.offset == 3


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
        with pytest.raises(MalformedBIO) as excinfo:
            bio_to_spans(rec, strict=True)
        assert excinfo.value.index == 1

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
        for rec in read_crapii_jsonl(fixture_paths["corpus"]):
            text = reconstruct_text(rec)
            conversion = bio_to_spans(rec)
            validate_spans(text, conversion.spans)
            assert conversion.spans == mini_gold[rec.document_id]


def test_fixture_tokenizer_roundtrips_mini_corpus(fixture_paths):
    # reconstruct_text(tokenize(text)) is the identity on the bundled corpus.
    for rec in read_crapii_jsonl(fixture_paths["corpus"]):
        text = reconstruct_text(rec)
        tokens, trailing = minicorpus.tokenize(text)
        rebuilt = TokenRecord("x", tokens, ["O"] * len(tokens), trailing)
        assert reconstruct_text(rebuilt) == text


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
        split = split_corpus(counts, seed=11, stratify=False)
        assert len(split.base_train) == 5_672
        assert len(split.verifier_train) == 3_403
        assert len(split.test) == 13_613

    def test_partition_invariants_random(self):
        rng = random.Random(3)
        for trial in range(1000):
            counts = self.random_corpus(rng, rng.randrange(1, 40))
            split = split_corpus(counts, seed=trial, stratify=False)
            ids = set(counts)
            assert split.base_train | split.verifier_train | split.test == ids
            assert not split.base_train & split.verifier_train
            assert not split.base_train & split.test
            assert not split.verifier_train & split.test

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
        with pytest.raises(InfeasibleStratification):
            split_corpus(counts, seed=0)

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

    def test_malformed_line(self):
        with pytest.raises(MalformedLine) as excinfo:
            ingest_tscc("teacher: hello\njust text without a role", "t4")
        assert excinfo.value.lineno == 2

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


def test_standoff_roundtrip(mini_gold):
    for doc_id, spans in mini_gold.items():
        obj = spans_to_standoff(doc_id, spans)
        back_id, back = standoff_to_spans(obj)
        assert back_id == doc_id
        assert back == spans


def test_read_documents_names_the_line_and_keeps_the_error_class(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"id": "a", "text": "fine"}\n' + json.dumps({
        "document": "d", "tokens": ["hi"], "labels": ["O"],
        "trailing_whitespace": [False], "full_text": "ho",
    }) + "\n", encoding="utf-8")
    with pytest.raises(ReconstructionMismatch) as excinfo:
        read_documents(path)
    assert str(excinfo.value).startswith(f"{path}:2: document 'd'")
    assert excinfo.value.offset == 1


def test_read_documents_accepts_both_schemas(fixture_paths, tmp_path):
    docs = read_documents(fixture_paths["corpus"])
    assert any(d.id == "379" for d in docs)
    plain = tmp_path / "docs.jsonl"
    plain.write_text('{"id": "a", "text": "hello", "source": "raw"}\n', encoding="utf-8")
    assert read_documents(plain)[0].text == "hello"
