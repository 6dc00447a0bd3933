from __future__ import annotations

import json
import random

import pytest

from deidkit.corpus import Category, Document, Span
from deidkit.detect import rule_detect
from deidkit.hips import load_name_pools
from deidkit.mockllm import MockLlm
from deidkit.verify import (
    MAX_COT_ATTEMPTS,
    USER_TEMPLATE_WITH_COT,
    USER_TEMPLATE_WITHOUT_COT,
    VerifierExample,
    VerifierVariant,
    build_verifier_dataset,
    build_verifier_messages,
    extract_context,
    parse_verdict,
    verify_spans,
    write_verifier_training_file,
)

NEWTON_DOC = Document("newton", "The Newton method is used for optimization")
NEWTON_SPAN = Span(4, 10, Category.NAME_STUDENT, "Newton")


def const_client(scripted_client, answer: str):
    return scripted_client(lambda messages: answer)


class TestExtractContext:
    def test_clips_at_document_start(self):
        doc = Document("x", "Ann wrote this")
        span = Span(0, 3, Category.NAME_STUDENT, "Ann")
        context = extract_context(doc, span)
        assert context == doc.text

    def test_full_sentence_when_window_covers_it(self):
        context = extract_context(NEWTON_DOC, NEWTON_SPAN)
        assert context == "The Newton method is used for optimization"

    def test_window_bounds(self):
        # 150 characters each side: the lowercase runs are in, the uppercase ones out.
        doc = Document("w", "L" * 50 + "l" * 150 + "Newton" + "r" * 150 + "R" * 50)
        span = Span(200, 206, Category.NAME_STUDENT, "Newton")
        assert extract_context(doc, span) == "l" * 150 + "Newton" + "r" * 150


class TestParseVerdict:
    @pytest.mark.parametrize("completion,expected", [
        ("T", "T"),
        ("F", "F"),
        ("t", "T"),
        (" f ", "F"),
        ("I believe the answer is T", "T"),
        ("step one... step two... F.", "F"),
        ("it's 'T'", "T"),
        ("maybe", None),
        ("", None),
        ("TF", None),
    ])
    def test_cases(self, completion, expected):
        assert parse_verdict(completion) == expected


class TestVerifierMessages:
    def test_without_cot_wording(self):
        messages = build_verifier_messages("Newton", "some context", VerifierVariant.WITHOUT_COT)
        assert messages[1]["content"] == USER_TEMPLATE_WITHOUT_COT.format(
            entity="Newton", context="some context"
        )
        assert "only output T or F" in messages[1]["content"]

    def test_with_cot_wording(self):
        messages = build_verifier_messages("Newton", "some context", VerifierVariant.WITH_COT)
        assert messages[1]["content"] == USER_TEMPLATE_WITH_COT.format(
            entity="Newton", context="some context"
        )
        assert "step-by-step" in messages[1]["content"]

    @pytest.mark.parametrize("variant", list(VerifierVariant))
    @pytest.mark.parametrize("mode,verdict", [("echo-gold", "T"), ("deny-all", "F")])
    def test_mock_endpoint_answers_both_variants(self, variant, mode, verdict):
        # The mock tells verification from detection requests by the prompt head.
        messages = build_verifier_messages("Newton", "some context", variant)
        body = {"messages": messages}
        assert MockLlm(mode, {}).respond(body) == verdict


class TestVerifySpans:
    def test_all_true_is_identity(self, mini_docs, mini_gold, scripted_client):
        client = const_client(scripted_client, "T")
        for doc_id, doc in mini_docs.items():
            spans = mini_gold[doc_id]
            assert verify_spans(doc, spans, client, VerifierVariant.WITHOUT_COT) == spans

    def test_all_false_empties(self, mini_docs, mini_gold, scripted_client):
        client = const_client(scripted_client, "F")
        for doc_id, doc in mini_docs.items():
            assert verify_spans(doc, mini_gold[doc_id], client, VerifierVariant.WITHOUT_COT) == []

    def test_unparseable_asymmetry(self, scripted_client):
        client = const_client(scripted_client, "cannot decide")
        kept_cot = verify_spans(NEWTON_DOC, [NEWTON_SPAN], client, VerifierVariant.WITH_COT)
        kept_bare = verify_spans(NEWTON_DOC, [NEWTON_SPAN], client, VerifierVariant.WITHOUT_COT)
        assert kept_cot == [NEWTON_SPAN]  # reasoning variant retains
        assert kept_bare == []  # bare variant drops

    def test_output_is_ordered_subset(self, mini_docs, mini_gold, scripted_client):
        rng = random.Random(5)
        client = scripted_client(lambda messages: rng.choice(["T", "F", "huh"]))
        for doc_id, doc in mini_docs.items():
            spans = mini_gold[doc_id]
            kept = verify_spans(doc, spans, client, VerifierVariant.WITHOUT_COT)
            assert [s for s in spans if s in kept] == kept

    def test_gold_keyed_oracle_removes_fps_keeps_tps(
        self, fixture_paths, mini_docs, mini_gold, scripted_client
    ):
        # Detect with the recall-biased rules, then verify with an oracle that
        # answers from gold membership: precision becomes 1.0, recall holds.
        pools = load_name_pools(fixture_paths["pools"])
        gold_surfaces = {
            doc_id: {s.surface for s in spans} for doc_id, spans in mini_gold.items()
        }

        for doc_id, doc in mini_docs.items():
            def oracle(messages, _gold=gold_surfaces[doc_id]):
                content = messages[-1]["content"]
                entity = content.split("Determine if ", 1)[1].split(
                    " is a privately identifiable information", 1
                )[0]
                return "T" if entity in _gold else "F"

            client = scripted_client(oracle)
            detected = rule_detect(doc, pools=pools)
            kept = verify_spans(doc, detected, client, VerifierVariant.WITHOUT_COT)
            gold_keys = {(s.start, s.end, s.category) for s in mini_gold[doc_id]}
            kept_keys = {(s.start, s.end, s.category) for s in kept}
            detected_keys = {(s.start, s.end, s.category) for s in detected}
            assert kept_keys <= gold_keys  # no false positive survives
            assert kept_keys == detected_keys & gold_keys  # no true positive lost


class TestBuildVerifierDataset:
    def test_labels_follow_gold_membership(self, mini_docs, mini_gold):
        detections = {
            "newton": [NEWTON_SPAN],
            "379": list(mini_gold["379"]),
        }
        examples = build_verifier_dataset(
            detections, mini_gold, mini_docs, VerifierVariant.WITHOUT_COT
        )
        by_entity = {e.entity: e.label for e in examples}
        assert by_entity["Newton"] == "F"
        assert by_entity["John Doe"] == "T"
        assert len(examples) == 3

    def test_counts_partition_detections(self, mini_docs, mini_gold):
        detections = {"379": list(mini_gold["379"]) + [Span(0, 2, Category.EMAIL, "Hi")]}
        examples = build_verifier_dataset(
            detections, mini_gold, mini_docs, VerifierVariant.WITHOUT_COT
        )
        t = sum(1 for e in examples if e.label == "T")
        f = sum(1 for e in examples if e.label == "F")
        assert t + f == len(examples) == 3
        gold_keys = {(s.start, s.end) for s in mini_gold["379"]}
        for example in examples:
            if example.label == "F":
                start = example.context.index(example.entity)
                assert (start, start + len(example.entity)) not in gold_keys

    def test_cot_reasoning_must_end_with_gold_letter(self, mini_docs, mini_gold, scripted_client):
        client = scripted_client(lambda m: "this is clearly a name so T")
        examples = build_verifier_dataset(
            {"379": mini_gold["379"]},
            mini_gold,
            mini_docs,
            VerifierVariant.WITH_COT,
            client=client,
        )
        assert all(e.label == "T" and not e.forced_default for e in examples)
        assert all(e.attempts == 1 for e in examples)
        assert len(client.calls) == len(examples)

    def test_always_wrong_cot_defaults_to_t_after_six(self, mini_docs, mini_gold, scripted_client):
        # Gold label for these detections is T; the mock always concludes F.
        client = scripted_client(lambda m: "reasoning that lands on F")
        examples = build_verifier_dataset(
            {"379": mini_gold["379"]},
            mini_gold,
            mini_docs,
            VerifierVariant.WITH_COT,
            client=client,
        )
        assert all(e.label == "T" for e in examples)
        assert all(e.forced_default for e in examples)
        assert all(e.attempts == MAX_COT_ATTEMPTS for e in examples)
        assert len(client.calls) == MAX_COT_ATTEMPTS * len(examples)

    def test_cot_variant_requires_client(self, mini_docs, mini_gold):
        with pytest.raises(ValueError):
            build_verifier_dataset({}, mini_gold, mini_docs, VerifierVariant.WITH_COT)


class TestTrainingFile:
    def test_records_parse_and_carry_template(self, tmp_path):
        examples = [
            VerifierExample("Newton", "The Newton method", "F"),
            VerifierExample("John Doe", "Hi John Doe.", "T"),
        ]
        path = tmp_path / "verifier.jsonl"
        count = write_verifier_training_file(path, examples, VerifierVariant.WITHOUT_COT)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert count == len(lines) == 2
        for line, example in zip(lines, examples):
            record = json.loads(line)
            assert [m["role"] for m in record["messages"]] == ["system", "user", "assistant"]
            assert example.entity in record["messages"][1]["content"]
            assert record["messages"][2]["content"] == example.label

    def test_cot_assistant_is_reasoning_plus_letter(self, tmp_path):
        example = VerifierExample(
            "Newton", "The Newton method", "F", reasoning="a historical figure, not a student"
        )
        path = tmp_path / "cot.jsonl"
        write_verifier_training_file(path, [example], VerifierVariant.WITH_COT)
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["messages"][2]["content"].endswith(" F")
        assert record["messages"][2]["content"].startswith("a historical figure")

    def test_example_validation(self):
        with pytest.raises(ValueError):
            VerifierExample("absent", "context without it", "T")
        with pytest.raises(ValueError):
            VerifierExample("x", "x", "Y")
