"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Each test also enforces its runtime budget.
"""

from __future__ import annotations

import random
import time

import metric_fixtures
from test_cli import mock_llm_server, run_cli
from test_codec import long_case, perturb_marked, random_case

from deidkit import codec, corpus
from deidkit.corpus import Span, split_corpus
from deidkit.detect import rule_detect
from deidkit.eval import Demographic, bias_report, evaluate_documents, metrics_from_counts
from deidkit.hips import apply_hips, load_name_pools, simulate_leakage
from deidkit.verify import MAX_COT_ATTEMPTS, VerifierVariant, verifier_examples, verify_spans

TOLERANCE_METRICS = 5e-4
TOLERANCE_MONTE_CARLO = 0.01


class Stopwatch:
    def __init__(self, budget_seconds: float):
        self.budget = budget_seconds
        self.started = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.started
        assert elapsed < self.budget, f"ran {elapsed:.1f}s, budget {self.budget}s"


def _announce(number: int, title: str):
    print(f"ACCEPTANCE {number} ({title}): PASS")


def test_criterion_1_metric_math_reproduction():
    clock = Stopwatch(1.0)
    for model, entity, tp, fp, fn, p, r, f1, f5 in metric_fixtures.PERFORMANCE_ROWS:
        m = metrics_from_counts(tp, fp, fn)
        for published, computed in (
            (p, m.precision),
            (r, m.recall),
            (f1, m.f1),
            (f5, m.f5),
        ):
            assert computed is not None
            assert abs(published - computed) < TOLERANCE_METRICS, (model, entity)
    # Spot-check the anchor row quoted with the criterion.
    anchor = metrics_from_counts(2774, 1817, 119)
    assert (
        round(anchor.precision, 4),
        round(anchor.recall, 4),
        round(anchor.f1, 4),
        round(anchor.f5, 4),
    ) == (0.6042, 0.9589, 0.7413, 0.9377)
    clock.check()
    _announce(1, "metric-math reproduction, 35 rows within 5e-4")


def _synthetic_large_corpus() -> dict[str, dict[str, int]]:
    """22,688 documents carrying the published per-category entity totals."""
    totals = {"NAME_STUDENT": 4394, "URL_PERSONAL": 354, "EMAIL": 112, "PHONE_NUM": 15}
    counts: dict[str, dict[str, int]] = {f"doc{i:05d}": {} for i in range(22_688)}
    ids = sorted(counts)
    cursor = 0
    for category, total in sorted(totals.items()):
        remaining = total
        while remaining > 0:
            doc = counts[ids[cursor % len(ids)]]
            take = 2 if remaining >= 2 and cursor % 3 == 0 else 1
            doc[category] = doc.get(category, 0) + take
            remaining -= take
            cursor += 1
    return counts


def test_criterion_2_split_fidelity():
    clock = Stopwatch(10.0)
    counts = _synthetic_large_corpus()
    assert sum(c.get("PHONE_NUM", 0) for c in counts.values()) == 15

    split_a = split_corpus(counts, seed=123)
    split_b = split_corpus(counts, seed=123)
    assert split_a.as_dict() == split_b.as_dict()

    assert len(split_a.base_train) == 5_672
    assert len(split_a.verifier_train) == 3_403
    assert len(split_a.test) == 13_613

    for group in (split_a.base_train, split_a.verifier_train, split_a.test):
        for category in ("NAME_STUDENT", "URL_PERSONAL", "EMAIL", "PHONE_NUM"):
            assert any(counts[d].get(category, 0) > 0 for d in group), category
    clock.check()
    _announce(2, "split sizes 5672/3403/13613, stratified, deterministic")


def test_criterion_3_codec_roundtrip_and_robustness():
    clock = Stopwatch(30.0)
    rng = random.Random(1001)

    for _ in range(1000):
        doc, spans = random_case(rng)
        report = codec.decode(codec.encode(doc, spans), doc)
        assert report.spans == spans
        assert report.dropped == []

    total = recovered = 0
    for _ in range(1000):
        doc, spans = random_case(rng)
        marked = perturb_marked(codec.encode(doc, spans), spans, rng, rate=0.05)
        report = codec.decode(marked, doc)
        total += len(spans)
        recovered += sum(1 for s in spans if s in report.spans)
    assert total > 0
    recovery = recovered / total
    assert recovery >= 0.99, f"recovered {recovery:.4f}"
    clock.check()
    _announce(3, f"1000 round-trips exact; perturbed recovery {recovery:.4f} >= 0.99")


def test_criterion_3_long_drifted_document_decode():
    clock = Stopwatch(5.0)
    rng = random.Random(5000)
    doc, spans = long_case(rng, 5000)
    marked = perturb_marked(codec.encode(doc, spans), spans, rng, rate=0.05)
    report = codec.decode(marked, doc)
    assert set(spans) <= set(report.spans)
    for span in report.spans:
        assert doc.text[span.start : span.end] == span.surface
    clock.check()
    _announce(3, f"5,000-word drifted document: all {len(spans)} spans recovered")


def test_criterion_4_hips_integrity(fixture_paths):
    clock = Stopwatch(30.0)
    pools = load_name_pools(fixture_paths["pools"])
    rng = random.Random(77)

    for _ in range(1000):
        doc, spans = random_case(rng)
        group = ("Female", "Africa")
        result = apply_hips(doc, spans, group, seed=13, pools=pools)
        again = apply_hips(doc, spans, group, seed=13, pools=pools)
        assert result.text == again.text  # seed determinism

        # Splice oracle: removing replaced regions from both sides leaves
        # identical residue.
        residual_in, cursor = [], 0
        for rep in result.replacements:
            residual_in.append(doc.text[cursor : rep.input_offsets[0]])
            cursor = rep.input_offsets[1]
        residual_in.append(doc.text[cursor:])
        residual_out, cursor = [], 0
        for rep in result.replacements:
            residual_out.append(result.text[cursor : rep.output_offsets[0]])
            cursor = rep.output_offsets[1]
        residual_out.append(result.text[cursor:])
        assert residual_in == residual_out

        seen: dict[tuple[str, str], str] = {}
        for rep in result.replacements:
            key = (rep.original, rep.category)
            if key in seen:
                assert seen[key] == rep.surrogate  # per-document consistency
            seen[key] = rep.surrogate
            assert rep.original != rep.surrogate
            if rep.category == "PHONE_NUM":
                mask = lambda v: "".join("d" if ch.isdigit() else ch for ch in v)
                assert mask(rep.original) == mask(rep.surrogate)
            if rep.category == "EMAIL":
                assert "@" in rep.surrogate and "." in rep.surrogate.split("@")[1]
            if rep.category == "URL_PERSONAL":
                assert rep.surrogate.startswith("https://")

    # Transcript fixture under a single-name stub pool.
    from test_hips import stub_pool

    doc, spans = corpus.ingest_tscc("teacher: Hi there 〈STUDENT〉, all OK?", "t1")
    result = apply_hips(doc, spans, ("Male", "Americas"), seed=0, pools=stub_pool())
    assert result.text == "teacher: Hi there John Doe, all OK?"
    clock.check()
    _announce(4, "splice oracle, consistency, masks, determinism on 1000 docs")


def test_criterion_5_verifier_contract(fixture_paths, mini_docs, mini_gold, scripted_client):
    clock = Stopwatch(10.0)
    pools = load_name_pools(fixture_paths["pools"])

    verified: dict[str, list[Span]] = {}
    detected_all: dict[str, list[Span]] = {}
    injected_fp_total = 0
    for doc_id, doc in mini_docs.items():
        detected = rule_detect(doc, pools=pools)
        gold_keys = {(s.start, s.end, s.category) for s in mini_gold[doc_id]}
        injected_fp_total += sum(
            1 for s in detected if (s.start, s.end, s.category) not in gold_keys
        )
        detected_all[doc_id] = detected

        gold_surfaces = {s.surface for s in mini_gold[doc_id]}

        def oracle(messages, _gold=gold_surfaces):
            content = messages[-1]["content"]
            entity = content.split("Determine if ", 1)[1].split(
                " is a privately identifiable information", 1
            )[0]
            return "T" if entity in _gold else "F"

        verified[doc_id] = verify_spans(
            doc, detected, scripted_client(oracle), VerifierVariant.WITHOUT_COT
        )

    assert injected_fp_total > 0, "fixture must contain injected false positives"
    before = evaluate_documents(detected_all, mini_gold)
    after = evaluate_documents(verified, mini_gold)
    assert after.overall.precision == 1.0  # 100% of false positives removed
    assert after.overall.recall == before.overall.recall  # 0% of true positives lost
    assert after.overall.fp == 0

    # Always-wrong CoT mock: the label defaults to T after exactly 6 attempts.
    wrong = scripted_client(lambda m: "reasoning that concludes F")
    examples = verifier_examples(
        mini_docs["379"],
        mini_gold["379"],
        mini_gold["379"],
        VerifierVariant.WITH_COT,
        client=wrong,
    )
    assert all(e.label == "T" and e.forced_default for e in examples)
    assert MAX_COT_ATTEMPTS == 6
    assert len(wrong.calls) == 6 * len(examples)
    clock.check()
    _announce(5, "gold-keyed verify: precision 1.0, recall unchanged; CoT default-T at 6")


def test_criterion_6_leakage_simulator():
    clock = Stopwatch(20.0)
    k = 10
    for fn in (0.02, 0.05, 0.10):
        for d in (0.25, 0.50, 1.00):
            est = simulate_leakage(fn, d, k, 100_000, seed=17)
            closed_redaction = 1 - (1 - fn) ** k
            closed_hips = 1 - (1 - fn * d) ** k
            assert abs(est.redaction_leak_fraction - closed_redaction) < TOLERANCE_MONTE_CARLO
            assert abs(est.hips_observed_leak_fraction - closed_hips) < TOLERANCE_MONTE_CARLO
            assert est.hips_observed_leak_fraction <= est.redaction_leak_fraction
    clock.check()
    _announce(6, "3x3 Monte-Carlo grid within 0.01 of closed forms; dominance holds")


def test_criterion_7_bias_pipeline():
    clock = Stopwatch(5.0)

    # Planted group recalls recovered exactly.
    plan = {
        ("Male", "Asia"): (492, 500),
        ("Female", "Africa"): (182, 238),
        ("Male", "Europe"): (370, 410),
        ("Female", "Americas"): (780, 858),
    }
    entries = []
    for (gender, culture), (matched, total) in plan.items():
        for i in range(total):
            entries.append((Demographic(gender, culture, f"n{i}"), i < matched))
    report = bias_report(entries)
    for (gender, culture), (matched, total) in plan.items():
        assert report.by_culture[culture] == matched / total

    # Published fixtures invert to integer matched counts and re-derive.
    for _, group, total, recalls in metric_fixtures.BIAS_ROWS:
        for model, recall in recalls.items():
            matched = round(total * recall)
            assert abs(matched / total - recall) < TOLERANCE_METRICS, (group, model)
    assert round(238 * 0.7647) == 182
    clock.check()
    _announce(7, "planted group recalls exact; published rows re-derive within 5e-4")


def test_criterion_8_end_to_end_mock_llm(fixture_paths, tmp_path):
    clock = Stopwatch(60.0)

    def detect_and_score(mode: str, out_name: str):
        out = tmp_path / out_name
        with mock_llm_server(
            mode, fixture_paths["corpus"], fixture_paths["gold"], seed=5
        ) as base_url:
            code = run_cli(
                "detect",
                "--detector", "llm-finetuned",
                "--in", str(fixture_paths["corpus"]),
                "--base-url", base_url,
                "--out", str(out),
                "--jobs", "2",
            )
        assert code == 0
        pred = corpus.read_standoff(out)
        gold = corpus.read_standoff(fixture_paths["gold"])
        return evaluate_documents(pred, gold)

    echo = detect_and_score("echo-gold", "echo.json")
    assert echo.overall.precision == 1.0
    assert echo.overall.recall == 1.0

    perturbed = detect_and_score("perturb", "perturb.json")
    assert perturbed.overall.recall >= 0.99
    clock.check()
    _announce(
        8,
        f"mock echo-gold P=R=1.0; perturb recall {perturbed.overall.recall:.4f} >= 0.99",
    )
