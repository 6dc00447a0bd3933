from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

import metric_fixtures
from deidkit.corpus import Category, Span
from deidkit.eval import (
    ConfusionCounts,
    CrossDocument,
    Demographic,
    MissingDemographic,
    bias_report,
    cost_summary,
    evaluate_documents,
    f_beta,
    load_gender_table,
    load_surname_table,
    match_spans,
    metrics_from_counts,
    parse_and_map_name,
    render_metrics_table,
)
from deidkit.hips import load_region_table

NAME = Category.NAME_STUDENT
EMAIL = Category.EMAIL


def s(start: int, end: int, category: Category = NAME) -> Span:
    return Span(start, end, category, "x" * (end - start))


def brute_force_counts(pred: list[Span], gold: list[Span]) -> ConfusionCounts:
    # O(n^2) matching oracle over deduplicated predictions.
    pred_unique: list[Span] = []
    for p in pred:
        if not any(
            (p.start, p.end, p.category) == (q.start, q.end, q.category)
            for q in pred_unique
        ):
            pred_unique.append(p)
    tp = 0
    for p in pred_unique:
        for g in gold:
            if (p.start, p.end, p.category) == (g.start, g.end, g.category):
                tp += 1
                break
    return ConfusionCounts(tp=tp, fp=len(pred_unique) - tp, fn=len(gold) - tp)


class TestMatchSpans:
    def test_exact_match(self):
        counts = match_spans([s(0, 4)], [s(0, 4)])
        assert (counts.tp, counts.fp, counts.fn) == (1, 0, 0)

    def test_one_char_shift_is_full_miss(self):
        counts = match_spans([s(1, 5)], [s(0, 4)])
        assert (counts.tp, counts.fp, counts.fn) == (0, 1, 1)

    def test_category_must_match(self):
        counts = match_spans([s(0, 4, EMAIL)], [s(0, 4, NAME)])
        assert (counts.tp, counts.fp, counts.fn) == (0, 1, 1)

    def test_duplicate_predictions_count_once(self):
        counts = match_spans([s(0, 4), s(0, 4)], [s(0, 4)])
        assert (counts.tp, counts.fp, counts.fn) == (1, 0, 0)

    def test_cross_document_rejected(self):
        with pytest.raises(CrossDocument):
            match_spans([], [], pred_document="a", gold_document="b")

    def test_against_brute_force_oracle(self):
        rng = random.Random(17)
        cats = list(Category)
        for _ in range(1000):
            def rand_spans() -> list[Span]:
                out = []
                for _ in range(rng.randrange(0, 8)):
                    start = rng.randrange(0, 40)
                    end = start + rng.randrange(1, 6)
                    out.append(Span(start, end, rng.choice(cats), "x" * (end - start)))
                return out

            pred, gold_set = rand_spans(), rand_spans()
            got = match_spans(pred, gold_set)
            # gold within one annotation set is unique on offsets+category
            gold_unique: list[Span] = []
            for g in gold_set:
                if not any(
                    (g.start, g.end, g.category) == (q.start, q.end, q.category)
                    for q in gold_unique
                ):
                    gold_unique.append(g)
            expected = brute_force_counts(pred, gold_unique)
            got = match_spans(pred, gold_unique)
            assert (got.tp, got.fp, got.fn) == (expected.tp, expected.fp, expected.fn)

    def test_totals_invariant(self):
        rng = random.Random(23)
        for _ in range(200):
            gold_set = list({ (a, a+2) for a in rng.sample(range(0, 50), 5) })
            gold = [Span(a, b, NAME, "xx") for a, b in gold_set]
            pred = gold[:3] + [Span(90, 92, NAME, "xx")]
            counts = match_spans(pred, gold)
            assert counts.tp + counts.fn == len(gold)
            assert counts.tp + counts.fp == len({(p.start, p.end, p.category) for p in pred})


class TestFBeta:
    def test_published_fine_tuned_row(self):
        m = metrics_from_counts(ConfusionCounts(2774, 1817, 119))
        assert abs(m.precision - 0.6042) < 5e-4
        assert abs(m.recall - 0.9589) < 5e-4
        assert abs(m.f1 - 0.7413) < 5e-4
        assert abs(m.f5 - 0.9377) < 5e-4

    def test_published_high_recall_row(self):
        m = metrics_from_counts(ConfusionCounts(2665, 8160, 228))
        assert abs(m.precision - 0.2462) < 5e-4
        assert abs(m.recall - 0.9212) < 5e-4
        assert abs(m.f5 - 0.8333) < 5e-4

    @given(st.floats(0, 1), st.floats(0.1, 20))
    def test_equal_p_and_r_is_fixed_point(self, x, beta):
        assert f_beta(x, x, beta) == pytest.approx(x)

    def test_zero_denominator(self):
        assert f_beta(0.0, 0.0, 5) == 0.0

    @given(
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
        st.floats(0.1, 10),
        st.floats(0.1, 10),
    )
    def test_monotone_in_beta_when_recall_higher(self, p, r, b1, b2):
        if r > p and b1 < b2:
            assert f_beta(p, r, b1) <= f_beta(p, r, b2) + 1e-12

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.1, 10))
    def test_between_min_and_max(self, p, r, beta):
        value = f_beta(p, r, beta)
        assert min(p, r) - 1e-12 <= value <= max(p, r) + 1e-12

    def test_all_published_rows(self):
        for model, entity, tp, fp, fn, p, r, f1, f5 in metric_fixtures.PERFORMANCE_ROWS:
            m = metrics_from_counts(ConfusionCounts(tp, fp, fn))
            for published, computed in ((p, m.precision), (r, m.recall), (f1, m.f1), (f5, m.f5)):
                assert abs(published - computed) < 5e-4, (model, entity)

    def test_transcript_benchmark_rows(self):
        for model, tp, fp, fn, p, r, f1, f5 in metric_fixtures.TRANSCRIPT_ROWS:
            m = metrics_from_counts(ConfusionCounts(tp, fp, fn))
            for published, computed in ((p, m.precision), (r, m.recall), (f1, m.f1), (f5, m.f5)):
                assert abs(published - computed) < 5e-4, model


class TestEvaluateDocuments:
    def test_identical_pred_and_gold(self, mini_gold):
        report = evaluate_documents(mini_gold, mini_gold)
        assert report.overall.precision == 1.0
        assert report.overall.recall == 1.0
        assert report.overall.f1 == 1.0

    def test_per_category_sums_match_overall(self, mini_gold):
        report = evaluate_documents(mini_gold, mini_gold)
        assert report.overall.counts.tp == sum(
            m.counts.tp for m in report.per_category.values()
        )

    def test_undefined_metrics_render_as_dash(self):
        report = evaluate_documents({}, {})
        table = render_metrics_table(report)
        assert "—" in table
        assert report.overall.precision is None


class TestBias:
    @staticmethod
    def entries_for(counts: dict[tuple[str, str], tuple[int, int]]):
        entries = []
        for (gender, culture), (matched, total) in counts.items():
            for i in range(total):
                entries.append(
                    (Demographic(gender, culture, f"{gender}-{culture}-{i}"), i < matched)
                )
        return entries

    def test_single_group_all_matched(self):
        report = bias_report(self.entries_for({("Male", "Asia"): (4, 4)}))
        assert report.by_gender["Male"] == 1.0
        assert report.by_culture["Asia"] == 1.0

    def test_planted_recalls_recovered_exactly(self):
        plan = {
            ("Male", "Asia"): (3, 4),
            ("Female", "Africa"): (7, 8),
            ("Male", "Europe"): (1, 2),
            ("Female", "Americas"): (5, 5),
        }
        report = bias_report(self.entries_for(plan))
        assert report.by_culture["Asia"] == 3 / 4
        assert report.by_culture["Africa"] == 7 / 8
        assert report.by_culture["Europe"] == 1 / 2
        assert report.by_culture["Americas"] == 5 / 5
        assert report.by_gender["Male"] == 4 / 6
        assert report.by_gender["Female"] == 12 / 13

    def test_zero_gold_group_is_undefined_not_zero(self):
        report = bias_report(self.entries_for({("Male", "Asia"): (1, 1)}))
        assert "Oceania" not in report.by_culture
        assert "Female" not in report.by_gender

    def test_published_rows_invert_and_rederive(self):
        for _, group, total, recalls in metric_fixtures.BIAS_ROWS:
            for model, recall in recalls.items():
                matched = round(total * recall)
                assert abs(matched / total - recall) < 5e-4, (group, model)

    def test_africa_fixture_inversion(self):
        matched = round(238 * 0.7647)
        assert matched == 182
        report = bias_report(self.entries_for({("Female", "Africa"): (182, 238)}))
        assert abs(report.by_culture["Africa"] - 0.7647) < 5e-4

    def test_group_recalls_weighted_average_to_overall(self):
        plan = {
            ("Male", "Asia"): (3, 9),
            ("Female", "Europe"): (6, 7),
            ("Male", "Africa"): (2, 4),
        }
        report = bias_report(self.entries_for(plan))
        total = sum(t for _, t in plan.values())
        matched = sum(m for m, _ in plan.values())
        weighted = sum(
            report.by_culture[c] * report.culture_totals[c] for c in report.by_culture
        )
        assert weighted / total == pytest.approx(matched / total)
        assert report.overall_recall == pytest.approx(matched / total)

    def test_unknowns_excluded_but_counted_in_coverage(self):
        entries = self.entries_for({("Male", "Asia"): (1, 2)})
        entries.append((Demographic("Unknown", "Unknown", "Mystery Person"), True))
        report = bias_report(entries)
        assert report.gender_totals == {"Male": 2}
        assert report.coverage == pytest.approx(2 / 3)

    def test_missing_demographic_rejected(self):
        with pytest.raises(MissingDemographic):
            bias_report([(None, True)])


@pytest.fixture(scope="module")
def tables(fixture_paths):
    return (
        load_gender_table(fixture_paths["gender"]),
        load_surname_table(fixture_paths["surname"]),
        load_region_table(fixture_paths["region"]),
    )


class TestParseAndMapName:
    def test_two_token_split(self, tables):
        demographic = parse_and_map_name("John Doe", *tables)
        assert demographic.gender == "Male"
        assert demographic.culture == "Americas"
        assert demographic.source_name == "John Doe"

    def test_africa_mapping(self, tables):
        assert parse_and_map_name("Amina Diallo", *tables).culture == "Africa"

    def test_middle_tokens_fold_into_last(self, tables):
        demographic = parse_and_map_name("John Ronald Doe", *tables)
        assert demographic.gender == "Male"
        assert demographic.culture == "Americas"  # falls back to final token

    def test_unknown_name_buckets(self, tables):
        demographic = parse_and_map_name("Zyx Qwerty", *tables)
        assert demographic.gender == "Unknown"
        assert demographic.culture == "Unknown"

    def test_ambiguous_gender_is_unknown(self, tables):
        assert parse_and_map_name("Alex Doe", *tables).gender == "Unknown"

    def test_total_on_empty(self, tables):
        assert parse_and_map_name("", *tables).gender == "Unknown"


class TestCostSummary:
    def test_published_ledgers(self):
        for model, items, total, _avg in metric_fixtures.COST_ROWS:
            ledger = cost_summary(items)
            assert ledger.total_usd == pytest.approx(total, abs=1e-9), model

    def test_average_per_million_tokens(self):
        # Token volume recovered from the published average, then re-derived.
        tokens = int(11.93 / 0.92 * 1_000_000)
        ledger = cost_summary(
            {"base_finetuning": 7.22, "evaluation": 4.71},
            {"all": tokens},
        )
        assert abs(ledger.usd_per_1m_tokens - 0.92) < 0.01

    def test_empty_ledger(self):
        ledger = cost_summary({})
        assert ledger.total_usd == 0.0
        assert ledger.usd_per_1m_tokens is None

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            cost_summary({"evaluation": -1.0})
