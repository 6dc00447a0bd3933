"""Exact-match evaluation, F-beta metrics, bias breakdowns, and cost ledgers.

A prediction scores only when its (start, end, category) triple equals a gold
annotation; partial overlaps earn nothing. Undefined ratios (zero
denominators) are reported as missing, not as zero.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .corpus import Category, CorpusError, Span, read_csv
from .hips import CULTURES


def span_key(span: Span) -> tuple:
    """What an exact match compares: offsets and category, never the surface."""
    return span.start, span.end, span.category


def f_beta(precision: float, recall: float, beta: float) -> float:
    """Weighted harmonic mean; 0 when the beta-weighted denominator is 0."""
    denominator = beta * beta * precision + recall
    if denominator == 0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denominator


class CategoryMetrics(NamedTuple):
    tp: int
    fp: int
    fn: int
    precision: float | None
    recall: float | None
    f1: float | None
    f5: float | None


def metrics_from_counts(tp: int, fp: int, fn: int) -> CategoryMetrics:
    p = tp / (tp + fp) if tp + fp else None
    r = tp / (tp + fn) if tp + fn else None
    f1, f5 = (None, None) if p is None or r is None else (f_beta(p, r, 1), f_beta(p, r, 5))
    return CategoryMetrics(tp, fp, fn, p, r, f1, f5)


class MetricsReport(NamedTuple):
    per_category: dict[Category, CategoryMetrics]
    overall: CategoryMetrics


def evaluate_documents(
    pred_by_doc: Mapping[str, Sequence[Span]],
    gold_by_doc: Mapping[str, Sequence[Span]],
) -> MetricsReport:
    """Per-category and overall confusion over the union of documents.

    Each document's spans become ``span_key`` sets, so a detector emitting the
    same span twice has made one prediction. Placeholder keys are never reported.
    """
    tp, fp, fn = Counter(), Counter(), Counter()
    for doc_id in set(pred_by_doc) | set(gold_by_doc):
        pred = set(map(span_key, pred_by_doc.get(doc_id, ())))
        gold = set(map(span_key, gold_by_doc.get(doc_id, ())))
        for tally, keys in ((tp, pred & gold), (fp, pred - gold), (fn, gold - pred)):
            tally.update(category for _, _, category in keys)
    return MetricsReport(
        per_category={c: metrics_from_counts(tp[c], fp[c], fn[c]) for c in Category},
        overall=metrics_from_counts(*(sum(t[c] for c in Category) for t in (tp, fp, fn))),
    )


def _fmt(value: float | None) -> str:
    return "—" if value is None else f"{value:.4f}"


def render_metrics_table(report: MetricsReport) -> str:
    header = f"{'Entity':<14} {'TP':>7} {'FP':>7} {'FN':>7} {'P':>8} {'R':>8} {'F1':>8} {'F5':>8}"
    lines = [header, "-" * len(header)]
    rows = [(c.value, m) for c, m in report.per_category.items()]
    rows.append(("Overall", report.overall))
    for label, m in rows:
        lines.append(
            f"{label:<14} {m.tp:>7} {m.fp:>7} {m.fn:>7} "
            f"{_fmt(m.precision):>8} {_fmt(m.recall):>8} {_fmt(m.f1):>8} {_fmt(m.f5):>8}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Demographic bias analysis

UNKNOWN = "Unknown"


class Demographic(NamedTuple):
    gender: str
    culture: str
    source_name: str


def _load_argmax_table(path: str | Path, key_col: str, value_col: str) -> dict[str, str]:
    """CSV -> name->value table; weighted rows argmax, ties drop to Unknown."""
    weights: dict[str, Counter] = defaultdict(Counter)
    for key, value, count in read_csv(path, (key_col, value_col), optional=("count",)):
        count = count or "1"
        try:
            weight = int(count)
        except ValueError:
            raise CorpusError(f"{path}: non-integer count {count!r}") from None
        if weight < 1:
            raise CorpusError(f"{path}: count must be a positive integer, not {count!r}")
        weights[key.strip().lower()][value.strip()] += weight
    table: dict[str, str] = {}
    for key, counter in weights.items():
        ranked = counter.most_common()
        if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
            continue  # ambiguous: leave unmapped so lookups fall to Unknown
        table[key] = ranked[0][0]
    return table


def load_gender_table(path: str | Path) -> dict[str, str]:
    return _load_argmax_table(path, "first_name", "gender")


def load_surname_table(path: str | Path) -> dict[str, str]:
    return _load_argmax_table(path, "surname", "country")


def load_region_table(path: str | Path) -> dict[str, str]:
    """Load the country,region CSV that maps countries onto the five regions."""
    return _load_argmax_table(path, "country", "region")


def map_country_to_culture(country: str, region_table: Mapping[str, str]) -> str:
    return region_table.get(country.strip().lower(), UNKNOWN)


def parse_and_map_name(
    full_name: str,
    gender_table: Mapping[str, str],
    surname_table: Mapping[str, str],
    region_table: Mapping[str, str],
) -> Demographic:
    """Split a name, infer gender from the first name and culture via surname.

    The first token is the first name; everything after folds into the last
    name. Lookups that miss (or tie) resolve to the Unknown bucket; this is a
    total function.
    """
    tokens = full_name.split()
    if not tokens:
        return Demographic(UNKNOWN, UNKNOWN, full_name)
    gender = gender_table.get(tokens[0].lower(), UNKNOWN)
    # The whole last name, then its final token; a single token is its own surname.
    keys = [" ".join(tokens[1:]), tokens[-1]] if len(tokens) > 1 else tokens
    country = next((surname_table[k] for k in map(str.lower, keys) if k in surname_table), "")
    culture = map_country_to_culture(country, region_table) if country else UNKNOWN
    if culture not in CULTURES:
        culture = UNKNOWN
    return Demographic(gender=gender, culture=culture, source_name=full_name)


class BiasReport(NamedTuple):
    by_gender: dict[str, float]
    by_culture: dict[str, float]
    gender_totals: dict[str, int]
    culture_totals: dict[str, int]
    overall_recall: float | None
    coverage: float  # fraction of gold names with a known gender AND culture


def bias_entries(
    pred_by_doc: Mapping[str, Sequence[Span]],
    gold_by_doc: Mapping[str, Sequence[Span]],
    gender: Mapping[str, str],
    surname: Mapping[str, str],
    region: Mapping[str, str],
) -> Iterator[tuple[Demographic, bool]]:
    """Each gold NAME_STUDENT name's demographic and whether a prediction matched it exactly."""
    for doc_id, gold in sorted(gold_by_doc.items()):
        pred_keys = set(map(span_key, pred_by_doc.get(doc_id, ())))
        for span in gold:
            if span.category is Category.NAME_STUDENT:
                demographic = parse_and_map_name(span.surface, gender, surname, region)
                yield demographic, span_key(span) in pred_keys


def bias_report(entries: Iterable[tuple[Demographic, bool]]) -> BiasReport:
    """Recall per gender and per culture over gold name entities.

    Each entry pairs a gold name's demographic with whether the model matched
    it exactly. Unknown-bucket entries are excluded from group recalls but
    counted in coverage. A group with no gold names is absent from the
    recalls and totals, never reported as 0.
    """
    entries = list(entries)
    total = len(entries)

    def axis(name: str, order: Callable) -> tuple[dict, dict]:
        totals = Counter(getattr(d, name) for d, _ in entries)
        matched = Counter(getattr(d, name) for d, hit in entries if hit)
        groups = [g for g in order(totals) if g != UNKNOWN]
        return {g: matched[g] / totals[g] for g in groups}, {g: totals[g] for g in groups}

    by_gender, gender_totals = axis("gender", sorted)
    by_culture, culture_totals = axis("culture", lambda totals: [c for c in CULTURES if totals[c]])
    known = sum(d.gender != UNKNOWN and d.culture != UNKNOWN for d, _ in entries)
    return BiasReport(
        by_gender, by_culture, gender_totals, culture_totals,
        overall_recall=sum(hit for _, hit in entries) / total if total else None,
        coverage=known / total if total else 0.0,
    )


# ---------------------------------------------------------------------------
# Cost accounting

def stage_ledger(stage: str, tokens_in: int, tokens_out: int, pricing: Mapping) -> dict:
    """The cost ledger of one stage's chat requests, at ``pricing``'s USD per 1M tokens."""
    usd = tokens_in / 1e6 * pricing.get("usd_per_1m_input", 0.0) + (
        tokens_out / 1e6 * pricing.get("usd_per_1m_output", 0.0)
    )
    return {"items": {stage: round(usd, 6)}, "tokens_per_stage": {stage: tokens_in + tokens_out}}


def cost_summary(ledger: object) -> dict:
    """Check a parsed cost ledger and return it with its totals.

    ``items`` maps a stage to a non-negative finite USD number, ``tokens_per_stage``
    a stage to a non-negative integer count; either may be left out, and a bool is
    neither. A ledger whose totals overflow a float is refused: no total is Infinity.
    """
    if not isinstance(ledger, dict):
        raise ValueError("a cost ledger must be a JSON object")
    items, tokens_per_stage = ledger.get("items", {}), ledger.get("tokens_per_stage", {})
    if not isinstance(items, dict) or not isinstance(tokens_per_stage, dict):
        raise ValueError("items and tokens_per_stage must be objects")
    for stage, usd in items.items():
        if isinstance(usd, bool) or not isinstance(usd, (int, float)) or not 0 <= usd < math.inf:
            raise ValueError(
                f"stage {stage!r}: cost must be a non-negative finite number, not {usd!r}"
            )
    for stage, tokens in tokens_per_stage.items():
        if isinstance(tokens, bool) or not isinstance(tokens, int) or tokens < 0:
            raise ValueError(
                f"stage {stage!r}: token count must be a non-negative integer, not {tokens!r}"
            )
    total_usd, total_tokens = sum(items.values()), sum(tokens_per_stage.values())
    if total_usd > sys.float_info.max:
        raise ValueError("total_usd is not a finite number: the items sum past the largest float")
    if total_tokens > sys.float_info.max:  # its quotient below could overflow a float
        raise ValueError("total_tokens is not a finite float: the counts sum past the largest float")
    usd_per_1m_tokens = total_usd / (total_tokens / 1_000_000) if total_tokens > 0 else None
    if usd_per_1m_tokens == math.inf:
        raise ValueError("usd_per_1m_tokens is not a finite number: it overflows a float")
    return {
        "items": dict(items),
        "tokens_per_stage": dict(tokens_per_stage),
        "total_usd": round(total_usd, 6),
        "total_tokens": total_tokens,
        "usd_per_1m_tokens": usd_per_1m_tokens,
    }
