"""Exact-match evaluation, F-beta metrics, bias breakdowns, and cost ledgers.

A prediction scores only when its (start, end, category) triple equals a gold
annotation; partial overlaps earn nothing. Undefined ratios (zero
denominators) are reported as missing, not as zero.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import Category, Span

__all__ = [
    "ConfusionCounts",
    "CategoryMetrics",
    "MetricsReport",
    "Demographic",
    "BiasReport",
    "CostLedger",
    "CrossDocument",
    "MissingDemographic",
    "match_spans",
    "f_beta",
    "metrics_from_counts",
    "evaluate_documents",
    "bias_report",
    "parse_and_map_name",
    "cost_summary",
    "load_gender_table",
    "load_surname_table",
    "render_metrics_table",
]


class CrossDocument(ValueError):
    pass


class MissingDemographic(ValueError):
    pass


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


def match_spans(
    pred: Sequence[Span],
    gold: Sequence[Span],
    pred_document: str | None = None,
    gold_document: str | None = None,
) -> ConfusionCounts:
    """Exact (start, end, category) matching for one document.

    Predictions are deduplicated first: a detector emitting the same span
    twice has made one prediction.
    """
    if (
        pred_document is not None
        and gold_document is not None
        and pred_document != gold_document
    ):
        raise CrossDocument(f"pred is for {pred_document!r}, gold for {gold_document!r}")
    pred_keys = {(s.start, s.end, s.category) for s in pred}
    gold_keys = {(s.start, s.end, s.category) for s in gold}
    tp = len(pred_keys & gold_keys)
    return ConfusionCounts(tp=tp, fp=len(pred_keys) - tp, fn=len(gold_keys) - tp)


def f_beta(precision: float, recall: float, beta: float) -> float:
    """Weighted harmonic mean; 0 when the beta-weighted denominator is 0."""
    denominator = beta * beta * precision + recall
    if denominator == 0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denominator


@dataclass
class CategoryMetrics:
    counts: ConfusionCounts
    precision: float | None
    recall: float | None
    f1: float | None
    f5: float | None


def metrics_from_counts(counts: ConfusionCounts) -> CategoryMetrics:
    p = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else None
    r = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else None
    if p is None or r is None:
        return CategoryMetrics(counts, p, r, None, None)
    return CategoryMetrics(counts, p, r, f_beta(p, r, 1), f_beta(p, r, 5))


@dataclass
class MetricsReport:
    per_category: dict[Category, CategoryMetrics]
    overall: CategoryMetrics

    def as_dict(self) -> dict:
        def one(m: CategoryMetrics) -> dict:
            return {
                "tp": m.counts.tp,
                "fp": m.counts.fp,
                "fn": m.counts.fn,
                "precision": m.precision,
                "recall": m.recall,
                "f1": m.f1,
                "f5": m.f5,
            }

        return {
            "per_category": {c.value: one(m) for c, m in self.per_category.items()},
            "overall": one(self.overall),
        }


def evaluate_documents(
    pred_by_doc: Mapping[str, Sequence[Span]],
    gold_by_doc: Mapping[str, Sequence[Span]],
) -> MetricsReport:
    """Per-category and overall confusion over the union of documents."""
    per_cat: dict[Category, ConfusionCounts] = {c: ConfusionCounts() for c in Category}
    for doc_id in sorted(set(pred_by_doc) | set(gold_by_doc)):
        pred = pred_by_doc.get(doc_id, ())
        gold = gold_by_doc.get(doc_id, ())
        for cat in Category:
            counts = match_spans(
                [s for s in pred if s.category is cat],
                [s for s in gold if s.category is cat],
            )
            per_cat[cat] = per_cat[cat] + counts
    overall = ConfusionCounts()
    for counts in per_cat.values():
        overall = overall + counts
    return MetricsReport(
        per_category={c: metrics_from_counts(n) for c, n in per_cat.items()},
        overall=metrics_from_counts(overall),
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
            f"{label:<14} {m.counts.tp:>7} {m.counts.fp:>7} {m.counts.fn:>7} "
            f"{_fmt(m.precision):>8} {_fmt(m.recall):>8} {_fmt(m.f1):>8} {_fmt(m.f5):>8}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Demographic bias analysis

UN_REGIONS = ("Asia", "Americas", "Europe", "Africa", "Oceania")
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Demographic:
    gender: str
    culture: str
    source_name: str


def _load_argmax_table(path: str | Path, key_col: str, value_col: str) -> dict[str, str]:
    """CSV -> name->value table; weighted rows argmax, ties drop to Unknown."""
    weights: dict[str, Counter] = defaultdict(Counter)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or key_col not in reader.fieldnames:
            raise ValueError(f"{path}: expected a {key_col!r} column")
        for row in reader:
            weight = int(row.get("count", 1) or 1)
            weights[row[key_col].strip().lower()][row[value_col].strip()] += weight
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
    first = tokens[0]
    last = " ".join(tokens[1:]) if len(tokens) > 1 else ""

    gender = gender_table.get(first.lower(), UNKNOWN)

    country = None
    if last:
        country = surname_table.get(last.lower())
        if country is None:
            country = surname_table.get(tokens[-1].lower())
    if country is None:
        country = surname_table.get(first.lower()) if not last else None
    culture = region_table.get(country.strip().lower(), UNKNOWN) if country else UNKNOWN
    if culture not in UN_REGIONS:
        culture = UNKNOWN
    return Demographic(gender=gender, culture=culture, source_name=full_name)


@dataclass
class BiasReport:
    by_gender: dict[str, float | None]
    by_culture: dict[str, float | None]
    gender_totals: dict[str, int]
    culture_totals: dict[str, int]
    overall_recall: float | None
    coverage: float  # fraction of gold names with a known gender AND culture

    def as_dict(self) -> dict:
        return {
            "by_gender": self.by_gender,
            "by_culture": self.by_culture,
            "gender_totals": self.gender_totals,
            "culture_totals": self.culture_totals,
            "overall_recall": self.overall_recall,
            "coverage": self.coverage,
        }


def bias_report(entries: Iterable[tuple[Demographic | None, bool]]) -> BiasReport:
    """Recall per gender and per culture over gold name entities.

    Each entry pairs a gold name's demographic with whether the model matched
    it exactly. Unknown-bucket entries are excluded from group recalls but
    counted in coverage; groups with zero gold report None, never 0.
    """
    gender_matched: Counter = Counter()
    gender_total: Counter = Counter()
    culture_matched: Counter = Counter()
    culture_total: Counter = Counter()
    total = 0
    matched_total = 0
    known = 0

    for demographic, matched in entries:
        if demographic is None:
            raise MissingDemographic("every gold name span needs a Demographic")
        total += 1
        matched_total += int(matched)
        if demographic.gender != UNKNOWN and demographic.culture != UNKNOWN:
            known += 1
        if demographic.gender != UNKNOWN:
            gender_total[demographic.gender] += 1
            gender_matched[demographic.gender] += int(matched)
        if demographic.culture != UNKNOWN:
            culture_total[demographic.culture] += 1
            culture_matched[demographic.culture] += int(matched)

    def recalls(matched: Counter, totals: Counter, keys: Sequence[str]) -> dict[str, float | None]:
        out: dict[str, float | None] = {}
        for key in keys:
            out[key] = matched[key] / totals[key] if totals[key] else None
        return out

    genders = sorted(gender_total)
    cultures = [c for c in UN_REGIONS if culture_total[c]] or []
    return BiasReport(
        by_gender=recalls(gender_matched, gender_total, genders),
        by_culture=recalls(culture_matched, culture_total, cultures),
        gender_totals={g: gender_total[g] for g in genders},
        culture_totals={c: culture_total[c] for c in cultures},
        overall_recall=matched_total / total if total else None,
        coverage=known / total if total else 0.0,
    )


# ---------------------------------------------------------------------------
# Cost accounting

@dataclass
class CostLedger:
    items: dict[str, float]
    tokens_per_stage: dict[str, int] = field(default_factory=dict)

    @property
    def total_usd(self) -> float:
        return sum(self.items.values())

    @property
    def total_tokens(self) -> int:
        return sum(self.tokens_per_stage.values())

    @property
    def usd_per_1m_tokens(self) -> float | None:
        if self.total_tokens <= 0:
            return None
        return self.total_usd / (self.total_tokens / 1_000_000)

    def as_dict(self) -> dict:
        return {
            "items": dict(self.items),
            "tokens_per_stage": dict(self.tokens_per_stage),
            "total_usd": round(self.total_usd, 6),
            "total_tokens": self.total_tokens,
            "usd_per_1m_tokens": self.usd_per_1m_tokens,
        }


def cost_summary(
    items: Mapping[str, float], tokens_per_stage: Mapping[str, int] | None = None
) -> CostLedger:
    """Totals plus the per-million-token average when token counts are known."""
    for stage, usd in items.items():
        if usd < 0:
            raise ValueError(f"negative cost for stage {stage!r}")
    return CostLedger(items=dict(items), tokens_per_stage=dict(tokens_per_stage or {}))

