"""Hidden-in-plain-sight replacement.

Detected spans are swapped for category-preserving synthetic surrogates drawn
from gender-by-culture name pools, with per-document consistency, so any
entity the detector missed hides among realistic fakes. Includes the
transcript placeholder substitution used to synthesize evaluation corpora and
a Monte-Carlo model of document-level leakage under imperfect detection.
"""

from __future__ import annotations

import hashlib
import random
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .corpus import (
    Category,
    Document,
    Placeholder,
    PlaceholderSpan,
    Span,
    read_csv,
    validate_spans,
)

GENDERS = ("Male", "Female")
CULTURES = ("Asia", "Americas", "Europe", "Africa", "Oceania")
ALL_GROUPS: tuple[tuple[str, str], ...] = tuple(
    (g, c) for g in GENDERS for c in CULTURES
)


class HipsError(ValueError):
    pass


class EmptyGroup(HipsError):
    def __init__(self, gender: str, culture: str):
        self.group = (gender, culture)
        super().__init__(f"name pool has no names for group ({gender}, {culture})")


@dataclass
class NamePool:
    """First/last name lists keyed by (gender, culture); ASCII names only."""

    groups: dict[tuple[str, str], tuple[list[str], list[str]]] = field(default_factory=dict)
    dropped_non_ascii: int = 0

    def first_names(self, group: tuple[str, str]) -> list[str]:
        names = self.groups.get(group, ([], []))[0]
        if not names:
            raise EmptyGroup(*group)
        return names

    def last_names(self, group: tuple[str, str]) -> list[str]:
        names = self.groups.get(group, ([], []))[1]
        if not names:
            raise EmptyGroup(*group)
        return names

    def all_first_names(self) -> list[str]:
        return [n for firsts, _ in self.groups.values() for n in firsts]

    def all_last_names(self) -> list[str]:
        return [n for _, lasts in self.groups.values() for n in lasts]


def load_name_pools(path: str | Path) -> NamePool:
    """Load a gender,culture,kind,name CSV, dropping non-ASCII names."""
    pool = NamePool()
    for row in read_csv(path, ("gender", "culture", "kind", "name")):
        name = row["name"].strip()
        if not name:
            continue
        if not name.isascii():
            pool.dropped_non_ascii += 1
            continue
        kind = row["kind"].strip().lower()
        if kind not in ("first", "last"):
            raise HipsError(f"{path}: unknown name kind {row['kind']!r}")
        group = (row["gender"].strip(), row["culture"].strip())
        firsts, lasts = pool.groups.setdefault(group, ([], []))
        (firsts if kind == "first" else lasts).append(name)
    return pool


def load_region_table(path: str | Path) -> dict[str, str]:
    """Load the country,region CSV that maps countries onto the five regions."""
    return {
        row["country"].strip().lower(): row["region"].strip()
        for row in read_csv(path, ("country", "region"))
    }


def map_country_to_culture(country: str, region_table: Mapping[str, str]) -> str:
    return region_table.get(country.strip().lower(), "Unknown")


def assign_groups(transcript_ids: Sequence[str], seed: int) -> dict[str, tuple[str, str]]:
    """Deal transcripts into gender-culture groups, equal cells when N divides."""
    ids = sorted(str(t) for t in transcript_ids)
    rng = random.Random(seed)
    rng.shuffle(ids)
    return {t: ALL_GROUPS[i % len(ALL_GROUPS)] for i, t in enumerate(ids)}


def _stable_rng(doc_id: str, seed: int) -> random.Random:
    # Keyed per document so corpus-level runs are order-independent, and
    # hashed so results do not depend on PYTHONHASHSEED.
    digest = hashlib.sha256(f"{seed}:{doc_id}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


CategoryKey = str  # Category value or "PLACEHOLDER:<name>"


@dataclass
class SurrogateState:
    """Per-document surrogate memory: repeat mentions get repeat surrogates."""

    document_id: str
    seed: int
    consistent: bool = True
    _memo: dict[tuple[str, CategoryKey], str] = field(default_factory=dict)
    _used: dict[CategoryKey, set[str]] = field(default_factory=dict)

    def __post_init__(self):
        self.rng = _stable_rng(self.document_id, self.seed)

    def remember(self, surface: str, key: CategoryKey, surrogate: str) -> str:
        if self.consistent:
            self._memo[(surface, key)] = surrogate
        self._used.setdefault(key, set()).add(surrogate)
        return surrogate

    def recall(self, surface: str, key: CategoryKey) -> str | None:
        if not self.consistent:
            return None
        return self._memo.get((surface, key))

    def used(self, key: CategoryKey) -> set[str]:
        return self._used.setdefault(key, set())


def _pick_unused(
    make: Callable[[random.Random], str],
    original: str,
    used: set[str],
    rng: random.Random,
    fallback: Iterable[str],
) -> str:
    """Draw a surrogate that is never ``original`` and, while capacity lasts, not used.

    After nine draws a used candidate is accepted; if every draw was the
    original, the first ``fallback`` value other than it is.
    """
    spare = None
    for _ in range(9):
        candidate = make(rng)
        if candidate == original:
            continue
        if candidate not in used:
            return candidate
        spare = candidate
    if spare is None:
        spare = next((c for c in fallback if c != original), None)
    if spare is None:
        raise HipsError(f"no surrogate other than {original!r} can be drawn")
    return spare


def _full_name(
    original: str, firsts: list[str], lasts: list[str], used: set[str], rng: random.Random
) -> str:
    every_pair = (f"{first} {last}" for first in firsts for last in lasts)  # lazy fallback
    return _pick_unused(
        lambda r: f"{r.choice(firsts)} {r.choice(lasts)}", original, used, rng, every_pair
    )


def _name_surrogate(
    original: str, group: tuple[str, str], pools: NamePool, used: set[str], rng: random.Random
) -> str:
    firsts = pools.first_names(group)
    lasts = pools.last_names(group)
    if len(original.split()) == 1:
        return _pick_unused(lambda r: r.choice(firsts), original, used, rng, firsts)
    # Two tokens keep their shape; longer names simplify to First Last and the
    # replacement map records the shape change.
    return _full_name(original, firsts, lasts, used, rng)


def _letters_surrogate(
    original: str, template: str, n: int, used: set[str], rng: random.Random
) -> str:
    """An email or URL surrogate: ``template`` filled with ``n`` random lowercase letters."""
    def make(r: random.Random) -> str:
        return template.format("".join(r.choice(string.ascii_lowercase) for _ in range(n)))

    return _pick_unused(make, original, used, rng, (template.format(c * n) for c in "ab"))


def _phone_surrogate(original: str, used: set[str], rng: random.Random) -> str:
    digit_positions = [i for i, ch in enumerate(original) if ch.isdigit()]
    if not digit_positions:
        # Only LLM output yields a digitless phone span; fill it from the templates.
        return rng.choice(_PLACEHOLDER_TEMPLATES["PHONE NUMBER"])

    def resample(r: random.Random) -> str:
        chars = list(original)
        for i in digit_positions:
            chars[i] = r.choice(string.digits)
        return "".join(chars)

    # Deterministic fallback: a different final digit.
    last = digit_positions[-1]
    changed = original[:last] + ("1" if original[last] == "0" else "0") + original[last + 1 :]
    return _pick_unused(resample, original, used, rng, [changed])


#: Deterministic fillers for non-name transcript placeholders. Kept small on
#: purpose; an LLM-backed provider can be plugged in via ``apply_hips``.
_PLACEHOLDER_TEMPLATES: dict[str, tuple[str, ...]] = {
    "AGE": ("19", "21", "24", "27", "32", "35"),
    "DATE": ("12 March", "3 June", "28 October", "7 January"),
    "TIME": ("9am", "2pm", "6:30pm"),
    "CITY": ("Springfield", "Riverton", "Lakeside"),
    "COUNTRY": ("Freedonia", "Sylvania"),
    "EMAIL": ("contact@example.com", "hello@example.org"),
    "PHONE NUMBER": ("(555)010-0199", "(555)010-0242"),
    "INSTAGRAM ACCOUNT": ("@example_handle", "@sample_account"),
    "SCHOOL": ("Northgate Academy", "Hillview College"),
}
_GENERIC_FILLERS = ("Alder", "Birch", "Cedar", "Druid", "Ember", "Fennel")

def _placeholder_surrogate(
    ph: Placeholder,
    group: tuple[str, str],
    pools: NamePool | None,
    used: set[str],
    rng: random.Random,
) -> str:
    if ph.name_kind:
        if pools is None:
            raise HipsError("name pools are required to replace name placeholders")
        return _full_name(ph.name, pools.first_names(group), pools.last_names(group), used, rng)
    options = _PLACEHOLDER_TEMPLATES.get(ph.name.upper())
    if options:
        return rng.choice(options)
    return rng.choice(_GENERIC_FILLERS)


def surrogate_for(
    surface: str,
    category: Category | Placeholder,
    group: tuple[str, str],
    state: SurrogateState,
    pools: NamePool | None = None,
) -> str:
    """Produce (or recall) the synthetic stand-in for one entity; never the entity itself."""
    key: CategoryKey
    if isinstance(category, Placeholder):
        key = f"PLACEHOLDER:{category.name}"
    else:
        key = category.value
    cached = state.recall(surface, key)
    if cached is not None:
        return cached

    used, rng = state.used(key), state.rng
    if isinstance(category, Placeholder):
        surrogate = _placeholder_surrogate(category, group, pools, used, rng)
    elif category is Category.NAME_STUDENT:
        if pools is None:
            raise HipsError("name pools are required for NAME_STUDENT surrogates")
        surrogate = _name_surrogate(surface, group, pools, used, rng)
    elif category is Category.EMAIL:
        surrogate = _letters_surrogate(surface, "{}@example.com", 8, used, rng)
    elif category is Category.URL_PERSONAL:
        surrogate = _letters_surrogate(surface, "https://www.example.org/{}", 10, used, rng)
    elif category is Category.PHONE_NUM:
        surrogate = _phone_surrogate(surface, used, rng)
    else:
        raise HipsError(f"no surrogate strategy for category {category!r}")
    return state.remember(surface, key, surrogate)


@dataclass
class Replacement:
    category: str
    original: str
    surrogate: str
    input_start: int
    input_end: int
    output_start: int
    output_end: int
    shape_changed: bool = False

    def as_dict(self) -> dict:
        return {
            "category": self.category,
            "original": self.original,
            "surrogate": self.surrogate,
            "input_offsets": [self.input_start, self.input_end],
            "output_offsets": [self.output_start, self.output_end],
            "shape_changed": self.shape_changed,
        }


@dataclass
class HipsResult:
    text: str
    replacements: list[Replacement]
    shifted_spans: list[Span | PlaceholderSpan]


def apply_hips(
    doc: Document,
    spans: Sequence[Span | PlaceholderSpan],
    group: tuple[str, str],
    seed: int,
    pools: NamePool | None = None,
    consistent: bool = True,
) -> HipsResult:
    """Replace every span with its surrogate, leaving all other text intact.

    Shifted spans report where each surrogate landed in the output text;
    name-kind placeholders come back as NAME_STUDENT spans since their
    replacements are real-looking names.
    """
    ordered = sorted(spans, key=lambda s: (s.start, s.end))
    validate_spans(doc.text, ordered)
    state = SurrogateState(document_id=doc.id, seed=seed, consistent=consistent)

    parts: list[str] = []
    replacements: list[Replacement] = []
    shifted: list[Span | PlaceholderSpan] = []
    cursor = 0
    out_len = 0
    for span in ordered:
        gap = doc.text[cursor : span.start]
        parts.append(gap)
        out_len += len(gap)
        surrogate = surrogate_for(span.surface, span.category, group, state, pools)
        parts.append(surrogate)
        out_start = out_len
        out_len += len(surrogate)
        cursor = span.end

        if isinstance(span.category, Placeholder):
            category_label = f"PLACEHOLDER:{span.category.name}"
            if span.category.name_kind:
                shifted.append(
                    Span(out_start, out_len, Category.NAME_STUDENT, surrogate)
                )
            else:
                shifted.append(
                    PlaceholderSpan(out_start, out_len, span.category, surrogate)
                )
            shape_changed = False
        else:
            category_label = span.category.value
            shifted.append(Span(out_start, out_len, span.category, surrogate))
            shape_changed = (
                span.category is Category.NAME_STUDENT
                and len(span.surface.split()) > 2
            )
        replacements.append(
            Replacement(
                category=category_label,
                original=span.surface,
                surrogate=surrogate,
                input_start=span.start,
                input_end=span.end,
                output_start=out_start,
                output_end=out_len,
                shape_changed=shape_changed,
            )
        )
    parts.append(doc.text[cursor:])
    return HipsResult(text="".join(parts), replacements=replacements, shifted_spans=shifted)


class LeakageEstimate(NamedTuple):
    redaction_leak_fraction: float
    hips_observed_leak_fraction: float


def simulate_leakage(
    fn_rate: float,
    attacker_detect_rate: float,
    entities_per_doc: int,
    n_docs: int,
    seed: int = 0,
) -> LeakageEstimate:
    """Monte-Carlo fraction of documents with at least one exposed entity.

    Under redaction every missed entity is exposed verbatim; under HIPS a
    missed entity only counts as an observed leak when the attacker can tell
    it apart from the surrounding surrogates. Matches the closed forms
    1-(1-fn)^k and 1-(1-fn*d)^k within Monte-Carlo error.
    """
    if not (0.0 <= fn_rate <= 1.0 and 0.0 <= attacker_detect_rate <= 1.0):
        raise HipsError("rates must lie in [0, 1]")
    if entities_per_doc < 0 or n_docs <= 0:
        raise HipsError("entities_per_doc must be >= 0 and n_docs positive")
    if entities_per_doc == 0 or fn_rate == 0.0:
        return LeakageEstimate(0.0, 0.0)

    import numpy as np  # only this simulation needs it; importing it costs every CLI start

    rng = np.random.default_rng(seed)
    missed = rng.random((n_docs, entities_per_doc)) < fn_rate
    observed = missed & (rng.random((n_docs, entities_per_doc)) < attacker_detect_rate)
    return LeakageEstimate(
        redaction_leak_fraction=float(missed.any(axis=1).mean()),
        hips_observed_leak_fraction=float(observed.any(axis=1).mean()),
    )
