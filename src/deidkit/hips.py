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
from functools import cached_property
from pathlib import Path
from typing import Callable, Collection, Iterable, NamedTuple, Sequence

from .corpus import (
    Category,
    Document,
    Placeholder,
    Span,
    read_csv_runs,
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
    """The pools lack a group, so the pools file is at fault, not the spans."""


class NamePool:
    """First/last name lists keyed by (gender, culture); ASCII names only."""

    def __init__(self, groups: dict[tuple[str, str], tuple[list[str], list[str]]] | None = None):
        self.groups = {} if groups is None else groups

    def names(self, group: tuple[str, str]) -> tuple[list[str], list[str]]:
        """The group's first and last names; ``EmptyGroup`` if either list is empty."""
        firsts, lasts = self.groups.get(group, ([], []))
        if not firsts or not lasts:
            raise EmptyGroup("name pool has no names for group ({}, {})".format(*group))
        return firsts, lasts

    @cached_property
    def lowercase_names(self) -> tuple[frozenset[str], frozenset[str]]:
        """Every first and every last name, lowercased.

        Built on first use and kept for the pool's life, so ``groups`` must be
        complete by then.
        """
        groups = self.groups.values()
        return (
            frozenset(n.lower() for firsts, _ in groups for n in firsts),
            frozenset(n.lower() for _, lasts in groups for n in lasts),
        )


_KIND_SLOT = {"first": 0, "last": 1}


def load_name_pools(path: str | Path) -> NamePool:
    """Load a gender,culture,kind,name CSV, dropping non-ASCII names."""
    pool, targets = NamePool(), {}
    for run in read_csv_runs(path, ("gender", "culture", "kind", "name")):
        if run is None:  # the file is read again from its first row
            pool, targets = NamePool(), {}
            continue
        gender, culture, kind, names = run
        kept = [name for name in map(str.strip, names) if name and name.isascii()]
        if not kept:
            continue
        target = targets.get((gender, culture, kind))  # the name list of each raw triple
        if target is None and kept[0].isprintable():  # else the first name is the first fault
            slot = _KIND_SLOT.get(kind.strip().lower())
            if slot is None:
                raise HipsError(f"{path}: unknown name kind {kind!r}")
            group = pool.groups.setdefault((gender.strip(), culture.strip()), ([], []))
            target = targets[gender, culture, kind] = group[slot]
        if not "".join(kept).isprintable():
            name = next(name for name in kept if not name.isprintable())
            raise HipsError(f"{path}: name {name!r} holds a control character")
        target.extend(kept)
    return pool


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


def _pick_unused(
    make: Callable[[random.Random], str],
    originals: set[str],
    used: Collection[str],
    rng: random.Random,
    fallback: Iterable[str],
) -> str:
    """Draw a surrogate whose casefold is not in ``originals`` and, while capacity lasts, not used.

    After nine draws a used candidate is accepted; if every draw was an
    original, the first ``fallback`` value that is not is.
    """
    spare = None
    for _ in range(9):
        candidate = make(rng)
        if candidate.casefold() in originals:
            continue
        if candidate not in used:
            return candidate
        spare = candidate
    if spare is None:
        spare = next((c for c in fallback if c.casefold() not in originals), None)
    if spare is None:
        raise HipsError("no surrogate can be drawn that is not an original of the document")
    return spare


def _letters_surrogate(
    template: str, n: int, originals: set[str], used: Collection[str], rng: random.Random
) -> str:
    """An email or URL surrogate: ``template`` filled with ``n`` random lowercase letters."""
    def make(r: random.Random) -> str:
        return template.format("".join(r.choice(string.ascii_lowercase) for _ in range(n)))

    return _pick_unused(make, originals, used, rng, (template.format(c * n) for c in "ab"))


def _phone_surrogate(
    original: str, originals: set[str], used: Collection[str], rng: random.Random
) -> str:
    digit_positions = [i for i, ch in enumerate(original) if ch.isdigit()]
    if not digit_positions:
        # Only LLM output yields a digitless phone span; fill it from the templates.
        templates = _PLACEHOLDER_TEMPLATES["PHONE NUMBER"]
        return _pick_unused(lambda r: r.choice(templates), originals, used, rng, templates)

    def resample(r: random.Random) -> str:
        chars = list(original)
        for i in digit_positions:
            chars[i] = r.choice(string.digits)
        return "".join(chars)

    # Deterministic fallback: a different final digit.
    last = digit_positions[-1]
    changed = original[:last] + ("1" if original[last] == "0" else "0") + original[last + 1 :]
    return _pick_unused(resample, originals, used, rng, [changed])


#: Deterministic fillers for non-name transcript placeholders, kept small on
#: purpose. Other placeholder names get one of ``_GENERIC_FILLERS``.
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


def surrogate_for(
    surface: str,
    category: Category | Placeholder,
    group: tuple[str, str],
    pools: NamePool | None,
    used: Collection[str],
    originals: set[str],
    rng: random.Random,
) -> str:
    """Draw a synthetic stand-in for one entity; never an original, ignoring case.

    ``originals`` holds the document's casefolded span surfaces (this one's
    is added); only a non-name placeholder's filler may match one. A draw
    avoids ``used``, the surrogates already given in this category, while
    the pool has room. Repeat mentions are the caller's to remember.
    """
    originals.add(surface.casefold())
    placeholder = isinstance(category, Placeholder)
    if category is Category.NAME_STUDENT or (placeholder and category.name_kind):
        if pools is None:
            raise HipsError("name pools are required for name surrogates: pass --pools")
        firsts, lasts = pools.names(group)
        if category is Category.NAME_STUDENT and len(surface.split()) == 1:
            return _pick_unused(lambda r: r.choice(firsts), originals, used, rng, firsts)
        # Two tokens keep their shape; longer names simplify to First Last (the
        # replacement map records the shape change), as name placeholders do.
        every_pair = (f"{first} {last}" for first in firsts for last in lasts)  # lazy fallback
        return _pick_unused(
            lambda r: f"{r.choice(firsts)} {r.choice(lasts)}", originals, used, rng, every_pair
        )
    if placeholder:
        return rng.choice(_PLACEHOLDER_TEMPLATES.get(category.name.upper()) or _GENERIC_FILLERS)
    if category is Category.EMAIL:
        return _letters_surrogate("{}@example.com", 8, originals, used, rng)
    if category is Category.URL_PERSONAL:
        return _letters_surrogate("https://www.example.org/{}", 10, originals, used, rng)
    if category is Category.PHONE_NUM:
        return _phone_surrogate(surface, originals, used, rng)
    raise HipsError(f"no surrogate strategy for category {category!r}")


class Replacement(NamedTuple):
    """One audit entry; ``_asdict()`` gives its keys in the audit's order."""

    category: str
    original: str
    surrogate: str
    input_offsets: tuple[int, int]
    output_offsets: tuple[int, int]
    shape_changed: bool


class HipsResult(NamedTuple):
    text: str
    replacements: list[Replacement]
    shifted_spans: list[Span]


def apply_hips(
    doc: Document,
    spans: Sequence[Span],
    group: tuple[str, str],
    seed: int,
    pools: NamePool | None = None,
) -> HipsResult:
    """Replace every span with its surrogate, leaving all other text intact.

    One RNG keyed by document id and seed draws every surrogate, and a repeat
    mention of a surface in a category reuses its surrogate. Shifted spans
    are the output's gold: a category span keeps its category, a name-kind
    placeholder becomes NAME_STUDENT since its surrogate is a real-looking
    name, and another placeholder's filler is no entity and is left out.
    """
    ordered = sorted(spans, key=lambda s: (s.start, s.end))
    validate_spans(doc.text, ordered)
    rng = _stable_rng(doc.id, seed)
    given: dict[str, dict[str, str]] = {}  # category label -> {surface: surrogate}
    originals = {span.surface.casefold() for span in ordered}

    parts: list[str] = []
    replacements: list[Replacement] = []
    shifted: list[Span] = []
    cursor = shift = 0  # shift: output offset minus input offset
    for span in ordered:
        surrogates = given.setdefault(span.category.value, {})
        if span.surface not in surrogates:
            surrogates[span.surface] = surrogate_for(
                span.surface, span.category, group, pools, surrogates.values(), originals, rng
            )
        surrogate = surrogates[span.surface]
        parts += (doc.text[cursor : span.start], surrogate)
        cursor = span.end
        out_start = span.start + shift
        shift += len(surrogate) - len(span.surface)

        if isinstance(span.category, Category):
            shifted.append(Span(out_start, span.end + shift, span.category, surrogate))
        elif span.category.name_kind:
            shifted.append(Span(out_start, span.end + shift, Category.NAME_STUDENT, surrogate))
        shape_changed = (
            span.category is Category.NAME_STUDENT and len(span.surface.split()) > 2
        )
        replacements.append(Replacement(
            span.category.value, span.surface, surrogate,
            (span.start, span.end), (out_start, span.end + shift), shape_changed,
        ))
    parts.append(doc.text[cursor:])
    return HipsResult(text="".join(parts), replacements=replacements, shifted_spans=shifted)


class LeakageEstimate(NamedTuple):
    redaction_leak_fraction: float
    hips_observed_leak_fraction: float
    closed_form_redaction: float
    closed_form_hips: float


def simulate_leakage(
    fn: float,
    attacker_rate: float,
    entities_per_doc: int,
    docs: int,
    seed: int = 0,
) -> LeakageEstimate:
    """Monte-Carlo fraction of ``docs`` documents with at least one exposed entity.

    The detector misses each of a document's ``entities_per_doc`` (k) entities
    with probability ``fn``. Under redaction every missed entity is exposed
    verbatim; under HIPS a missed entity only counts as an observed leak when the
    attacker tells it apart from the surrounding surrogates, with probability
    ``attacker_rate`` (d). Also returns the closed forms 1-(1-fn)^k and
    1-(1-fn*d)^k, which the fractions match within Monte-Carlo error. The names
    are the keys of the ``parameters`` that ``simulate-leakage`` reports, and a
    bad value is a ``HipsError`` that names the flag which sets it.
    """
    if not (0.0 <= fn <= 1.0 and 0.0 <= attacker_rate <= 1.0):
        raise HipsError("--fn and --attacker-rate must lie in [0, 1]")
    if entities_per_doc < 0 or docs <= 0:
        raise HipsError("--entities must be >= 0 and --docs positive")
    closed_forms = (
        1.0 - (1.0 - fn) ** entities_per_doc,
        1.0 - (1.0 - fn * attacker_rate) ** entities_per_doc,
    )
    if entities_per_doc == 0 or fn == 0.0:
        return LeakageEstimate(0.0, 0.0, *closed_forms)

    rng = random.Random(seed)
    exposed = observed = 0
    for _ in range(docs):
        # One flag per missed entity: whether the attacker spots it.
        spotted = [
            rng.random() < attacker_rate
            for _ in range(entities_per_doc)
            if rng.random() < fn
        ]
        exposed += bool(spotted)
        observed += any(spotted)
    return LeakageEstimate(exposed / docs, observed / docs, *closed_forms)
