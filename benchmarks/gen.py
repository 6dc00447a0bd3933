"""Seeded synthetic essay corpus for the benchmark (standard library and numpy only).

The same ``(seed, n_docs, drift)`` always yields the same corpus. It
imports nothing from ``deidkit`` or ``tests``, so edits there cannot change the
load the benchmark feeds the program.

Properties the workloads rely on:

- essay lengths follow a log-normal with a ~700-word median and a tail into
  the low thousands; lengths sit at evenly spaced quantiles so every seed sees
  the same length profile and only the content varies;
- entity totals follow the published per-category mix (4,394 names, 354 URLs,
  112 emails, 15 phone numbers over 22,688 essays), at least one of each
  category, each rare-category entity in its own essay, so most essays carry
  no PII;
- names appear as single first names and as First Last pairs; about one name
  part in ten is missing from the gazetteer, so rule detection misses some;
- the name pool holds ~20k names in ten gender-by-culture groups, and some of
  them are ordinary capitalised words or cited public figures, so the
  gazetteer raises the false positives verification exists to remove.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

CATEGORY_RATES = {  # published entity totals over 22,688 essays
    "NAME_STUDENT": 4394 / 22688,
    "URL_PERSONAL": 354 / 22688,
    "EMAIL": 112 / 22688,
    "PHONE_NUM": 15 / 22688,
}
MEDIAN_WORDS = 700
LENGTH_SIGMA = 0.45
MIN_WORDS, MAX_WORDS = 150, 3000
FIRST_PER_GROUP, LAST_PER_GROUP = 800, 1200
OUT_OF_POOL_SHARE = 0.1
GENDERS = ("Male", "Female")
CULTURES = ("Asia", "Americas", "Europe", "Africa", "Oceania")

VOCAB = """
about above across activity actually after again against already also although
always among analysis another answer approach around asked audience balance
based because become before began being believe better between brief build
business called came campaign can careful case challenge change choose class
clear client collect common community company complete concept consider
context could course create creative customer data decided deeper define
design detail develop different difficult during each early easier effective
effort else empathy end enough entire even every example experience explain
explore face fact feedback feel felt final find first focus follow found
framework friends from future gave general goal good great group grow had
handle happened hard have help helped helpful however idea ideas identify
important improve include information insight instead interview into involved
impact itself journey just keep kind knew know large later learn learned
learning less lesson like likely little look made main make making manager
many map mapping maybe meaning members method might mind model module more
most much need needs never next notes now number often only open opinion other
others outcome over part participants people perhaps personal phase plan point
possible practice present pressure problem process product project prototype
provide purpose question quickly rather real really reason reflection related
research result results right role same school second see seemed sense service
seminar several share should show simple since situation skills small solution
solutions some something sometimes specific stage start step steps still
stories story storytelling strategy student students study successful such
support sure system take talk team teams technique test testing than that their
them then there these they thing things think thinking this those though
thought through time together template templates topic toward tried true trying type
understand understanding until used useful user users using value various
very view visual visualization want was way ways week well were what when
where which while who whole why will with within without work worked working
world would write year
""".split()

SENTENCE_OPENERS = (
    "The", "This", "In", "During", "After", "When", "Our", "We", "I", "It",
    "My", "For", "Then", "However", "First", "Finally", "Overall", "Because",
)
# Capitalised ordinary words that are also names in the pool (first or last).
COLLISION_OPENERS = ("May", "Will", "Young", "Long", "Best", "Grace", "Hope", "Mark")
PUBLIC_FIGURES = ("Newton", "Einstein", "Darwin", "Curie", "Lincoln", "Edison")
COLLISION_FIRST = ("May", "Will", "Grace", "Hope", "Mark", "June", "Faith", "Joy")
COLLISION_LAST = ("Newton", "Einstein", "Darwin", "Curie", "Lincoln", "Edison",
                  "Young", "Long", "Best", "Park", "King", "Hall")
OPENERS_PER_WORD = 1 / 280  # sentences opening on a collision word
CITATIONS_PER_WORD = 1 / 700  # citations of a public figure

POOL_SYLLABLES = (
    "ka mi ro lan te su na ri o be ja da le vi ma to ha ni sa yo ke ra el an "
    "ar ze lo fi ta mo shi ku no re ba ga si dre win son ley ton mar cel ine"
).split()
OFF_POOL_SYLLABLES = "qua xo vyr zul thra pex gwy oxa ulm brek".split()

NAME_TEMPLATES = (
    ("My", "name", "is", None, "."),
    (None, "helped", "me", "test", "the", "prototype", "."),
    ("I", "interviewed", None, "about", "the", "problem", "."),
    ("Thanks", "to", None, "for", "the", "feedback", "."),
    ("Our", "mentor", None, "suggested", "a", "new", "plan", "."),
)
CONTACT_TEMPLATES = {
    "URL_PERSONAL": ("You", "can", "see", "my", "work", "at", None, "if", "you", "like", "."),
    "EMAIL": ("Write", "to", "me", "at", None, "with", "any", "questions", "."),
    "PHONE_NUM": ("Call", "me", "at", None, "after", "class", "."),
}


@dataclass
class Essay:
    id: str
    tokens: list[str]
    labels: list[str]
    whitespace: list[bool]
    text: str
    spans: list[tuple[int, int, str]]  # gold (start, end, category)
    drift_seed: int | None  # set when the chat endpoint drifts this essay


@dataclass
class Corpus:
    essays: list[Essay]
    pool_rows: list[tuple[str, str, str, str]]  # gender, culture, kind, name
    words: int


def _syllable_name(rng: random.Random, syllables: list[str]) -> str:
    return "".join(rng.choice(syllables) for _ in range(rng.randint(2, 3))).capitalize()


def _name_pool(rng: random.Random) -> dict[tuple[str, str], tuple[list[str], list[str]]]:
    reserved = {w.lower() for w in VOCAB} | {w.lower() for w in SENTENCE_OPENERS}
    seen: set[str] = set()

    def fresh(count: int) -> list[str]:
        names: list[str] = []
        while len(names) < count:
            name = _syllable_name(rng, POOL_SYLLABLES)
            if name.lower() not in reserved and name not in seen:
                seen.add(name)
                names.append(name)
        return names

    pools = {}
    for gender in GENDERS:
        for culture in CULTURES:
            pools[(gender, culture)] = (fresh(FIRST_PER_GROUP), fresh(LAST_PER_GROUP))
    groups = list(pools)
    for i, name in enumerate(COLLISION_FIRST):
        pools[groups[i % len(groups)]][0].append(name)
    for i, name in enumerate(COLLISION_LAST):
        pools[groups[(i + 3) % len(groups)]][1].append(name)
    return pools


def _essay_lengths(n_docs: int) -> list[int]:
    normal = NormalDist()
    lengths = []
    for i in range(n_docs):
        z = normal.inv_cdf((i + 0.5) / n_docs)
        words = round(MEDIAN_WORDS * math.exp(LENGTH_SIGMA * z))
        lengths.append(min(MAX_WORDS, max(MIN_WORDS, words)))
    return lengths


def _entity_plan(n_docs: int, rng: np.random.Generator) -> list[list[tuple]]:
    """Entities each essay must mention, as (category, out-of-pool flags).

    Counts are exact for a given ``n_docs``: the category totals, the share
    of First Last pairs (one half) and of name parts missing from the pool
    (OUT_OF_POOL_SHARE) do not vary with the seed, only where they land.
    """
    plan: list[list[tuple]] = [[] for _ in range(n_docs)]
    for category, rate in CATEGORY_RATES.items():
        count = max(1, round(n_docs * rate))
        if category != "NAME_STUDENT":
            for host in rng.choice(n_docs, size=min(count, n_docs), replace=False):
                plan[int(host)].append((category, ()))
            continue
        # Names cluster: they go to a fifth of the essays, repeats allowed.
        carriers = rng.choice(n_docs, size=max(1, n_docs // 5), replace=False)
        hosts = rng.choice(carriers, size=count, replace=True)
        shapes = [1 + k % 2 for k in range(count)]
        n_parts = sum(shapes)
        off_pool = set(rng.choice(n_parts, size=round(n_parts * OUT_OF_POOL_SHARE), replace=False).tolist())
        part = 0
        for host, size in zip(hosts, shapes):
            plan[int(host)].append((category, tuple(part + k in off_pool for k in range(size))))
            part += size
    return plan


class _EssayWriter:
    def __init__(self):
        self.tokens: list[str] = []
        self.labels: list[str] = []
        self.whitespace: list[bool] = []

    def add(self, token: str, label: str = "O") -> None:
        if token == "." and self.tokens:
            self.whitespace[-1] = False
        self.tokens.append(token)
        self.labels.append(label)
        self.whitespace.append(token != "\n\n")

    def add_template(self, template, entity_tokens: list[str], category: str) -> None:
        for token in template:
            if token is None:
                for k, part in enumerate(entity_tokens):
                    self.add(part, ("B-" if k == 0 else "I-") + category)
            else:
                self.add(token)

    def finish(self, essay_id: str, drift_seed: int | None) -> Essay:
        if self.whitespace:
            self.whitespace[-1] = False
        parts, spans, offset = [], [], 0
        open_span: list | None = None
        for token, label, ws in zip(self.tokens, self.labels, self.whitespace):
            if label.startswith("B-"):
                open_span = [offset, offset + len(token), label[2:]]
                spans.append(open_span)
            elif label.startswith("I-") and open_span is not None:
                open_span[1] = offset + len(token)
            else:
                open_span = None
            parts.append(token + (" " if ws else ""))
            offset += len(token) + (1 if ws else 0)
        return Essay(
            essay_id, self.tokens, self.labels, self.whitespace, "".join(parts),
            [tuple(s) for s in spans], drift_seed,
        )


def _entity_tokens(category: str, off_pool: tuple, rng: random.Random, group_names) -> list[str]:
    firsts, lasts = group_names
    if category == "NAME_STUDENT":
        return [
            _syllable_name(rng, OFF_POOL_SYLLABLES) if missing else rng.choice(names)
            for missing, names in zip(off_pool, (firsts, lasts))
        ]
    handle = f"{rng.choice(firsts).lower()}{rng.randint(1, 99)}"
    if category == "URL_PERSONAL":
        return [f"https://www.{handle}-portfolio.com/{rng.choice(VOCAB)}"]
    if category == "EMAIL":
        return [f"{handle}.{rng.choice(lasts).lower()}@example.com"]
    return [f"({rng.randint(200, 999)}){rng.randint(200, 999)}-{rng.randint(1000, 9999)}"]


def _add_entity(writer: _EssayWriter, entity: tuple, rng: random.Random, group_names) -> None:
    category, off_pool = entity
    template = rng.choice(NAME_TEMPLATES) if category == "NAME_STUDENT" else CONTACT_TEMPLATES[category]
    writer.add_template(template, _entity_tokens(category, off_pool, rng, group_names), category)


def generate(seed: int, n_docs: int, drift: bool = False) -> Corpus:
    """Build ``n_docs`` essays; with ``drift``, half of them get a drift seed."""
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    pools = _name_pool(rng)
    groups = sorted(pools)
    lengths = _essay_lengths(n_docs)
    np_rng.shuffle(lengths)
    plan = _entity_plan(n_docs, np_rng)

    # Drift takes every other essay along the length ranking, the longest
    # included, so clean and drifted essays cover the same range of lengths
    # and every seed drifts essays of the same lengths.
    by_length = sorted(range(n_docs), key=lambda i: (lengths[i], i), reverse=True)
    drifted = set(by_length[::2]) if drift else set()

    essays = []
    for i, words in enumerate(lengths):
        doc_rng = random.Random(f"{seed}:{i}")
        group_names = pools[groups[doc_rng.randrange(len(groups))]]
        word_ids = np_rng.integers(0, len(VOCAB), size=words)
        sizes: list[int] = []
        while sum(sizes) < words:
            sizes.append(doc_rng.randint(8, 20))
        # False-positive bait scales with length, not with the seed.
        openers = set(doc_rng.sample(range(len(sizes)), min(len(sizes), round(words * OPENERS_PER_WORD))))
        citations = set(doc_rng.sample(range(len(sizes)), min(len(sizes), round(words * CITATIONS_PER_WORD))))
        entities = list(plan[i])
        doc_rng.shuffle(entities)

        writer = _EssayWriter()
        cursor = 0
        for k, size in enumerate(sizes):
            writer.add(doc_rng.choice(COLLISION_OPENERS if k in openers else SENTENCE_OPENERS))
            for j in word_ids[cursor : cursor + size]:
                writer.add(VOCAB[j])
            cursor += size
            if k in citations:
                for token in ("as", doc_rng.choice(PUBLIC_FIGURES), "showed"):
                    writer.add(token)
            writer.add(".")
            if entities and doc_rng.random() < 0.15:
                _add_entity(writer, entities.pop(), doc_rng, group_names)
            if k % 6 == 5 and k + 1 < len(sizes):
                writer.add("\n\n")
        for entity in entities:
            _add_entity(writer, entity, doc_rng, group_names)
        drift_seed = doc_rng.getrandbits(32) if i in drifted else None
        essays.append(writer.finish(f"essay{i:05d}", drift_seed))

    pool_rows = [
        (gender, culture, kind, name)
        for (gender, culture), (firsts, lasts) in sorted(pools.items())
        for kind, names in (("first", firsts), ("last", lasts))
        for name in names
    ]
    return Corpus(essays, pool_rows, sum(lengths))


def write_inputs(corpus: Corpus, out_dir: Path) -> None:
    """Write the program's inputs: BIO JSONL corpus and the name-pool CSV."""
    with open(out_dir / "corpus.jsonl", "w", encoding="utf-8") as handle:
        for essay in corpus.essays:
            record = {
                "document": essay.id,
                "full_text": essay.text,
                "tokens": essay.tokens,
                "labels": essay.labels,
                "trailing_whitespace": essay.whitespace,
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    with open(out_dir / "pools.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["gender", "culture", "kind", "name"])
        writer.writerows(corpus.pool_rows)


def write_endpoint_keys(corpus: Corpus, path: Path) -> None:
    """The chat endpoint's answer key: texts, gold spans and drift seeds."""
    payload = [
        {"text": e.text, "spans": [list(s) for s in e.spans], "drift_seed": e.drift_seed}
        for e in corpus.essays
    ]
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")


def digest(corpus: Corpus) -> str:
    h = hashlib.sha256()
    for essay in corpus.essays:
        h.update(json.dumps([essay.id, essay.text, essay.spans, essay.drift_seed]).encode())
    return h.hexdigest()
