from __future__ import annotations

import csv
import random
import re
from collections import Counter
from pathlib import Path
from urllib.parse import urlparse

import pytest
from hypothesis import given, settings, strategies as st

from deidkit import corpus
from deidkit.corpus import (
    Category, CorpusError, Document, Placeholder, Span, ingest_tscc, read_csv,
)
from deidkit.eval import load_region_table, map_country_to_culture
from deidkit.hips import (
    ALL_GROUPS,
    EmptyGroup,
    HipsError,
    NamePool,
    _KIND_SLOT,
    _stable_rng,
    apply_hips,
    assign_groups,
    load_name_pools,
    simulate_leakage,
    surrogate_for,
)

EMAIL_RE = re.compile(r"^[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}$")


def punctuation_mask(value: str) -> str:
    return "".join("d" if ch.isdigit() else ch for ch in value)


@pytest.fixture(scope="module")
def pools(tmp_path_factory) -> NamePool:
    import minicorpus

    paths = minicorpus.materialize(tmp_path_factory.mktemp("pools"))
    return load_name_pools(paths["pools"])


# The previous load_name_pools, kept verbatim so the current one can be checked
# against it on random files.
def _reference_load_name_pools(path: str | Path) -> NamePool:
    """Load a gender,culture,kind,name CSV, dropping non-ASCII names."""
    pool = NamePool()
    groups = pool.groups
    for gender, culture, kind, name in read_csv(path, ("gender", "culture", "kind", "name")):
        name = name.strip()
        if not name or not name.isascii():
            continue
        if not name.isprintable():
            raise HipsError(f"{path}: name {name!r} holds a control character")
        slot = _KIND_SLOT.get(kind.strip().lower())
        if slot is None:
            raise HipsError(f"{path}: unknown name kind {kind!r}")
        group = (gender.strip(), culture.strip())
        names = groups.get(group)
        if names is None:
            names = groups[group] = ([], [])
        names[slot].append(name)
    return pool


def text_with_spans(cases, doc_id: str = "doc") -> tuple[Document, list[Span]]:
    """One document holding each ``(surface, category)`` in order, as spans."""
    spans, start = [], 0
    for surface, category in cases:
        spans.append(Span(start, start + len(surface), category, surface))
        start += len(surface) + 3
    return Document(doc_id, " | ".join(surface for surface, _ in cases)), spans


def stub_pool(first: str = "John", last: str = "Doe") -> NamePool:
    pool = NamePool()
    for group in ALL_GROUPS:
        pool.groups[group] = ([first], [last])
    return pool


class TestLoadNamePools:
    def test_lookup_by_group(self, pools):
        assert "Amina" in pools.names(("Female", "Africa"))[0]
        assert "Diallo" in pools.names(("Female", "Africa"))[1]

    def test_non_ascii_dropped(self, tmp_path):
        csv_path = tmp_path / "pools.csv"
        csv_path.write_text(
            "gender,culture,kind,name\n"
            "Male,Americas,first,José\n"
            "Male,Americas,first,Jose\n"
            "Male,Americas,last,Reyes\n",
            encoding="utf-8",
        )
        pool = load_name_pools(csv_path)
        assert pool.names(("Male", "Americas"))[0] == ["Jose"]

    def test_control_character_in_a_name_is_an_error(self, tmp_path):
        # str.isascii() accepts control characters, so such a name once loaded
        # and could be drawn as a surrogate.
        csv_path = tmp_path / "pools.csv"
        csv_path.write_text("gender,culture,kind,name\nMale,Europe,first,Bo\tb\n", encoding="utf-8")
        with pytest.raises(HipsError) as excinfo:
            load_name_pools(csv_path)
        assert str(excinfo.value) == f"{csv_path}: name 'Bo\\tb' holds a control character"

    @pytest.mark.parametrize("rows, error", [
        ("Male,Europe,first,Bo\tb\nMale,Europe,middle,Ann\n",
         "name 'Bo\\tb' holds a control character"),
        ("Male,Europe,middle,Ann\nMale,Europe,first,Bo\tb\n", "unknown name kind 'middle'"),
    ])
    def test_first_faulty_row_in_the_file_names_the_error(self, tmp_path, rows, error):
        csv_path = tmp_path / "pools.csv"
        csv_path.write_text("gender,culture,kind,name\nMale,Europe,first,Ann\n" + rows,
                            encoding="utf-8")
        with pytest.raises(HipsError) as excinfo:
            load_name_pools(csv_path)
        assert str(excinfo.value) == f"{csv_path}: {error}"

    def test_matches_the_reference_loader(self, tmp_path):
        """The same groups in the same order, or the same first error, as the previous loader."""
        genders = ["Male", "Female", " Male", "Female ", "male", ""]
        cultures = ["Asia", "Europe", " Europe", "Africa  ", ""]
        kinds = ["first", "last", " first", "LAST", "Last ", "middle", ""]
        names = ["Ann", "Bob", " Cid ", "Dee", "", "   ", "José", "Zoë\t", "Bo\tb", "A\x7fB"]
        kinds_seen: Counter = Counter()
        for trial in range(400):
            rng = random.Random(trial)
            rows = []
            for _ in range(rng.randrange(0, 25)):
                row = [rng.choice(genders), rng.choice(cultures),
                       rng.choice(kinds[:5] if rng.random() < 0.9 else kinds),
                       rng.choice(names[:6] if rng.random() < 0.9 else names)]
                rows.append(row[:rng.randrange(0, 4)] if rng.random() < 0.1 else row)
            csv_path = tmp_path / f"pools{trial}.csv"
            with open(csv_path, "w", encoding="utf-8", newline="") as handle:
                csv.writer(handle).writerows([["gender", "culture", "kind", "name"], *rows])

            def outcome(load) -> object:
                try:
                    return list(load(csv_path).groups.items())
                except HipsError as exc:
                    return str(exc)

            expected = outcome(_reference_load_name_pools)
            assert outcome(load_name_pools) == expected, trial
            kinds_seen["error" if isinstance(expected, str) else "groups" if expected else "empty"] += 1
        assert all(kinds_seen[k] for k in ("error", "groups", "empty")), kinds_seen

    def test_raw_text_loads_as_the_reference_loader_does(self, tmp_path, monkeypatch):
        """Seeded raw files, plain or not, give the reference's groups in order or its first error."""
        limit = csv.field_size_limit()
        headers = ["gender,culture,kind,name"] * 8 + [
            "name,gender,culture,kind", "gender,culture,kind,name,note", "gender,culture,name"]
        triples = [("Male", "Asia", "first"), ("Male", "Asia", "last"), ("Female", "Europe", "first"),
                   ("Female", "Europe", "last"), (" Male", "Asia", "First "), ("Female", "", "middle")]
        names = ["Ann", "Bob", "Cid", "Dee", " Eve ", "", "  ", "José", "Bo\tb", "A\x7fB", "Mary Ann",
                 "N\0ul", "\ufeffEve"]
        quoted = ['"Ann"', '"Smith, Jr"', '"Bo ""Big"" Ray"', '"Li\nWei"']
        calls = []
        real_read_csv = corpus.read_csv
        monkeypatch.setattr(corpus, "read_csv", lambda *a: calls.append(a) or real_read_csv(*a))
        paths_seen: Counter = Counter()
        for trial in range(300):
            rng = random.Random(trial)
            odd = rng.choice([0, 0.005, 0.05])  # the share of rows with an odd name or shape
            endings = rng.choice([["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"]])
            lines = [rng.choice(headers)]
            for _ in range(rng.randrange(0, 12)):  # runs of one triple, groups interleaved
                triple = rng.choice(triples if rng.random() < odd else triples[:4])
                for _ in range(rng.randrange(1, 40)):
                    fields = [*triple, rng.choice(names if rng.random() < odd else names[:4])]
                    if rng.random() < odd:
                        shape = rng.randrange(4)
                        if shape == 0:
                            fields[3] = "A" * rng.choice([limit, limit + 1])
                        elif shape == 1:
                            fields[3] = rng.choice(quoted)
                        elif shape == 2:
                            fields = fields[: rng.randrange(0, 4)]  # short, or a blank line
                        else:
                            fields.append("extra")
                    lines.append(",".join(fields))
            text = "".join(line + rng.choice(endings) for line in lines)
            if rng.random() < 0.2:
                text = text.rstrip("\r\n")  # no newline after the last line
            if rng.random() < 0.1:
                text = "\ufeff" + text
            csv_path = tmp_path / f"raw{trial}.csv"
            data = text.encode("utf-8")
            if rng.random() < 0.05:  # a byte that does not decode, after the header
                cut = rng.randrange(30, len(data) + 1) if len(data) > 30 else len(data)
                data = data[:cut] + b"\xff" + data[cut:]
            csv_path.write_bytes(data)

            def outcome(load) -> object:
                try:
                    return list(load(csv_path).groups.items())
                except (HipsError, CorpusError) as exc:
                    return f"{type(exc).__name__}: {exc}"

            expected = outcome(_reference_load_name_pools)
            del calls[:]
            assert outcome(load_name_pools) == expected, trial
            paths_seen["csv" if calls else "plain", isinstance(expected, str)] += 1
        # Both ways of reading ran, each to the end of a file and to an error.
        assert len(paths_seen) == 4, paths_seen

    def test_plain_file_is_read_without_the_csv_module(self, tmp_path, monkeypatch):
        # A file shaped as the benchmark writes it: csv.writer's CRLF lines, one
        # group and kind after another, over several blocks.
        rng = random.Random(3)
        rows = [(gender, culture, kind, "".join(rng.choices("aeiklmnorst", k=6)).title())
                for gender, culture in ALL_GROUPS for kind in ("first", "last") for _ in range(150)]
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        for path, quoting in ((plain, csv.QUOTE_MINIMAL), (quoted, csv.QUOTE_ALL)):
            with open(path, "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle, quoting=quoting)
                writer.writerows([("gender", "culture", "kind", "name"), *rows])
        expected = list(_reference_load_name_pools(plain).groups.items())

        def no_reader(*args, **kwargs):
            raise AssertionError("csv.reader parsed the file")

        monkeypatch.setattr(csv, "reader", no_reader)
        assert list(load_name_pools(plain).groups.items()) == expected
        with pytest.raises(AssertionError, match="csv.reader parsed the file"):
            load_name_pools(quoted)

    def test_empty_group_raises(self, pools):
        with pytest.raises(EmptyGroup, match=r"^name pool has no names for group \(Female, Oceania\)$"):
            NamePool().names(("Female", "Oceania"))

    def test_region_mapping(self, tmp_path):
        csv_path = tmp_path / "regions.csv"
        csv_path.write_text(
            "country,region\nNigeria,Africa\nUnited States of America,Americas\n",
            encoding="utf-8",
        )
        table = load_region_table(csv_path)
        assert map_country_to_culture("Nigeria", table) == "Africa"
        assert map_country_to_culture("United States of America", table) == "Americas"
        assert map_country_to_culture("Atlantis", table) == "Unknown"


class TestAssignGroups:
    def test_260_transcripts_equal_cells(self):
        ids = [f"t{i}" for i in range(260)]
        assignment = assign_groups(ids, seed=1)
        cells = {}
        for group in assignment.values():
            cells[group] = cells.get(group, 0) + 1
        assert sorted(cells.values()) == [26] * 10

    def test_ten_ids_one_each(self):
        assignment = assign_groups([f"t{i}" for i in range(10)], seed=2)
        assert sorted(set(assignment.values())) == sorted(ALL_GROUPS)

    def test_deterministic(self):
        ids = [f"t{i}" for i in range(50)]
        assert assign_groups(ids, seed=9) == assign_groups(ids, seed=9)


class TestSurrogateFor:
    def test_two_token_name_shape(self, pools):
        out = surrogate_for("John Smith", Category.NAME_STUDENT, ("Female", "Africa"), pools,
                            set(), set(), _stable_rng("doc", 0))
        assert len(out.split()) == 2
        assert out != "John Smith"

    def test_single_token_name_shape(self, pools):
        out = surrogate_for("Newton", Category.NAME_STUDENT, ("Male", "Asia"), pools,
                            set(), set(), _stable_rng("doc", 0))
        assert len(out.split()) == 1

    def test_phone_mask_preserved_and_differs(self):
        original = "(555)555-5555"
        out = surrogate_for(original, Category.PHONE_NUM, ("Male", "Asia"), None,
                            set(), set(), _stable_rng("doc", 0))
        assert punctuation_mask(out) == punctuation_mask(original)
        assert out != original

    def test_phone_never_equals_original_across_seeds(self):
        original = "(123)456-7890"
        for seed in range(200):
            out = surrogate_for(original, Category.PHONE_NUM, ("Male", "Asia"), None,
                                set(), set(), _stable_rng("doc", seed))
            assert out != original

    def test_email_parses(self):
        out = surrogate_for("a@b.co", Category.EMAIL, ("Male", "Asia"), None,
                            set(), set(), _stable_rng("doc", 3))
        assert EMAIL_RE.match(out)
        assert out != "a@b.co"

    def test_url_parses(self):
        out = surrogate_for("www.me.example", Category.URL_PERSONAL, ("Male", "Asia"), None,
                            set(), set(), _stable_rng("doc", 3))
        parsed = urlparse(out)
        assert parsed.scheme == "https"
        assert parsed.netloc

    def test_repeat_mention_consistency(self, pools):
        doc, spans = text_with_spans([("John Smith", Category.NAME_STUDENT)] * 2)
        result = apply_hips(doc, spans, ("Female", "Americas"), seed=5, pools=pools)
        first, second = (r.surrogate for r in result.replacements)
        assert first == second

    def test_distinct_surfaces_distinct_surrogates_while_capacity(self, pools):
        group = ("Male", "Americas")  # 3 firsts x 3 lasts = 9 combos
        names = ("Ada One", "Ben Two", "Cal Three", "Dee Four")
        doc, spans = text_with_spans([(name, Category.NAME_STUDENT) for name in names])
        result = apply_hips(doc, spans, group, seed=5, pools=pools)
        outs = {r.surrogate for r in result.replacements}
        assert len(outs) == 4

    def test_name_requires_pool(self):
        with pytest.raises(Exception):
            surrogate_for("John", Category.NAME_STUDENT, ("Male", "Asia"), None,
                          set(), set(), _stable_rng("doc", 0))

    def test_no_surrogate_equals_its_original(self):
        # A 10-first x 5-last pool makes a draw hit the original often, and
        # fifteen mentions per document exhaust its single-name capacity.
        firsts = [f"Name{chr(65 + i)}" for i in range(10)]
        lasts = [f"Family{chr(65 + i)}" for i in range(5)]
        pool = NamePool({group: (firsts, lasts) for group in ALL_GROUPS})
        student = Placeholder("STUDENT", True)
        rng = random.Random(8)
        exhausted = 0
        for doc in range(300):
            cases = [(rng.choice(firsts), Category.NAME_STUDENT) for _ in range(15)]
            cases += [(f"{rng.choice(firsts)} {rng.choice(lasts)}", Category.NAME_STUDENT)]
            cases += [
                ("jane@school.edu", Category.EMAIL),
                ("https://www.example.org/janedoe", Category.URL_PERSONAL),
                ("(555)555-5555", Category.PHONE_NUM),
                ("7", Category.PHONE_NUM),
                ("call me maybe", Category.PHONE_NUM),  # digitless LLM output
                ("STUDENT", student),
            ]
            document, spans = text_with_spans(cases, f"doc{doc}")
            originals = {surface.casefold() for surface, _ in cases}
            if originals >= {name.casefold() for name in firsts}:
                # Every first name of the pool is an original: no single name can be drawn.
                with pytest.raises(HipsError):
                    apply_hips(document, spans, ("Female", "Asia"), seed=doc, pools=pool)
                exhausted += 1
                continue
            result = apply_hips(document, spans, ("Female", "Asia"), seed=doc, pools=pool)
            for rep in result.replacements:
                assert rep.surrogate.casefold() not in originals, (rep.original, rep.category)
        assert exhausted == 17

    def test_no_surrogate_is_another_original_of_its_document(self):
        pool = NamePool({group: (["Ann", "Bob", "Cid", "Dee"], ["Lane"]) for group in ALL_GROUPS})
        doc = Document("d", "Ann met Bob and Cid.")
        spans = [Span(s, s + 3, Category.NAME_STUDENT, doc.text[s : s + 3]) for s in (0, 8, 16)]
        for seed in range(200):
            result = apply_hips(doc, spans, ("Male", "Asia"), seed=seed, pools=pool)
            assert [r.surrogate for r in result.replacements] == ["Dee"] * 3

    def test_no_surrogate_is_its_original_in_another_case(self):
        pool = NamePool({group: (["Ann", "Bob"], ["Lane"]) for group in ALL_GROUPS})
        doc = Document("d", "ANN wrote this.")
        for seed in range(100):
            result = apply_hips(doc, [Span(0, 3, Category.NAME_STUDENT, "ANN")], ("Male", "Asia"),
                                seed=seed, pools=pool)
            assert result.replacements[0].surrogate == "Bob"

    def test_a_token_of_an_original_may_be_drawn(self):
        # Only whole surfaces are compared: "Lee" is not the original "Ray Lee".
        pool = NamePool({group: (["Kim", "Lee"], ["Lee"]) for group in ALL_GROUPS})
        doc = Document("d", "Ray Lee and Kim")
        spans = [Span(0, 7, Category.NAME_STUDENT, "Ray Lee"), Span(12, 15, Category.NAME_STUDENT, "Kim")]
        result = apply_hips(doc, spans, ("Male", "Asia"), seed=0, pools=pool)
        assert result.replacements[1].surrogate == "Lee"

    def test_group_that_only_holds_the_original_raises(self):
        for surface in ("John", "John Doe"):
            with pytest.raises(HipsError):
                surrogate_for(surface, Category.NAME_STUDENT, ("Male", "Asia"), stub_pool(),
                              set(), set(), _stable_rng("doc", 0))


class TestApplyHips:
    def test_transcript_fixture(self):
        doc, spans = ingest_tscc("teacher: Hi there 〈STUDENT〉, all OK?", "t1")
        result = apply_hips(doc, spans, ("Male", "Americas"), seed=0, pools=stub_pool())
        assert result.text == "teacher: Hi there John Doe, all OK?"
        assert len(result.replacements) == 1
        shifted = result.shifted_spans[0]
        assert isinstance(shifted, Span)
        assert shifted.category is Category.NAME_STUDENT
        assert result.text[shifted.start : shifted.end] == "John Doe"

    def test_shifted_spans_are_the_output_gold(self):
        # A name placeholder's surrogate is a name; an age filler is no entity of the scheme.
        doc, spans = ingest_tscc("teacher: 〈STUDENT〉 is 〈AGE〉", "t2")
        result = apply_hips(doc, spans, ("Male", "Americas"), seed=0, pools=stub_pool())
        assert len(result.replacements) == 2
        [shifted] = result.shifted_spans
        assert shifted.category is Category.NAME_STUDENT
        assert result.text[shifted.start : shifted.end] == shifted.surface == "John Doe"

    def test_zero_spans_identity(self):
        doc = Document("x", "plain text stays put")
        result = apply_hips(doc, [], ("Male", "Asia"), seed=1)
        assert result.text == doc.text
        assert result.replacements == []

    def test_splice_oracle_random_docs(self, pools):
        # Delete surrogates at shifted spans and originals at input spans:
        # the residual strings must be identical.
        from test_codec import random_case

        rng = random.Random(21)
        for _ in range(300):
            doc, spans = random_case(rng)
            result = apply_hips(doc, spans, ("Female", "Asia"), seed=7, pools=pools)
            out_text = result.text
            residual_original = []
            cursor = 0
            for rep in result.replacements:
                residual_original.append(doc.text[cursor : rep.input_offsets[0]])
                cursor = rep.input_offsets[1]
            residual_original.append(doc.text[cursor:])
            residual_output = []
            cursor = 0
            for rep in result.replacements:
                residual_output.append(out_text[cursor : rep.output_offsets[0]])
                cursor = rep.output_offsets[1]
            residual_output.append(out_text[cursor:])
            assert residual_original == residual_output

    def test_determinism(self, pools):
        from test_codec import random_case

        rng = random.Random(33)
        doc, spans = random_case(rng)
        a = apply_hips(doc, spans, ("Male", "Europe"), seed=11, pools=pools)
        b = apply_hips(doc, spans, ("Male", "Europe"), seed=11, pools=pools)
        assert a.text == b.text
        assert a.replacements == b.replacements

    def test_shifted_spans_surface_consistent(self, pools):
        from test_codec import random_case

        rng = random.Random(55)
        for _ in range(100):
            doc, spans = random_case(rng)
            result = apply_hips(doc, spans, ("Female", "Europe"), seed=3, pools=pools)
            for shifted in result.shifted_spans:
                assert result.text[shifted.start : shifted.end] == shifted.surface

    def test_long_name_shape_change_recorded(self, pools):
        text = "Jean Claude Van Damme spoke"
        doc = Document("x", text)
        span = Span(0, 21, Category.NAME_STUDENT, "Jean Claude Van Damme")
        result = apply_hips(doc, [span], ("Male", "Americas"), seed=2, pools=pools)
        assert result.replacements[0].shape_changed
        assert len(result.replacements[0].surrogate.split()) == 2

    def test_non_name_placeholder_uses_template(self):
        doc, spans = ingest_tscc("student: my 〈INSTAGRAM ACCOUNT〉 is private", "t9")
        result = apply_hips(doc, spans, ("Male", "Americas"), seed=0, pools=stub_pool())
        assert "〈" not in result.text
        assert result.text.startswith("student: my @")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(700, 5000), st.sampled_from(ALL_GROUPS))
def test_essay_length_replacement_properties(pools, seed, words, group):
    from test_codec import long_case

    doc, spans = long_case(random.Random(seed), words)
    result = apply_hips(doc, spans, group, seed=seed, pools=pools)
    reps = result.replacements
    # Splice oracle: cutting the originals from the input and the surrogates
    # from the output leaves the same text.
    edges_in = [0] + [x for r in reps for x in r.input_offsets] + [len(doc.text)]
    edges_out = [0] + [x for r in reps for x in r.output_offsets] + [len(result.text)]
    assert [doc.text[a:b] for a, b in zip(edges_in[::2], edges_in[1::2])] == [
        result.text[a:b] for a, b in zip(edges_out[::2], edges_out[1::2])
    ]
    surrogate_of: dict[tuple[str, str], str] = {}
    for r in reps:
        assert surrogate_of.setdefault((r.original, r.category), r.surrogate) == r.surrogate
        assert r.surrogate != r.original
    assert len(result.shifted_spans) == len(spans)
    for shifted in result.shifted_spans:
        assert result.text[shifted.start : shifted.end] == shifted.surface


class TestSimulateLeakage:
    def test_zero_fn_rate(self):
        est = simulate_leakage(0.0, 1.0, 10, 1000, seed=0)
        assert est == (0.0, 0.0, 0.0, 0.0)

    def test_matches_closed_form(self):
        est = simulate_leakage(0.05, 1.0, 10, 100_000, seed=0)
        assert abs(est.redaction_leak_fraction - (1 - 0.95**10)) < 0.01
        assert abs(est.redaction_leak_fraction - 0.4013) < 0.01

    def test_hips_observed_never_exceeds_redaction(self):
        for fn in (0.01, 0.1, 0.5):
            for d in (0.0, 0.3, 1.0):
                est = simulate_leakage(fn, d, 8, 20_000, seed=7)
                assert est.hips_observed_leak_fraction <= est.redaction_leak_fraction

    def test_invalid_rates_rejected(self):
        with pytest.raises(Exception):
            simulate_leakage(1.5, 0.5, 5, 100)
