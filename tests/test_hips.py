from __future__ import annotations

import random
import re
from urllib.parse import urlparse

import pytest

from deidkit.corpus import Category, Document, Placeholder, Span, ingest_tscc
from deidkit.hips import (
    ALL_GROUPS,
    EmptyGroup,
    HipsError,
    NamePool,
    SurrogateState,
    apply_hips,
    assign_groups,
    load_name_pools,
    load_region_table,
    map_country_to_culture,
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


def stub_pool(first: str = "John", last: str = "Doe") -> NamePool:
    pool = NamePool()
    for group in ALL_GROUPS:
        pool.groups[group] = ([first], [last])
    return pool


class TestLoadNamePools:
    def test_lookup_by_group(self, pools):
        assert "Amina" in pools.first_names(("Female", "Africa"))
        assert "Diallo" in pools.last_names(("Female", "Africa"))

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
        assert pool.dropped_non_ascii == 1
        assert pool.first_names(("Male", "Americas")) == ["Jose"]

    def test_empty_group_raises(self, pools):
        with pytest.raises(EmptyGroup):
            NamePool().first_names(("Female", "Oceania"))

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
        state = SurrogateState("doc", seed=0)
        out = surrogate_for("John Smith", Category.NAME_STUDENT, ("Female", "Africa"), state, pools)
        assert len(out.split()) == 2
        assert out != "John Smith"

    def test_single_token_name_shape(self, pools):
        state = SurrogateState("doc", seed=0)
        out = surrogate_for("Newton", Category.NAME_STUDENT, ("Male", "Asia"), state, pools)
        assert len(out.split()) == 1

    def test_phone_mask_preserved_and_differs(self):
        state = SurrogateState("doc", seed=0)
        original = "(555)555-5555"
        out = surrogate_for(original, Category.PHONE_NUM, ("Male", "Asia"), state)
        assert punctuation_mask(out) == punctuation_mask(original)
        assert out != original

    def test_phone_never_equals_original_across_seeds(self):
        original = "(123)456-7890"
        for seed in range(200):
            state = SurrogateState("doc", seed=seed)
            out = surrogate_for(original, Category.PHONE_NUM, ("Male", "Asia"), state)
            assert out != original

    def test_email_parses(self):
        state = SurrogateState("doc", seed=3)
        out = surrogate_for("a@b.co", Category.EMAIL, ("Male", "Asia"), state)
        assert EMAIL_RE.match(out)
        assert out != "a@b.co"

    def test_url_parses(self):
        state = SurrogateState("doc", seed=3)
        out = surrogate_for("www.me.example", Category.URL_PERSONAL, ("Male", "Asia"), state)
        parsed = urlparse(out)
        assert parsed.scheme == "https"
        assert parsed.netloc

    def test_repeat_mention_consistency(self, pools):
        state = SurrogateState("doc", seed=5)
        group = ("Female", "Americas")
        first = surrogate_for("John Smith", Category.NAME_STUDENT, group, state, pools)
        second = surrogate_for("John Smith", Category.NAME_STUDENT, group, state, pools)
        assert first == second

    def test_distinct_surfaces_distinct_surrogates_while_capacity(self, pools):
        state = SurrogateState("doc", seed=5)
        group = ("Male", "Americas")  # 3 firsts x 3 lasts = 9 combos
        outs = {
            surrogate_for(name, Category.NAME_STUDENT, group, state, pools)
            for name in ("Ada One", "Ben Two", "Cal Three", "Dee Four")
        }
        assert len(outs) == 4

    def test_name_requires_pool(self):
        state = SurrogateState("doc", seed=0)
        with pytest.raises(Exception):
            surrogate_for("John", Category.NAME_STUDENT, ("Male", "Asia"), state, None)

    def test_no_surrogate_equals_its_original(self):
        # A 10-first x 5-last pool makes a draw hit the original often, and
        # fifteen mentions per document exhaust its single-name capacity.
        firsts = [f"Name{chr(65 + i)}" for i in range(10)]
        lasts = [f"Family{chr(65 + i)}" for i in range(5)]
        pool = NamePool({group: (firsts, lasts) for group in ALL_GROUPS})
        student = Placeholder("STUDENT", True)
        rng = random.Random(8)
        for doc in range(300):
            state = SurrogateState(f"doc{doc}", seed=doc)
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
            for surface, category in cases:
                out = surrogate_for(surface, category, ("Female", "Asia"), state, pool)
                assert out != surface, (surface, category)

    def test_group_that_only_holds_the_original_raises(self):
        state = SurrogateState("doc", seed=0)
        for surface in ("John", "John Doe"):
            with pytest.raises(HipsError):
                surrogate_for(surface, Category.NAME_STUDENT, ("Male", "Asia"), state, stub_pool())


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
                residual_original.append(doc.text[cursor : rep.input_start])
                cursor = rep.input_end
            residual_original.append(doc.text[cursor:])
            residual_output = []
            cursor = 0
            for rep in result.replacements:
                residual_output.append(out_text[cursor : rep.output_start])
                cursor = rep.output_end
            residual_output.append(out_text[cursor:])
            assert residual_original == residual_output

    def test_determinism(self, pools):
        from test_codec import random_case

        rng = random.Random(33)
        doc, spans = random_case(rng)
        a = apply_hips(doc, spans, ("Male", "Europe"), seed=11, pools=pools)
        b = apply_hips(doc, spans, ("Male", "Europe"), seed=11, pools=pools)
        assert a.text == b.text
        assert [r.as_dict() for r in a.replacements] == [r.as_dict() for r in b.replacements]

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


class TestSimulateLeakage:
    def test_zero_fn_rate(self):
        est = simulate_leakage(0.0, 1.0, 10, 1000, seed=0)
        assert est == (0.0, 0.0)

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
