import copy
import inspect
import os
import pickle
import subprocess
import sys
import unicodedata
from dataclasses import MISSING, FrozenInstanceError, fields, replace
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from impact_vitality import (
    AuthorKey,
    CitingRecord,
    FilterSet,
    Severity,
    TargetAuthor,
    YearlyCitingCounts,
    citation_counts_per_publication,
    most_cited_publication,
    validate_dataset,
    yearly_citing_counts,
)
from impact_vitality.model import _strip_diacritics

from conftest import make_dataset, make_target

import pytest

EMPTY = FilterSet()


class TestAuthorKey:
    def test_normalization(self):
        key = AuthorKey("  MÜLLER ", "J. A.")
        assert key.surname == "muller"
        assert key.initials == "ja"

    def test_normalization_idempotent(self):
        key = AuthorKey("Van Der Berg", "P.Q. R")
        again = AuthorKey(key.surname, key.initials)
        assert again == key

    @given(st.text(st.characters(max_codepoint=127)))
    def test_ascii_names_fold_as_unicode_does(self, name):
        folded = unicodedata.normalize("NFKD", name)
        folded = "".join(ch for ch in folded if not unicodedata.combining(ch))
        assert _strip_diacritics(name) == folded

    def test_empty_surname_rejected(self):
        with pytest.raises(ValueError):
            AuthorKey("   ")

    def test_equal_keys_hash_equal(self):
        assert AuthorKey("Smith", "J.A.") == AuthorKey("smith", "ja")
        assert hash(AuthorKey("Smith", "J.A.")) == hash(AuthorKey("smith", "ja"))

    def test_copies_are_equal_keys_with_the_same_fields(self):
        key = AuthorKey("Núñez", "M.")
        for other in (copy.copy(key), copy.deepcopy(key), pickle.loads(pickle.dumps(key)),
                      replace(key), replace(replace(key, initials="x"), initials="m")):
            assert other == key and hash(other) == hash(key)
            assert repr(other) == "AuthorKey(surname='nunez', initials='m')"
        assert replace(key, initials="J. K.") == AuthorKey("nunez", "jk")
        assert sorted([AuthorKey("b"), key, AuthorKey("a", "z")]) == [
            AuthorKey("a", "z"), AuthorKey("b"), key]

    def test_pickled_key_is_found_under_another_hash_seed(self):
        """A key's hash is stored, but a pickle carries only its fields: a
        set pickled in one process still finds the key in a process whose
        str hashes differ."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        dump = ("import pickle, sys; from impact_vitality import AuthorKey; "
                "sys.stdout.write(pickle.dumps({AuthorKey('smith', 'j')}).hex())")
        load = ("import pickle, sys; from impact_vitality import AuthorKey; "
                "s = pickle.loads(bytes.fromhex(sys.stdin.read())); "
                "print(AuthorKey('smith', 'j') in s, hash('smith') == %d)")

        def run(seed, code, stdin=""):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            return subprocess.run([sys.executable, "-c", code], input=stdin, env=env,
                                  capture_output=True, text=True, check=True).stdout

        pickled = run(1, dump)
        seed1_hash = int(run(1, "print(hash('smith'))"))
        assert run(2, load % seed1_hash, pickled).split() == ["True", "False"]


class TestTargetAuthor:
    def test_key_always_in_variants(self):
        target = make_target("smith", "ja", variants=[("smith", "j")])
        assert target.key in target.name_variants
        assert AuthorKey("smith", "j") in target.name_variants


@st.composite
def record_fields(draw):
    """Valid keyword arguments of CitingRecord, in any order, each field with
    a default present or absent, lists as the parser passes them."""
    values = {"id": draw(st.text(max_size=4)), "year": draw(st.integers(1800, 2030))}
    if draw(st.booleans()):
        names = st.builds(AuthorKey, st.sampled_from(["smith", "Núñez", "lee"]),
                          st.sampled_from(["", "J.", "ka"]))
        values["authors"] = draw(st.lists(names, max_size=4))
    if draw(st.booleans()):
        values["cited_target_pub_ids"] = draw(st.lists(st.text(max_size=3), max_size=4))
    if draw(st.booleans()):
        values["doc_type"] = draw(st.sampled_from(["article", "review", ""]))
    return dict(draw(st.permutations(list(values.items()))))


class TestCitingRecordConstructor:
    """`CitingRecord`'s hand-written `__init__` behaves as a generated one would."""

    def test_signature_lists_the_fields_in_order_with_their_defaults(self):
        params = inspect.signature(CitingRecord).parameters
        assert [(p.name, p.default) for p in params.values()] == [
            (f.name, inspect.Parameter.empty if f.default is MISSING else f.default)
            for f in fields(CitingRecord)
        ]

    @given(record_fields())
    def test_lists_in_give_the_record_frozensets_give(self, values):
        built = CitingRecord(**values)
        frozen = CitingRecord(**{name: frozenset(value) if type(value) is list else value
                                 for name, value in values.items()})
        assert type(built.authors) is frozenset and type(built.cited_target_pub_ids) is frozenset
        assert list(vars(built)) == [f.name for f in fields(CitingRecord)]
        # A remade frozenset may iterate in another order, so each remade
        # record is compared with the other record remade the same way.
        for remake in (lambda rec: rec, lambda rec: pickle.loads(pickle.dumps(rec)),
                       copy.deepcopy, replace):
            other, expected = remake(built), remake(frozen)
            assert other == expected == frozen and hash(other) == hash(expected)
            assert repr(other) == repr(expected)
            assert list(vars(other).items()) == list(vars(expected).items())
        with pytest.raises(FrozenInstanceError):
            built.year = 2000

    @pytest.mark.parametrize("values, message", [
        ({"id": "c1", "year": 2000, "venue": "x"}, "got an unexpected keyword argument 'venue'"),
        ({"id": "c1"}, "missing 1 required positional argument: 'year'"),
        ({"year": 2000, "cited_target_pub_ids": []}, "missing 1 required positional argument: 'id'"),
    ], ids=["unknown_field", "no_year", "no_id"])
    def test_a_bad_field_set_names_the_field(self, values, message):
        with pytest.raises(TypeError) as error:
            CitingRecord(**values)
        assert str(error.value) == f"CitingRecord.__init__() {message}"


class TestValidateDataset:
    def test_well_formed_dataset_is_clean(self):
        ds = make_dataset(
            [("p1", 2000), ("p2", 2002)],
            [("c1", 2003, {"p1"}), ("c2", 2004, {"p1", "p2"})],
        )
        assert validate_dataset(ds) == []

    def test_empty_cited_ids_is_error(self):
        ds = make_dataset([("p1", 2000)], [("c1", 2003, set())])
        findings = validate_dataset(ds)
        assert [f.severity for f in findings] == [Severity.ERROR]

    def test_unknown_publication_is_error(self):
        ds = make_dataset([("p1", 2000)], [("c1", 2003, {"ghost"})])
        findings = validate_dataset(ds)
        assert any(f.severity is Severity.ERROR and "ghost" in f.message for f in findings)

    def test_duplicate_record_id_is_error(self):
        ds = make_dataset(
            [("p1", 2000)],
            [("c1", 2003, {"p1"}), ("c1", 2004, {"p1"})],
        )
        assert any(f.severity is Severity.ERROR for f in validate_dataset(ds))

    def test_citing_before_cited_is_warning(self):
        ds = make_dataset([("p1", 1995)], [("c1", 1990, {"p1"})])
        findings = validate_dataset(ds)
        assert [f.severity for f in findings] == [Severity.WARNING]

    def test_cited_id_findings_come_in_id_order(self):
        ds = make_dataset(
            [("p1", 1990), ("p3", 2010), ("p5", 2012)],
            [
                ("c0", 2011, {"p3", "p1"}),
                ("c1", 2005, {"p5", "ghost2", "p1", "p3", "ghost1", "a0"}),
                ("c2", 2011, {"p5", "p1"}),
            ],
        )
        assert [(f.severity, f.message) for f in validate_dataset(ds)] == [
            (Severity.ERROR, "citing record 'c1' references unknown publication 'a0'"),
            (Severity.ERROR, "citing record 'c1' references unknown publication 'ghost1'"),
            (Severity.ERROR, "citing record 'c1' references unknown publication 'ghost2'"),
            (Severity.WARNING, "citing record 'c1' dated 2005 cites 'p3' published 2010"),
            (Severity.WARNING, "citing record 'c1' dated 2005 cites 'p5' published 2012"),
            (Severity.WARNING, "citing record 'c2' dated 2011 cites 'p5' published 2012"),
        ]

    def test_career_start_after_first_citation_is_warning(self):
        target = make_target(career_start_year=2010)
        ds = make_dataset([("p1", 2000)], [("c1", 2003, {"p1"})], target=target)
        findings = validate_dataset(ds)
        assert [f.severity for f in findings] == [Severity.WARNING]

    def test_first_citation_year_derived(self):
        ds = make_dataset(
            [("p1", 2000)], [("c1", 2005, {"p1"}), ("c2", 2003, {"p1"})]
        )
        assert ds.target.first_citation_year == 2003

    @pytest.mark.parametrize(
        "career_start, first_citation, record_year, culprit",
        [
            (None, None, 20000, "citing record 'c1' year 20000"),
            (None, None, 1, "citing record 'c1' year 1"),
            (1700, None, 2003, "target career_start_year 1700"),
            (None, 3000, 2003, "target first_citation_year 3000"),
        ],
    )
    def test_years_out_of_range_are_errors(self, career_start, first_citation, record_year, culprit):
        target = TargetAuthor(
            key=AuthorKey("smith", "ja"),
            career_start_year=career_start,
            first_citation_year=first_citation,
        )
        ds = make_dataset([("p1", 1990)], [("c1", record_year, {"p1"})], target=target)
        errors = [f.message for f in validate_dataset(ds) if f.severity is Severity.ERROR]
        # A derived first_citation_year is a record's year and is reported once, as such.
        assert len(errors) == 1
        assert errors[0].startswith(f"{culprit} outside [1800, ")


class TestYearlyCitingCounts:
    def test_direct_count(self):
        ds = make_dataset(
            [("p1", 2000)],
            [("c1", 2005, {"p1"}), ("c2", 2005, {"p1"}), ("c3", 2004, {"p1"})],
        )
        assert yearly_citing_counts(ds, EMPTY).counts == {2005: 2, 2004: 1}

    def test_multi_cite_record_counts_once(self):
        ds = make_dataset(
            [("p1", 2000), ("p2", 2001), ("p3", 2002)],
            [("c1", 2005, {"p1", "p2", "p3"})],
        )
        assert yearly_citing_counts(ds, EMPTY).counts == {2005: 1}

    def test_sum_equals_surviving_records(self):
        ds = make_dataset(
            [("p1", 2000), ("p2", 2001)],
            [(f"c{i}", 2000 + i % 4, {"p1"} if i % 2 else {"p1", "p2"}) for i in range(17)],
        )
        counts = yearly_citing_counts(ds, EMPTY)
        assert counts.total() == 17

    def test_table5_scale_count(self):
        ds = make_dataset(
            [("p1", 1999)],
            [(f"c{i}", 2007, {"p1"}) for i in range(316)],
        )
        assert yearly_citing_counts(ds, EMPTY).counts == {2007: 316}

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            YearlyCitingCounts({2000: -1})


class TestCitationCountsPerPublication:
    def test_record_citing_two_counts_once_each(self):
        ds = make_dataset([("pA", 2000), ("pB", 2001)], [("c1", 2003, {"pA", "pB"})])
        assert citation_counts_per_publication(ds, EMPTY) == {"pA": 1, "pB": 1}

    def test_no_citing_records_all_zero(self):
        ds = make_dataset([("pA", 2000), ("pB", 2001)], [])
        assert citation_counts_per_publication(ds, EMPTY) == {"pA": 0, "pB": 0}

    def test_brute_force_agreement(self):
        records = [(f"c{i}", 2003, {"pA", "pB"} if i < 2 else {"pA"}) for i in range(5)]
        ds = make_dataset([("pA", 2000), ("pB", 2001)], records)
        result = citation_counts_per_publication(ds, EMPTY)
        assert result == {"pA": 5, "pB": 2}
        # independent recount straight from the record tuples
        for pub_id, count in result.items():
            assert count == sum(1 for _, _, cited in records if pub_id in cited)

    def test_pub_sum_at_least_record_count(self):
        ds = make_dataset(
            [("pA", 2000), ("pB", 2001)],
            [("c1", 2003, {"pA"}), ("c2", 2003, {"pA", "pB"})],
        )
        per_pub = citation_counts_per_publication(ds, EMPTY)
        assert sum(per_pub.values()) >= len(ds.citing_records)

    @pytest.mark.parametrize("reduce", [
        lambda ds: citation_counts_per_publication(ds, EMPTY),
        most_cited_publication,
    ])
    def test_unknown_cited_id_names_record_and_id(self, reduce):
        # construction does not check cited ids; validate_dataset does
        ds = make_dataset([("pA", 2000)], [("c1", 2003, {"pA"}), ("c2", 2004, {"ghost"})])
        message = "citing record 'c2' references unknown publication 'ghost'"
        with pytest.raises(ValueError, match=message):
            reduce(ds)
