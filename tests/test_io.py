import dataclasses
import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from impact_vitality import (
    AuthorKey,
    CitationDataset,
    CitingRecord,
    FixedStart,
    FormatError,
    Publication,
    TargetAuthor,
    YearlyCitingCounts,
    emit_counts,
    emit_dataset,
    emit_report,
    iv_profile,
    parse_counts,
    parse_dataset,
    parse_manifest,
)
from impact_vitality import io as iv_io
from impact_vitality.io import MAX_COUNT, SCHEMA
from impact_vitality.model import YEAR_MAX, YEAR_MIN, normalize_surname

from conftest import TABLE5_COUNTS, make_dataset, make_target

MINIMAL_DOC = json.dumps(
    {
        "schema_version": 1,
        "target": {"key": {"surname": "smith", "initials": "ja"}},
        "publications": [{"id": "p1", "year": 2000, "doc_type": "article"}],
        "citing_records": [
            {
                "id": "c1",
                "year": 2003,
                "authors": [{"surname": "jones", "initials": "k"}],
                "cited_target_pub_ids": ["p1"],
                "doc_type": "article",
            }
        ],
    }
)


_DELETE = object()


def _changed(document, changes):
    """`document` with the value at each path (a tuple of keys and indexes)
    in `changes` replaced, or removed where it is `_DELETE`."""
    doc = json.loads(document)
    for path, value in changes.items():
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return json.dumps(doc)


class TestParseDataset:
    def test_minimal_document(self):
        ds = parse_dataset(MINIMAL_DOC)
        assert len(ds.citing_records) == 1
        assert ds.citing_records[0].cited_target_pub_ids == {"p1"}
        assert ds.target.first_citation_year == 2003

    def test_unknown_field_rejected_by_name(self):
        doc = json.loads(MINIMAL_DOC)
        doc["publications"][0]["impact_factor"] = 9.7
        with pytest.raises(FormatError, match="impact_factor"):
            parse_dataset(json.dumps(doc))

    @pytest.mark.parametrize("repeated, value", [
        ('"year": 2000', '"year": 1999, "year": 2000'),
        ('"year": 2003', '"year": 2004, "year": 2003'),
    ], ids=["publication_year", "record_year"])
    def test_a_repeated_key_keeps_its_last_value(self, repeated, value):
        """A name given twice in one object is no error: as in `json.loads`,
        the last value is the one parsed, and the first is dropped unnamed."""
        assert MINIMAL_DOC.count(repeated) == 1
        ds = parse_dataset(MINIMAL_DOC.replace(repeated, value))
        assert ds == parse_dataset(MINIMAL_DOC)
        # the first value alone parses to another dataset
        assert parse_dataset(MINIMAL_DOC.replace(repeated, value.split(", ")[0])) != ds

    def test_bad_schema_version(self):
        doc = json.loads(MINIMAL_DOC)
        doc["schema_version"] = 99
        with pytest.raises(FormatError, match="schema_version"):
            parse_dataset(json.dumps(doc))

    def test_malformed_json(self):
        for document, message in [
            ("{not json", "malformed"),
            ("[" * 100_000 + "]" * 100_000, "^malformed JSON: nested too deeply$"),
        ]:
            with pytest.raises(FormatError, match=message):
                parse_dataset(document)

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter sets no limit on the digits of an int",
    )
    def test_integer_over_the_digit_limit_is_malformed_json(self):
        """json.loads refuses such an int with a plain ValueError, which is
        no JSONDecodeError."""
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(FormatError, match="malformed JSON: Exceeds the limit"):
            parse_dataset(f'{{"schema_version": {digits}}}')

    def test_missing_field_named(self):
        doc = json.loads(MINIMAL_DOC)
        del doc["citing_records"][0]["year"]
        with pytest.raises(FormatError, match="year"):
            parse_dataset(json.dumps(doc))

    @pytest.mark.parametrize(
        "path, value, culprit",
        [
            (("publications",), None, "'publications' must be list"),
            (("citing_records",), {}, "'citing_records' must be list"),
            (("target", "name_variants"), "smith", "'name_variants' must be list"),
            (("citing_records", 0, "authors"), None, "'authors' must be list"),
            (("citing_records", 0, "cited_target_pub_ids"), "p1", "must be list, got str"),
            (("citing_records", 0, "year"), None, "'year' must be int, got NoneType"),
            (("citing_records", 0, "year"), "abc", "'year' must be int, got str"),
            (("publications", 0, "year"), 1992.7, "'year' must be int, got float"),
            (("publications", 0, "year"), "2000", "'year' must be int, got str"),
            (("publications", 0, "year"), True, "'year' must be int, got bool"),
            (("target", "career_start_year"), "1990", "'career_start_year' must be int"),
            (("target", "career_start_year"), False, "'career_start_year' must be int"),
            (("target", "first_citation_year"), 2003.0, "'first_citation_year' must be int"),
            (("publications", 0, "id"), 5, "publications[0]: 'id' must be str, got int"),
            (("publications", 0, "doc_type"), 7, "'doc_type' must be str, got int"),
            (("publications", 0, "label"), 7, "'label' must be str, got int"),
            (("target", "key", "surname"), 3, "target.key: 'surname' must be str, got int"),
            (("citing_records", 0, "cited_target_pub_ids", 0), 1, "must hold only str"),
            (("schema_version",), True, "'schema_version' must be int, got bool"),
        ],
    )
    def test_json_types_are_strict(self, path, value, culprit):
        with pytest.raises(FormatError) as info:
            parse_dataset(_changed(MINIMAL_DOC, {path: value}))
        assert culprit in str(info.value)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({("target", "name_variants"): [{"surname": "lee"}, "lee"]},
             "target.name_variants[1]: expected an object, got str"),
            ({("citing_records", 0, "authors", 0): {"initials": "k"}},
             "citing_records[0].authors[0]: missing required field 'surname'"),
            ({("publications", 0): 5}, "publications[0]: expected an object, got int"),
            ({("target", "key"): []}, "target: 'key' must be dict, got list"),
            # the dataset object's own field types are checked before its nesting
            ({("target",): []}, "dataset: 'target' must be dict, got list"),
            ({("schema_version",): 2, ("target", "key"): 5},
             "dataset: unsupported schema_version 2"),
            ({("schema_version",): 2, ("publications",): [5]},
             "dataset: unsupported schema_version 2"),
            # the version fixes the layout, so it comes before the dataset's own fields
            ({("schema_version",): 2, ("target",): _DELETE, ("publications",): _DELETE,
              ("citing_records",): _DELETE},
             "dataset: unsupported schema_version 2"),
            ({("schema_version",): 2, ("target",): _DELETE, ("publications",): _DELETE,
              ("citing_records",): _DELETE, ("author",): {"surname": "Doe"}, ("works",): []},
             "dataset: unsupported schema_version 2"),
        ],
    )
    def test_nested_errors_name_their_path(self, changes, message):
        with pytest.raises(FormatError) as info:
            parse_dataset(_changed(MINIMAL_DOC, changes))
        assert str(info.value) == message

    def _with_authors(self, authors):
        """MINIMAL_DOC with one record per list of author objects in `authors`."""
        doc = json.loads(MINIMAL_DOC)
        record = doc["citing_records"][0]
        doc["citing_records"] = [
            dict(record, id=f"c{i}", authors=names) for i, names in enumerate(authors)
        ]
        return doc

    def test_repeated_names_parse_like_fresh_keys(self):
        names = [
            {"surname": "Müller", "initials": "J.A."},
            {"surname": "MULLER", "initials": "ja"},
            {"surname": "Smith"},
            {"surname": "SMITH", "initials": ""},
            {"surname": " smith ", "initials": "J A"},
            {"surname": "Müller", "initials": "J.A."},
        ]
        doc = self._with_authors([names[:3], names[3:], names[::2], names[1::2]])
        ds = parse_dataset(json.dumps(doc))
        for rec, raw in zip(ds.citing_records, doc["citing_records"]):
            assert rec.authors == {AuthorKey(**obj) for obj in raw["authors"]}
        muller, smith = AuthorKey("muller", "ja"), AuthorKey("smith")
        assert ds.citing_records[0].authors == {muller, smith}
        assert ds.citing_records[3].authors == {muller, smith}  # other spellings

    def test_identical_raw_names_share_one_key(self):
        name = {"surname": "Núñez", "initials": "M."}
        doc = self._with_authors([[name], [name, {"surname": "Lee"}], [], [name]])
        doc["target"]["name_variants"] = [name]
        ds = parse_dataset(json.dumps(doc))
        keys = [k for r in ds.citing_records for k in r.authors if k.surname == "nunez"]
        variant = next(k for k in ds.target.name_variants if k.surname == "nunez")
        assert len(keys) == 3
        assert all(k is variant for k in keys)

    @pytest.mark.parametrize(
        "bad, culprit",
        [
            ({"surname": " \u0301 ", "initials": "k"}, "AuthorKey surname must be non-empty"),
            ({"surname": "jones", "initials": 5}, "'initials' must be str, got int"),
            ({"surname": "jones", "initials": "k", "orcid": "x"}, "unknown field 'orcid'"),
        ],
    )
    def test_bad_author_names_its_own_context(self, bad, culprit):
        # "jones k" is known by the time the bad object comes
        good = {"surname": "jones", "initials": "k"}
        doc = self._with_authors([[good], [good], [good], [good, bad]])
        with pytest.raises(FormatError) as info:
            parse_dataset(json.dumps(doc))
        assert str(info.value) == f"citing_records[3].authors[1]: {culprit}"

    def test_round_trip(self):
        target = make_target("O'Neil", "P.Q.", variants=[("oneil", "p")], career_start_year=1999)
        ds = make_dataset(
            [("p1", 2000, "article"), ("p2", 2002, "review")],
            [
                ("c1", 2003, {"p1"}, [("jones", "k")], "article"),
                ("c2", 2004, {"p1", "p2"}, [("oneil", "pq")], "review"),
            ],
            target=target,
        )
        assert parse_dataset(emit_dataset(ds)) == ds

    def test_round_trip_is_stable_text(self):
        ds = parse_dataset(MINIMAL_DOC)
        once = emit_dataset(ds)
        assert emit_dataset(parse_dataset(once)) == once


MODELS = {"dataset": CitationDataset, "target": TargetAuthor, "author": AuthorKey,
          "publication": Publication, "citing record": CitingRecord}


def test_schema_names_the_model_fields():
    # Parsing and emitting read a model's fields by the names SCHEMA gives them.
    assert set(SCHEMA) == set(MODELS)
    for kind, model in MODELS.items():
        names = {f.name for f in dataclasses.fields(model)}
        if kind == "dataset":
            names.add("schema_version")
        assert set(SCHEMA[kind]) == names, kind
        for _, _, nested in SCHEMA[kind].values():
            assert nested in (None, str) or nested in SCHEMA, (kind, nested)


def _reference_emit(ds):
    """The dataset document as `emit_dataset` built it by hand before SCHEMA
    drove it."""

    def author(key):
        return {"surname": key.surname, "initials": key.initials}

    target = {
        "key": author(ds.target.key),
        "name_variants": [author(k) for k in sorted(ds.target.name_variants)],
    }
    if ds.target.career_start_year is not None:
        target["career_start_year"] = ds.target.career_start_year
    if ds.target.first_citation_year is not None:
        target["first_citation_year"] = ds.target.first_citation_year

    def pub_obj(p):
        obj = {"id": p.id, "year": p.year, "doc_type": p.doc_type}
        if p.label is not None:
            obj["label"] = p.label
        return obj

    def rec_obj(r):
        return {
            "id": r.id,
            "year": r.year,
            "authors": [author(k) for k in sorted(r.authors)],
            "cited_target_pub_ids": sorted(r.cited_target_pub_ids),
            "doc_type": r.doc_type,
        }

    doc = {
        "schema_version": 1,
        "target": target,
        "publications": [pub_obj(p) for p in ds.publications],
        "citing_records": [rec_obj(r) for r in ds.citing_records],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Control characters, quotes, backslashes, combining marks, non-ASCII letters,
# and anything else hypothesis draws.
chars = st.one_of(st.sampled_from('a\x00\x1f\x7f"\\\u0301é\u2028ñ .ß'), st.characters())
texts = st.text(chars, max_size=6)
surnames = st.text(chars, min_size=1, max_size=6).filter(normalize_surname)
keys = st.builds(AuthorKey, surnames, texts)
SHARED = AuthorKey("Ñ\ud800ez", "\U0001f600.")  # a lone surrogate and a non-BMP character
years = st.none() | st.integers(min_value=-10**6, max_value=10**6)
datasets = st.builds(
    CitationDataset,
    target=st.builds(TargetAuthor, key=keys, name_variants=st.frozensets(keys, max_size=3),
                     career_start_year=years, first_citation_year=years),
    publications=st.lists(
        st.builds(Publication, id=texts, year=st.integers(min_value=1800, max_value=2030),
                  doc_type=texts, label=st.none() | texts),
        max_size=4,
    ),
    citing_records=st.lists(
        st.builds(CitingRecord, id=texts, year=st.integers(min_value=1800, max_value=2030),
                  authors=st.frozensets(keys, max_size=3),
                  cited_target_pub_ids=st.frozensets(texts, max_size=3), doc_type=texts),
        max_size=5,
    ),
)


@settings(max_examples=200, deadline=None)
@given(datasets)
@example(CitationDataset(TargetAuthor(AuthorKey("Ñ\x00ez", "j.\x1f"))))  # no publications or records
@example(CitationDataset(
    TargetAuthor(AuthorKey("lee")),
    publications=[Publication("p\u2028", 1990, label=None)],
    citing_records=[CitingRecord("c\"1", 1991, authors=(), cited_target_pub_ids={"p\u2028"})],
))
@example(CitationDataset(  # one key as target, variant and author, at three depths
    TargetAuthor(SHARED, name_variants={SHARED, AuthorKey("lee")}),
    publications=[Publication("p", 1990)],
    citing_records=[CitingRecord("c", 1991, authors={SHARED}, cited_target_pub_ids={"p"}),
                    CitingRecord("d", 1992, authors={SHARED, AuthorKey("lee")},
                                 cited_target_pub_ids={"p"})],
))
@example(CitationDataset(  # equal keys as distinct objects; one key object at two list depths
    TargetAuthor(SHARED, name_variants={SHARED, AuthorKey("lee")}),
    publications=[Publication("p", 1990)],
    citing_records=[CitingRecord("c", 1991, authors={SHARED, AuthorKey("lee")},
                                 cited_target_pub_ids={"p"}),
                    CitingRecord("d", 1992, authors={AuthorKey(SHARED.surname, SHARED.initials)},
                                 cited_target_pub_ids={"p"})],
))
def test_emit_matches_reference_bytes_and_round_trips(ds):
    text = emit_dataset(ds)
    assert text == _reference_emit(ds)
    assert parse_dataset(text) == ds


def test_emit_writes_other_scalars_as_json_does():
    """A hand-built model may hold a bool, a float or a list where the format
    has an int or a str; the bytes are still those of json.dumps. Such text
    does not parse."""
    ds = CitationDataset(
        TargetAuthor(SHARED, career_start_year=True, first_citation_year=False),
        publications=[Publication("p", 1990.5), Publication("q", 2.5e300, label=("x", [1.5]))],
    )
    assert emit_dataset(ds) == _reference_emit(ds)
    # with every field None left out, an object is written as json.dumps writes {}
    ds = CitationDataset(TargetAuthor(SHARED), publications=[Publication(None, None, None)])
    assert '\n  "publications": [\n    {}\n  ],\n' in emit_dataset(ds)


def _seeded_dataset(seed, n_pubs, n_records):
    """A dataset of repeated, accented and escaped names, drawn from `seed`."""
    rng = random.Random(seed)
    names = [AuthorKey(rng.choice(["Smith", "Müller", "Núñez", "O'Neil", "Lee", 'Qu"ote']) + str(i),
                       rng.choice(["", "J.A.", "é", "k\t"]))
             for i in range(n_records // 20)]
    pubs = [Publication(f"p{i}", rng.randint(1980, 2010), rng.choice(["article", "review"]),
                        rng.choice([None, f"Título {i}"]))
            for i in range(n_pubs)]
    records = [
        CitingRecord(f"c{i}", rng.randint(1981, 2020), rng.sample(names, rng.randint(0, 6)),
                     {p.id for p in rng.sample(pubs, rng.randint(1, 3))}, "article")
        for i in range(n_records)
    ]
    target = TargetAuthor(names[0], name_variants=names[1:4], career_start_year=1979)
    return CitationDataset(target, pubs, records)


def test_emit_of_2000_records_matches_reference_bytes():
    ds = _seeded_dataset(11, 100, 2000)
    assert emit_dataset(ds) == _reference_emit(ds)


_GOOD_AUTHORS = [{"surname": "Jones", "initials": "K."}, {"surname": "Müller"},
                 {"surname": "lee", "initials": "j"}]


def _three_records(changes=None):
    """A valid document of three records with three authors each, with the
    value at each path (relative to the record list) in `changes` replaced,
    or removed where it is `_DELETE`."""
    doc = json.loads(MINIMAL_DOC)
    doc["citing_records"] = [
        {"id": f"c{i}", "year": 2003 + i, "authors": [dict(a) for a in _GOOD_AUTHORS],
         "cited_target_pub_ids": ["p1"], "doc_type": "article"}
        for i in range(3)
    ]
    return _changed(json.dumps(doc), {("citing_records", *path): value
                                      for path, value in (changes or {}).items()})


# One defect in record 2 (or in its author 1 or 2), after good records and
# good authors, and the exact message `parse_dataset` gives for it.
RECORD_DEFECTS = [
    ({(2, "venue"): "x"}, "citing_records[2]: unknown field 'venue'"),
    ({(2, "id"): _DELETE}, "citing_records[2]: missing required field 'id'"),
    ({(2, "year"): _DELETE}, "citing_records[2]: missing required field 'year'"),
    ({(2, "cited_target_pub_ids"): _DELETE},
     "citing_records[2]: missing required field 'cited_target_pub_ids'"),
    ({(2, "year"): True}, "citing_records[2]: 'year' must be int, got bool"),
    ({(2, "year"): None}, "citing_records[2]: 'year' must be int, got NoneType"),
    ({(2, "doc_type"): None}, "citing_records[2]: 'doc_type' must be str, got NoneType"),
    ({(2, "cited_target_pub_ids"): ["p1", 7]},
     "citing_records[2]: 'cited_target_pub_ids' must hold only str"),
    ({(2, "cited_target_pub_ids"): ["p1", ["p1"]]},
     "citing_records[2]: 'cited_target_pub_ids' must hold only str"),
    ({(2, "cited_target_pub_ids"): "p1"},
     "citing_records[2]: 'cited_target_pub_ids' must be list, got str"),
    ({(2, "authors"): None}, "citing_records[2]: 'authors' must be list, got NoneType"),
    ({(2,): ["c2"]}, "citing_records[2]: expected an object, got list"),
    ({(2, "authors", 1): "Müller"}, "citing_records[2].authors[1]: expected an object, got str"),
    ({(2, "authors", 2, "orcid"): "x"}, "citing_records[2].authors[2]: unknown field 'orcid'"),
    ({(2, "authors", 1, "initials"): 5},
     "citing_records[2].authors[1]: 'initials' must be str, got int"),
    ({(2, "authors", 1, "surname"): ["lee"]},
     "citing_records[2].authors[1]: 'surname' must be str, got list"),
    ({(2, "authors", 2, "surname"): _DELETE},
     "citing_records[2].authors[2]: missing required field 'surname'"),
    ({(2, "authors", 2, "surname"): " \u0301 "},
     "citing_records[2].authors[2]: AuthorKey surname must be non-empty"),
    # with two defects, the order of the checks decides which is named
    ({(2, "authors", 1): 5, (2, "venue"): "x"}, "citing_records[2]: unknown field 'venue'"),
    ({(2, "authors", 1): 5, (2, "cited_target_pub_ids"): [7]},
     "citing_records[2].authors[1]: expected an object, got int"),
    ({(2, "authors", 2): 5, (1, "authors", 1): 5},
     "citing_records[1].authors[1]: expected an object, got int"),
]


@pytest.mark.parametrize("changes, message", RECORD_DEFECTS)
def test_record_defects_keep_the_walkers_message(changes, message):
    with pytest.raises(FormatError) as info:
        parse_dataset(_three_records(changes))
    assert str(info.value) == message


# One defect of each kind in the dataset, target, author and publication
# objects outside the records, changed in MINIMAL_DOC, and the exact message
# `parse_dataset` gives for it.
_LEE = {"surname": "lee"}
DOCUMENT_DEFECTS = [
    ({("venue",): "x"}, "dataset: unknown field 'venue'"),
    ({("schema_version",): _DELETE}, "dataset: missing required field 'schema_version'"),
    ({("target",): _DELETE}, "dataset: missing required field 'target'"),
    ({("citing_records",): _DELETE}, "dataset: missing required field 'citing_records'"),
    ({("schema_version",): True}, "dataset: 'schema_version' must be int, got bool"),
    ({("schema_version",): "1"}, "dataset: 'schema_version' must be int, got str"),
    ({("schema_version",): 1.0}, "dataset: 'schema_version' must be int, got float"),
    ({("target",): []}, "dataset: 'target' must be dict, got list"),
    ({("publications",): {}}, "dataset: 'publications' must be list, got dict"),
    ({("target", "orcid"): "x"}, "target: unknown field 'orcid'"),
    ({("target", "key"): _DELETE}, "target: missing required field 'key'"),
    ({("target", "career_start_year"): True}, "target: 'career_start_year' must be int, got bool"),
    ({("target", "first_citation_year"): []},
     "target: 'first_citation_year' must be int, got list"),
    ({("target", "key"): []}, "target: 'key' must be dict, got list"),
    ({("target", "name_variants"): {}}, "target: 'name_variants' must be list, got dict"),
    ({("target", "key", "orcid"): "x"}, "target.key: unknown field 'orcid'"),
    ({("target", "key", "surname"): _DELETE}, "target.key: missing required field 'surname'"),
    ({("target", "key", "initials"): False}, "target.key: 'initials' must be str, got bool"),
    ({("target", "key", "surname"): {}}, "target.key: 'surname' must be str, got dict"),
    ({("target", "key", "surname"): " \u0301 "}, "target.key: AuthorKey surname must be non-empty"),
    ({("target", "name_variants"): [_LEE, {"surname": "lee", "orcid": "x"}]},
     "target.name_variants[1]: unknown field 'orcid'"),
    ({("target", "name_variants"): [_LEE, {"initials": "j"}]},
     "target.name_variants[1]: missing required field 'surname'"),
    ({("target", "name_variants"): [_LEE, {"surname": True}]},
     "target.name_variants[1]: 'surname' must be str, got bool"),
    ({("target", "name_variants"): [_LEE, {"surname": "Müller", "initials": ["j"]}]},
     "target.name_variants[1]: 'initials' must be str, got list"),
    ({("target", "name_variants"): [_LEE, []]},
     "target.name_variants[1]: expected an object, got list"),
    ({("target", "name_variants"): [_LEE, {"surname": "\u0301"}]},
     "target.name_variants[1]: AuthorKey surname must be non-empty"),
    ({("publications", 0, "impact_factor"): 9.7},
     "publications[0]: unknown field 'impact_factor'"),
    ({("publications", 0, "id"): _DELETE}, "publications[0]: missing required field 'id'"),
    ({("publications", 0, "year"): _DELETE}, "publications[0]: missing required field 'year'"),
    ({("publications", 0, "year"): True}, "publications[0]: 'year' must be int, got bool"),
    ({("publications", 0, "label"): []}, "publications[0]: 'label' must be str, got list"),
    ({("publications", 0, "doc_type"): None},
     "publications[0]: 'doc_type' must be str, got NoneType"),
    ({("publications", 0): []}, "publications[0]: expected an object, got list"),
    # with two defects, the order of the checks decides which is named
    ({("publications", 0, "year"): True, ("publications", 0, "id"): _DELETE},
     "publications[0]: 'year' must be int, got bool"),
    ({("publications", 0, "id"): _DELETE, ("publications", 0, "impact_factor"): 1},
     "publications[0]: unknown field 'impact_factor'"),
    ({("publications",): _DELETE, ("target",): _DELETE},
     "dataset: missing required field 'target'"),
    ({("target", "key"): 5, ("target", "orcid"): "x"}, "target: 'key' must be dict, got int"),
    ({("target", "name_variants"): [5], ("publications", 0): 5},
     "target.name_variants[0]: expected an object, got int"),
    ({("target", "key", "surname"): "", ("target", "name_variants"): [5]},
     "target.key: AuthorKey surname must be non-empty"),
]


@pytest.mark.parametrize("changes, message", DOCUMENT_DEFECTS)
def test_document_defects_keep_their_message(changes, message):
    with pytest.raises(FormatError) as info:
        parse_dataset(_changed(MINIMAL_DOC, changes))
    assert str(info.value) == message


@pytest.mark.parametrize("document, kind", [("[]", "list"), ("5", "int"), ("null", "NoneType")])
def test_a_document_that_is_no_object_is_named(document, kind):
    with pytest.raises(FormatError) as info:
        parse_dataset(document)
    assert str(info.value) == f"dataset: expected an object, got {kind}"


def _outcome(document):
    """The dataset `document` parses to, or the type and text of its error."""
    try:
        return parse_dataset(document)
    except (FormatError, TypeError) as exc:
        return type(exc), str(exc)


# Places where no author belongs, as paths in MINIMAL_DOC (the root is ()),
# and the message an author-shaped object there gets from the plain walk.
# The decode makes a key of such an object; the message still names a dict.
MISPLACED_AUTHORS = [
    ((), "dataset: unknown field 'surname'"),
    (("target",), "target: unknown field 'surname'"),
    (("publications", 0), "publications[0]: unknown field 'surname'"),
    (("citing_records", 0), "citing_records[0]: unknown field 'surname'"),
    (("publications", 0, "year"), "publications[0]: 'year' must be int, got dict"),
    (("citing_records", 0, "year"), "citing_records[0]: 'year' must be int, got dict"),
    (("publications", 0, "label"), "publications[0]: 'label' must be str, got dict"),
    (("citing_records", 0, "cited_target_pub_ids", 0),
     "citing_records[0]: 'cited_target_pub_ids' must hold only str"),
]


@pytest.mark.parametrize("author", [{"surname": "x", "initials": "y"}, {"surname": "x"}])
@pytest.mark.parametrize("path, message", MISPLACED_AUTHORS)
def test_an_author_where_none_belongs_is_named_as_an_object(path, message, author):
    document = json.dumps(author) if path == () else _changed(MINIMAL_DOC, {path: author})
    with pytest.raises(FormatError) as info:
        parse_dataset(document)
    assert str(info.value) == message


class _CountingJson:
    """Stands in for the `json` module inside `io`, counting `loads` calls."""

    def __init__(self):
        self.loads_calls = 0

    def loads(self, *args, **kwargs):
        self.loads_calls += 1
        return json.loads(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(json, name)


def test_a_valid_document_is_decoded_once_under_a_rebound_author_key(monkeypatch):
    """A benchmark tracer rebinds `io.AuthorKey` to a counting function and
    `io.json` to a proxy; a valid document is still decoded once, and each
    raw name still gives one key, shared by the target and the records."""
    name, lee = {"surname": "Núñez", "initials": "M."}, {"surname": "Lee"}
    doc = json.loads(MINIMAL_DOC)
    doc["target"] = {"key": name, "name_variants": [lee, name]}
    record = doc["citing_records"][0]
    doc["citing_records"] = [dict(record, id=f"c{i}", authors=authors)
                             for i, authors in enumerate([[name], [lee, name], [], [name]])]
    document = json.dumps(doc)
    expected = parse_dataset(document)

    made = []

    def counting(*args):
        made.append(args)
        return AuthorKey(*args)

    proxy = _CountingJson()
    monkeypatch.setattr(iv_io, "AuthorKey", counting)
    monkeypatch.setattr(iv_io, "json", proxy)
    ds = parse_dataset(document)
    assert proxy.loads_calls == 1
    assert ds == expected
    assert sorted(made) == [("Lee", ""), ("Núñez", "M.")]
    key = ds.target.key
    shared = [k for k in ds.target.name_variants if k == key]
    shared += [k for r in ds.citing_records for k in r.authors if k == key]
    assert len(shared) == 4
    assert all(k is key for k in shared)


def _paths(value, path=()):
    """Every path in the decoded JSON `value`, the root's () included."""
    yield path
    if type(value) is dict:
        for name, item in value.items():
            yield from _paths(item, (*path, name))
    elif type(value) is list:
        for i, item in enumerate(value):
            yield from _paths(item, (*path, i))


def _plain_outcome(document):
    """What the walk gives on the document decoded to plain objects: the
    dataset, or the type and text of its error."""
    try:
        return iv_io._parse(json.loads(document), "dataset", None, {})
    except Exception as exc:
        return type(exc), str(exc)


_INJECTED = st.sampled_from([
    {"surname": "x", "initials": "y"}, {"surname": "x"}, {"surname": ""},
    {"surname": "x", "initials": 5}, 5, "s", None, True, [], {},
])


@settings(max_examples=200, deadline=None)
@given(datasets, st.data())
def test_parse_gives_what_the_plain_walk_gives(ds, data):
    """With an author-shaped object or a type defect at a random path, or
    none, `parse_dataset` gives the plain walk's dataset or its error."""
    raw = json.loads(emit_dataset(ds))
    if data.draw(st.booleans()):
        path = data.draw(st.sampled_from(list(_paths(raw))))
        # a raw name the document already holds is a memo hit in the decode
        value = data.draw(_INJECTED | st.just(dict(raw["target"]["key"])))
        if path == ():
            raw = value
        else:
            parent = raw
            for step in path[:-1]:
                parent = parent[step]
            parent[path[-1]] = value
    document = json.dumps(raw)
    try:
        outcome = parse_dataset(document)
    except Exception as exc:
        outcome = type(exc), str(exc)
    assert outcome == _plain_outcome(document)


def _bench(module):
    """A module of the benchmark, bench/<module>.py. Neither the input
    generator nor the oracles import the package."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    try:
        return importlib.import_module(module)
    finally:
        sys.path.remove(str(bench))


def test_author_large_shaped_input_parses_as_the_oracle_reads_it():
    inputs, oracles = _bench("inputs"), _bench("oracles")
    doc, _ = inputs.author_dataset(5, 200, 3000)
    ds = parse_dataset(inputs.dataset_text(doc))
    expected = oracles.canonical_document(doc)
    assert oracles.check_roundtrip(expected, oracles.canonical_dataset(ds)) == []

    # one key instance per distinct raw name, the target's included
    keys = [*ds.target.name_variants, *(k for r in ds.citing_records for k in r.authors)]
    raw_names = {(a["surname"], a["initials"]) for r in doc["citing_records"] for a in r["authors"]}
    raw_names |= {(a["surname"], a.get("initials", "")) for a in doc["target"]["name_variants"]}
    assert len({id(k) for k in keys}) <= len(raw_names) + 1


def test_golden_fixture_datasets_parse_to_their_own_bytes(tmp_path):
    from test_cli_golden import write_fixtures

    write_fixtures(tmp_path)
    for path in (tmp_path / "author.json", tmp_path / "nostart.json"):
        text = path.read_text()
        assert emit_dataset(parse_dataset(text)) == text


# SCHEMA edits to the citing record and author kinds, each with documents
# (changes to `_three_records`) and the outcome that parsing them under
# tables rebuilt from the edited SCHEMA must give: `_PARSES` for the dataset
# of the unchanged document, or the type and text of the error.
_STR_FIELD = (iv_io._STR, False, None)
_PARSES = object()
SCHEMA_EDITS = [
    ("citing record", "venue", _STR_FIELD,
     [({(2, "venue"): "x"},  # the parser takes it; the model has no such field
       (TypeError, "CitingRecord.__init__() got an unexpected keyword argument 'venue'")),
      ({}, _PARSES)]),
    ("citing record", "doc_type", (iv_io._STR, True, None),
     [({(2, "doc_type"): _DELETE},
       (FormatError, "citing_records[2]: missing required field 'doc_type'")),
      ({}, _PARSES)]),
    ("citing record", "authors", (iv_io._LIST, True, "author"),
     [({(2, "authors"): _DELETE},
       (FormatError, "citing_records[2]: missing required field 'authors'"))]),
    ("citing record", "year", ((int, type(None)), True, None),
     [({(2, "year"): None},  # the parser takes it; the first citing year cannot be derived
       (TypeError, "'<' not supported between instances of 'NoneType' and 'int'")),
      ({}, _PARSES)]),
    ("citing record", "cited_target_pub_ids", (iv_io._LIST, True, "author"),
     [({}, (FormatError, "citing_records[0].cited_target_pub_ids[0]: expected an object, got str")),
      ({(0, "cited_target_pub_ids"): [{"surname": "p1"}]},
       (FormatError, "citing_records[1].cited_target_pub_ids[0]: expected an object, got str"))]),
    ("author", "orcid", _STR_FIELD,
     [({(2, "authors", 1, "orcid"): "x"}, _PARSES),  # known now, and no part of the key
      ({}, _PARSES)]),
    ("author", "initials", (iv_io._STR, True, None),
     [({}, (FormatError, "citing_records[0].authors[1]: missing required field 'initials'")),
      ({(0, "authors", 1, "initials"): "m"},
       (FormatError, "citing_records[1].authors[1]: missing required field 'initials'"))]),
]


@pytest.mark.parametrize("kind, name, spec, outcomes", SCHEMA_EDITS)
def test_parse_tables_follow_schema(monkeypatch, kind, name, spec, outcomes):
    """`_parse` checks by tables derived from SCHEMA alone, so no field list
    is kept apart from it: tables rebuilt from an edited SCHEMA give the
    outcome the edit implies."""
    assert iv_io._KINDS == iv_io._kinds(SCHEMA)
    parsed = parse_dataset(_three_records())
    schema = {k: dict(fields) for k, fields in SCHEMA.items()}
    schema[kind][name] = spec
    monkeypatch.setattr(iv_io, "SCHEMA", schema)
    monkeypatch.setattr(iv_io, "_KINDS", iv_io._kinds(schema))
    for changes, expected in outcomes:
        outcome = _outcome(_three_records(changes))
        assert outcome == (parsed if expected is _PARSES else expected), changes


def test_a_new_record_field_is_rejected_by_name(monkeypatch):
    schema = dict(SCHEMA, **{"citing record": dict(SCHEMA["citing record"], venue=_STR_FIELD)})
    monkeypatch.setattr(iv_io, "SCHEMA", schema)
    monkeypatch.setattr(iv_io, "_KINDS", iv_io._kinds(schema))
    with pytest.raises(TypeError, match="'venue'"):  # the model has no such field
        parse_dataset(_three_records({(2, "venue"): "x"}))


def test_author_fields_are_in_the_models_order():
    """`_parse` stores an author in its memo, and looks one up there, by the
    raw (surname, initials) pair, the fields in SCHEMA order."""
    assert list(SCHEMA["author"]) == [f.name for f in dataclasses.fields(AuthorKey)]
    assert list(SCHEMA["author"]) == ["surname", "initials"]


class TestParseCounts:
    def test_basic(self):
        assert parse_counts("year,count\n2007,316\n2006,355\n").counts == {
            2007: 316,
            2006: 355,
        }

    def test_duplicate_year_rejected(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse_counts("year,count\n2007,316\n2007,12\n")

    def test_empty_body(self):
        assert parse_counts("year,count\n").counts == {}

    def test_missing_header(self):
        with pytest.raises(FormatError, match="header"):
            parse_counts("2007,316\n")

    def test_non_integer_count(self):
        with pytest.raises(FormatError, match="non-integer"):
            parse_counts("year,count\n2007,many\n")

    def test_negative_count(self):
        with pytest.raises(FormatError, match="negative"):
            parse_counts("year,count\n2007,-3\n")

    @pytest.mark.parametrize("row", ["20_01,10", "2001,1_0", "２００２,5", "2002,\u0665"])
    def test_integer_cells_are_ascii_digits(self, row):
        with pytest.raises(FormatError, match="^counts file line 3: non-integer value$"):
            parse_counts(f"year,count\n2000,1\n{row}\n")

    def test_integer_cells_take_a_sign_and_blanks(self):
        assert parse_counts("year,count\n 2001 ,+5\n2002,\t6\n").counts == {2001: 5, 2002: 6}

    def test_count_limit_is_the_largest_exact_float_integer(self):
        assert parse_counts(f"year,count\n2007,{2**53 - 1}\n").counts == {2007: 2**53 - 1}
        with pytest.raises(FormatError, match="line 3: count above 9007199254740991"):
            parse_counts(f"year,count\n2006,1\n2007,{2**53}\n")

    def test_round_trip(self):
        counts = YearlyCitingCounts(TABLE5_COUNTS["all"])
        assert parse_counts(emit_counts(counts)).counts == counts.counts


_GOOD_COUNTS = "year,count\n2000,1\n2001,0\n"
# Documents off the plain form `emit_counts` writes, with their defect after
# good rows, and what `parse_counts` gives for each: the counts, or the text
# of its FormatError.
COUNTS_DEFECTS = [
    (_GOOD_COUNTS + "2002,+5\n", {2000: 1, 2001: 0, 2002: 5}),
    (_GOOD_COUNTS + "+2002,5\n", {2000: 1, 2001: 0, 2002: 5}),
    (_GOOD_COUNTS + "2002,-5\n", "counts file line 4: negative count -5"),
    (_GOOD_COUNTS + "2002, 5\n", {2000: 1, 2001: 0, 2002: 5}),
    (_GOOD_COUNTS + "2002\t,5\n", {2000: 1, 2001: 0, 2002: 5}),
    (" year , count\n2000,1\n", {2000: 1}),
    (_GOOD_COUNTS + "20_02,5\n", "counts file line 4: non-integer value"),
    (_GOOD_COUNTS + "２００２,5\n", "counts file line 4: non-integer value"),
    (_GOOD_COUNTS + "2002,\u0665\n", "counts file line 4: non-integer value"),
    (_GOOD_COUNTS + "2002," + "9" * 5000 + "\n", "counts file line 4: non-integer value"),
    ("year,count\r\n2000,1\r\n2001,0\r\n", {2000: 1, 2001: 0}),
    (_GOOD_COUNTS + "2002,5\r\n", {2000: 1, 2001: 0, 2002: 5}),
    (_GOOD_COUNTS + '"2002","5"\n', {2000: 1, 2001: 0, 2002: 5}),
    (_GOOD_COUNTS + "\n2002,5\n", {2000: 1, 2001: 0, 2002: 5}),
    (_GOOD_COUNTS + "2002,5", {2000: 1, 2001: 0, 2002: 5}),
    (_GOOD_COUNTS + "2002,5,1\n", "counts file line 4: expected 2 columns, got 3"),
    (_GOOD_COUNTS + "2001,5\n", "counts file line 4: duplicate year 2001"),
    (_GOOD_COUNTS + "1799,5\n", f"counts file: year 1799 outside [1800, {YEAR_MAX}]"),
    (_GOOD_COUNTS + f"{YEAR_MAX + 1},5\n",
     f"counts file: year {YEAR_MAX + 1} outside [1800, {YEAR_MAX}]"),
    (_GOOD_COUNTS + "0,5\n", f"counts file: year 0 outside [1800, {YEAR_MAX}]"),
    (_GOOD_COUNTS + f"2002,{2**53}\n", "counts file line 4: count above 9007199254740991"),
    (_GOOD_COUNTS + f"2002,{10**16}\n", "counts file line 4: count above 9007199254740991"),
    (_GOOD_COUNTS + "02002,5\n", {2000: 1, 2001: 0, 2002: 5}),
    (_GOOD_COUNTS + "2002,05\n", {2000: 1, 2001: 0, 2002: 5}),
]


def _counts_outcome(document):
    try:
        return parse_counts(document).counts
    except FormatError as exc:
        return str(exc)


@pytest.mark.parametrize("document, expected", COUNTS_DEFECTS)
def test_counts_defects_are_left_to_the_csv_walk(document, expected):
    assert iv_io._plain_counts(document) is None
    assert _counts_outcome(document) == expected


@given(st.dictionaries(st.integers(YEAR_MIN, YEAR_MAX), st.integers(0, MAX_COUNT), max_size=80))
@example({})
@example({YEAR_MIN: 0, YEAR_MAX: MAX_COUNT})
def test_plain_counts_parse_as_the_csv_walk_parses(counts):
    document = emit_counts(YearlyCitingCounts(counts))
    assert iv_io._plain_counts(document) == counts
    assert parse_counts(document).counts == counts
    with mock.patch.object(iv_io, "_plain_counts", return_value=None):
        assert parse_counts(document).counts == counts


def test_the_plain_form_holds_at_most_a_row_per_year_in_range(monkeypatch):
    """A plain document with a row for every year in range takes the fast
    path; one more row must repeat a year, and the document is left to the
    csv walk before the regex runs. The bound follows the year bound."""
    every_year = emit_counts(YearlyCitingCounts(dict.fromkeys(range(YEAR_MIN, YEAR_MAX + 1), 1)))
    assert iv_io._plain_counts(every_year) == dict.fromkeys(range(YEAR_MIN, YEAR_MAX + 1), 1)
    with mock.patch.object(iv_io, "_PLAIN_COUNTS") as regex:
        assert iv_io._plain_counts(every_year + f"{YEAR_MIN},1\n") is None
        monkeypatch.setattr("impact_vitality.model.YEAR_MAX", YEAR_MAX - 1)
        assert iv_io._plain_counts(every_year) is None
    assert not regex.mock_calls


_REPEATED_ROW_PEAK = """
import resource, sys
from impact_vitality.io import FormatError, parse_counts
document = "year,count\\n" + "2000,1\\n" * (4 * 2**20 // 7)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    parse_counts(document)
except FormatError as exc:
    print(exc)
scale = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in KiB on Linux
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * scale / len(document))
"""


# A process's peak RSS (`ru_maxrss`) starts at the peak of the process that
# started it, as an exec keeps it, so a child of a test run sees no growth
# below the run's own peak. The script runs in a forked grandchild, whose
# peak starts at the child's current size.
_FRESH_PEAK = """
import os, sys
if os.fork():
    sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))
"""


def _child_lines(script: str, *argv: str) -> list[str]:
    """The stdout lines of `script` run with a fresh peak RSS."""
    pytest.importorskip("resource")
    src = str(Path(iv_io.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _FRESH_PEAK + script, *argv], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.splitlines()


def test_a_repeated_row_counts_file_needs_a_few_bytes_per_input_byte():
    """A 4 MiB counts file of one repeated row once needed 47 bytes of peak
    memory per input byte, nearly all of it the fast path's regex."""
    message, per_byte = _child_lines(_REPEATED_ROW_PEAK)
    assert message == "counts file line 3: duplicate year 2000"
    assert float(per_byte) < 8


# Peak memory of a 4 MiB manifest or dataset parse per input byte, measured
# from the measuring process's start, so the document's own bytes count. The document is
# built in chunks of rows, which peaks at about twice its size, below the parse.
_PARSE_PEAK = r"""
import resource, sys
from impact_vitality.io import parse_dataset, parse_manifest
def peak():
    scale = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale
start = peak()
if sys.argv[1] == "manifest":
    parse, head, tail = parse_manifest, "candidate_id,selected,call_year,career_start_year,path\n", ""
    row = "k{0:07d},true,2004,1995,c{0:07d}.csv\n".format
    size = len
else:  # a dataset of bare records, indented as emit_dataset indents them
    parse, head = parse_dataset, '{\n  "citing_records": [\n'
    row = ('    {{\n      "authors": [],\n      "cited_target_pub_ids": [\n        "pA"\n      ],\n'
           '      "doc_type": "article",\n      "id": "c{0:07d}",\n      "year": 2001\n    }},\n').format
    tail = ('    {"authors": [], "cited_target_pub_ids": ["pA"], "doc_type": "article", '
            '"id": "last", "year": 2001}\n  ],\n'
            '  "publications": [{"doc_type": "article", "id": "pA", "year": 2000}],\n'
            '  "schema_version": 1,\n'
            '  "target": {"key": {"initials": "ja", "surname": "smith"}, "name_variants": []}\n}\n')
    size = lambda ds: len(ds.citing_records) - 1
rows = 4 * 2**20 // len(row(0))
chunks = [head, *("".join(map(row, range(i, min(i + 4096, rows)))) for i in range(0, rows, 4096)), tail]
document = "".join(chunks)
del chunks
built = peak()
print(size(parse(document)) == rows, peak() > built)
print((peak() - start) / len(document))
"""


@pytest.mark.parametrize("kind, bound", [
    ("manifest", 20),  # about 16.7 bytes per input byte
    ("dataset", 8.5),  # about 6.8
])
def test_a_manifest_or_dataset_needs_a_stated_multiple_of_its_bytes(kind, bound):
    """Every row parses, the parse and not the build sets the peak, and the
    peak per input byte stays under the README's figure with a margin."""
    checks, per_byte = _child_lines(_PARSE_PEAK, kind)
    assert checks == "True True"
    assert float(per_byte) < bound


# Peak memory of an `emit_dataset` of about 4 MiB per output byte, measured
# from the end of the dataset's build, which grows the process steadily.
_EMIT_PEAK = r"""
import resource, sys
from impact_vitality import (AuthorKey, CitationDataset, CitingRecord, Publication, TargetAuthor,
                             emit_dataset)
def peak():
    scale = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale
names = [AuthorKey(f"surname{i:04d}", "j.k.") for i in range(1000)]
pubs = [Publication(f"p{i}", 2000, "article") for i in range(100)]
def dataset(n):  # n records of three authors each
    return CitationDataset(TargetAuthor(names[0], name_variants=names[1:3]), pubs, [
        CitingRecord(f"c{i:07d}", 2001, names[i % 997:i % 997 + 3], {f"p{i % 100}"}, "article")
        for i in range(n)])
per_record = len(emit_dataset(dataset(2))) - len(emit_dataset(dataset(1)))
ds = dataset(4 * 2**20 // per_record)
built = peak()
text = emit_dataset(ds)
print(len(text) // 2**20, peak() > built)
print((peak() - built) / len(text))
"""


def test_emit_needs_a_stated_multiple_of_its_output_bytes():
    """The emit sets the peak, and the peak it adds per output byte stays
    under the README's figure with a margin: the text is joined once, so
    no object's text is also held in its parent's."""
    checks, per_byte = _child_lines(_EMIT_PEAK)
    assert checks == "4 True"
    assert float(per_byte) < 2.6  # about 2.05; 3.17 when each object joined its own text


class TestReportEmission:
    @pytest.fixture
    def profile(self):
        counts = YearlyCitingCounts(TABLE5_COUNTS["all"])
        return iv_profile(counts, FixedStart(1988, 4), 1988, 2007)

    def test_csv_header_and_order(self, profile):
        lines = emit_report(profile, "csv").splitlines()
        assert lines[0] == "observation_year,window_length,iv_value,total_citing,zero_year_flag"
        years = [int(line.split(",")[0]) for line in lines[1:]]
        assert years == sorted(years, reverse=True)  # newest first
        assert lines[1].startswith("2007,20,1.40,")

    def test_formats_agree_on_rounded_values(self, profile):
        csv_values = [
            float(line.split(",")[2]) for line in emit_report(profile, "csv").splitlines()[1:]
        ]
        json_values = [row["iv_value"] for row in json.loads(emit_report(profile, "json"))]
        table_values = [
            float(line.split()[2]) for line in emit_report(profile, "table").splitlines()[2:]
        ]
        assert csv_values == json_values == table_values

    def test_json_carries_full_precision(self, profile):
        rows = json.loads(emit_report(profile, "json"))
        by_year = {r["observation_year"]: r for r in rows}
        assert by_year[1991]["iv_value"] == 1.04
        assert by_year[1991]["iv_value_raw"] == pytest.approx(1.04157, abs=1e-5)

    def test_unknown_format_rejected(self, profile):
        with pytest.raises(ValueError):
            emit_report(profile, "xml")


class TestParseManifest:
    def test_basic(self):
        doc = (
            "candidate_id,selected,call_year,career_start_year,path\n"
            "a,true,2004,1995,a.csv\n"
            "b,false,2004,,b.json\n"
        )
        entries = parse_manifest(doc)
        assert entries[0] == {
            "candidate_id": "a",
            "selected": True,
            "call_year": 2004,
            "career_start_year": 1995,
            "path": "a.csv",
        }
        assert entries[1]["career_start_year"] is None
        assert entries[1]["selected"] is False

    def test_bad_header(self):
        with pytest.raises(FormatError, match="header"):
            parse_manifest("id,sel,year\n")

    def test_duplicate_candidate_id_names_line(self):
        doc = (
            "candidate_id,selected,call_year,career_start_year,path\n"
            "a,true,2004,,a.csv\n"
            "b,false,2004,,b.csv\n"
            " a ,false,2004,,c.csv\n"
        )
        with pytest.raises(FormatError, match="line 4: duplicate candidate_id 'a'"):
            parse_manifest(doc)

    @pytest.mark.parametrize("years", ["20_04,", "2004,19_95", "２００４,", "2004,１９９５"])
    def test_integer_cells_are_ascii_digits(self, years):
        doc = f"candidate_id,selected,call_year,career_start_year,path\na,true,{years},a.csv\n"
        with pytest.raises(FormatError, match="^manifest line 2: non-integer year$"):
            parse_manifest(doc)

    @pytest.mark.parametrize("path", ["", "  ", '""'])
    def test_a_blank_path_is_refused(self, path):
        # joined to the manifest's directory, a blank path would name the directory
        doc = ("candidate_id,selected,call_year,career_start_year,path\n"
               f"a,true,2004,,a.csv\nb,true,2004,,{path}\n")
        with pytest.raises(FormatError, match="^manifest line 3: empty path$"):
            parse_manifest(doc)

    def test_bad_selected_flag(self):
        doc = "candidate_id,selected,call_year,career_start_year,path\na,maybe,2004,,x.csv\n"
        with pytest.raises(FormatError, match="selected"):
            parse_manifest(doc)
