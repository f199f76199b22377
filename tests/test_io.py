import json

import pytest

from impact_vitality import (
    FixedStart,
    FormatError,
    YearlyCitingCounts,
    emit_counts,
    emit_dataset,
    emit_report,
    iv_profile,
    parse_counts,
    parse_dataset,
    parse_manifest,
)

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


class TestParseDataset:
    def test_minimal_document(self):
        ds = parse_dataset(MINIMAL_DOC)
        assert len(ds.citing_records) == 1
        assert ds.citing_records[0].cited_target_pub_ids == {"p1"}
        assert ds.target.first_citation_year == 2003

    def test_unknown_pub_reference_names_id(self):
        doc = json.loads(MINIMAL_DOC)
        doc["citing_records"][0]["cited_target_pub_ids"] = ["ghost"]
        with pytest.raises(FormatError, match="ghost"):
            parse_dataset(json.dumps(doc))

    def test_unknown_field_rejected_by_name(self):
        doc = json.loads(MINIMAL_DOC)
        doc["publications"][0]["impact_factor"] = 9.7
        with pytest.raises(FormatError, match="impact_factor"):
            parse_dataset(json.dumps(doc))

    def test_bad_schema_version(self):
        doc = json.loads(MINIMAL_DOC)
        doc["schema_version"] = 99
        with pytest.raises(FormatError, match="schema_version"):
            parse_dataset(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(FormatError, match="malformed"):
            parse_dataset("{not json")

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
        ],
    )
    def test_json_types_are_strict(self, path, value, culprit):
        doc = json.loads(MINIMAL_DOC)
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
        with pytest.raises(FormatError) as info:
            parse_dataset(json.dumps(doc))
        assert culprit in str(info.value)

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

    def test_round_trip(self):
        counts = YearlyCitingCounts(TABLE5_COUNTS["all"])
        assert parse_counts(emit_counts(counts)).counts == counts.counts


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

    def test_bad_selected_flag(self):
        doc = "candidate_id,selected,call_year,career_start_year,path\na,maybe,2004,,x.csv\n"
        with pytest.raises(FormatError, match="selected"):
            parse_manifest(doc)
