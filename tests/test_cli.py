import dataclasses
import errno
import gc
import inspect
import json
import math
import os
import random
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import impact_vitality
from impact_vitality import (
    FilterSet,
    YearlyCitingCounts,
    emit_counts,
    emit_dataset,
    validate_dataset,
)
from impact_vitality import cli, cohort
from impact_vitality.cli import main, parse_filter_args
from impact_vitality.io import parse_manifest
from impact_vitality.model import YEAR_MAX, YEAR_MIN, has_errors

from conftest import TABLE5_COUNTS, TABLE5_PRINTED_IV, make_dataset, make_target, run_main


@pytest.fixture
def table5_csv(tmp_path):
    path = tmp_path / "table5.csv"
    path.write_text(emit_counts(YearlyCitingCounts(TABLE5_COUNTS["all"])))
    return str(path)


@pytest.fixture
def dataset_file(tmp_path):
    target = make_target("smith", "ja", career_start_year=2000)
    ds = make_dataset(
        [("pA", 2000), ("pB", 2001)],
        [
            (f"c{i}", 2001 + i % 6, {"pA"} if i % 2 else {"pA", "pB"},
             [("smith", "ja")] if i % 7 == 0 else [("jones", "k")])
            for i in range(30)
        ],
        target=target,
    )
    path = tmp_path / "dataset.json"
    path.write_text(emit_dataset(ds))
    return str(path)


class TestValidate:
    def test_valid_dataset_exits_zero(self, dataset_file, capsys):
        assert main(["validate", dataset_file]) == 0

    def test_schema_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 1
        assert "malformed" in capsys.readouterr().err

    def test_missing_file_exits_one(self, capsys):
        assert main(["validate", "/nonexistent.json"]) == 1

    def test_wrong_json_type_exits_one(self, dataset_file, capsys):
        doc = json.loads(Path(dataset_file).read_text())
        doc["citing_records"][0]["year"] = "2003"
        with open(dataset_file, "w") as f:
            json.dump(doc, f)
        assert main(["validate", dataset_file]) == 1
        err = capsys.readouterr().err
        assert "citing_records[0]: 'year' must be int, got str" in err
        assert "usage" not in err

    def test_lists_every_unknown_cited_id(self, dataset_file, capsys):
        doc = json.loads(Path(dataset_file).read_text())
        doc["citing_records"][0]["cited_target_pub_ids"] = ["ghost"]
        doc["citing_records"][1]["cited_target_pub_ids"] = ["pA", "phantom"]
        with open(dataset_file, "w") as f:
            json.dump(doc, f)
        assert main(["validate", dataset_file]) == 1
        out = capsys.readouterr().out
        assert "ERROR: citing record 'c0' references unknown publication 'ghost'" in out
        assert "ERROR: citing record 'c1' references unknown publication 'phantom'" in out


class TestProfile:
    def test_table5_csv_output(self, table5_csv, capsys):
        rc = main(
            ["profile", "--counts", table5_csv, "--window", "fixed:1988:4", "--format", "csv"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 18  # header + 17 rows, 1991-2007
        for line in lines[1:]:
            year, _, value = line.split(",")[:3]
            assert float(value) == TABLE5_PRINTED_IV["all"][int(year)]

    def test_byte_deterministic(self, table5_csv, capsys):
        args = ["profile", "--counts", table5_csv, "--window", "fixed:1988:4", "--format", "csv"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_moving_window_one_is_usage_error(self, table5_csv, capsys):
        rc = main(["profile", "--counts", table5_csv, "--window", "moving:1"])
        assert rc == 2
        assert "window" in capsys.readouterr().err

    def test_filters_need_record_data(self, table5_csv, capsys):
        rc = main(["profile", "--counts", table5_csv, "--filter", "self-citations"])
        assert rc == 2
        assert "record-level" in capsys.readouterr().err

    def test_dataset_with_filters(self, dataset_file, capsys):
        rc = main(
            ["profile", dataset_file, "--filter", "self-citations",
             "--filter", "cites-only:most-cited", "--format", "json"]
        )
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and all("iv_value" in r for r in rows)

    def test_filter_flag_order_irrelevant(self, dataset_file, capsys):
        main(["profile", dataset_file, "--filter", "self-citations",
              "--filter", "cites-only:pA", "--format", "csv"])
        first = capsys.readouterr().out
        main(["profile", dataset_file, "--filter", "cites-only:pA",
              "--filter", "self-citations", "--format", "csv"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "first, second",
        [("pA", "pB"), ("most-cited", "pB"), ("pA", "pA")],
    )
    def test_repeated_cites_only_is_usage_error(self, dataset_file, first, second, capsys):
        # Keeping only the last form would silently drop the first.
        rc = main(["profile", dataset_file, "--filter", f"cites-only:{first}",
                   "--filter", "self-citations", "--filter", f"cites-only:{second}"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"impact-vitality: usage error: --filter cites-only: may be given once, "
            f"got {first!r} and {second!r}\n"
        )

    def test_most_cited_is_the_keyword_even_where_a_publication_has_that_id(self, tmp_path, capsys):
        """Each year from 2001 to 2005, "most-cited" has 2 sole citers and
        "p2" 3: `cites-only:most-cited` names p2, the most cited, and the
        publication "most-cited" cannot be named in a filter."""
        records = [(f"m{y}{i}", y, {"most-cited"}) for y in range(2001, 2006) for i in range(2)]
        records += [(f"p{y}{i}", y, {"p2"}) for y in range(2001, 2006) for i in range(3)]
        path = tmp_path / "d.json"
        path.write_text(emit_dataset(make_dataset([("most-cited", 2000), ("p2", 2000)], records)))

        def profile(cited):
            assert main(["profile", str(path), "--filter", f"cites-only:{cited}",
                         "--format", "json"]) == 0
            return json.loads(capsys.readouterr().out)

        rows = profile("most-cited")
        assert rows[0]["observation_year"] == 2005 and rows[0]["total_citing"] == 2 * 5
        assert rows == profile("p2")

    def test_requires_some_input(self, capsys):
        assert main(["profile"]) == 2

    @pytest.mark.parametrize("argv, code, line", [
        (["d.json", "--counts", ""], 2, "usage error: give either a dataset or --counts, not both"),
        (["", "--counts", "c.csv"], 2, "usage error: give either a dataset or --counts, not both"),
        (["--counts", ""], 1, "error: cannot read : No such file or directory"),
        (["--counts", "", "--filter", "self-citations"], 2,
         "usage error: --filter needs record-level data; a bare counts file has none "
         "(use a dataset file instead)"),
        (["--counts", "c.csv", "--window", ""], 2,
         "usage error: invalid --window '': expected moving:<n> or fixed:<start>[:<minlen>]"),
    ], ids=["dataset_and_empty_counts", "empty_dataset_and_counts", "empty_counts",
            "empty_counts_with_filter", "empty_window"])
    def test_an_empty_argument_is_given(self, argv, code, line, table5_csv, dataset_file, capsys):
        """"" names no file and no window, but it is given: it is neither
        left out nor replaced by the other input or the default."""
        named = {"d.json": dataset_file, "c.csv": table5_csv}
        assert main(["profile", *(named.get(arg, arg) for arg in argv)]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"impact-vitality: {line}\n"

    def test_bad_window_syntax(self, table5_csv, capsys):
        assert main(["profile", "--counts", table5_csv, "--window", "sliding:5"]) == 2

    def test_unknown_filter(self, dataset_file, capsys):
        assert main(["profile", dataset_file, "--filter", "bogus"]) == 2

    @pytest.mark.parametrize("filters, message", [
        (["self-citations", "bogus"],
         "unknown --filter 'bogus': expected self-citations or cites-only:<pubid|most-cited>"),
        (["cites-only:pA", "self-citations", "cites-only:most-cited"],
         "--filter cites-only: may be given once, got 'pA' and 'most-cited'"),
    ], ids=["unknown_clause", "cites_only_twice"])
    @pytest.mark.parametrize("file", ["missing", "malformed", "empty", "good"])
    def test_filter_syntax_is_checked_before_any_file_is_read(
        self, filters, message, file, tmp_path, dataset_file, empty_dataset_file, capsys
    ):
        (tmp_path / "malformed.json").write_text("{not json")
        path = {"missing": str(tmp_path / "missing.json"), "malformed": str(tmp_path / "malformed.json"),
                "empty": empty_dataset_file, "good": dataset_file}[file]
        argv = ["profile", path]
        for value in filters:
            argv += ["--filter", value]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"impact-vitality: usage error: {message}\n"

    def test_year_range_flags(self, table5_csv, capsys):
        rc = main(
            ["profile", "--counts", table5_csv, "--window", "moving:5",
             "--from", "2000", "--to", "2005", "--format", "csv"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        years = [int(l.split(",")[0]) for l in lines[1:]]
        assert years == [2005, 2004, 2003, 2002, 2001, 2000]

    def test_every_filter_clause_has_a_filter_form(self):
        # A FilterSet field that no --filter form sets would be library-only.
        assert parse_filter_args([]) == FilterSet()
        fs = parse_filter_args(["self-citations", "cites-only:pA"])
        assert isinstance(fs, FilterSet)
        for field in dataclasses.fields(FilterSet):
            assert getattr(fs, field.name) != getattr(FilterSet(), field.name), field.name

    def test_reversed_year_range_is_usage_error(self, table5_csv, capsys):
        rc = main(["profile", "--counts", table5_csv, "--from", "1994", "--to", "1990"])
        assert rc == 2
        assert "usage error: empty observation range [1994, 1990]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, culprit",
        [
            (["--window", "fixed:-100000:4"], "--window start -100000"),
            (["--window", "fixed:1990:4", "--to", "3000000"], "--to 3000000"),
            (["--from", "1799"], "--from 1799"),
        ],
    )
    def test_years_out_of_range_are_usage_errors(self, table5_csv, extra, culprit, capsys):
        # Unbounded, the fixed-start profile is quadratic in the year span.
        assert main(["profile", "--counts", table5_csv, *extra]) == 2
        assert f"usage error: {culprit} outside [1800, " in capsys.readouterr().err


class TestIndicators:
    def test_text_output(self, dataset_file, capsys):
        assert main(["indicators", dataset_file]) == 0
        out = capsys.readouterr().out
        assert "h_index:" in out and "ar_index:" in out

    def test_json_output(self, dataset_file, capsys):
        assert main(["indicators", dataset_file, "--format", "json", "--year", "2006"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["observation_year"] == 2006
        assert data["h_index"] == 2
        assert data["impact_vitality"] is not None

    def test_year_out_of_range_is_usage_error(self, dataset_file, capsys):
        assert main(["indicators", dataset_file, "--year", "3000000"]) == 2
        assert "--year 3000000 outside" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", range(4))
    def test_year_sees_only_data_up_to_it(self, seed, tmp_path, capsys):
        """h and AR as of Y, from brute force over the records dated <= Y and
        the publications dated <= Y."""
        rng = random.Random(seed)
        pubs = [(f"p{i}", rng.randint(1990, 2005)) for i in range(rng.randint(3, 12))]
        records = []
        for i in range(rng.randint(20, 120)):
            year = rng.randint(1991, 2010)
            cited = {pid for pid, pub_year in rng.sample(pubs, rng.randint(1, 3)) if pub_year <= year}
            if cited:
                records.append((f"c{i}", year, cited))
        path = tmp_path / "ds.json"
        path.write_text(emit_dataset(make_dataset(pubs, records)))
        pub_years = dict(pubs)

        for year in sorted({1996, 1999, 2002, 2005, 2010, max(r[1] for r in records)}):
            if year < min(r[1] for r in records):
                continue
            cites = {
                pid: sum(1 for _, rec_year, cited in records if rec_year <= year and pid in cited)
                for pid, pub_year in pubs
                if pub_year <= year
            }
            h = max(k for k in range(len(cites) + 1) if sum(c >= k for c in cites.values()) >= k)
            core = sorted(cites, key=lambda pid: (-cites[pid], -pub_years[pid], pid))[:h]
            ar = math.sqrt(sum(cites[pid] / (year - pub_years[pid] + 1) for pid in core))

            assert main(["indicators", str(path), "--year", str(year), "--format", "json"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert (data["observation_year"], data["h_index"]) == (year, h)
            assert data["ar_index"] == round(ar, 4)

    def test_no_admissible_window_leaves_iv_undefined(self, tmp_path, capsys):
        ds = make_dataset(
            [("p1", 1999)], [("c0", 2000, {"p1"}), ("c1", 2001, {"p1"})],
            target=make_target(career_start_year=2000),
        )
        path = tmp_path / "ds.json"
        path.write_text(emit_dataset(ds))
        assert main(["indicators", str(path), "--year", "2001"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "impact_vitality: undefined (no admissible window)"
        )
        assert main(["indicators", str(path), "--year", "2001", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["impact_vitality"] is None

    @pytest.fixture
    def cited_1991_to_1996(self, tmp_path):
        """One 1990 publication, cited once a year from 1991 to 1996."""
        ds = make_dataset([("p1", 1990)], [(f"c{y}", y, {"p1"}) for y in range(1991, 1997)])
        path = tmp_path / "ds.json"
        path.write_text(emit_dataset(ds))
        return str(path)

    def test_year_ignores_later_citations(self, cited_1991_to_1996, capsys):
        assert main(["indicators", cited_1991_to_1996, "--year", "1992", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["h_index"], data["ar_index"]) == (1, round(math.sqrt(2 / 3), 4))

    @pytest.mark.parametrize("year", ["1985", "1990"])
    def test_year_before_every_record_names_year_and_file(self, year, cited_1991_to_1996, capsys):
        assert main(["indicators", cited_1991_to_1996, "--year", year]) == 1
        err = capsys.readouterr().err
        assert f"ds.json: no citing records dated {year} or earlier" in err


@st.composite
def valid_datasets(draw):
    """Small datasets that pass `validate_dataset`, with self-citations and
    records citing one publication only."""
    pubs = [(f"p{i}", draw(st.integers(1995, 2001))) for i in range(draw(st.integers(1, 3)))]
    names = st.sampled_from([("smith", "ja"), ("smith", "j"), ("jones", "k"), ("lee", "")])
    records = [
        (f"c{i}", draw(st.integers(2000, 2008)),
         draw(st.frozensets(st.sampled_from([pid for pid, _ in pubs]), min_size=1)),
         draw(st.lists(names, max_size=2)))
        for i in range(draw(st.integers(1, 14)))
    ]
    target = make_target(variants=[("smith", "j")],
                         career_start_year=draw(st.none() | st.integers(1996, 2004)))
    return make_dataset(pubs, records, target=target)


def _overtaken():
    """p1 leads through 2005; p2 overtakes it from 2006 to 2009."""
    records = [(f"a{y}{i}", y, {"p1"}) for y in range(2001, 2006) for i in range(2)]
    records += [(f"b{y}", y, {"p2"}) for y in range(2001, 2006)]
    records += [(f"b{y}{i}", y, {"p2"}) for y in range(2006, 2010) for i in range(5)]
    return make_dataset([("p1", 2000), ("p2", 2000)], records)


FILTER_ARGS = [[], ["self-citations"], ["cites-only:most-cited"], ["cites-only:p0"],
               ["self-citations", "cites-only:most-cited"], ["self-citations", "cites-only:p0"]]


@settings(max_examples=100, deadline=None)
@given(valid_datasets(), st.integers(0, 9), st.sampled_from(FILTER_ARGS),
       st.sampled_from([[], ["--window", "moving:3"]]))
@example(_overtaken(), 4, ["cites-only:most-cited"], [])
def test_output_as_of_a_year_uses_no_later_record(ds, offset, filters, window):
    """`profile --to Y` and `indicators --year Y` print the same for a
    dataset as for the dataset cut after Y: later records change nothing,
    not even which publication is the most cited."""
    assert not has_errors(validate_dataset(ds))
    year = min(r.year for r in ds.citing_records) + offset
    cut = dataclasses.replace(ds, citing_records=[r for r in ds.citing_records if r.year <= year])
    profile = ["profile", "--to", str(year), "--format", "json", *window]
    profile += [arg for f in filters for arg in ("--filter", f)]
    indicators = ["indicators", "--year", str(year), "--format", "json"]
    with tempfile.TemporaryDirectory() as tmp:
        full_path, cut_path = Path(tmp, "full.json"), Path(tmp, "cut.json")
        full_path.write_text(emit_dataset(ds))
        cut_path.write_text(emit_dataset(cut))
        for argv in (profile, indicators):
            full, cut = (run_main([*argv, str(path)]) for path in (full_path, cut_path))
            # A message names its file: the cut file's name stands for both.
            assert full._replace(err=full.err.replace(str(full_path), str(cut_path))) == cut, argv


needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo and /dev/null")
needs_unix_socket = pytest.mark.skipif(not hasattr(socket, "AF_UNIX"), reason="needs AF_UNIX")


class TestCohort:
    def make_manifest(self, tmp_path):
        rows = ["candidate_id,selected,call_year,career_start_year,path"]
        for i in range(3):
            counts = {2000 + j: 10 + (5 + i) * j for j in range(8)}
            name = f"grow{i}.csv"
            (tmp_path / name).write_text(emit_counts(YearlyCitingCounts(counts)))
            rows.append(f"grow{i},true,2007,2000,{name}")
        for i in range(4):
            counts = {2000 + j: 10 + 40 * (j % 2) + i for j in range(8)}
            name = f"fluct{i}.csv"
            (tmp_path / name).write_text(emit_counts(YearlyCitingCounts(counts)))
            rows.append(f"fluct{i},false,2007,2000,{name}")
        manifest = tmp_path / "cohort.csv"
        manifest.write_text("\n".join(rows) + "\n")
        return str(manifest)

    def test_summary_json(self, tmp_path, capsys):
        manifest = self.make_manifest(tmp_path)
        assert main(["cohort", manifest, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["selected"]["group_size"] == 3
        assert data["not_selected"]["group_size"] == 4
        assert (
            data["selected"]["fluctuation_last5"]["mean"]
            < data["not_selected"]["fluctuation_last5"]["mean"]
        )

    def test_summary_table(self, tmp_path, capsys):
        manifest = self.make_manifest(tmp_path)
        assert main(["cohort", manifest]) == 0
        out = capsys.readouterr().out
        assert "Selected" in out and "Minimum IV" in out

    def test_rows_name_the_call_span(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cohort, "CALL_SPAN", 3)
        manifest = self.make_manifest(tmp_path)
        assert main(["cohort", manifest]) == 0
        out = capsys.readouterr().out
        assert "IV fluctuation in 3 years until call" in out
        assert "Citing publications per year, 3 years until call" in out
        assert "5 years" not in out
        assert main(["cohort", manifest, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert {"fluctuation_last3", "citing_per_year_last3"} <= set(data["selected"])
        assert not any(key.endswith("last5") for key in data["selected"])

    def test_call_year_before_anchor_is_data_error(self, tmp_path, capsys):
        (tmp_path / "late.csv").write_text("year,count\n2001,3\n2002,4\n")
        (tmp_path / "m.csv").write_text(
            "candidate_id,selected,call_year,career_start_year,path\nx,true,1999,,late.csv\n"
        )
        assert main(["cohort", str(tmp_path / "m.csv")]) == 1
        err = capsys.readouterr().err
        assert "late.csv: empty observation range [2001, 1999]" in err

    def test_duplicate_candidate_is_data_error(self, tmp_path, capsys):
        manifest = self.make_manifest(tmp_path)
        with open(manifest, "a") as f:
            f.write("grow1,false,2007,2000,fluct0.csv\n")
        assert main(["cohort", manifest]) == 1
        assert "line 9: duplicate candidate_id 'grow1'" in capsys.readouterr().err

    def test_dataset_entries_are_validated(self, tmp_path, dataset_file, capsys):
        doc = json.loads(Path(dataset_file).read_text())
        doc["publications"].append(dict(doc["publications"][0]))
        (tmp_path / "dup.json").write_text(json.dumps(doc))
        (tmp_path / "m.csv").write_text(
            "candidate_id,selected,call_year,career_start_year,path\nx,true,2006,,dup.json\n"
        )
        assert main(["cohort", str(tmp_path / "m.csv")]) == 1
        assert "dup.json: duplicate publication id 'pA'" in capsys.readouterr().err

    def test_header_only_manifest_is_an_empty_set(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text("candidate_id,selected,call_year,career_start_year,path\n")
        assert main(["cohort", str(manifest)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"impact-vitality: error: {manifest}: candidate set is empty\n"

    def test_errors_come_in_manifest_order(self, tmp_path, capsys):
        """The first candidate has citing publications but no admissible
        window by its call year, and the second file is malformed: the run
        names the first candidate."""
        (tmp_path / "short.csv").write_text("year,count\n2004,3\n2005,3\n")
        (tmp_path / "bad.csv").write_text("year,count\n2000,x\n")
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "candidate_id,selected,call_year,career_start_year,path\n"
            "z,true,2005,,short.csv\nb,false,2005,,bad.csv\n"
        )
        assert main(["cohort", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err == f"impact-vitality: error: {manifest}: candidate 'z' has an empty profile\n"

    def test_bad_manifest(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n")
        assert main(["cohort", str(bad)]) == 1

    @pytest.mark.parametrize("name, message", [
        ("sub", "{path}: not a regular file"),
        ("missing.csv", "cannot read {path}: No such file or directory"),
        ("", "{path}: not a regular file"),
        ("manifest.csv", "{path}: counts file: expected header 'year,count', "
                         "got 'candidate_id,selected,call_year,career_start_year,path'"),
        pytest.param("/dev/null", "{path}: not a regular file", marks=needs_fifo),
        pytest.param("link", "{path}: not a regular file", marks=needs_fifo),
        pytest.param("socket", "{path}: not a regular file", marks=needs_unix_socket),
    ], ids=["directory", "missing", "manifest_directory", "manifest_itself", "device",
            "link_to_fifo", "socket"])
    def test_a_bad_candidate_path_is_named(self, name, message, tmp_path, capsys):
        """The first row names a directory, a missing file, "" (the
        manifest's own directory), the manifest itself, a device, a symlink
        to a FIFO that no one writes to, or a socket, which cannot be opened;
        the second row is good. The run names the path in one line and
        writes no table, and waits for no writer."""
        (tmp_path / "sub").mkdir()
        (tmp_path / "ok.csv").write_text("year,count\n2000,3\n2001,4\n2002,5\n2003,6\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("candidate_id,selected,call_year,career_start_year,path\n"
                            f"a,true,2005,,{name}\nb,false,2005,,ok.csv\n")
        with ExitStack() as stack:
            if name == "link":
                os.mkfifo(tmp_path / "pipe")
                (tmp_path / "link").symlink_to("pipe")
            elif name == "socket":
                stack.enter_context(socket.socket(socket.AF_UNIX)).bind(str(tmp_path / name))
            with deadline(5, AssertionError):  # not an OSError, which the read would name
                assert main(["cohort", str(manifest)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"impact-vitality: error: {message.format(path=tmp_path / name)}\n"

    def test_a_candidate_file_is_opened_once_and_never_stated(self, tmp_path, monkeypatch):
        """Each candidate file's one open also gives its type, by fstat on
        the open file: no os.stat of the path comes before it."""
        manifest = write_cohort(tmp_path)
        candidates = {str(tmp_path / entry["path"])
                      for entry in parse_manifest(Path(manifest).read_text())}

        def logged(call, paths):
            def logging_call(path, *args, **kwargs):
                paths.append(str(path))
                return call(path, *args, **kwargs)
            return logging_call

        opened, stated = [], []
        monkeypatch.setattr(os, "open", logged(os.open, opened))
        monkeypatch.setattr(os, "stat", logged(os.stat, stated))
        run, _ = run_cohort(monkeypatch, ["cohort", manifest], 1)
        assert run.status == 0
        assert sorted(path for path in opened if path in candidates) == sorted(candidates)
        assert not candidates.intersection(stated)


# How a copy of a file is made from its "\n"-ended UTF-8 bytes.
COPIES = {
    "bom": lambda data: b"\xef\xbb\xbf" + data,
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "cr": lambda data: data.replace(b"\n", b"\r"),
}


@pytest.mark.parametrize("command, copy", [
    # a BOM copy is named by its command alone
    pytest.param(command, copy, id=command if copy == "bom" else f"{command}-{copy}")
    for copy in COPIES for command in ("profile", "indicators", "cohort")
])
def test_a_file_may_start_with_a_byte_order_mark(command, copy, tmp_path, table5_csv,
                                                 dataset_file, capsys):
    """Spreadsheets save "CSV UTF-8" with a leading U+FEFF; it is read as
    absent. Lines may end in "\r\n" or a lone "\r", as text mode reads them."""
    argv, path = {
        "profile": (["profile", "--counts"], Path(table5_csv)),
        "indicators": (["indicators"], Path(dataset_file)),
        "cohort": (["cohort"], tmp_path / "m.csv"),
    }[command]
    (tmp_path / "m.csv").write_text(
        "candidate_id,selected,call_year,career_start_year,path\n"
        "A,true,2007,1988,table5.csv\nB,false,2006,,table5.csv\n"
    )
    marked = path.with_name("marked-" + path.name)
    marked.write_bytes(COPIES[copy](path.read_bytes()))
    results = []
    for file in (path, marked):
        code = main([*argv, str(file)])
        results.append((code, capsys.readouterr().out))
    assert results[0][0] == 0 and results[0][1]
    assert results[1] == results[0]


@given(st.lists(st.sampled_from(["a", "é", ",", "\n", "\r", "\r\n", "\ufeff"]), max_size=12),
       st.booleans())
def test_a_file_reads_as_text_mode_reads_it(pieces, bom):
    data = ("\ufeff" if bom else "").encode() + "".join(pieces).encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "f.csv")
        path.write_bytes(data)
        assert cli._read(str(path)) == path.read_text(encoding="utf-8-sig")


@pytest.mark.parametrize("command, content", [
    (["profile", "--counts"], "year,count\n2000,1\n"),
    (["indicators"], "{}"),
    (["cohort"], "candidate_id,selected,call_year,career_start_year,path\n"),
], ids=["counts", "dataset", "manifest"])
def test_an_undecodable_file_is_named(command, content, tmp_path, capsys):
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe" + content.encode())
    assert main([*command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"impact-vitality: error: cannot decode {path} as UTF-8\n"


@pytest.fixture
def empty_dataset_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(emit_dataset(make_dataset([("pA", 2000)], [])))
    return str(path)


@pytest.mark.parametrize(
    "case, code",
    [
        ("undecodable", 1),
        ("year_before_data", 1),
        ("cites_only_ghost", 1),
        ("most_cited_of_nothing", 1),
        ("to_before_data", 1),
        ("profile_of_nothing", 1),
        ("indicators_of_nothing", 1),
        ("oversized_integer", 1),
        ("empty_candidate_profile", 1),
        ("reversed_range", 2),
        ("unknown_filter", 2),
        ("year_out_of_range", 2),
        ("argument_not_an_integer", 2),
        ("unknown_option", 2),
        ("missing_command", 2),
    ],
)
def test_exit_code_rule(case, code, tmp_path, table5_csv, dataset_file, empty_dataset_file, capsys):
    """2 when the arguments are wrong on their own, 1 for anything else. A
    message with status 1 names the file given on the command line; for a
    cohort whose candidate has no IV point, that is the manifest."""
    undecodable = tmp_path / "bom.json"
    undecodable.write_bytes(b"\xff\xfe")
    oversized = tmp_path / "oversized.json"
    oversized.write_text('{"schema_version": ' + "9" * 5000 + "}")
    (tmp_path / "short.csv").write_text("year,count\n2000,3\n2001,4\n")
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        "candidate_id,selected,call_year,career_start_year,path\nA,true,2001,,short.csv\n"
    )
    argv, named = {
        "undecodable": (["validate"], undecodable),
        "year_before_data": (["indicators", "--year", "1995"], dataset_file),
        "cites_only_ghost": (["profile", "--filter", "cites-only:ghost"], dataset_file),
        "most_cited_of_nothing": (
            ["profile", "--filter", "cites-only:most-cited"], empty_dataset_file
        ),
        "to_before_data": (["profile", "--to", "1980", "--counts"], table5_csv),
        "profile_of_nothing": (["profile"], empty_dataset_file),
        "indicators_of_nothing": (["indicators"], empty_dataset_file),
        "oversized_integer": (["validate"], oversized),
        "empty_candidate_profile": (["cohort"], manifest),
        "reversed_range": (["profile", "--from", "1994", "--to", "1990", "--counts"], table5_csv),
        "unknown_filter": (["profile", "--filter", "bogus"], dataset_file),
        "year_out_of_range": (["indicators", "--year", "3000000"], dataset_file),
        "argument_not_an_integer": (["profile", "--from", "20_03", "--counts"], table5_csv),
        "unknown_option": (["profile", "--smooth", "--counts"], table5_csv),
        "missing_command": ([], None),
    }[case]
    assert main([*argv, str(named)] if named else argv) == code
    err = capsys.readouterr().err
    assert err.startswith("impact-vitality:")
    assert err.count("\n") == 1
    assert "usage:" not in err
    assert "Traceback" not in err
    if code == 1:
        assert str(named) in err


@pytest.mark.parametrize(
    "argv, named, message",
    [
        (["profile", "empty.json"], "empty.json", "dataset has no citing records"),
        (["profile", "empty.json", "--filter", "cites-only:most-cited"], "empty.json",
         "dataset has no citing records"),
        (["indicators", "empty.json"], "empty.json", "dataset has no citing records"),
        (["profile", "d.json", "--to", "2000"], "d.json", "no citing records dated 2000 or earlier"),
        (["profile", "d.json", "--to", "2000", "--filter", "cites-only:most-cited"], "d.json",
         "no citing records dated 2000 or earlier"),
        (["indicators", "d.json", "--year", "2000"], "d.json",
         "no citing records dated 2000 or earlier"),
        (["profile", "d.json", "--filter", "cites-only:pA"], "d.json",
         "no citing publications to profile"),
        (["profile", "--counts", "empty.csv"], "empty.csv", "no citing publications to profile"),
        (["profile", "--counts", "zero.csv"], "zero.csv", "no citing publications to profile"),
        (["cohort", "m_csv.csv"], "empty.csv", "no citing publications to profile"),
        (["cohort", "m_zero.csv"], "zero.csv", "no citing publications to profile"),
        (["cohort", "m_json.csv"], "empty.json", "dataset has no citing records"),
    ],
    ids=["profile", "profile_most_cited", "indicators", "profile_to", "profile_to_most_cited",
         "indicators_year", "all_filtered_out", "counts", "counts_all_zero", "cohort_counts",
         "cohort_counts_all_zero", "cohort_dataset"],
)
def test_empty_input_has_one_diagnostic_per_cause(argv, named, message, tmp_path, capsys):
    """d.json holds 6 records from 2001 to 2003, each citing pA alone;
    empty.json holds none, empty.csv only its header, and zero.csv a count
    of 0 for each year from 2000 to 2005."""
    records = [(f"c{i}", 2001 + i % 3, {"pA"}) for i in range(6)]
    (tmp_path / "d.json").write_text(emit_dataset(make_dataset([("pA", 2000), ("pB", 2000)], records)))
    (tmp_path / "empty.json").write_text(emit_dataset(make_dataset([("pA", 2000)], [])))
    (tmp_path / "empty.csv").write_text("year,count\n")
    (tmp_path / "zero.csv").write_text("year,count\n" + "".join(f"{y},0\n" for y in range(2000, 2006)))
    for manifest, name in [("m_csv", "empty.csv"), ("m_json", "empty.json"), ("m_zero", "zero.csv")]:
        (tmp_path / f"{manifest}.csv").write_text(
            f"candidate_id,selected,call_year,career_start_year,path\nA,true,2003,,{name}\n"
        )
    argv = [str(tmp_path / arg) if "." in arg else arg for arg in argv]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"impact-vitality: error: {tmp_path / named}: {message}\n"


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["validate", "no\nsuch\u2028file"], 1,
         "impact-vitality: error: cannot read no\\nsuch\\u2028file: No such file or directory"),
        (["profile", "--counts", "c.csv", "--a\rb"], 2,
         "impact-vitality: usage error: unrecognized arguments: --a\\rb"),
    ],
)
def test_a_diagnostic_quoting_a_line_break_is_one_line(argv, code, line, capsys):
    assert main(argv) == code
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("argv", [["--help"], ["profile", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: impact-vitality")
    assert err == ""


@pytest.mark.parametrize("caller_gc", [True, False], ids=["gc_on", "gc_off"])
@pytest.mark.parametrize("case, code", [
    ("success", 0), ("data_error", 1), ("usage_error", 2), ("help", 0), ("crash", None),
])
def test_main_gives_the_caller_its_gc_state_back(case, code, caller_gc, table5_csv,
                                                  monkeypatch, capsys):
    """A command runs with the cyclic GC off; however it ends, the caller's
    GC is on after `main` exactly when it was on before."""
    seen = []

    def crash(args):
        seen.append(gc.isenabled())
        raise RuntimeError("crash")

    monkeypatch.setattr(cli, "cmd_validate", crash)
    argv = {
        "success": ["profile", "--counts", table5_csv],
        "data_error": ["profile", "--counts", "/nonexistent.csv"],
        "usage_error": ["profile", "--counts", table5_csv, "--window", "bogus"],
        "help": ["--help"],
        "crash": ["validate", "any.json"],
    }[case]
    was_enabled = gc.isenabled()
    (gc.enable if caller_gc else gc.disable)()
    try:
        if code is None:
            with pytest.raises(RuntimeError, match="crash"):
                main(argv)
            assert seen == [False]
        else:
            assert main(argv) == code
        assert gc.isenabled() is caller_gc
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_the_export_lists_agree():
    """`__all__` is sorted, has no duplicates and names every public non-module
    the package binds, so a name dropped from one list but not the other shows."""
    names = impact_vitality.__all__
    assert names == sorted(set(names))
    bound = {name for name, value in vars(impact_vitality).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(names) == bound


def test_only_the_cli_imports_gc():
    """The GC policy belongs to the application: library modules leave it alone."""
    package = Path(impact_vitality.__file__).parent
    users = [path.name for path in sorted(package.glob("*.py"))
             if re.search(r"^\s*(import|from) gc\b", path.read_text(), re.MULTILINE)]
    assert users == ["cli.py"]


@pytest.mark.parametrize(
    "argv, culprit",
    [
        (["profile", "--from", "20_03"], "argument --from: invalid integer value: '20_03'"),
        (["profile", "--to", "２００７"], "argument --to: invalid integer value: '２００７'"),
        (["profile", "--window", "fixed:２０００"], "invalid --window 'fixed:２０００': not an integer"),
        (["profile", "--window", "fixed:2000:٤"], "invalid --window 'fixed:2000:٤': not an integer"),
        (["profile", "--window", "moving:1_0"], "invalid --window 'moving:1_0': not an integer"),
        (["indicators", "--year", "２００３"], "argument --year: invalid integer value: '２００３'"),
    ],
    ids=["from_underscore", "to_fullwidth", "window_start_fullwidth", "window_minlen_arabic_indic",
         "moving_underscore", "year_fullwidth"],
)
def test_integer_arguments_follow_the_csv_rule(argv, culprit, table5_csv, dataset_file, capsys):
    """int() alone reads "1_0" and non-ASCII digits, which a counts file
    cell may not hold; an argument may not either."""
    source = ["--counts", table5_csv] if argv[0] == "profile" else [dataset_file]
    assert main([argv[0], *source, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert culprit in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "case, culprit",
    [
        ("huge_count", "huge.csv: counts file line 5: count above 9007199254740991"),
        ("huge_count_in_cohort", "huge.csv: counts file line 5: count above 9007199254740991"),
        ("overlong_field", "wide.csv: counts file line 2: field larger than field limit"),
        ("nul_in_manifest_path", "a\\x00b.csv': embedded null byte"),
    ],
)
def test_inputs_that_crashed_are_data_errors(case, culprit, tmp_path, capsys):
    """A count too large for a float and a CSV field over the csv module's
    size limit once ended in a traceback; a manifest path with a NUL byte
    gave a message that named no file."""
    (tmp_path / "huge.csv").write_text(f"year,count\n2000,1\n2001,1\n2002,1\n2003,{10**400}\n")
    (tmp_path / "wide.csv").write_text("year,count\n2000," + "1" * 200_000 + "\n")
    header = "candidate_id,selected,call_year,career_start_year,path\n"
    (tmp_path / "m_huge.csv").write_text(header + "x,true,2005,,huge.csv\n")
    (tmp_path / "m_nul.csv").write_text(header + "x,true,2005,,a\x00b.csv\n")
    argv = {
        "huge_count": ["profile", "--counts", str(tmp_path / "huge.csv")],
        "huge_count_in_cohort": ["cohort", str(tmp_path / "m_huge.csv")],
        "overlong_field": ["profile", "--counts", str(tmp_path / "wide.csv")],
        "nul_in_manifest_path": ["cohort", str(tmp_path / "m_nul.csv")],
    }[case]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("impact-vitality: error:")
    assert culprit in err
    assert "Traceback" not in err


def _dataset_with_record_years(path, years):
    ds = make_dataset([("pA", 1990)], [(f"c{i}", y, {"pA"}) for i, y in enumerate(years)])
    path.write_text(emit_dataset(ds))


def _run_cli(argv, cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """The CLI in a subprocess, with a timeout, so that a run that hangs
    fails the test instead of stalling the test run."""
    src = str(Path(impact_vitality.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "impact_vitality.cli", *argv],
        cwd=cwd, env=env, stdout=stdout, stderr=stderr, text=True, timeout=10,
    )


@pytest.fixture
def closed_pipe():
    """The write end of a pipe whose reader has gone."""
    read, write = os.pipe()
    os.close(read)
    yield write
    os.close(write)


def _write_cli_inputs(d: Path) -> None:
    """c.csv, d.json, a manifest m.csv over both, and bad.json, whose one
    record cites an unknown publication."""
    (d / "c.csv").write_text("year,count\n2000,3\n2001,4\n2002,5\n2003,6\n")
    records = [(f"c{i}", 2001 + i % 4, {"pA"}) for i in range(12)]
    (d / "d.json").write_text(emit_dataset(make_dataset([("pA", 2000)], records)))
    (d / "bad.json").write_text(emit_dataset(make_dataset([("pA", 2000)], [("c0", 2001, {"ghost"})])))
    (d / "m.csv").write_text(
        "candidate_id,selected,call_year,career_start_year,path\n"
        "a,true,2004,,c.csv\nb,false,2004,,d.json\n"
    )


CLOSED_STDOUT_ARGVS = {
    "profile": ["profile", "--counts", "c.csv"],
    "indicators": ["indicators", "d.json"],
    "cohort": ["cohort", "m.csv"],
    "validate_errors": ["validate", "bad.json"],
    "help": ["--help"],
}


@pytest.mark.parametrize("case", sorted(CLOSED_STDOUT_ARGVS))
def test_a_closed_stdout_is_one_line(case, closed_pipe, tmp_path):
    """The reader of stdout has gone before the run starts: the run says so
    in one line and exits 1, with no traceback from the write and no
    "Exception ignored" from the flush at exit."""
    _write_cli_inputs(tmp_path)
    done = _run_cli(CLOSED_STDOUT_ARGVS[case], tmp_path, stdout=closed_pipe)
    assert done.returncode == 1
    assert done.stderr == "impact-vitality: error: standard output closed\n"


@pytest.mark.parametrize("extra, code", [([], 1), (["--window", "bogus"], 2), (["--from", "2010"], 1)],
                         ids=["stdout_closed", "usage_error", "data_error"])
def test_main_returns_its_status_when_stdout_and_stderr_are_closed(extra, code, table5_csv,
                                                                   monkeypatch):
    """With no reader on either stream, `main` returns the status of the
    message it cannot write rather than raising: 1 for the closed stdout
    of a run that succeeded, else the status of the run's own error."""
    pipes = [os.pipe(), os.pipe()]
    for read, _ in pipes:
        os.close(read)
    try:
        with open(pipes[0][1], "w", closefd=False) as out, \
                open(pipes[1][1], "w", closefd=False) as err, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", out)
            patch.setattr(sys, "stderr", err)
            status = main(["profile", "--counts", table5_csv, *extra])
    finally:
        for _, write in pipes:
            os.close(write)
    assert status == code


@pytest.mark.parametrize(
    "case, code, culprit",
    [
        ("counts_years", 1, "c.csv"),
        ("manifest_call_year", 1, "m.csv"),
        ("record_years", 1, "d.json"),
        ("moving_window", 2, "moving:100000000"),
    ],
)
def test_huge_year_spans_stop_early(case, code, culprit, tmp_path):
    """Each input once ran for minutes in the fixed-start or moving window
    loop. A subprocess with a timeout turns a regression into a failure
    rather than a hung test run."""
    (tmp_path / "c.csv").write_text("year,count\n1,3\n20000,4\n")
    (tmp_path / "ok.csv").write_text("year,count\n2001,3\n2002,4\n")
    (tmp_path / "m.csv").write_text(
        "candidate_id,selected,call_year,career_start_year,path\nx,true,3000000,,ok.csv\n"
    )
    _dataset_with_record_years(tmp_path / "d.json", [1, 20000])
    argv = {
        "counts_years": ["profile", "--counts", "c.csv"],
        "manifest_call_year": ["cohort", "m.csv"],
        "record_years": ["profile", "d.json"],
        "moving_window": ["profile", "--counts", "ok.csv", "--window", "moving:100000000"],
    }[case]
    done = _run_cli(argv, tmp_path)
    assert done.returncode == code
    assert culprit in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_fifo_in_a_manifest_is_refused(tmp_path):
    """Reading a FIFO that nothing writes to waits forever, so a manifest
    path must name a regular file."""
    os.mkfifo(tmp_path / "pipe")
    (tmp_path / "m.csv").write_text(
        "candidate_id,selected,call_year,career_start_year,path\nx,true,2005,,pipe\n"
    )
    done = _run_cli(["cohort", "m.csv"], tmp_path)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "impact-vitality: error: pipe: not a regular file\n"


# A cap below, at and above the size of `_read`'s first read.
read_caps = pytest.mark.parametrize("cap", [10, 2**16, 2**16 + 100])


@read_caps
def test_a_file_of_exactly_the_cap_reads(cap, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "READ_CAP", cap)
    path = tmp_path / "f.csv"
    path.write_bytes(b"a" * cap)
    assert cli._read(str(path)) == "a" * cap


@read_caps
def test_a_file_over_the_cap_is_named(cap, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "READ_CAP", cap)
    path = tmp_path / "c.csv"
    path.write_bytes(b"a" * (cap + 1))
    assert main(["profile", "--counts", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"impact-vitality: error: {path}: larger than {cap} bytes\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_pipe_is_read_only_up_to_the_cap(tmp_path, monkeypatch, capsys):
    """A writer that offers far more than the cap finds the pipe closed
    once the reader has taken READ_CAP + 1 bytes."""
    cap, offered = 1000, 16 * 2**20
    monkeypatch.setattr(cli, "READ_CAP", cap)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    sent = []

    def write():
        total = 0
        try:
            with open(fifo, "wb", buffering=0) as pipe:
                while total < offered:
                    total += pipe.write(b"a" * 4096)
        except BrokenPipeError:
            pass
        sent.append(total)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    assert main(["profile", "--counts", str(fifo)]) == 1
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert capsys.readouterr().err == f"impact-vitality: error: {fifo}: larger than {cap} bytes\n"
    assert cap < sent[0] < offered


@st.composite
def candidates(draw):
    """(text, is a dataset, call year, career start): a counts file of 1 to
    15 consecutive years, zeros allowed, or a small dataset; a call year
    mostly near the first year of data, else anywhere in [YEAR_MIN,
    YEAR_MAX]; and a blank career start or one near the data."""
    if draw(st.booleans()):
        ds = draw(valid_datasets())
        text, dataset, first = emit_dataset(ds), True, min(r.year for r in ds.citing_records)
    else:
        first = draw(st.integers(1990, 2010))
        column = draw(st.lists(st.integers(0, 9), min_size=1, max_size=15))
        text = emit_counts(YearlyCitingCounts({first + i: n for i, n in enumerate(column)}))
        dataset = False
    near = draw(st.integers(0, 9)) > 0
    call_year = draw(st.integers(first - 4, first + 12) if near else st.integers(YEAR_MIN, YEAR_MAX))
    return text, dataset, call_year, draw(st.none() | st.integers(first - 8, first + 8))


@settings(max_examples=150, deadline=None)
@given(candidates())
@example(("year,count\n2001,3\n2002,4\n", False, 1999, None))
@example((emit_dataset(make_dataset([("pA", 2000)], [("c0", 2003, {"pA"})],
                                    target=make_target(career_start_year=2000))), True, 2002, None))
def test_a_candidate_is_profiled_as_profile_to_its_call_year(candidate):
    """A one-candidate cohort fails with the line of `profile FILE --to
    <call year>`, plus `--window fixed:<start>` where the manifest gives a
    career start; or the candidate's points are that profile's; or, where
    that profile has no row, the cohort names the candidate's empty profile."""
    text, dataset, call_year, start = candidate
    with tempfile.TemporaryDirectory() as tmp:
        name = "c.json" if dataset else "c.csv"
        path, manifest = str(Path(tmp, name)), str(Path(tmp, "m.csv"))
        Path(path).write_text(text)
        Path(manifest).write_text("candidate_id,selected,call_year,career_start_year,path\n"
                                  f"a,true,{call_year},{'' if start is None else start},{name}\n")
        argv = ["profile", path] if dataset else ["profile", "--counts", path]
        argv += ["--to", str(call_year), "--format", "json"]
        argv += ["--window", f"fixed:{start}"] if start is not None else []
        profile, run = run_main(argv), run_main(["cohort", manifest, "--format", "json"])
        if profile.status != 0:
            assert profile.status == 1
            assert run == (1, "", profile.err, 0)
        elif profile.out == "[]\n":
            assert run == (
                1, "", f"impact-vitality: error: {manifest}: candidate 'a' has an empty profile\n", 0
            )
        else:
            assert run.status == 0
            loaded = cli._load_candidate(parse_manifest(Path(manifest).read_text())[0], Path(tmp))
            assert {p.observation_year: p.value for p in loaded.profile.points} == {
                row["observation_year"]: row["iv_value_raw"] for row in json.loads(profile.out)
            }


@pytest.mark.parametrize(
    "argv, culprit",
    [
        (["indicators", "late.json", "--year", "2004"],
         "late.json: window start 2005 is after the last observation year 2004"),
        (["profile", "late.json"],
         "late.json: window start 2005 is after the last observation year 2003"),
        (["profile", "late.json", "--to", "2004"],
         "late.json: window start 2005 is after the last observation year 2004"),
        (["profile", "late.json", "--from", "2010"], "late.json: empty observation range [2010, 2003]"),
        (["profile", "--counts", "late.csv", "--from", "2010"],
         "late.csv: empty observation range [2010, 2003]"),
        (["profile", "--counts", "late.csv", "--to", "1995", "--window", "fixed:1990"],
         "late.csv: empty observation range [2001, 1995]"),
    ],
    ids=["indicators_year", "profile", "profile_to", "profile_from", "counts_from",
         "counts_to_before_data_fixed"],
)
def test_observation_range_errors_name_the_file(argv, culprit, tmp_path, capsys):
    """The career starts in 2005, after every record (2001-2003)."""
    target = make_target("smith", "ja", career_start_year=2005)
    records = [(f"c{i}", 2001 + i % 3, {"pA"}) for i in range(6)]
    (tmp_path / "late.json").write_text(emit_dataset(make_dataset([("pA", 2000)], records, target=target)))
    (tmp_path / "late.csv").write_text("year,count\n2001,2\n2002,2\n2003,2\n")
    argv = [str(tmp_path / arg) if arg.startswith("late.") else arg for arg in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("impact-vitality: error:")
    assert culprit in err


@st.composite
def counts_runs(draw):
    """(counts, window, to): 1 to 15 consecutive years of counts, zeros
    allowed, with at least one citing publication; no window (the default),
    a moving one, or a fixed one starting before, at or after the first
    counted year; and no --to, or one before, at or after that year."""
    first = draw(st.integers(1990, 2010))
    column = draw(st.lists(st.integers(0, 9), min_size=1, max_size=15).filter(any))
    window = draw(st.one_of(
        st.none(),
        st.builds("moving:{}".format, st.integers(2, 6)),
        st.builds("fixed:{}:{}".format, st.integers(first - 4, first + 4), st.integers(2, 6)),
    ))
    to = draw(st.none() | st.integers(first - 5, first + 20))
    return {first + i: n for i, n in enumerate(column)}, window, to


@settings(max_examples=150, deadline=None)
@given(counts_runs())
@example(({2000: 0, 2001: 3, 2002: 0}, None, 1999))
@example(({2000: 0, 2001: 3, 2002: 4}, "fixed:2003:2", 2000))
def test_from_defaults_to_the_first_counted_year(run):
    """For every window, an omitted --from is the first counted year; with
    --to before that year, there is nothing to profile and the run names
    the file."""
    counts, window, to = run
    first = min(counts)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp, "c.csv"))
        Path(path).write_text(emit_counts(YearlyCitingCounts(counts)))
        argv = ["profile", "--counts", path]
        argv += ["--window", window] if window else []
        argv += ["--to", str(to)] if to is not None else []
        got = run_main(argv)
        if to is None or to >= first:
            assert got == run_main([*argv, "--from", str(first)])
        else:
            assert got == (
                1, "", f"impact-vitality: error: {path}: empty observation range [{first}, {to}]\n", 0
            )


# Cohort worker processes. Above cli._MIN_PER_WORKER candidates per worker,
# `cohort` profiles contiguous shares of the manifest in forked processes;
# the tests set the count through the one helper that decides it.

def write_cohort(directory: Path, size: int = 300) -> str:
    """A manifest of `size` candidates: counts files, some with missing
    years, and every tenth a dataset; career starts blank or set."""
    rng = random.Random(size)
    rows = ["candidate_id,selected,call_year,career_start_year,path"]
    for i in range(size):
        first = rng.randint(1980, 2000)
        call = first + rng.randint(6, 25)
        start = rng.choice(["", str(first), str(first - rng.randint(1, 3))])
        if i % 10 == 0:
            ds = make_dataset(
                [("pA", first), ("pB", first + 1)],
                [(f"c{j}", first + 1 + j % (call - first), {"pA"} if j % 3 else {"pA", "pB"})
                 for j in range(rng.randint(5, 40))],
                target=make_target(career_start_year=rng.choice([None, first])),
            )
            name, text = f"d{i}.json", emit_dataset(ds)
        else:
            counts = {first + k: rng.randint(1, 30) for k in range(call - first + 3)
                      if k == 0 or rng.random() > 0.2}  # a missing year counts 0
            name, text = f"c{i}.csv", emit_counts(YearlyCitingCounts(counts))
        (directory / name).write_text(text)
        rows.append(f"k{i},{'true' if i % 3 else 'false'},{call},{start},{name}")
    manifest = directory / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    return str(manifest)


@contextmanager
def deadline(seconds: float, error=TimeoutError):
    """Raise `error` in a run that waits longer than `seconds`, such as one
    that opened a FIFO with no writer. It is raised in this process, which
    kills and reaps its workers on the way out."""
    def expire(signum, frame):
        raise error(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_cohort(monkeypatch, argv, workers: int, seconds=30, error=TimeoutError):
    """`run_main(argv)` with `workers` worker processes, under a deadline,
    and the pids of the workers it forked."""
    monkeypatch.setattr(cli, "_worker_count", lambda candidates: workers)
    forked, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    with deadline(seconds, error):
        run = run_main(argv)
    monkeypatch.setattr(os, "fork", fork)
    return run, forked


def assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@needs_fork
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_workers_give_the_in_process_bytes(fmt, tmp_path, monkeypatch):
    manifest = write_cohort(tmp_path)
    argv = ["cohort", manifest, "--format", fmt]
    runs = {}
    for workers in (1, 2, 3):
        runs[workers], forked = run_cohort(monkeypatch, argv, workers)
        assert len(forked) == (0 if workers == 1 else workers)
        assert_no_child_is_left()
    assert runs[1].status == 0 and runs[1].err == "" and runs[1].writes == 1
    assert runs[2] == runs[1] and runs[3] == runs[1]


BAD_CANDIDATES = {
    "negative": lambda path: path.write_text("year,count\n2000,3\n2001,-1\n"),
    "missing": lambda path: path.unlink(),
    "fifo": lambda path: (path.unlink(), os.mkfifo(path)),
}


@needs_fork
@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("kinds", [
    ("negative", "missing", "fifo"), ("missing", "fifo", "negative"), ("fifo", "negative", "missing"),
], ids=lambda kinds: kinds[0])
def test_workers_name_the_first_error_in_manifest_order(kinds, tmp_path, monkeypatch):
    """Candidates 151, 241 and 281 go bad, in the second share of two
    workers and the second and third of three. Every run prints the one
    line of the in-process run, which names the first of them; a FIFO is
    refused unopened, as an open would wait for a writer until the deadline."""
    manifest = write_cohort(tmp_path)
    for index, kind in zip((151, 241, 281), kinds):
        BAD_CANDIDATES[kind](tmp_path / f"c{index}.csv")
    argv = ["cohort", manifest, "--format", "json"]
    expected, _ = run_cohort(monkeypatch, argv, 1)
    assert expected.status == 1 and expected.out == ""
    assert str(tmp_path / "c151.csv") in expected.err
    for workers in (2, 3):
        run, forked = run_cohort(monkeypatch, argv, workers)
        assert run == expected and len(forked) == workers
        assert_no_child_is_left()


@needs_fork
@pytest.mark.parametrize("end, cause", [
    (lambda: os._exit(3), "exit status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
], ids=["exit", "killed"])
def test_a_worker_that_ends_without_a_result_is_named(end, cause, tmp_path, monkeypatch):
    manifest = write_cohort(tmp_path)
    row = cli._candidate_row

    def dying_row(entry, base):
        if entry["candidate_id"] == "k201":  # in the last share of two workers and of three
            end()
        return row(entry, base)

    monkeypatch.setattr(cli, "_candidate_row", dying_row)
    for workers in (2, 3):
        run, _ = run_cohort(monkeypatch, ["cohort", manifest], workers)
        assert run == (1, "", f"impact-vitality: error: {manifest}: a worker process "
                              f"ended without a result ({cause})\n", 0)
        assert_no_child_is_left()


@needs_fork
def test_an_interrupt_reaps_every_worker(tmp_path, monkeypatch):
    """A worker stalls; a KeyboardInterrupt in the wait for it ends the
    run, and no worker outlives it."""
    manifest = write_cohort(tmp_path)
    row = cli._candidate_row

    def stalling_row(entry, base):
        if entry["candidate_id"] == "k201":
            signal.pause()
        return row(entry, base)

    monkeypatch.setattr(cli, "_candidate_row", stalling_row)
    with pytest.raises(KeyboardInterrupt):
        run_cohort(monkeypatch, ["cohort", manifest], 2, seconds=1, error=KeyboardInterrupt)
    assert_no_child_is_left()


@needs_fork
@pytest.mark.parametrize("call, error", [
    ("fork", BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")),
    ("pipe", OSError(errno.EMFILE, "Too many open files")),
], ids=["fork", "pipe"])
@pytest.mark.parametrize("failing", [1, 2])
def test_a_failed_fork_or_pipe_profiles_in_process(call, error, failing, tmp_path, monkeypatch):
    """The `failing`-th os.fork or os.pipe call fails, as at a limit on
    processes or open files: the worker already started is killed and
    reaped, and the candidates are profiled in process, with its bytes."""
    manifest = write_cohort(tmp_path)
    argv = ["cohort", manifest, "--format", "json"]
    expected, _ = run_cohort(monkeypatch, argv, 1)
    real, calls = getattr(os, call), []

    def fail_once(*args):
        calls.append(args)
        if len(calls) == failing:
            raise error
        return real(*args)

    monkeypatch.setattr(os, call, fail_once)
    run, forked = run_cohort(monkeypatch, argv, 2)
    assert expected.status == 0 and expected.writes == 1
    assert run == expected and len(forked) == failing - 1
    assert_no_child_is_left()


def cpus_available(cpus: int, affinity: bool):
    """This process may run on `cpus` CPUs, as `os.sched_getaffinity` says,
    or, where `affinity` is false, as `os.cpu_count` says to a caller that
    finds no `os.sched_getaffinity`."""
    getaffinity = (lambda pid: set(range(cpus))) if affinity else mock.Mock(side_effect=AttributeError)
    return mock.patch.multiple(os, cpu_count=lambda: cpus, sched_getaffinity=getaffinity, create=True)


@settings(deadline=None)
@given(st.integers(1, 10**4), st.integers(0, 10**6), st.booleans())
def test_the_worker_count_is_bounded(cpus, candidates, affinity):
    minimum = cli._MIN_PER_WORKER
    with cpus_available(cpus, affinity), mock.patch.object(os, "fork", side_effect=AssertionError, create=True):
        workers = cli._worker_count(candidates)
    assert 1 <= workers <= cpus
    assert workers == 1 or workers <= candidates // minimum
    if candidates < 2 * minimum:
        assert workers == 1
    if hasattr(os, "fork"):
        assert workers == min(cpus, max(1, candidates // minimum))


def test_a_live_thread_keeps_the_cohort_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    many = 8 * cli._MIN_PER_WORKER
    assert cli._worker_count(many) == (8 if hasattr(os, "fork") else 1)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert cli._worker_count(many) == 1
    finally:
        release.set()
        thread.join()
        # The OS lists a joined thread for a moment after join() returns; a
        # test that counts threads next must not see it.
        with deadline(5):
            while cli._thread_count() > 1:
                time.sleep(0.001)
    monkeypatch.delattr(os, "fork", raising=False)
    assert cli._worker_count(many) == 1


@needs_fork
@pytest.mark.parametrize("handler", [signal.SIG_IGN, lambda signum, frame: None],
                         ids=["ignored", "handled"])
def test_a_sigchld_disposition_keeps_the_cohort_in_process(handler, monkeypatch):
    """An ignored SIGCHLD reaps each child as it ends, and a handler may
    reap it too; either would take a worker's status from the parent."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    many = 8 * cli._MIN_PER_WORKER
    previous = signal.signal(signal.SIGCHLD, handler)
    try:
        assert cli._worker_count(many) == 1
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert cli._worker_count(many) == 8
