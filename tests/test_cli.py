import json

import pytest

from impact_vitality import YearlyCitingCounts, emit_counts, emit_dataset
from impact_vitality.cli import main

from conftest import TABLE5_COUNTS, TABLE5_PRINTED_IV, make_dataset, make_target


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
        doc = json.loads(open(dataset_file).read())
        doc["citing_records"][0]["year"] = "2003"
        with open(dataset_file, "w") as f:
            json.dump(doc, f)
        assert main(["validate", dataset_file]) == 1
        err = capsys.readouterr().err
        assert "citing_records[0]: 'year' must be int, got str" in err
        assert "usage" not in err


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

    def test_requires_some_input(self, capsys):
        assert main(["profile"]) == 2

    def test_bad_window_syntax(self, table5_csv, capsys):
        assert main(["profile", "--counts", table5_csv, "--window", "sliding:5"]) == 2

    def test_unknown_filter(self, dataset_file, capsys):
        assert main(["profile", dataset_file, "--filter", "bogus"]) == 2

    def test_year_range_flags(self, table5_csv, capsys):
        rc = main(
            ["profile", "--counts", table5_csv, "--window", "moving:5",
             "--from", "2000", "--to", "2005", "--format", "csv"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        years = [int(l.split(",")[0]) for l in lines[1:]]
        assert years == [2005, 2004, 2003, 2002, 2001, 2000]

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

    def test_call_year_before_anchor_is_data_error(self, tmp_path, capsys):
        (tmp_path / "late.csv").write_text("year,count\n2001,3\n2002,4\n")
        (tmp_path / "m.csv").write_text(
            "candidate_id,selected,call_year,career_start_year,path\nx,true,1999,,late.csv\n"
        )
        assert main(["cohort", str(tmp_path / "m.csv")]) == 1
        err = capsys.readouterr().err
        assert "late.csv: call year 1999 is before the window start 2001" in err

    def test_duplicate_candidate_is_data_error(self, tmp_path, capsys):
        manifest = self.make_manifest(tmp_path)
        with open(manifest, "a") as f:
            f.write("grow1,false,2007,2000,fluct0.csv\n")
        assert main(["cohort", manifest]) == 1
        assert "line 9: duplicate candidate_id 'grow1'" in capsys.readouterr().err

    def test_dataset_entries_are_validated(self, tmp_path, dataset_file, capsys):
        doc = json.loads(open(dataset_file).read())
        doc["publications"].append(dict(doc["publications"][0]))
        (tmp_path / "dup.json").write_text(json.dumps(doc))
        (tmp_path / "m.csv").write_text(
            "candidate_id,selected,call_year,career_start_year,path\nx,true,2006,,dup.json\n"
        )
        assert main(["cohort", str(tmp_path / "m.csv")]) == 1
        assert "dup.json: duplicate publication id 'pA'" in capsys.readouterr().err

    def test_bad_manifest(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n")
        assert main(["cohort", str(bad)]) == 1
