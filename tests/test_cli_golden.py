"""CLI standard output, byte for byte, on a fixed table of invocations.

The expected bytes live in `tests/golden/<case>.txt`. After a deliberate
change of the output, rewrite them from the root of a checkout with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from impact_vitality import (
    FixedStart,
    YearlyCitingCounts,
    emit_counts,
    emit_dataset,
    parse_manifest,
)
from impact_vitality import cli, cohort, indicators, model
from impact_vitality.cli import main

from conftest import (
    TABLE5_COUNTS,
    TABLE5_PRINTED_IV,
    CliRun,
    make_dataset,
    make_target,
    run_main,
    table5_dataset,
)

GOLDEN = Path(__file__).parent / "golden"

# "{d}" stands for the fixture directory.
CASES = {
    "profile_counts_table": ["profile", "--counts", "{d}/table5.csv", "--window", "fixed:1988:4"],
    "profile_counts_csv": ["profile", "--counts", "{d}/table5.csv", "--format", "csv"],
    "profile_counts_json": ["profile", "--counts", "{d}/table5.csv", "--format", "json"],
    "profile_counts_moving": [
        "profile", "--counts", "{d}/table5.csv", "--window", "moving:5",
        "--from", "1995", "--to", "2003", "--format", "csv",
    ],
    "profile_dataset_table": ["profile", "{d}/author.json"],
    "profile_dataset_csv": ["profile", "{d}/nostart.json", "--format", "csv"],
    "profile_dataset_json": ["profile", "{d}/author.json", "--format", "json"],
    "profile_dataset_filters": [
        "profile", "{d}/author.json", "--filter", "self-citations",
        "--filter", "cites-only:most-cited", "--format", "json",
    ],
    "profile_dataset_moving": [
        "profile", "{d}/author.json", "--filter", "self-citations", "--window", "moving:3",
        "--from", "2003", "--to", "2007",
    ],
    "indicators_text": ["indicators", "{d}/author.json"],
    "indicators_json": ["indicators", "{d}/author.json", "--format", "json"],
    "indicators_year_text": ["indicators", "{d}/author.json", "--year", "2006"],
    "indicators_year_json": ["indicators", "{d}/nostart.json", "--year", "2007", "--format", "json"],
    "cohort_table": ["cohort", "{d}/manifest.csv"],
    "cohort_json": ["cohort", "{d}/manifest.csv", "--format", "json"],
}


def _author(target):
    pubs = [("pA", 2000), ("pB", 2001), ("pC", 2003)]
    records = []
    for i in range(60):
        year = 2001 + (7 * i) % 9
        if year == 2004:  # a zero year inside the window
            continue
        cited = [{"pA"}, {"pA", "pB"}, {"pB", "pC"}, {"pA"}, {"pC"}][i % 5]
        authors = [("smith", "j")] if i % 7 == 0 else [("jones", "k"), ("lee", "m")]
        records.append((f"c{i}", year, cited, authors))
    return make_dataset(pubs, records, target=target)


def write_fixtures(d: Path) -> None:
    """Counts CSVs, two datasets and a cohort manifest mixing both kinds."""
    (d / "table5.csv").write_text(emit_counts(YearlyCitingCounts(TABLE5_COUNTS["all"])))
    target = make_target("smith", "ja", variants=[("smith", "j")], career_start_year=2000)
    (d / "author.json").write_text(emit_dataset(_author(target)))
    (d / "nostart.json").write_text(emit_dataset(_author(make_target("smith", "ja"))))
    rows = ["candidate_id,selected,call_year,career_start_year,path"]
    for i in range(3):
        counts = {2000 + j: 10 + (5 + i) * j for j in range(8)}
        (d / f"grow{i}.csv").write_text(emit_counts(YearlyCitingCounts(counts)))
        rows.append(f"grow{i},true,2007,{'' if i == 2 else 2000 - i},grow{i}.csv")
    for i in range(3):
        counts = {2000 + j: 10 + 40 * (j % 2) + i for j in range(8) if j != i + 3}
        (d / f"fluct{i}.csv").write_text(emit_counts(YearlyCitingCounts(counts)))
        rows.append(f"fluct{i},false,2007,{'' if i == 0 else 2000},fluct{i}.csv")
    rows += [
        "author,true,2008,,author.json",
        "author-1999,false,2008,1999,author.json",
        "nostart,false,2008,,nostart.json",
    ]
    (d / "manifest.csv").write_text("\n".join(rows) + "\n")


def run_case(name: str, d: Path) -> CliRun:
    return run_main([arg.format(d=d) for arg in CASES[name]])


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    write_fixtures(d)
    return d


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, fixture_dir):
    code, out, err, writes = run_case(name, fixture_dir)
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert err == ""
    assert writes == 1


# Run in a child interpreter: every case, then the cohort cases again with
# three shares. Prints a JSON object of "<name>" or "<name>@3" -> [status, stdout].
_CHILD = """
import contextlib, io, json, sys
from impact_vitality import cli

def run(cases, suffix, out):
    for name, argv in cases.items():
        with contextlib.redirect_stdout(io.StringIO()) as text:
            status = cli.main(argv)
        out[name + suffix] = [status, text.getvalue()]

cases, out = json.loads(sys.argv[1]), {}
run(cases, "", out)
cli._worker_count = lambda candidates: 3
run({k: v for k, v in cases.items() if v[0] == "cohort"}, "@3", out)
print(json.dumps(out))
"""


def _interpreter(version: str):
    """A `python<version>` that starts: the one on PATH, else one of
    pyenv's versions (a pyenv shim on PATH exits with an error where no
    version of that name is selected), else None."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = [shutil.which(f"python{version}")]
    found += sorted(str(exe) for exe in root.glob(f"{version}.*/bin/python{version}"))
    for exe in filter(None, found):
        check = "import sys; print('%d.%d' % sys.version_info[:2])"
        try:
            done = subprocess.run([exe, "-c", check], capture_output=True, text=True, timeout=30)
        except OSError:
            continue
        if done.returncode == 0 and done.stdout.strip() == version:
            return exe
    return None


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_other_pythons_print_the_golden_bytes(version, fixture_dir):
    """The CLI's float order, sum() and formatting give the same bytes on
    the other CPythons that `requires-python` admits, as far as they are
    installed; the cohort cases also with three shares."""
    exe = _interpreter(version)
    if exe is None:
        pytest.skip(f"no python{version} starts here")
    cases = {name: [arg.format(d=fixture_dir) for arg in argv] for name, argv in CASES.items()}
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run([exe, "-c", _CHILD, json.dumps(cases)], capture_output=True,
                          text=True, encoding="utf-8", env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    runs = json.loads(done.stdout)
    assert sorted(runs) == sorted([*CASES, "cohort_json@3", "cohort_table@3"])
    for name, (status, out) in runs.items():
        golden = (GOLDEN / f"{name.split('@')[0]}.txt").read_text(encoding="utf-8")
        assert (name, status, out) == (name, 0, golden)


def test_validate_writes_its_findings_once(tmp_path):
    """A run that exits 1 for ERROR findings still writes them, all at once."""
    records = [("c0", 2001, {"ghost"}), ("c1", 2002, {"pA", "phantom"})]
    path = tmp_path / "bad.json"
    path.write_text(emit_dataset(make_dataset([("pA", 2000)], records)))
    assert run_main(["validate", str(path)]) == (1, (
        "ERROR: citing record 'c0' references unknown publication 'ghost'\n"
        "ERROR: citing record 'c1' references unknown publication 'phantom'\n"
    ), "", 1)


@pytest.fixture(scope="module")
def table5_json(tmp_path_factory):
    ds = table5_dataset()
    assert len(ds.citing_records) == 4727
    path = tmp_path_factory.mktemp("table5") / "table5.json"
    path.write_text(emit_dataset(ds))
    return str(path)


def _profile_csv(*argv) -> str:
    code, out, *_ = run_main(["profile", *argv, "--format", "csv"])
    assert code == 0
    return out


@pytest.mark.parametrize("filters, column", [
    ([], "all"),
    (["--filter", "self-citations"], "excl_self_citing"),
    (["--filter", "cites-only:most-cited"], "excl_citing_only_top"),
])
def test_table5_from_citing_records(filters, column, table5_json):
    """The paper's three regimes, from records through parse, validate,
    the filters, most-cited, the kernel and the report: each prints the 17
    published values of its column."""
    out = _profile_csv(table5_json, *filters)
    rows = list(csv.DictReader(io.StringIO(out)))
    printed = {str(year): f"{value:.2f}" for year, value in TABLE5_PRINTED_IV[column].items()}
    assert {row["observation_year"]: row["iv_value"] for row in rows} == printed
    if column == "excl_citing_only_top":
        assert _profile_csv(table5_json, "--filter", "cites-only:top") == out


def compensated_sum(items, start=0):
    """sum() as CPython 3.12 and later compute it: ints exactly, floats with
    Neumaier's compensated addition."""
    total, comp = start, 0.0
    for x in items:
        if type(total) is int and type(x) is int:
            total += x
            continue
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_compensated_sum_differs_from_left_to_right():
    tenths = [0.1] * 10
    left_to_right = 0.0
    for x in tenths:
        left_to_right += x
    assert left_to_right != 1.0 == compensated_sum(tenths)
    assert compensated_sum([2**60, 1, -(2**60)]) == 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_does_not_depend_on_sum(name, fixture_dir, monkeypatch):
    """The kernel adds its floats in a fixed order, so a compensated sum()
    in `indicators`, as on CPython 3.12, leaves every byte as it is."""
    monkeypatch.setattr(indicators, "sum", compensated_sum, raising=False)
    code, out, *_ = run_case(name, fixture_dir)
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_cli_builds_no_point(name, fixture_dir, monkeypatch):
    """Every command reads each profile's columns: it prints its golden
    bytes when no `IVPoint` can be built."""

    def no_point(*fields):
        raise AssertionError("the CLI built an IVPoint")

    monkeypatch.setattr(indicators, "IVPoint", no_point)
    code, out, *_ = run_case(name, fixture_dir)
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_the_library_and_cli_routes_summarize_alike(fixture_dir):
    """`cohort_summary` of the rows a library caller builds, with
    `cli._profile` and then `candidate_row`, equals that of the CLI's rows:
    both routes give `candidate_row` the same fields in the same order."""
    entries = parse_manifest((fixture_dir / "manifest.csv").read_text())
    library_rows = []
    for entry in entries:
        start = entry["career_start_year"]
        profile, counts, ds = cli._profile(
            (fixture_dir / entry["path"]).read_text(), entry["path"].endswith(".json"),
            last=entry["call_year"], spec=None if start is None else FixedStart(start),
        )
        if start is None and ds is not None:
            start = ds.target.career_start_year
        library_rows.append((entry["selected"], cohort.candidate_row(
            entry["candidate_id"], profile, counts, entry["call_year"], start)))
    cli_rows = [cli._candidate_row(entry, fixture_dir) for entry in entries]
    assert cohort.cohort_summary(library_rows) == cohort.cohort_summary(cli_rows)


@pytest.mark.parametrize("year_max", [2009, 2100])  # the latest fixture year, and far ahead
@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_does_not_depend_on_the_year_bound(name, year_max, fixture_dir, monkeypatch):
    monkeypatch.setattr(model, "YEAR_MAX", year_max)
    code, out, *_ = run_case(name, fixture_dir)
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


# With the year bound at 2005, below some fixture years: each year check
# fails naming the bound. (arguments, exit status, the stderr line, or for
# `validate` the stdout line, that names it.)
BOUND_CASES = {
    "counts": (["profile", "--counts", "{d}/table5.csv"], 1,
               "impact-vitality: error: {d}/table5.csv: counts file: "
               "year 2007 outside [1800, 2005]"),
    "dataset": (["validate", "{d}/author.json"], 1,
                "ERROR: citing record 'c1' year 2008 outside [1800, 2005]"),
    "manifest": (["cohort", "{d}/manifest.csv"], 1,
                 "impact-vitality: error: {d}/manifest.csv: manifest line 2: "
                 "call_year 2007 outside [1800, 2005]"),
    "year_arg": (["indicators", "{d}/author.json", "--year", "2006"], 2,
                 "impact-vitality: usage error: --year 2006 outside [1800, 2005]"),
    "moving_window": (["profile", "--counts", "{d}/table5.csv", "--window", "moving:207"], 2,
                      "impact-vitality: usage error: --window moving:207 reaches back to 1799 "
                      "outside [1800, 2005]"),
    "fixed_window": (["profile", "--counts", "{d}/table5.csv", "--window", "fixed:2006"], 2,
                     "impact-vitality: usage error: --window start 2006 outside [1800, 2005]"),
}


@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_every_year_check_reads_the_one_bound(case, fixture_dir, monkeypatch, capsys):
    monkeypatch.setattr(model, "YEAR_MAX", 2005)
    args, code, line = BOUND_CASES[case]
    assert main([arg.format(d=fixture_dir) for arg in args]) == code
    out, err = capsys.readouterr()
    if args[0] == "validate":
        assert line.format(d=fixture_dir) in out.splitlines()
    else:
        assert err == line.format(d=fixture_dir) + "\n"


# Every record up to 1994 is a self-citation, so `--filter self-citations`
# leaves records from 1995 on.
ANCHOR_COUNTS = {1992: 40, 1993: 2, 1994: 3, 1995: 4, 1996: 5, 1997: 6, 1998: 7, 1999: 8}
ANCHOR_RECORDS = [
    (f"c{year}-{k}", year, {"p1"}, [("smith", "ja")] if year <= 1994 else [("jones", "k")])
    for year, n in ANCHOR_COUNTS.items()
    for k in range(n)
]

# (input file, career start, declared first citation year, profile filter,
# manifest career_start_year, expected window start). Each case's anchor is
# the first source in the rule that it sets.
ANCHOR_CASES = {
    "counts_first_year": ("counts", None, None, [], "", 1992),
    "dataset_career_start": ("dataset", 1990, None, [], "", 1990),
    # The first record left after the filter is from 1995.
    "declared_first_citation": ("dataset", None, 1993, ["--filter", "self-citations"], "", 1993),
    "manifest_career_start": ("dataset", 1990, None, [], "1991", 1991),
}


@pytest.mark.parametrize("case", sorted(ANCHOR_CASES))
def test_growing_window_anchors_in_order(case, tmp_path, capsys):
    """Without --window, profile and cohort start the window at the same
    anchor: the first known of the given (manifest) career start, the
    dataset's career start, its first citation year, the first counted
    year."""
    kind, career_start, first_citation, filters, manifest_start, anchor = ANCHOR_CASES[case]
    if kind == "counts":
        path = tmp_path / "c.csv"
        path.write_text(emit_counts(YearlyCitingCounts(ANCHOR_COUNTS)))
    else:
        path = tmp_path / "ds.json"
        target = replace(make_target(career_start_year=career_start),
                         first_citation_year=first_citation)
        path.write_text(emit_dataset(make_dataset([("p1", 1990)], ANCHOR_RECORDS, target=target)))
    source = ["--counts", str(path)] if kind == "counts" else [str(path)]

    def rows(*extra):
        assert main(["profile", *source, *extra, "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)

    pinned = rows(*filters, "--window", f"fixed:{anchor}")
    assert pinned[-1]["observation_year"] == anchor + 3  # the shortest window has 4 years
    if not manifest_start:
        assert rows(*filters) == pinned

    (tmp_path / "m.csv").write_text(
        "candidate_id,selected,call_year,career_start_year,path\n"
        f"a,true,1999,{manifest_start},{path.name}\n"
    )
    assert main(["cohort", str(tmp_path / "m.csv"), "--format", "json"]) == 0
    stats = json.loads(capsys.readouterr().out)["selected"]
    unfiltered = rows("--window", f"fixed:{anchor}")  # cohort takes no filter
    assert stats["min_iv"]["min"] == min(r["iv_value_raw"] for r in unfiltered)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_fixtures(Path(tmp))
        for name in sorted(CASES):
            code, out, *_ = run_case(name, Path(tmp))
            if code != 0:
                sys.exit(f"{name}: exit status {code}")
            (GOLDEN / f"{name}.txt").write_text(out, encoding="utf-8")
