"""CLI standard output, byte for byte, on a fixed table of invocations.

The expected bytes live in `tests/golden/<case>.txt`. After a deliberate
change of the output, rewrite them from the root of a checkout with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from impact_vitality import (
    AuthorKey,
    CitationDataset,
    TargetAuthor,
    YearlyCitingCounts,
    emit_counts,
    emit_dataset,
)
from impact_vitality.cli import main

from conftest import TABLE5_COUNTS, make_dataset, make_target

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


def run_case(name: str, d: Path) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([arg.format(d=d) for arg in CASES[name]])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    write_fixtures(d)
    return d


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, fixture_dir):
    code, out = run_case(name, fixture_dir)
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_cohort_dataset_anchor_follows_declared_first_citation_year(tmp_path, capsys):
    # Records from 1992, but the dataset declares its first citation in 1995:
    # the growing window starts in 1995 for profile and cohort alike.
    counts = {1992: 40, 1993: 2, 1994: 3, 1995: 4, 1996: 5, 1997: 6, 1998: 7, 1999: 8}
    records = [
        (f"c{year}-{k}", year, {"p1"}) for year, n in counts.items() for k in range(n)
    ]
    built = make_dataset([("p1", 1990)], records)
    ds = CitationDataset(
        target=TargetAuthor(key=AuthorKey("smith", "ja"), first_citation_year=1995),
        publications=built.publications,
        citing_records=built.citing_records,
    )
    (tmp_path / "ds.json").write_text(emit_dataset(ds))
    (tmp_path / "m.csv").write_text(
        "candidate_id,selected,call_year,career_start_year,path\na,true,1999,,ds.json\n"
    )

    assert main(["profile", str(tmp_path / "ds.json"), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["observation_year"] for r in rows] == [1999, 1998]
    assert main(["cohort", str(tmp_path / "m.csv"), "--format", "json"]) == 0
    stats = json.loads(capsys.readouterr().out)["selected"]
    assert stats["min_iv"]["min"] == min(r["iv_value_raw"] for r in rows)
    assert stats["share_all_above_one"] == 1.0


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_fixtures(Path(tmp))
        for name in sorted(CASES):
            code, out = run_case(name, Path(tmp))
            if code != 0:
                sys.exit(f"{name}: exit status {code}")
            (GOLDEN / f"{name}.txt").write_text(out, encoding="utf-8")
