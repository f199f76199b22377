"""Fuzz `main()` on counts files and cohort manifests.

Every input must end in exit 0, 1 or 2; a non-zero exit prints a message
starting with `impact-vitality:` on stderr, and no exception escapes. The
generators mostly build near-valid files, so that many runs get past the
header and reach the kernel and the cohort statistics.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impact_vitality import YearlyCitingCounts, emit_counts, emit_dataset
from impact_vitality.cli import main

from conftest import make_dataset, make_target

COUNTS_HEADER = "year,count"
MANIFEST_HEADER = "candidate_id,selected,call_year,career_start_year,path"

# Near-miss tokens: out-of-range or oddly written numbers, quotes, NUL bytes,
# JSON openers, names of the files beside the manifest.
junk = st.sampled_from(
    ["", " ", "x", '"', '""', "\x00", "é", "{", "[[[[", "1e3", "2001.0", "２００１", " 2001 ",
     "-1", "0", "1799", "3000000", str(2**53 - 1), str(2**53), "1" + "0" * 400, "9" * 5000]
)


def mostly(good, bad):
    """`good` seven times in eight."""
    return st.sampled_from(range(8)).flatmap(lambda i: bad if i == 7 else good)


years = mostly(st.integers(min_value=1995, max_value=2012).map(str), junk)
counts = mostly(
    st.integers(min_value=0, max_value=60).map(str),
    st.one_of(junk, st.integers(min_value=0, max_value=10**400).map(str)),
)
paths = mostly(
    st.sampled_from(["counts.csv", "ok.csv", "dataset.json"]),
    st.one_of(st.sampled_from(["manifest.csv", "sub", "missing.csv"]), junk),
)
manifest_rows = st.tuples(
    st.sampled_from(["a", "b", "c", "a "]),
    mostly(st.sampled_from(["true", "false", "1", "no"]), junk),
    mostly(st.integers(min_value=2003, max_value=2012).map(str), junk),
    mostly(st.just(""), years),
    paths,
).map(list)


def _document(header, row, max_rows):
    """CSV bytes: a header (mostly the right one), rows of fields (mostly
    well formed), any of the three line endings; or else arbitrary bytes."""
    headers = mostly(st.just(header), st.sampled_from(["", "year", "{", header.upper()]))
    rows = st.lists(
        mostly(row, st.lists(junk, max_size=4)),
        min_size=1,
        max_size=max_rows,
        unique_by=lambda r: r[0] if r else None,  # mostly distinct candidate ids
    )
    ending = st.sampled_from(["\n", "\r\n", "\r"])
    text = st.builds(
        lambda h, rs, e: e.join([h, *(",".join(r) for r in rs)]) + e, headers, rows, ending
    )
    return mostly(text.map(lambda t: t.encode("utf-8")), st.binary(max_size=120))


counts_files = _document(COUNTS_HEADER, st.tuples(years, counts).map(list), 12)
manifest_files = _document(MANIFEST_HEADER, manifest_rows, 3)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "ok.csv").write_text(
        emit_counts(YearlyCitingCounts({2000 + i: 5 + 3 * i for i in range(10)}))
    )
    ds = make_dataset(
        [("pA", 1998)],
        [(f"c{i}", 1999 + i % 9, {"pA"}) for i in range(40)],
        target=make_target(career_start_year=1998),
    )
    (root / "dataset.json").write_text(emit_dataset(ds))
    (root / "sub").mkdir()
    return root


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _check(argv):
    code, err = _run(argv)
    assert code in (0, 1, 2)
    if code:
        assert err.startswith("impact-vitality:"), err


@settings(max_examples=200, deadline=None)
@given(counts_files, manifest_files)
def test_main_never_raises_on_csv_inputs(workdir, counts_bytes, manifest_bytes):
    (workdir / "counts.csv").write_bytes(counts_bytes)
    (workdir / "manifest.csv").write_bytes(manifest_bytes)
    counts_path, manifest_path = str(workdir / "counts.csv"), str(workdir / "manifest.csv")
    _check(["profile", "--counts", counts_path, "--format", "json"])
    _check(["profile", "--counts", counts_path, "--window", "moving:3"])
    _check(["cohort", manifest_path])
    _check(["cohort", manifest_path, "--format", "json"])
