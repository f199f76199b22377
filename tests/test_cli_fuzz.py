"""Fuzz `main()` on counts files, cohort manifests, dataset JSON and argument
lists.

Every input must end in exit 0, 1 or 2; a non-zero exit prints a message
starting with `impact-vitality:` on stderr (or, from `validate`, ERROR
findings on stdout), and no exception escapes. The
generators mostly build near-valid files, so that many runs get past the
header or the schema and reach the kernel, the filters and the cohort
statistics.
"""

import contextlib
import io
import json

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

# Dataset JSON: a valid document with repeated and accented names, then, in
# about half the documents, up to three fields set to a junk value (a wrong
# JSON type, an empty or combining-mark-only surname, an unknown or duplicate
# id, a year out of range) or an unknown field added.
json_junk = st.sampled_from(
    [None, True, 0, -1, 1799, 3000000, 2**64, 2001.5, "", " ", "\u0301", "2001", "ghost", "p0",
     [], ["ghost"], [{"surname": ""}], {}]
)
names = st.fixed_dictionaries(
    {"surname": st.sampled_from(["Smith", "smith", "SMITH", "Müller", "muller", "Núñez", "Lee"])},
    optional={"initials": st.sampled_from(["ja", "J.A.", "j", "", "é"])},
)


@st.composite
def dataset_documents(draw):
    pubs = [
        {"id": f"p{i}", "year": draw(st.integers(min_value=1990, max_value=2005))}
        for i in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    pub_ids = st.lists(st.sampled_from([p["id"] for p in pubs]), min_size=1, max_size=3)
    records = [
        {
            "id": f"c{i}",
            "year": draw(st.integers(min_value=1991, max_value=2010)),
            "authors": draw(st.lists(names, max_size=3)),
            "cited_target_pub_ids": draw(pub_ids),
        }
        for i in range(draw(st.integers(min_value=0, max_value=25)))
    ]
    target = {"key": draw(names), "name_variants": draw(st.lists(names, max_size=2))}
    if draw(st.booleans()):
        target["career_start_year"] = draw(st.integers(min_value=1985, max_value=2005))
    doc = {"schema_version": 1, "target": target, "publications": pubs, "citing_records": records}

    objects = [doc, target, target["key"], *target["name_variants"], *pubs, *records]
    objects += [a for r in records for a in r["authors"]]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        obj = draw(st.sampled_from(objects))
        obj[draw(st.sampled_from([*obj, "extra"]))] = draw(json_junk)
    return json.dumps(doc).encode("utf-8")


dataset_files = mostly(dataset_documents(), st.binary(max_size=120))


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
    (root / "cohort.csv").write_text(
        f"{MANIFEST_HEADER}\na,true,2007,,ok.csv\nb,false,2007,1998,dataset.json\n"
    )
    (root / "sub").mkdir()
    return root


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2)
    if code and not (argv[0] == "validate" and "ERROR: " in out):
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


@settings(max_examples=200, deadline=None)
@given(dataset_files, st.integers(min_value=1990, max_value=2012))
def test_main_never_raises_on_dataset_json(workdir, dataset_bytes, year):
    (workdir / "fuzz.json").write_bytes(dataset_bytes)
    path = str(workdir / "fuzz.json")
    _check(["validate", path])
    _check(["profile", path, "--format", "json"])
    _check(["profile", path, "--filter", "self-citations", "--filter", "cites-only:most-cited"])
    _check(["indicators", path])
    _check(["indicators", path, "--year", str(year), "--format", "json"])


# Argument lists: a subcommand, then files and options in any order. The
# files are the good ones beside the fuzzed inputs, so most runs fail, if at
# all, on the arguments alone.
arg_junk = st.sampled_from(
    ["", " ", "x", "-", "--", "-1", "0", "20_03", "２００３", "2003.0", "1e3", "1" + "0" * 30,
     "a\nb", "a\rb\u2028", "\x00", "é", "--bogus", "-h"]
)
arg_years = mostly(st.integers(min_value=1795, max_value=2030).map(str), arg_junk)
windows = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["moving", "fixed", "Moving", ""]), arg_years),
    st.builds("fixed:{}:{}".format, arg_years, st.one_of(st.integers(-2, 40).map(str), arg_junk)),
    arg_junk,
)
filters = mostly(
    st.sampled_from(["self-citations", "cites-only:most-cited", "cites-only:pA",
                     "cites-only:ghost", "cites-only:"]),
    arg_junk,
)
file_args = st.sampled_from(["ok.csv", "dataset.json", "cohort.csv", "sub", "missing.json"])
options = st.one_of(
    st.tuples(st.just("--format"), st.sampled_from(["table", "csv", "json", "text", "xml"])),
    st.tuples(st.just("--filter"), filters),
    st.tuples(st.just("--window"), windows),
    st.tuples(st.sampled_from(["--from", "--to", "--year"]), arg_years),
    st.tuples(st.just("--counts"), file_args),
    st.tuples(file_args),
    st.tuples(arg_junk),
)
argvs = st.tuples(
    mostly(st.sampled_from(["validate", "profile", "indicators", "cohort"]), arg_junk),
    mostly(file_args.map(lambda f: (f,)), st.just(())),
    st.lists(options, max_size=5),
)


@settings(max_examples=300, deadline=None)
@given(argvs)
def test_main_never_raises_on_arguments(workdir, parts):
    command, files, chunks = parts
    named = {name: str(workdir / name) for name in ("ok.csv", "dataset.json", "cohort.csv", "sub",
                                                     "missing.json")}
    argv = [command, *(named.get(a, a) for a in files)]
    argv += [named.get(a, a) for chunk in chunks for a in chunk]
    code, out, err = _run(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    elif not (command == "validate" and "ERROR: " in out):
        assert err.startswith("impact-vitality:") and err.endswith("\n"), err
        assert len(err.splitlines()) == 1, err
    # A bad --filter is a usage error whatever the files hold.
    filter_values = [chunk[1] for chunk in chunks if chunk[0] == "--filter"]
    cites_only = sum(v.startswith("cites-only:") for v in filter_values)
    unknown = len(filter_values) - cites_only - filter_values.count("self-citations")
    if command == "profile" and not {"-h", "--help"} & set(argv) and (unknown or cites_only > 1):
        assert code == 2, err
