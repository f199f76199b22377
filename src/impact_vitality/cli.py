"""Command-line surface: validate, profile, indicators, cohort.

Exit statuses: 0 success, 2 when the arguments are wrong on their own, 1
for any other error. Diagnostics go to stderr, data to stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from . import cohort
from . import io as ivio
from . import model
from .cohort import CandidateProfile, RangeStat, cohort_summary
from .filters import FilterSet, most_cited_publication
from .indicators import (
    DEFAULT_MIN_WINDOW,
    FixedStart,
    MovingWindow,
    WindowSpec,
    ar_index,
    iv_profile,
    select_h_core,
)
from .model import (
    Severity,
    citation_counts_per_publication,
    has_errors,
    validate_dataset,
    year_error,
    yearly_citing_counts,
)

PROG = "impact-vitality"

# Each character str.splitlines breaks at, as Python writes it in a str
# literal: a diagnostic stays one line where it quotes a name holding one.
_LINE_BREAKS = {ord(ch): repr(ch)[1:-1] for ch in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}


def _cohort_rows(span: int) -> tuple:
    """Cohort statistics in output order: (text label, JSON key, CohortStats
    field, decimals in the text table). `span` is the years until the call
    that two rows cover. A range prints as "min to max, average mean"; the
    share prints as a percentage."""
    return (
        ("Number of candidates", "group_size", "group_size", 0),
        ("Minimum IV", "min_iv", "min_iv_range", 2),
        ("Share with all IV values > 1", "share_all_above_one", "share_all_above_one", 0),
        (f"IV fluctuation in {span} years until call", f"fluctuation_last{span}",
         "fluctuation_range", 2),
        (f"Citing publications per year, {span} years until call", f"citing_per_year_last{span}",
         "citing_per_year_last5", 1),
        ("Citing publications per year since career start", "citing_per_year_since_start",
         "citing_per_year_since_start", 1),
    )


class UsageError(Exception):
    """The arguments are wrong on their own, whatever the files hold."""


class DataError(ValueError):
    """A data error whose message already names its file."""


def _read(path: str) -> str:
    """The text of `path` as text mode reads it: a leading BOM is dropped
    and "\r\n" and a lone "\r" end a line as "\n" does."""
    try:
        with open(path, "rb") as file:  # Path(path).read_bytes() costs more per file
            data = file.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # a path the OS cannot take, e.g. with a NUL byte
        raise DataError(f"cannot read {path!r}: {exc}") from None
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        raise DataError(f"cannot decode {path} as UTF-8") from None
    # UTF-8 writes "\r" only as this byte, so most files skip both scans.
    if b"\r" in data:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


@contextmanager
def _about(path: str):
    """Name `path` in every data error raised inside: a ValueError that is
    not a DataError yet becomes one, its message prefixed with the path."""
    try:
        yield
    except DataError:
        raise
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _year_arg(name: str, year: Optional[int]) -> Optional[int]:
    """The year itself, if it lies in [YEAR_MIN, YEAR_MAX]."""
    problem = year_error(name, year)
    if problem:
        raise UsageError(problem)
    return year


def _growing_window(counts, ds=None, career_start=None) -> FixedStart:
    """The default window, a growing one. It starts at the first known of
    these: the given career start, the dataset's career start, the dataset's
    first citation year and the first counted year. `counts` is not empty."""
    anchors = [career_start]
    if ds is not None:
        anchors += [ds.target.career_start_year, ds.target.first_citation_year]
    anchors.append(counts.min_year())
    return FixedStart(start_year=next(year for year in anchors if year is not None))


def parse_window_arg(arg: str) -> WindowSpec:
    parts = arg.split(":")
    try:
        if parts[0] == "moving" and len(parts) == 2:
            window = MovingWindow(n=ivio.integer(parts[1]))
            _year_arg(f"--window {arg} reaches back to", model.YEAR_MAX - window.n + 1)
            return window
        if parts[0] == "fixed" and len(parts) in (2, 3):
            start = _year_arg("--window start", ivio.integer(parts[1]))
            min_length = ivio.integer(parts[2]) if len(parts) == 3 else DEFAULT_MIN_WINDOW
            return FixedStart(start_year=start, min_length=min_length)
    except ValueError as exc:
        raise UsageError(f"invalid --window {arg!r}: {exc}") from exc
    raise UsageError(
        f"invalid --window {arg!r}: expected moving:<n> or fixed:<start>[:<minlen>]"
    )


def parse_filter_args(args: Sequence[str]) -> tuple[bool, Optional[str]]:
    """(exclude_self_citations, exclude_citing_only) from the `--filter`
    values, checked before any file is read. The second may be
    "most-cited", which only the dataset can resolve."""
    exclude_self = False
    citing_only: Optional[str] = None
    for arg in args:
        if arg == "self-citations":
            exclude_self = True
        elif arg.startswith("cites-only:"):
            pub_id = arg.split(":", 1)[1]
            if citing_only is not None:
                raise UsageError(
                    f"--filter cites-only: may be given once, got {citing_only!r} and {pub_id!r}"
                )
            citing_only = pub_id
        else:
            raise UsageError(
                f"unknown --filter {arg!r}: expected self-citations or cites-only:<pubid|most-cited>"
            )
    return exclude_self, citing_only


def _load(text: str, dataset: bool, last: Optional[int] = None,
          filters: tuple[bool, Optional[str]] = (False, None)):
    """(counts, dataset) from the text of a dataset, or of a counts file with
    dataset None. Only a dataset's records dated `last` or earlier count and
    choose most-cited. `filters` is what `parse_filter_args` returns. Every
    error is a data error, empty input included."""
    if not dataset:
        counts, ds = ivio.parse_counts(text), None
    else:
        ds = ivio.parse_dataset(text)
        findings = validate_dataset(ds)
        if has_errors(findings):
            raise ValueError(next(f for f in findings if f.severity is Severity.ERROR).message)
        if not ds.citing_records:
            raise ValueError("dataset has no citing records")
        if last is not None:
            ds = replace(ds, citing_records=[r for r in ds.citing_records if r.year <= last])
            if not ds.citing_records:
                raise ValueError(f"no citing records dated {last} or earlier")
        exclude_self, citing_only = filters
        if citing_only == "most-cited":
            citing_only = most_cited_publication(ds)
        fs = FilterSet(exclude_self_citations=exclude_self, exclude_citing_only=citing_only)
        counts = yearly_citing_counts(ds, fs)
    if not counts.counts:
        raise ValueError("no citing publications to profile")
    return counts, ds


def cmd_validate(args) -> int:
    with _about(args.dataset):
        findings = validate_dataset(ivio.parse_dataset(_read(args.dataset)))
    for f in findings:
        print(f"{f.severity.value}: {f.message}")
    return 1 if has_errors(findings) else 0


def cmd_profile(args) -> int:
    if args.counts and args.dataset:
        raise UsageError("give either a dataset or --counts, not both")
    if not args.counts and not args.dataset:
        raise UsageError("a dataset file or --counts is required")
    if args.counts and args.filter:
        raise UsageError(
            "--filter needs record-level data; a bare counts file has none "
            "(use a dataset file instead)"
        )
    first = _year_arg("--from", args.from_year)
    last = _year_arg("--to", args.to_year)
    if first is not None and last is not None and first > last:
        raise UsageError(f"empty observation range [{first}, {last}]")
    spec = parse_window_arg(args.window) if args.window else None
    filters = parse_filter_args(args.filter or ())

    path = args.counts or args.dataset
    with _about(path):
        counts, ds = _load(_read(path), bool(args.dataset), last, filters)
        if spec is None:
            spec = _growing_window(counts, ds)
        if first is None:
            first = counts.min_year()
            if isinstance(spec, FixedStart):
                first = min(first, spec.start_year)
        if last is None:
            last = counts.max_year()
        profile = iv_profile(counts, spec, first, last)
    sys.stdout.write(ivio.emit_report(profile, args.format))
    return 0


def cmd_indicators(args) -> int:
    year = _year_arg("--year", args.year)
    with _about(args.dataset):
        # As of `year`: only the records dated by then count, and only the
        # publications out by then enter the h-core.
        counts, ds = _load(_read(args.dataset), True, year)
        if year is None:
            year = counts.max_year()
        per_pub = citation_counts_per_publication(ds, FilterSet())
        pubs = [(p.id, per_pub[p.id], p.year) for p in ds.publications if p.year <= year]
        core = select_h_core(pubs, year)
        h, ar = len(core), ar_index(core)
        # The latest point is the one for `year`: a growing window's total and
        # length never fall, so no earlier year has a point when `year` has none.
        profile = iv_profile(counts, _growing_window(counts, ds), year, year)
    latest = profile.points[-1] if profile.points else None

    out = {
        "observation_year": year,
        "h_index": h,
        "ar_index": round(ar, 4),
        "impact_vitality": (
            {
                "observation_year": latest.observation_year,
                "window_length": latest.window_length,
                "value": round(latest.value, 2),
                "value_raw": latest.value,
                "total_citing": latest.total_citing,
                "zero_year_flag": latest.zero_year_flag,
            }
            if latest
            else None
        ),
    }
    if args.format == "json":
        print(json.dumps(out, indent=2))
    else:
        print(f"observation_year: {year}")
        print(f"h_index: {h}")
        print(f"ar_index: {ar:.4f}")
        if latest:
            print(
                f"impact_vitality({latest.observation_year}, n={latest.window_length}): "
                f"{latest.value:.2f}"
            )
        else:
            print("impact_vitality: undefined (no admissible window)")
    return 0


def _load_candidate(entry: dict, base: Path) -> CandidateProfile:
    path = str(base / entry["path"])
    call_year, start = entry["call_year"], entry["career_start_year"]
    with _about(path):
        text = _read(path)
        counts, ds = _load(text, text.lstrip().startswith("{"))
        if start is None and ds is not None:
            start = ds.target.career_start_year
        spec = _growing_window(counts, ds, start)
        if call_year < spec.start_year:
            raise ValueError(f"call year {call_year} is before the window start {spec.start_year}")
        profile = iv_profile(counts, spec, spec.start_year, call_year)
    return CandidateProfile(
        candidate_id=entry["candidate_id"],
        selected=entry["selected"],
        call_year=call_year,
        career_start_year=start,
        profile=profile,
        yearly_counts=counts,
    )


def _stat_cell(value, decimals: int) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, RangeStat):
        low, high, mean = (f"{v:.{decimals}f}" for v in (value.min, value.max, value.mean))
        return f"{low} to {high}, average {mean}"
    if isinstance(value, float):
        return f"{value:.{decimals}%}"
    return str(value)


def _stat_json(value):
    if isinstance(value, RangeStat):
        return {"min": value.min, "max": value.max, "mean": value.mean}
    return value


def cmd_cohort(args) -> int:
    with _about(args.manifest):
        entries = ivio.parse_manifest(_read(args.manifest))
        if not entries:
            raise ValueError("no candidates listed")
        base = Path(args.manifest).parent
        summary = cohort_summary([_load_candidate(e, base) for e in entries])
    rows = _cohort_rows(cohort.CALL_SPAN)

    if args.format == "json":
        doc = {
            group: {key: _stat_json(getattr(stats, field)) for _, key, field, _ in rows}
            for group, stats in summary.items()
        }
        print(json.dumps(doc, indent=2))
        return 0

    sel, non = summary["selected"], summary["not_selected"]
    width = max(len(label) for label, *_ in rows)
    print(f"{'':<{width}}  | Selected | Not selected")
    for label, _, field, decimals in rows:
        cells = [_stat_cell(getattr(stats, field), decimals) for stats in (sel, non)]
        print(f"{label:<{width}}  | {cells[0]} | {cells[1]}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose own failures are usage errors like any other,
    so that they print one line in the same format."""

    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=PROG,
        description="Impact Vitality citation analytics: profiles, indicators, cohorts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a dataset file against the schema invariants")
    p.add_argument("dataset")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("profile", help="emit an Impact Vitality profile")
    p.add_argument("dataset", nargs="?")
    p.add_argument("--counts", help="bare year,count CSV instead of a dataset")
    p.add_argument("--window", help="moving:<n> or fixed:<start>[:<minlen>]")
    p.add_argument(
        "--filter",
        action="append",
        help="self-citations or cites-only:<pubid|most-cited>; repeatable, but cites-only: once",
    )
    p.add_argument("--from", dest="from_year", type=ivio.integer, help="first observation year")
    p.add_argument("--to", dest="to_year", type=ivio.integer, help="last observation year")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("indicators", help="emit h-index, AR-index and the latest IV point")
    p.add_argument("dataset")
    p.add_argument("--year", type=ivio.integer, help="observation year (default: latest citing year)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_indicators)

    p = sub.add_parser("cohort", help="summarize candidate groups from a manifest")
    p.add_argument("manifest")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_cohort)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # A command's objects hold no reference cycles, so the cyclic collector
    # would only re-scan the records and points that build up as it runs: it
    # stays off for the command and comes back on only if the caller had it.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help, after printing it
        return exc.code
    except UsageError as exc:
        print(f"{PROG}: usage error: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # DataError, FormatError and the preconditions of library code
        print(f"{PROG}: error: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
