"""Command-line surface: validate, profile, indicators, cohort.

Exit statuses: 0 success, 1 data error, 2 usage error. Diagnostics go to
stderr, data to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import io as ivio
from .cohort import CandidateProfile, RangeStat, cohort_summary
from .filters import FilterSet, most_cited_publication
from .indicators import (
    DEFAULT_MIN_WINDOW,
    FixedStart,
    MovingWindow,
    WindowSpec,
    ar_index,
    default_window_spec,
    h_index,
    iv_profile,
    select_h_core,
)
from .model import (
    YEAR_MIN,
    CitationDataset,
    Severity,
    _year_max,
    citation_counts_per_publication,
    has_errors,
    validate_dataset,
    yearly_citing_counts,
)

PROG = "impact-vitality"

# Cohort statistics in output order: (text label, JSON key, CohortStats
# field, decimals in the text table). A range prints as "min to max,
# average mean"; the share prints as a percentage.
COHORT_ROWS = (
    ("Number of candidates", "group_size", "group_size", 0),
    ("Minimum IV", "min_iv", "min_iv_range", 2),
    ("Share with all IV values > 1", "share_all_above_one", "share_all_above_one", 0),
    ("IV fluctuation in 5 years until call", "fluctuation_last5", "fluctuation_range", 2),
    ("Citing publications per year, 5 years until call", "citing_per_year_last5",
     "citing_per_year_last5", 1),
    ("Citing publications per year since career start", "citing_per_year_since_start",
     "citing_per_year_since_start", 1),
)


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc


def _parse(path: str, text: str, parse):
    try:
        return parse(text)
    except ivio.FormatError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _checked_dataset(path: str, text: str) -> CitationDataset:
    ds = _parse(path, text, ivio.parse_dataset)
    findings = validate_dataset(ds)
    if has_errors(findings):
        first = next(f for f in findings if f.severity is Severity.ERROR)
        raise DataError(f"{path}: {first.message}")
    return ds


def _year_arg(name: str, year: Optional[int]) -> Optional[int]:
    """The year itself, if it lies in [YEAR_MIN, _year_max()]. The bound caps
    the work of the fixed-start profile, which is quadratic in its year span."""
    if year is not None and not YEAR_MIN <= year <= _year_max():
        raise UsageError(f"{name} {year} outside [{YEAR_MIN}, {_year_max()}]")
    return year


def _growing_window(counts, ds=None, career_start=None) -> FixedStart:
    """The default window: it starts at the career start (given, else the
    dataset's), else at the dataset's first citation year, else at the first
    counted year."""
    if ds is None:
        return default_window_spec(career_start, counts.min_year())
    if career_start is None:
        career_start = ds.target.career_start_year
    return default_window_spec(career_start, ds.target.first_citation_year)


def parse_window_arg(arg: str) -> WindowSpec:
    parts = arg.split(":")
    try:
        if parts[0] == "moving" and len(parts) == 2:
            return MovingWindow(n=int(parts[1]))
        if parts[0] == "fixed" and len(parts) in (2, 3):
            start = _year_arg("--window start", int(parts[1]))
            min_length = int(parts[2]) if len(parts) == 3 else DEFAULT_MIN_WINDOW
            return FixedStart(start_year=start, min_length=min_length)
    except ValueError as exc:
        raise UsageError(f"invalid --window {arg!r}: {exc}") from exc
    raise UsageError(
        f"invalid --window {arg!r}: expected moving:<n> or fixed:<start>[:<minlen>]"
    )


def parse_filter_args(args: list[str], ds: Optional[CitationDataset]) -> FilterSet:
    exclude_self = False
    citing_only: Optional[str] = None
    for arg in args:
        if arg == "self-citations":
            exclude_self = True
        elif arg.startswith("cites-only:"):
            pub_id = arg.split(":", 1)[1]
            if pub_id == "most-cited":
                assert ds is not None
                pub_id = most_cited_publication(ds)
            citing_only = pub_id
        else:
            raise UsageError(
                f"unknown --filter {arg!r}: expected self-citations or cites-only:<pubid|most-cited>"
            )
    return FilterSet(exclude_self_citations=exclude_self, exclude_citing_only=citing_only)


def cmd_validate(args) -> int:
    ds = _parse(args.dataset, _read(args.dataset), ivio.parse_dataset)
    findings = validate_dataset(ds)
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
    spec = parse_window_arg(args.window) if args.window else None

    if args.counts:
        counts = _parse(args.counts, _read(args.counts), ivio.parse_counts)
        ds = None
    else:
        ds = _checked_dataset(args.dataset, _read(args.dataset))
        fs = parse_filter_args(args.filter or [], ds)
        counts = yearly_citing_counts(ds, fs)

    if not counts.counts:
        raise DataError("no citing publications to profile")

    if spec is None:
        spec = _growing_window(counts, ds)
    if first is None:
        first = counts.min_year()
        if isinstance(spec, FixedStart):
            first = min(first, spec.start_year)
    if last is None:
        last = counts.max_year()
    if first > last:
        raise UsageError(f"empty observation range [{first}, {last}]")
    try:
        profile = iv_profile(counts, spec, first, last)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    sys.stdout.write(ivio.emit_report(profile, args.format))
    return 0


def cmd_indicators(args) -> int:
    year = _year_arg("--year", args.year)
    ds = _checked_dataset(args.dataset, _read(args.dataset))
    if not ds.citing_records:
        raise DataError("dataset has no citing records")
    fs = FilterSet()
    per_pub = citation_counts_per_publication(ds, fs)
    counts = yearly_citing_counts(ds, fs)
    if year is None:
        year = counts.max_year()

    h = h_index(list(per_pub.values()))
    core = select_h_core(
        [(p.id, per_pub[p.id], p.year) for p in ds.publications], year
    )
    ar = ar_index(core)

    spec = _growing_window(counts, ds)
    first = min(counts.min_year(), spec.start_year)
    profile = iv_profile(counts, spec, first, year)
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
    text = _read(path)
    call_year, start, ds = entry["call_year"], entry["career_start_year"], None
    if text.lstrip().startswith("{"):
        ds = _checked_dataset(path, text)
        counts = yearly_citing_counts(ds, FilterSet())
        if start is None:
            start = ds.target.career_start_year
    else:
        counts = _parse(path, text, ivio.parse_counts)
    if not counts.counts:
        raise DataError(f"{path}: no citing publications")
    spec = _growing_window(counts, ds, start)
    if call_year < spec.start_year:
        raise DataError(
            f"{path}: call year {call_year} is before the window start {spec.start_year}"
        )
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
    entries = _parse(args.manifest, _read(args.manifest), ivio.parse_manifest)
    if not entries:
        raise DataError(f"{args.manifest}: no candidates listed")
    base = Path(args.manifest).parent
    candidates = [_load_candidate(e, base) for e in entries]
    try:
        summary = cohort_summary(candidates)
    except ValueError as exc:
        raise DataError(str(exc)) from exc

    if args.format == "json":
        doc = {
            group: {key: _stat_json(getattr(stats, field)) for _, key, field, _ in COHORT_ROWS}
            for group, stats in summary.items()
        }
        print(json.dumps(doc, indent=2))
        return 0

    sel, non = summary["selected"], summary["not_selected"]
    width = max(len(label) for label, *_ in COHORT_ROWS)
    print(f"{'':<{width}}  | Selected | Not selected")
    for label, _, field, decimals in COHORT_ROWS:
        cells = [_stat_cell(getattr(stats, field), decimals) for stats in (sel, non)]
        print(f"{label:<{width}}  | {cells[0]} | {cells[1]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        help="self-citations or cites-only:<pubid|most-cited>; repeatable",
    )
    p.add_argument("--from", dest="from_year", type=int, help="first observation year")
    p.add_argument("--to", dest="to_year", type=int, help="last observation year")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("indicators", help="emit h-index, AR-index and the latest IV point")
    p.add_argument("dataset")
    p.add_argument("--year", type=int, help="observation year (default: latest citing year)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_indicators)

    p = sub.add_parser("cohort", help="summarize candidate groups from a manifest")
    p.add_argument("manifest")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_cohort)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"{PROG}: usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # window/formula preconditions raised by library code
        print(f"{PROG}: usage error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
