"""Command-line surface: validate, profile, indicators, cohort.

Exit statuses: 0 success, 2 when the arguments are wrong on their own, 1
for any other error. Diagnostics go to stderr. Each command returns its
status and its text, which `main` alone writes to stdout, in one write.
"""

from __future__ import annotations

import argparse
import gc
import json
import marshal
import os
import signal
import stat
import sys
import threading
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path
from typing import NoReturn, Optional, Sequence

from . import cohort
from . import io as ivio
from . import model
from .cohort import RangeStat
from .filters import FilterSet, most_cited_publication
from .indicators import (
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

# No input file may hold more bytes than this, far above any real one: a
# read of a pipe or an endless device stops here instead of at memory's end.
READ_CAP = 256 * 2**20
_READ_SIZE = 64 * 2**10

# Every open keeps line ends as they are (O_BINARY, on Windows). A cohort
# candidate's open neither waits for a FIFO's writer nor makes a terminal
# the controlling one, as it must not read such a file at all.
_BINARY = getattr(os, "O_BINARY", 0)
_NO_WAIT = getattr(os, "O_NONBLOCK", 0) | getattr(os, "O_NOCTTY", 0)

# Each cohort share holds at least this many candidates. With fewer, the
# fork, the pipe and the wait cost more than a share saves: on a 2-vCPU VM,
# this process and one worker broke even with this process alone at under
# 50 to about 250 seed-1 candidates, as the load on the other vCPU varied
# (medians of 21 to 31 alternating rounds, in five runs).
_MIN_PER_WORKER = 100


def _cohort_rows() -> tuple:
    """Cohort statistics in output order: (text label, JSON key, CohortStats
    field, decimals in the text table). Two rows cover the `cohort.CALL_SPAN`
    years until the call. A range prints as "min to max, average mean"; the
    share prints as a percentage."""
    span = cohort.CALL_SPAN
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


def _read(path: str, regular_only: bool = False) -> str:
    """The text of `path` as text mode reads it: a leading BOM is dropped
    and "\r\n" and a lone "\r" end a line as "\n" does. A file, pipe or
    device that holds more than READ_CAP bytes is refused once READ_CAP + 1
    bytes have been read. With `regular_only`, anything but a regular file,
    such as a FIFO or a device whose read may wait or run on without end,
    is refused unread; its type is taken from the open file, so the file
    checked is the file read."""
    # os.open and os.read: open(path, "rb") adds a buffered reader and an
    # fstat, isatty and lseek call. With the os.stat that used to come first,
    # the 2,000 files of the seed-1 benchmark cohort took 31.7 against 18.0
    # ms of CPU (this decode included).
    try:
        fd = os.open(path, os.O_RDONLY | _BINARY | (_NO_WAIT if regular_only else 0))
    except OSError as exc:
        if regular_only and _is_special(path):  # a socket, or a FIFO not readable
            raise DataError(f"{path}: not a regular file") from None
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # a path the OS cannot take: a NUL byte, a lone surrogate
        # open()'s words for a NUL, which os.open words otherwise from 3.13 on
        nul = "\0" in path and not isinstance(exc, UnicodeError)  # encoding comes first
        cause = "embedded null byte" if nul else exc
        raise DataError(f"cannot read {path!r}: {cause}") from None
    try:
        if regular_only and not stat.S_ISREG(os.fstat(fd).st_mode):
            raise DataError(f"{path}: not a regular file")
        data = _read_to_cap(fd)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    finally:
        os.close(fd)
    if len(data) > READ_CAP:
        raise DataError(f"{path}: larger than {READ_CAP} bytes")
    try:
        # As "utf-8-sig" decodes, whose codec is Python code: 2.4 against
        # 0.5 ms per 2,000 candidate files.
        text = data.decode().removeprefix("\ufeff")
    except UnicodeDecodeError:
        raise DataError(f"cannot decode {path} as UTF-8") from None
    # UTF-8 writes "\r" only as this byte, so most files skip both scans.
    if b"\r" in data:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _read_to_cap(fd: int) -> bytes:
    """The bytes of `fd` to its end, or its first READ_CAP + 1. The first
    read asks for _READ_SIZE bytes and takes a whole candidate file; a read
    that fills its request is followed by one for all the rest, as a large
    file wants, and a short one by a small read that finds the end. So no
    small file's read allocates the cap, and a large file is held at most
    twice, as its two parts are joined."""
    parts, size, want = [], 0, _READ_SIZE
    while size <= READ_CAP:
        part = os.read(fd, min(want, READ_CAP + 1 - size))
        if not part:
            break
        parts.append(part)
        size += len(part)
        want = READ_CAP if len(part) == want else _READ_SIZE
    return b"".join(parts)


def _is_special(path: str) -> bool:
    """Whether `path`, which could not be opened, names something other
    than a regular file, such as a socket. A path that cannot be stat'ed
    does not: the open's error names the cause."""
    try:
        return not stat.S_ISREG(os.stat(path).st_mode)
    except OSError:
        return False


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


def parse_window_arg(arg: str) -> WindowSpec:
    parts = arg.split(":")
    try:
        if parts[0] == "moving" and len(parts) == 2:
            window = MovingWindow(n=ivio.integer(parts[1]))
            _year_arg(f"--window {arg} reaches back to", model.YEAR_MAX - window.n + 1)
            return window
        if parts[0] == "fixed" and len(parts) in (2, 3):
            start = _year_arg("--window start", ivio.integer(parts[1]))
            return FixedStart(start, *map(ivio.integer, parts[2:]))
    except ValueError as exc:
        raise UsageError(f"invalid --window {arg!r}: {exc}") from exc
    raise UsageError(
        f"invalid --window {arg!r}: expected moving:<n> or fixed:<start>[:<minlen>]"
    )


def parse_filter_args(args: Sequence[str]) -> FilterSet:
    """The FilterSet of the `--filter` values, checked before any file is
    read. Its `exclude_citing_only` may be "most-cited", which only the
    dataset can resolve."""
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
    return FilterSet(exclude_self_citations=exclude_self, exclude_citing_only=citing_only)


def _profile(text: str, dataset: bool, first: Optional[int] = None, last: Optional[int] = None,
             spec: Optional[WindowSpec] = None, fs: FilterSet = FilterSet()):
    """(profile, counts, dataset) of the text of a dataset, or of a counts
    file with dataset None. Only the records and rows dated `last` or earlier
    count, and only such records choose most-cited; `fs` is what
    `parse_filter_args` returns. The window defaults to a growing one from the
    dataset's career start, else its first citation year, else the first
    counted year; `first` and `last` to the first and last counted year.
    Every error is a data error, empty input included."""
    if not dataset:
        counts, ds = ivio.parse_counts(text), None
    else:
        ds = ivio.parse_dataset(text)
        for finding in validate_dataset(ds):
            if finding.severity is Severity.ERROR:
                raise ValueError(finding.message)
        if not ds.citing_records:
            raise ValueError("dataset has no citing records")
        if last is not None:
            ds = replace(ds, citing_records=[r for r in ds.citing_records if r.year <= last])
            if not ds.citing_records:
                raise ValueError(f"no citing records dated {last} or earlier")
        if fs.exclude_citing_only == "most-cited":
            fs = replace(fs, exclude_citing_only=most_cited_publication(ds))
        counts = yearly_citing_counts(ds, fs)
    # Empty input: all counts zero, or all those dated `last` or earlier. Where
    # no row is dated by then, the observation range is empty, as iv_profile says.
    rows = counts.counts
    if not any(n for year, n in rows.items() if last is None or year <= last):
        if not any(rows.values()) or counts.min_year() <= last:
            raise ValueError("no citing publications to profile")
    if spec is None:
        anchors = (ds.target.career_start_year, ds.target.first_citation_year) if ds else ()
        spec = FixedStart(next((y for y in anchors if y is not None), counts.min_year()))
    if first is None:
        first = counts.min_year()
    if last is None:
        last = counts.max_year()
    return iv_profile(counts, spec, first, last), counts, ds


def cmd_validate(args) -> tuple[int, str]:
    with _about(args.dataset):
        findings = validate_dataset(ivio.parse_dataset(_read(args.dataset)))
    text = "".join(f"{f.severity.value}: {f.message}\n" for f in findings)
    return (1 if has_errors(findings) else 0), text


def cmd_profile(args) -> tuple[int, str]:
    # An argument given as "" is given: each test is against None.
    from_counts = args.counts is not None
    if from_counts and args.dataset is not None:
        raise UsageError("give either a dataset or --counts, not both")
    if not from_counts and args.dataset is None:
        raise UsageError("a dataset file or --counts is required")
    if from_counts and args.filter:
        raise UsageError(
            "--filter needs record-level data; a bare counts file has none "
            "(use a dataset file instead)"
        )
    first = _year_arg("--from", args.from_year)
    last = _year_arg("--to", args.to_year)
    if first is not None and last is not None and first > last:
        raise UsageError(f"empty observation range [{first}, {last}]")
    spec = parse_window_arg(args.window) if args.window is not None else None
    fs = parse_filter_args(args.filter or ())

    path = args.counts if from_counts else args.dataset
    with _about(path):
        profile = _profile(_read(path), not from_counts, first, last, spec, fs)[0]
    return 0, ivio.emit_report(profile, args.format)


def cmd_indicators(args) -> tuple[int, str]:
    year = _year_arg("--year", args.year)
    with _about(args.dataset):
        # As of `year`: only the records dated by then count, and only the
        # publications out by then enter the h-core. The latest point is the
        # one for `year`: a growing window's total and length never fall, so
        # no earlier year has a point when `year` has none.
        profile, counts, ds = _profile(_read(args.dataset), True, year, year)
        if year is None:
            year = counts.max_year()
        per_pub = citation_counts_per_publication(ds, FilterSet())
        pubs = [(p.id, per_pub[p.id], p.year) for p in ds.publications if p.year <= year]
        core = select_h_core(pubs, year)
        h, ar = len(core), ar_index(core)
    latest = profile.points[-1] if profile.points else None

    if args.format == "json":
        iv = None if latest is None else {
            "observation_year": latest.observation_year,
            "window_length": latest.window_length,
            "value": round(latest.value, 2),
            "value_raw": latest.value,
            "total_citing": latest.total_citing,
            "zero_year_flag": latest.zero_year_flag,
        }
        out = {"observation_year": year, "h_index": h, "ar_index": round(ar, 4),
               "impact_vitality": iv}
        return 0, json.dumps(out, indent=2) + "\n"
    lines = [f"observation_year: {year}", f"h_index: {h}", f"ar_index: {ar:.4f}"]
    if latest:
        lines.append(f"impact_vitality({latest.observation_year}, n={latest.window_length}): "
                     f"{latest.value:.2f}")
    else:
        lines.append("impact_vitality: undefined (no admissible window)")
    return 0, "\n".join(lines) + "\n"


def _candidate_path(base: Path, name: str) -> str:
    """str(base / name), joined as strings where that gives the same text:
    on POSIX, for a relative name with no empty or "." component, on a base
    other than "." that does not end in "/" (as "/" and "//" do). pathlib
    parses each name, about five times the cost of the join."""
    parts = name.split("/")
    if os.sep == "/" and "" not in parts and "." not in parts:
        head = str(base)
        if head == ".":
            return name
        if not head.endswith("/"):
            return f"{head}/{name}"
    return str(base / name)


def _candidate_row(entry: dict, base: Path) -> tuple:
    """(selected, row) of a manifest entry: all that the cohort statistics
    read of a candidate, and all that a worker process sends back."""
    path = _candidate_path(base, entry["path"])
    call_year, start = entry["call_year"], entry["career_start_year"]
    with _about(path):
        text = _read(path, regular_only=True)
        # As `profile FILE --to <call year>`, with `--window fixed:<start>`
        # where the manifest gives the start.
        spec = None if start is None else FixedStart(start)
        profile, counts, ds = _profile(text, text.lstrip().startswith("{"), last=call_year,
                                       spec=spec)
    if start is None and ds is not None:
        start = ds.target.career_start_year
    return entry["selected"], cohort.candidate_row(entry["candidate_id"], profile, counts,
                                                   call_year, start)


def _worker_count(candidates: int) -> int:
    """How many shares `candidates` cohort candidates are cut into, one
    profiled in this process and each other in a forked worker: one per CPU
    this process may run on, each with at least _MIN_PER_WORKER candidates.
    It is 1, and no worker is forked, without os.fork, while another thread
    runs (a fork copies only the calling thread, so a lock that another one
    holds stays held in the child) and while SIGCHLD has a handler or is
    ignored (either may reap a worker before its status is read)."""
    if (not hasattr(os, "fork") or _thread_count() > 1
            or signal.getsignal(signal.SIGCHLD) != signal.SIG_DFL):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, candidates // _MIN_PER_WORKER))


def _thread_count() -> int:
    try:  # Linux lists every thread here, also those that Python did not start
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _candidate_rows(entries: list, base: Path, workers: int, manifest: str) -> list:
    """The `_candidate_row`s of `entries` in manifest order, cut into
    `workers` contiguous shares: this process profiles the first, and one
    forked process each later one. Where a pipe or a process cannot be had,
    the workers started keep their shares and this process profiles the rest
    after reading theirs. A share holds only candidates after those of every
    share before it, so the first share that fails names the error a run in
    one process names. Every worker is reaped on every path; those still
    running are killed first."""
    bounds = [len(entries) * k // workers for k in range(workers + 1)]
    pids, pipes = [], []
    try:
        try:
            for first, end in zip(bounds[1:], bounds[2:]):
                read_end, write_end = os.pipe()
                pipes.append(open(read_end, "rb"))
                try:
                    pid = os.fork()
                    if pid == 0:
                        _profile_share(entries[first:end], base, manifest, write_end)
                    pids.append(pid)
                finally:
                    os.close(write_end)
        except OSError:  # at a limit on processes or open files, say
            if len(pipes) > len(pids):  # the fork failed
                pipes.pop().close()
        # A worker whose rows overfill its pipe waits in its write until the
        # pipe is read, so no wait may come before the read.
        rows = [_candidate_row(entry, base) for entry in entries[:bounds[1]]]
        for pipe in pipes:
            data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            pids.pop(0)
            if status != 0:
                cause = f"signal {-status}" if status < 0 else f"exit status {status}"
                raise DataError(f"{manifest}: a worker process ended without a result ({cause})")
            share, error = marshal.loads(data)
            rows += share
            if error is not None:
                raise DataError(error)
        rows += [_candidate_row(entry, base) for entry in entries[bounds[len(pipes) + 1]:]]
        return rows
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _profile_share(entries: list, base: Path, manifest: str, write_end: int) -> NoReturn:
    """In a worker process: send the `_candidate_row`s of `entries` up to
    the first error, and that error's text or None, through `write_end`;
    then end the process. Every path ends in os._exit, so a worker never
    returns into its caller's stack or flushes the stdio it inherited."""
    status = 1
    try:
        rows, error = [], None
        try:
            with _about(manifest):
                for entry in entries:
                    rows.append(_candidate_row(entry, base))
        except DataError as exc:
            error = str(exc)
        with open(write_end, "wb") as pipe:
            marshal.dump((rows, error), pipe)
        status = 0
    finally:
        os._exit(status)


def _stat_cell(value, decimals: int) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, RangeStat):
        low, high, mean = (f"{v:.{decimals}f}" for v in (value.min, value.max, value.mean))
        return f"{low} to {high}, average {mean}"
    if isinstance(value, float):
        return f"{value:.{decimals}%}"
    return str(value)


def cmd_cohort(args) -> tuple[int, str]:
    with _about(args.manifest):
        entries = ivio.parse_manifest(_read(args.manifest))
        base = Path(args.manifest).parent
        workers = _worker_count(len(entries))
        summary = cohort.cohort_summary(_candidate_rows(entries, base, workers, args.manifest))
    rows = _cohort_rows()

    if args.format == "json":
        doc = {}
        for group, stats in summary.items():
            fields = asdict(stats)
            doc[group] = {key: fields[field] for _, key, field, _ in rows}
        return 0, json.dumps(doc, indent=2) + "\n"

    sel, non = summary["selected"], summary["not_selected"]
    width = max(len(label) for label, *_ in rows)
    lines = [f"{'':<{width}}  | Selected | Not selected"]
    for label, _, field, decimals in rows:
        cells = [_stat_cell(getattr(stats, field), decimals) for stats in (sel, non)]
        lines.append(f"{label:<{width}}  | {cells[0]} | {cells[1]}")
    return 0, "\n".join(lines) + "\n"


class _Help(Exception):
    """--help was given; the argument is the help text."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose own failures are usage errors like any other,
    so that they print one line in the same format, and whose help text goes
    to stdout through `main`'s one write, as a command's text does."""

    def error(self, message: str):
        raise UsageError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())


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
        status, text = args.func(args)
    except _Help as exc:
        status, text = 0, exc.args[0]
    except UsageError as exc:
        _diagnose(f"usage error: {exc}")
        return 2
    except ValueError as exc:
        # DataError, FormatError and the preconditions of library code
        _diagnose(f"error: {exc}")
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()
    if sys.stdout is None:  # fd 1 was closed when Python started
        _diagnose("error: standard output closed")
        return 1
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # The reader has gone, or the device is full. Pointing fd 1 at
        # os.devnull keeps the flush at interpreter exit from failing again.
        _to_devnull(sys.stdout)
        if isinstance(exc, BrokenPipeError):
            _diagnose("error: standard output closed")
        else:
            _diagnose(f"error: cannot write standard output: {exc.strerror}")
        return 1
    return status


def _diagnose(message: str) -> None:
    """`message` on stderr as one line that starts with the program name.
    Where stderr cannot be written (no reader, a full device, a closed fd)
    the line is lost, but the exit status is not."""
    if sys.stderr is None:  # print(file=None) would write to stdout
        return
    try:
        print(f"{PROG}: {message.translate(_LINE_BREAKS)}", file=sys.stderr, flush=True)
    except OSError:
        _to_devnull(sys.stderr)


def _to_devnull(stream) -> None:
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
