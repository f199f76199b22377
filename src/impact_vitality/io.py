"""Dataset and counts file formats, plus profile report emission.

Two input granularities are supported: a full JSON dataset (target author,
publications, citing records) and a bare CSV of yearly citing counts. The
dataset schema is strict and versioned; unknown fields are rejected by name
so that silent field drops cannot occur when files are exchanged.
"""

from __future__ import annotations

import csv
import io as _io
import json
from typing import Any, Iterator, Optional

from .indicators import IVProfile
from .model import (
    AuthorKey,
    CitationDataset,
    CitingRecord,
    Publication,
    TargetAuthor,
    YearlyCitingCounts,
    year_error,
)

SCHEMA_VERSION = 1

MAX_COUNT = 2**53 - 1  # the largest integer a float holds exactly

COUNTS_HEADER = ("year", "count")  # the counts CSV header, read and written

# Report columns in output order: (key in `report_rows`, table heading,
# table width, CSV cell, table cell). The CSV header is the keys. JSON rows
# also carry "iv_value_raw", which neither the CSV nor the table shows.
REPORT_COLUMNS = (
    ("observation_year", "year", 6, str, str),
    ("window_length", "n", 3, str, str),
    ("iv_value", "IV", 6, "{:.2f}".format, "{:.2f}".format),
    ("total_citing", "citing", 7, str, str),
    ("zero_year_flag", "zero-year", 9, {True: "true", False: "false"}.get,
     {True: "yes", False: "no"}.get),
)


class FormatError(ValueError):
    """Malformed document or schema violation; the message names the culprit."""


# Each object kind's fields: name -> (exact JSON types, required, nested
# kind). bool is no int here. null is accepted only where the model's default
# is None, and an absent optional field takes the model's default. The nested
# kind names the SCHEMA kind of an object field or of a list's items (str for
# a list of strings, None for a scalar). `parse_dataset` and `emit_dataset`
# both walk this table; the field names match the model dataclasses.
_STR, _INT, _LIST, _OBJ = (str,), (int,), (list,), (dict,)
_YEAR = ((int, type(None)), False, None)
SCHEMA = {
    "dataset": {"schema_version": (_INT, True, None), "target": (_OBJ, True, "target"),
                "publications": (_LIST, True, "publication"),
                "citing_records": (_LIST, True, "citing record")},
    "target": {"key": (_OBJ, True, "author"), "name_variants": (_LIST, False, "author"),
               "career_start_year": _YEAR, "first_citation_year": _YEAR},
    "author": {"surname": (_STR, True, None), "initials": (_STR, False, None)},
    "publication": {"id": (_STR, True, None), "year": (_INT, True, None),
                    "doc_type": (_STR, False, None), "label": ((str, type(None)), False, None)},
    "citing record": {"id": (_STR, True, None), "year": (_INT, True, None),
                      "authors": (_LIST, False, "author"),
                      "cited_target_pub_ids": (_LIST, True, str),
                      "doc_type": (_STR, False, None)},
}
# The model class each kind but "author" parses into.
_MODELS = {"dataset": CitationDataset, "target": TargetAuthor,
           "publication": Publication, "citing record": CitingRecord}


def _fields(obj: Any, kind: str, context: str) -> dict:
    """`obj` itself, once it is an object whose fields all belong to `kind`,
    have their JSON types and include every required one."""
    if type(obj) is not dict:
        raise FormatError(f"{context}: expected an object, got {type(obj).__name__}")
    schema = SCHEMA[kind]
    for name, value in obj.items():
        spec = schema.get(name)
        if spec is None:
            raise FormatError(f"{context}: unknown field {name!r}")
        if type(value) not in spec[0]:
            got = type(value).__name__
            raise FormatError(f"{context}: {name!r} must be {spec[0][0].__name__}, got {got}")
    for name, (_, required, _) in schema.items():
        if required and name not in obj:
            raise FormatError(f"{context}: missing required field {name!r}")
    return obj


def _parse(obj: Any, kind: str, context: str, keys: dict[tuple[str, str], AuthorKey]) -> Any:
    """The model value of the JSON object `obj` of `kind`, its nested objects
    parsed in turn. An "author" gives its `AuthorKey`: `keys` maps each raw
    (surname, initials) pair seen so far in the document to its key, so each
    distinct name is normalized once; a pair that fails normalization is not
    stored."""
    fields = _fields(obj, kind, context)
    if kind == "author":
        pair = (fields["surname"], fields.get("initials", ""))
        key = keys.get(pair)
        if key is None:
            try:
                key = keys[pair] = AuthorKey(*pair)
            except ValueError as exc:
                raise FormatError(f"{context}: {exc}") from exc
        return key
    if kind == "dataset":  # the version fixes the layout, so it is checked first
        version = fields.pop("schema_version")
        if version != SCHEMA_VERSION:
            raise FormatError(f"dataset: unsupported schema_version {version!r}")
    prefix = "" if kind == "dataset" else f"{context}."
    for name, (types, _, nested) in SCHEMA[kind].items():
        if nested is None or name not in fields:
            continue
        value = fields[name]
        if nested is str:
            if not all(type(item) is str for item in value):
                raise FormatError(f"{context}: {name!r} must hold only str")
        elif types is _LIST:
            # In place, in a loop: on Python 3.11 a comprehension makes its
            # names closure cells in every call, the many author calls too.
            for i, item in enumerate(value):
                value[i] = _parse(item, nested, f"{prefix}{name}[{i}]", keys)
        else:
            fields[name] = _parse(value, nested, f"{prefix}{name}", keys)
    return _MODELS[kind](**fields)


def parse_dataset(document: str) -> CitationDataset:
    """Parse a dataset document, naming the first offending field on error.

    Parsing checks each object's fields and JSON types. The rules that span
    objects, such as that every cited id names a publication, belong to
    `validate_dataset`: run it before the reductions.
    """
    try:
        raw = json.loads(document)
    except ValueError as exc:  # JSONDecodeError, or an int over the digit limit
        raise FormatError(f"malformed JSON: {exc}") from exc
    except RecursionError:
        raise FormatError("malformed JSON: nested too deeply") from None
    return _parse(raw, "dataset", "dataset", {})


def _json_obj(value: Any, kind: str) -> dict:
    """The JSON object for the model `value` of `kind`: the fields SCHEMA
    names, None left out, frozensets sorted, nested kinds converted in turn.
    Fields are read with getattr: on CPython 3.11, `vars()` would give each
    instance a dict of its own for good, which measured slower."""
    obj = {}
    for name, (types, _, nested) in SCHEMA[kind].items():
        field = SCHEMA_VERSION if name == "schema_version" else getattr(value, name)
        if field is None:
            continue
        if type(field) is frozenset:
            field = sorted(field)
        if nested is None or nested is str:
            obj[name] = field
        elif types is _OBJ:
            obj[name] = _json_obj(field, nested)
        else:
            obj[name] = items = []
            for item in field:  # a loop, for the reason given in `_parse`
                items.append(_json_obj(item, nested))
    return obj


def emit_dataset(ds: CitationDataset) -> str:
    """Serialize a dataset; parse(emit(ds)) reconstructs an equal dataset."""
    return json.dumps(_json_obj(ds, "dataset"), indent=2, sort_keys=True) + "\n"


def _check_year(what: str, year: Optional[int]) -> None:
    problem = year_error(what, year)
    if problem:
        raise FormatError(problem)


def integer(cell: str) -> int:
    """The integer in a CSV cell or a command-line argument: ASCII digits with
    an optional sign and blanks around. int() alone would also read "1_0" and
    non-ASCII digits."""
    if not cell.isascii() or "_" in cell:
        raise ValueError(f"not an integer: {cell!r}")
    return int(cell)


def _csv_rows(document: str, what: str, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, row) for each row after the header, which must be
    `header`. Blank rows are skipped; any other row must be as wide as the
    header."""
    reader = csv.reader(_io.StringIO(document))
    first = next(reader, None)
    expected = ",".join(header)
    if first is None:
        raise FormatError(f"{what} is empty; expected header {expected!r}")
    if [h.strip() for h in first] != list(header):
        raise FormatError(f"{what}: expected header {expected!r}, got {','.join(first)!r}")
    width = len(header)
    try:
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                raise FormatError(f"{what} line {lineno}: expected {width} columns, got {len(row)}")
            yield lineno, row
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise FormatError(f"{what} line {reader.line_num}: {exc}") from None


def parse_counts(document: str) -> YearlyCitingCounts:
    """Parse a "year,count" CSV into yearly citing counts."""
    counts: dict[int, int] = {}
    for lineno, row in _csv_rows(document, "counts file", COUNTS_HEADER):
        try:
            year = integer(row[0])
            count = integer(row[1])
        except ValueError:
            raise FormatError(f"counts file line {lineno}: non-integer value") from None
        if count < 0:
            raise FormatError(f"counts file line {lineno}: negative count {count}")
        if count > MAX_COUNT:
            raise FormatError(f"counts file line {lineno}: count above {MAX_COUNT}")
        if year in counts:
            raise FormatError(f"counts file line {lineno}: duplicate year {year}")
        counts[year] = count
    for year in (min(counts, default=None), max(counts, default=None)):
        _check_year("counts file: year", year)
    return YearlyCitingCounts(counts)


def emit_counts(counts: YearlyCitingCounts) -> str:
    lines = [",".join(COUNTS_HEADER)]
    lines += [f"{year},{counts.counts[year]}" for year in sorted(counts.counts)]
    return "\n".join(lines) + "\n"


def report_rows(profile: IVProfile) -> list[dict]:
    """Profile points as report rows, newest observation year first.

    iv_value carries the uniform 2-decimal presentation; iv_value_raw the
    full-precision number for machine consumers.
    """
    rows = []
    for pt in reversed(profile.points):
        rows.append(
            {
                "observation_year": pt.observation_year,
                "window_length": pt.window_length,
                "iv_value": round(pt.value, 2),
                "total_citing": pt.total_citing,
                "zero_year_flag": pt.zero_year_flag,
                "iv_value_raw": pt.value,
            }
        )
    return rows


def emit_report(profile: IVProfile, fmt: str) -> str:
    rows = report_rows(profile)
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "csv":
        out = _io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(key for key, *_ in REPORT_COLUMNS)
        for row in rows:
            writer.writerow(cell(row[key]) for key, _, _, cell, _ in REPORT_COLUMNS)
        return out.getvalue()
    if fmt == "table":
        header = "  ".join(f"{heading:>{width}}" for _, heading, width, _, _ in REPORT_COLUMNS)
        lines = [header, "-" * len(header)]
        for row in rows:
            lines.append(
                "  ".join(f"{cell(row[key]):>{width}}" for key, _, width, _, cell in REPORT_COLUMNS)
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def parse_manifest(document: str) -> list[dict]:
    """Parse a cohort manifest CSV.

    Columns: candidate_id,selected,call_year,career_start_year,path.
    career_start_year may be blank; candidate ids are unique.
    """
    header = ("candidate_id", "selected", "call_year", "career_start_year", "path")
    entries = []
    seen_ids: set[str] = set()
    for lineno, row in _csv_rows(document, "manifest", header):
        candidate_id = row[0].strip()
        if candidate_id in seen_ids:
            raise FormatError(f"manifest line {lineno}: duplicate candidate_id {candidate_id!r}")
        seen_ids.add(candidate_id)
        sel = row[1].strip().lower()
        if sel not in {"true", "false", "1", "0", "yes", "no"}:
            raise FormatError(f"manifest line {lineno}: bad selected flag {row[1]!r}")
        try:
            call_year = integer(row[2])
            start: Optional[int] = integer(row[3]) if row[3].strip() else None
        except ValueError:
            raise FormatError(f"manifest line {lineno}: non-integer year") from None
        _check_year(f"manifest line {lineno}: call_year", call_year)
        _check_year(f"manifest line {lineno}: career_start_year", start)
        entries.append(
            {
                "candidate_id": candidate_id,
                "selected": sel in {"true", "1", "yes"},
                "call_year": call_year,
                "career_start_year": start,
                "path": row[4].strip(),
            }
        )
    return entries
