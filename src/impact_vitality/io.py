"""Dataset and counts file formats, plus profile report emission.

Two input granularities are supported: a full JSON dataset (target author,
publications, citing records) and a bare CSV of yearly citing counts. The
dataset schema is strict and versioned; unknown fields are rejected by name.
One field drop stays silent: a name repeated in one object keeps its last
value, as `json.loads` gives it, and the earlier values go without a message.
"""

from __future__ import annotations

import csv
import io as _io
import json
import re
from operator import attrgetter, itemgetter
from typing import Any, Iterator, Optional

from . import model as _model
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
# both walk this table; the field names match the model dataclasses. The
# emitted text is that of json.dumps(document, indent=2, sort_keys=True),
# written from this table as pieces joined once (`_EMITTED` gives each
# kind's fields in key order).
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
# The model class that each kind parses into. `_parse` compares types with
# the classes held here: bench/tracing.py rebinds the module's `AuthorKey`
# to a counting function.
_MODELS = {"dataset": CitationDataset, "target": TargetAuthor, "author": AuthorKey,
           "publication": Publication, "citing record": CitingRecord}


def _kinds(schema: dict) -> dict:
    """Per kind of `schema`, what `_parse` checks: the JSON types by field
    name, the required fields, and the nested fields as (name, whether a
    list, nested kind), both in `schema` order. An author field that is no
    list also admits the `AuthorKey` the decode makes of a valid author."""
    return {
        kind: ({name: types + (_MODELS["author"],) if nested == "author" and types is not _LIST
                else types for name, (types, _, nested) in fields.items()},
               tuple(name for name, (_, required, _) in fields.items() if required),
               tuple((name, types is _LIST, nested)
                     for name, (types, _, nested) in fields.items() if nested is not None))
        for kind, fields in schema.items()
    }


_KINDS = _kinds(SCHEMA)
_AUTHOR_PAIR = itemgetter("surname", "initials")  # the memo's key, as `_parse` stores it


def _where(where: Optional[tuple]) -> str:
    """The text of a `(parent, field, index)` context chain: "dataset" for
    the document, else e.g. "target.key" or "citing_records[2].authors[1]"."""
    if where is None:
        return "dataset"
    parent, name, index = where
    text = name if parent is None else f"{_where(parent)}.{name}"
    return text if index is None else f"{text}[{index}]"


def _parse(obj: Any, kind: str, where: Optional[tuple], keys: dict) -> Any:
    """The model value of the JSON object `obj` of `kind`, built in place
    from `obj` once its nested objects are parsed in turn. The first fault
    is named in this order: not an object; a field unknown or not of its
    JSON type (in `obj`'s order); a required field missing; then the nested
    fields in SCHEMA order. `where` is the context chain `_where` formats.

    An "author" gives its `AuthorKey`: `keys` maps each raw (surname,
    initials) pair seen so far in the document to its key, so each distinct
    name is normalized once; a pair that fails normalization is not stored.
    A list of cited ids gives its frozenset, which `keys` also holds as its
    own key (no pair equals a set), so equal sets from one document are one
    object. A nested value that already is its kind's model, as the decode
    makes of each valid author, is kept as it is."""
    if type(obj) is not dict:
        raise FormatError(f"{_where(where)}: expected an object, got {type(obj).__name__}")
    if kind == "dataset":  # the version fixes the layout, so it is checked first
        version = obj.get("schema_version")
        if type(version) is int and version != SCHEMA_VERSION:
            raise FormatError(f"dataset: unsupported schema_version {version}")
    types, required, nests = _KINDS[kind]
    for name, value in obj.items():
        if type(value) not in types.get(name, ()):
            if name not in types:
                raise FormatError(f"{_where(where)}: unknown field {name!r}")
            want, got = types[name][0].__name__, type(value).__name__
            raise FormatError(f"{_where(where)}: {name!r} must be {want}, got {got}")
    for name in required:
        if name not in obj:
            raise FormatError(f"{_where(where)}: missing required field {name!r}")
    if kind == "author":
        pair = (obj["surname"], obj.get("initials", ""))
        key = keys.get(pair)
        if key is None:
            try:
                key = keys[pair] = AuthorKey(*pair)
            except ValueError as exc:
                raise FormatError(f"{_where(where)}: {exc}") from exc
        return key
    if kind == "dataset":
        del obj["schema_version"]
    # In place, in loops: on Python 3.11 a comprehension makes its names
    # closure cells in every call, the many record calls too.
    for name, is_list, nested in nests:
        value = obj.get(name)
        if value is None:
            continue
        if nested is str:
            for item in value:
                if type(item) is not str:
                    raise FormatError(f"{_where(where)}: {name!r} must hold only str")
            ids = frozenset(value)
            obj[name] = keys.setdefault(ids, ids)
        elif not is_list:
            if type(value) is not _MODELS[nested]:
                obj[name] = _parse(value, nested, (where, name, None), keys)
        else:
            model = _MODELS[nested]
            for i, item in enumerate(value):
                if type(item) is not model:
                    value[i] = _parse(item, nested, (where, name, i), keys)
    return _MODELS[kind](**obj)


def _author_hook(keys: dict):
    """The `object_hook` that makes each valid author object its `AuthorKey`
    as the document is decoded, sharing `keys` with `_parse`, and leaves
    every other object a dict. A two-field object is looked up by its raw
    pair first; only a miss that has a surname is checked in full."""
    get = keys.get

    def hook(obj: dict) -> Any:
        if len(obj) == 2:
            try:
                key = get(_AUTHOR_PAIR(obj))
            except (KeyError, TypeError):  # a field missing; a list or object value
                key = None
            if key is not None:
                return key
        if "surname" in obj:
            try:
                return _parse(obj, "author", None, keys)
            except FormatError:  # left to the walk, which names the fault by its path
                pass
        return obj

    return hook


def _decode(document: str, object_hook=None) -> Any:
    try:
        return json.loads(document, object_hook=object_hook)
    except ValueError as exc:  # JSONDecodeError, or an int over the digit limit
        raise FormatError(f"malformed JSON: {exc}") from exc
    except RecursionError:
        raise FormatError("malformed JSON: nested too deeply") from None


def parse_dataset(document: str) -> CitationDataset:
    """Parse a dataset document, naming the first offending field on error.

    Parsing checks each object's fields and JSON types. The rules that span
    objects, such as that every cited id names a publication, belong to
    `validate_dataset`: run it before the reductions. Equal cited-id sets
    from one document are one frozenset in the dataset, as equal raw author
    names are one key.
    """
    keys: dict = {}  # raw author pair -> key, and each cited-id set as itself
    try:
        return _parse(_decode(document, _author_hook(keys)), "dataset", None, keys)
    except FormatError:
        # The decode made a key of any author-shaped object, also one where
        # no author belongs; read a bad document again as plain objects, so
        # its fault is named as an object.
        return _parse(_decode(document), "dataset", None, {})


_quote = json.encoder.encode_basestring_ascii  # what json.dumps uses with ensure_ascii
# Each kind's fields in emitted order, by name as sort_keys gives: (name, the
# key as written, nested kind, whether the field is a list).
_EMITTED = {
    kind: tuple((name, f"{_quote(name)}: ", nested, types is _LIST)
                for name, (types, _, nested) in sorted(fields.items()))
    for kind, fields in SCHEMA.items()
}
_NEWLINE = tuple("\n" + "  " * depth for depth in range(8))  # deeper than SCHEMA nests


def _layout(fields: tuple, depth: int) -> tuple:
    """The `_EMITTED` `fields` of an object that opens on a line at `depth`,
    as `_write` reads them: (name, the text before the field when it is the
    first written and when it is a later one, nested kind, and for a list
    the text before its first item, before a later one and after its last),
    and the text that closes the object."""
    inner, item = _NEWLINE[depth + 1], _NEWLINE[depth + 2]
    return (tuple((name, ("{" + inner + key, "," + inner + key), nested,
                   ("[" + item, "," + item, inner + "]") if is_list else None)
                  for name, key, nested, is_list in fields),
            _NEWLINE[depth] + "}")


_LAYOUT = {kind: tuple(_layout(fields, depth) for depth in range(len(_NEWLINE) - 2))
           for kind, fields in _EMITTED.items()}
# AuthorKey's own order, by the tuples its generated __lt__ compares, read
# without a Python-level __lt__ call per comparison.
_AUTHOR_ORDER = attrgetter("surname", "initials")


def _scalar(value: Any, depth: int) -> str:
    """The JSON text of a field value on a line at `depth`."""
    if type(value) is str:
        return _quote(value)
    if type(value) is int:
        return int.__repr__(value)
    # a bool, a float or anything else a hand-built model holds
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", _NEWLINE[depth])


def _write(out: list, value: Any, kind: str, depth: int, memo: dict) -> None:
    """Append to `out` the pieces of the JSON text of the model `value` of
    `kind`, an object that opens on a line at `depth`: the fields SCHEMA
    names, None left out, frozensets sorted, nested kinds written in turn.
    No object's text is joined into its parent's, except an author's: its
    text is kept in `memo` by (id, depth), as one key recurs across records.
    The dataset holds every key while it is written, so no id is reused."""
    fields, end = _LAYOUT[kind][depth]
    written = 0
    for name, leads, nested, items in fields:
        field = SCHEMA_VERSION if name == "schema_version" else getattr(value, name)
        if field is None:
            continue
        out.append(leads[written])
        written = 1
        if items is None:
            if nested is None:
                out.append(_scalar(field, depth + 1))
            else:
                _write(out, field, nested, depth + 1, memo)
            continue
        if type(field) is frozenset:
            field = sorted(field, key=_AUTHOR_ORDER) if nested == "author" else sorted(field)
        if not field:
            out.append("[]")
            continue
        first, later, last = items
        out.append(first)
        at = depth + 2
        # Each item is followed by `later`, and the last one's by `last`
        # instead. Loops, for the reason given in `_parse`.
        if nested is str:
            for item in field:
                out.append(_scalar(item, at))
                out.append(later)
        elif nested == "author":
            for item in field:
                text = memo.get((id(item), at))
                if text is None:
                    pieces = []
                    _write(pieces, item, nested, at, memo)
                    text = memo[id(item), at] = "".join(pieces)
                out.append(text)
                out.append(later)
        else:
            for item in field:
                _write(out, item, nested, at, memo)
                out.append(later)
        out[-1] = last
    out.append(end if written else "{}")


def emit_dataset(ds: CitationDataset) -> str:
    """Serialize a dataset; parse(emit(ds)) reconstructs an equal dataset.
    The text is that of json.dumps(document, indent=2, sort_keys=True),
    written straight from SCHEMA as a list of pieces joined once."""
    out: list[str] = []
    _write(out, ds, "dataset", 0, {})
    out.append("\n")
    return "".join(out)


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


# The text `emit_counts` writes: the header, then "year,count" rows of ASCII
# digits without leading zeros, each ending in "\n". A cell of at most 16
# digits stays under int()'s digit limit and holds every count up to MAX_COUNT.
_CELL = "(?:0|[1-9][0-9]{0,15})"
_PLAIN_COUNTS = re.compile(re.escape(",".join(COUNTS_HEADER)) + f"\n((?:{_CELL},{_CELL}\n)*)")


def _plain_counts(document: str) -> Optional[dict[int, int]]:
    """The counts of a document in the plain form `emit_counts` writes, when
    its years are distinct and in range and its counts at most MAX_COUNT;
    else None, and the csv walk in `parse_counts` reads the document or
    names its fault."""
    # The regex keeps state for each row it repeats over: about 47 bytes per
    # input byte. A header and a row per year in range is the most a plain
    # document can hold, so a longer one, which repeats a year, skips it.
    if document.count("\n") > _model.YEAR_MAX - _model.YEAR_MIN + 2:
        return None
    match = _PLAIN_COUNTS.fullmatch(document)
    if match is None:
        return None
    body = match[1]
    # The regex has checked every cell, so the cells read as one JSON list.
    cells = iter(json.loads("[" + body.replace("\n", ",")[:-1] + "]"))
    counts = dict(zip(cells, cells))  # year, count, year, count, ...
    if len(counts) != body.count("\n"):  # a year repeats
        return None
    if counts and (max(counts.values()) > MAX_COUNT
                   or year_error("year", min(counts)) or year_error("year", max(counts))):
        return None
    return counts


def parse_counts(document: str) -> YearlyCitingCounts:
    """Parse a "year,count" CSV into yearly citing counts. A document that is
    not in the plain form goes through the csv walk, which names its line."""
    plain = _plain_counts(document)
    if plain is not None:
        return YearlyCitingCounts(plain)
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
    """The profile's columns as report rows, newest observation year first.

    iv_value carries the uniform 2-decimal presentation; iv_value_raw the
    full-precision number for machine consumers.
    """
    rows = []
    for i in reversed(range(len(profile))):
        rows.append(
            {
                "observation_year": profile.observation_years[i],
                "window_length": profile.window_lengths[i],
                "iv_value": round(profile.values[i], 2),
                "total_citing": profile.totals_citing[i],
                "zero_year_flag": profile.zero_year_flags[i],
                "iv_value_raw": profile.values[i],
            }
        )
    return rows


def emit_report(profile: IVProfile, fmt: str) -> str:
    rows = report_rows(profile)
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "csv":
        # No cell holds a comma, a quote or a line break, so none is quoted.
        lines = [",".join(key for key, *_ in REPORT_COLUMNS)]
        for row in rows:
            lines.append(",".join(cell(row[key]) for key, _, _, cell, _ in REPORT_COLUMNS))
        return "\n".join(lines) + "\n"
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
    career_start_year may be blank, path may not; candidate ids are unique.
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
        path = row[4].strip()
        if not path:
            raise FormatError(f"manifest line {lineno}: empty path")
        entries.append(
            {
                "candidate_id": candidate_id,
                "selected": sel in {"true", "1", "yes"},
                "call_year": call_year,
                "career_start_year": start,
                "path": path,
            }
        )
    return entries
