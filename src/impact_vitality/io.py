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
from typing import Any, Optional

from .indicators import IVProfile
from .model import (
    AuthorKey,
    CitationDataset,
    CitingRecord,
    Publication,
    TargetAuthor,
    YearlyCitingCounts,
)

SCHEMA_VERSION = 1

REPORT_FIELDS = (
    "observation_year",
    "window_length",
    "iv_value",
    "total_citing",
    "zero_year_flag",
)


class FormatError(ValueError):
    """Malformed document or schema violation; the message names the culprit."""


def _require(obj: dict, key: str, context: str, kind: Optional[type] = None) -> Any:
    if key not in obj:
        raise FormatError(f"{context}: missing required field {key!r}")
    return obj[key] if kind is None else _typed(obj[key], kind, context, key)


def _check_fields(obj: Any, allowed: set[str], context: str) -> dict:
    if not isinstance(obj, dict):
        raise FormatError(f"{context}: expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise FormatError(f"{context}: unknown field {unknown[0]!r}")
    return obj


def _typed(value: Any, kind: type, context: str, key: str) -> Any:
    # An exact type match: bool is a subclass of int, and JSON true is no year.
    if type(value) is not kind:
        raise FormatError(f"{context}: {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _optional_year(obj: dict, key: str, context: str) -> Optional[int]:
    value = obj.get(key)
    return None if value is None else _typed(value, int, context, key)


def _parse_author_key(obj: Any, context: str) -> AuthorKey:
    _check_fields(obj, {"surname", "initials"}, context)
    try:
        return AuthorKey(
            surname=str(_require(obj, "surname", context)),
            initials=str(obj.get("initials", "")),
        )
    except ValueError as exc:
        raise FormatError(f"{context}: {exc}") from exc


def parse_dataset(document: str) -> CitationDataset:
    """Parse a dataset document, naming the first offending field on error."""
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed JSON: {exc}") from exc

    _check_fields(raw, {"schema_version", "target", "publications", "citing_records"}, "dataset")
    version = _require(raw, "schema_version", "dataset")
    if version != SCHEMA_VERSION:
        raise FormatError(f"dataset: unsupported schema_version {version!r}")

    t = _check_fields(
        _require(raw, "target", "dataset"),
        {"key", "name_variants", "career_start_year", "first_citation_year"},
        "target",
    )
    key = _parse_author_key(_require(t, "key", "target"), "target.key")
    variants = frozenset(
        _parse_author_key(v, f"target.name_variants[{i}]")
        for i, v in enumerate(_typed(t.get("name_variants", []), list, "target", "name_variants"))
    )
    target = TargetAuthor(
        key=key,
        name_variants=variants,
        career_start_year=_optional_year(t, "career_start_year", "target"),
        first_citation_year=_optional_year(t, "first_citation_year", "target"),
    )

    publications = []
    for i, p in enumerate(_require(raw, "publications", "dataset", list)):
        ctx = f"publications[{i}]"
        _check_fields(p, {"id", "year", "doc_type", "label"}, ctx)
        publications.append(
            Publication(
                id=str(_require(p, "id", ctx)),
                year=_require(p, "year", ctx, int),
                doc_type=str(p.get("doc_type", "article")),
                label=p.get("label"),
            )
        )
    known_pub_ids = {p.id for p in publications}

    records = []
    for i, r in enumerate(_require(raw, "citing_records", "dataset", list)):
        ctx = f"citing_records[{i}]"
        _check_fields(r, {"id", "year", "authors", "cited_target_pub_ids", "doc_type"}, ctx)
        cited = [str(x) for x in _require(r, "cited_target_pub_ids", ctx, list)]
        for pub_id in cited:
            if pub_id not in known_pub_ids:
                raise FormatError(f"{ctx}: unknown publication id {pub_id!r}")
        if not cited:
            raise FormatError(f"{ctx}: cited_target_pub_ids is empty")
        records.append(
            CitingRecord(
                id=str(_require(r, "id", ctx)),
                year=_require(r, "year", ctx, int),
                authors=frozenset(
                    _parse_author_key(a, f"{ctx}.authors[{j}]")
                    for j, a in enumerate(_typed(r.get("authors", []), list, ctx, "authors"))
                ),
                cited_target_pub_ids=frozenset(cited),
                doc_type=str(r.get("doc_type", "article")),
            )
        )

    return CitationDataset(target=target, publications=tuple(publications), citing_records=tuple(records))


def _emit_author_key(key: AuthorKey) -> dict:
    return {"surname": key.surname, "initials": key.initials}


def emit_dataset(ds: CitationDataset) -> str:
    """Serialize a dataset; parse(emit(ds)) reconstructs an equal dataset."""
    target: dict[str, Any] = {
        "key": _emit_author_key(ds.target.key),
        "name_variants": [_emit_author_key(k) for k in sorted(ds.target.name_variants)],
    }
    if ds.target.career_start_year is not None:
        target["career_start_year"] = ds.target.career_start_year
    if ds.target.first_citation_year is not None:
        target["first_citation_year"] = ds.target.first_citation_year

    def pub_obj(p: Publication) -> dict:
        obj: dict[str, Any] = {"id": p.id, "year": p.year, "doc_type": p.doc_type}
        if p.label is not None:
            obj["label"] = p.label
        return obj

    def rec_obj(r: CitingRecord) -> dict:
        return {
            "id": r.id,
            "year": r.year,
            "authors": [_emit_author_key(k) for k in sorted(r.authors)],
            "cited_target_pub_ids": sorted(r.cited_target_pub_ids),
            "doc_type": r.doc_type,
        }

    doc = {
        "schema_version": SCHEMA_VERSION,
        "target": target,
        "publications": [pub_obj(p) for p in ds.publications],
        "citing_records": [rec_obj(r) for r in ds.citing_records],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_counts(document: str) -> YearlyCitingCounts:
    """Parse a "year,count" CSV into yearly citing counts."""
    reader = csv.reader(_io.StringIO(document))
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("counts file is empty; expected header 'year,count'") from None
    if [h.strip() for h in header] != ["year", "count"]:
        raise FormatError(f"counts file: expected header 'year,count', got {','.join(header)!r}")
    counts: dict[int, int] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise FormatError(f"counts file line {lineno}: expected 2 columns, got {len(row)}")
        try:
            year = int(row[0])
            count = int(row[1])
        except ValueError:
            raise FormatError(f"counts file line {lineno}: non-integer value") from None
        if count < 0:
            raise FormatError(f"counts file line {lineno}: negative count {count}")
        if year in counts:
            raise FormatError(f"counts file line {lineno}: duplicate year {year}")
        counts[year] = count
    return YearlyCitingCounts(counts)


def emit_counts(counts: YearlyCitingCounts) -> str:
    lines = ["year,count"]
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


def emit_report_csv(profile: IVProfile) -> str:
    out = _io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_FIELDS)
    for row in report_rows(profile):
        writer.writerow(
            [
                row["observation_year"],
                row["window_length"],
                f"{row['iv_value']:.2f}",
                row["total_citing"],
                "true" if row["zero_year_flag"] else "false",
            ]
        )
    return out.getvalue()


def emit_report_json(profile: IVProfile) -> str:
    return json.dumps(report_rows(profile), indent=2) + "\n"


def emit_report_table(profile: IVProfile) -> str:
    header = f"{'year':>6}  {'n':>3}  {'IV':>6}  {'citing':>7}  {'zero-year':>9}"
    lines = [header, "-" * len(header)]
    for row in report_rows(profile):
        lines.append(
            f"{row['observation_year']:>6}  {row['window_length']:>3}  "
            f"{row['iv_value']:>6.2f}  {row['total_citing']:>7}  "
            f"{'yes' if row['zero_year_flag'] else 'no':>9}"
        )
    return "\n".join(lines) + "\n"


def emit_report(profile: IVProfile, fmt: str) -> str:
    if fmt == "csv":
        return emit_report_csv(profile)
    if fmt == "json":
        return emit_report_json(profile)
    if fmt == "table":
        return emit_report_table(profile)
    raise ValueError(f"unknown report format {fmt!r}")


def parse_manifest(document: str) -> list[dict]:
    """Parse a cohort manifest CSV.

    Columns: candidate_id,selected,call_year,career_start_year,path.
    career_start_year may be blank; candidate ids are unique.
    """
    reader = csv.reader(_io.StringIO(document))
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("manifest is empty") from None
    expected = ["candidate_id", "selected", "call_year", "career_start_year", "path"]
    if [h.strip() for h in header] != expected:
        raise FormatError(f"manifest: expected header {','.join(expected)!r}")
    entries = []
    seen_ids: set[str] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 5:
            raise FormatError(f"manifest line {lineno}: expected 5 columns, got {len(row)}")
        candidate_id = row[0].strip()
        if candidate_id in seen_ids:
            raise FormatError(f"manifest line {lineno}: duplicate candidate_id {candidate_id!r}")
        seen_ids.add(candidate_id)
        sel = row[1].strip().lower()
        if sel not in {"true", "false", "1", "0", "yes", "no"}:
            raise FormatError(f"manifest line {lineno}: bad selected flag {row[1]!r}")
        try:
            call_year = int(row[2])
            start: Optional[int] = int(row[3]) if row[3].strip() else None
        except ValueError:
            raise FormatError(f"manifest line {lineno}: non-integer year") from None
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
