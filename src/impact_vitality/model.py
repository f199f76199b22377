"""Domain types for author-centric citation data.

A CitationDataset holds one target author, their verified publications, and
the deduplicated set of records that cite them. Reductions to yearly citing
counts and per-publication citation counts live here; the indicator math
lives in `indicators`.
"""

from __future__ import annotations

import datetime
import math
import unicodedata
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from .filters import FilterSet

YEAR_MIN = 1800
# Read once per process, so no run sees the bound move and tests pin it here.
YEAR_MAX = datetime.date.today().year + 1


def year_error(what: str, year: Optional[int]) -> Optional[str]:
    """A message naming `what` if `year` lies outside [YEAR_MIN, YEAR_MAX],
    else None. The bound keeps the work finite: a fixed-start profile is
    quadratic in its year span."""
    if year is None or YEAR_MIN <= year <= YEAR_MAX:
        return None
    return f"{what} {year} outside [{YEAR_MIN}, {YEAR_MAX}]"


def _strip_diacritics(s: str) -> str:
    if s.isascii():  # no ASCII character decomposes or combines
        return s
    decomposed = unicodedata.normalize("NFKD", s)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def normalize_surname(surname: str) -> str:
    """Lowercase, diacritics stripped, surrounding whitespace removed."""
    return _strip_diacritics(surname).strip().lower()


def normalize_initials(initials: str) -> str:
    """Lowercase, diacritics stripped, periods and spaces removed."""
    return _strip_diacritics(initials).lower().replace(".", "").replace(" ", "")


@dataclass(frozen=True, order=True)
class AuthorKey:
    """Normalized (surname, initials) pair used for author matching.

    Inputs are normalized on construction, so constructing from an already
    normalized key is a no-op (normalization is idempotent).

    The hash is computed once, as a key goes into many records' author sets.
    It depends on the process's string hash seed, so a pickled or copied key
    carries only its fields and hashes afresh where it is rebuilt.
    """

    surname: str
    initials: str = ""

    def __post_init__(self):
        surname = normalize_surname(self.surname)
        if not surname:
            raise ValueError("AuthorKey surname must be non-empty")
        initials = normalize_initials(self.initials)
        object.__setattr__(self, "surname", surname)
        object.__setattr__(self, "initials", initials)
        object.__setattr__(self, "_hash", hash((surname, initials)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), (self.surname, self.initials)


@dataclass(frozen=True)
class TargetAuthor:
    """The author under evaluation, with their accepted name variants."""

    key: AuthorKey
    name_variants: frozenset[AuthorKey] = frozenset()
    career_start_year: Optional[int] = None  # e.g. PhD year
    first_citation_year: Optional[int] = None  # derived when building a dataset

    def __post_init__(self):
        variants = frozenset(self.name_variants) | {self.key}
        object.__setattr__(self, "name_variants", variants)


@dataclass(frozen=True)
class Publication:
    """A verified publication of the target author."""

    id: str
    year: int
    doc_type: str = "article"
    label: Optional[str] = None


@dataclass(frozen=True, init=False)
class CitingRecord:
    """One deduplicated citing document.

    A record counts once per year regardless of how many target publications
    it cites. Records citing no verified target work must not enter the
    dataset (homonym screening happens at ingestion).
    """

    id: str
    year: int
    authors: frozenset[AuthorKey] = frozenset()
    cited_target_pub_ids: frozenset[str] = frozenset()
    doc_type: str = "article"

    def __init__(self, id: str, year: int, authors: Iterable[AuthorKey] = frozenset(),
                 cited_target_pub_ids: Iterable[str] = frozenset(), doc_type: str = "article"):
        # Written out, as a dataset holds mostly records: a generated
        # `__init__` would need a `__post_init__` to make the collections
        # frozensets, setting them twice. The signature must list the
        # fields in order, with their defaults.
        set_field = object.__setattr__
        set_field(self, "id", id)
        set_field(self, "year", year)
        set_field(self, "authors", frozenset(authors))
        set_field(self, "cited_target_pub_ids", frozenset(cited_target_pub_ids))
        set_field(self, "doc_type", doc_type)


@dataclass(frozen=True)
class CitationDataset:
    """Immutable container: target author, publications, citing records."""

    target: TargetAuthor
    publications: tuple[Publication, ...] = ()
    citing_records: tuple[CitingRecord, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "publications", tuple(self.publications))
        object.__setattr__(self, "citing_records", tuple(self.citing_records))
        if self.target.first_citation_year is None and self.citing_records:
            derived = min(r.year for r in self.citing_records)
            object.__setattr__(self, "target", replace(self.target, first_citation_year=derived))


@dataclass(frozen=True)
class YearlyCitingCounts:
    """Distinct citing-record counts per calendar year; missing years mean 0."""

    counts: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for year, count in self.counts.items():
            if count < 0:
                raise ValueError(f"negative count {count} for year {year}")

    def get(self, year: int) -> int:
        return self.counts.get(year, 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def min_year(self) -> Optional[int]:
        return min(self.counts) if self.counts else None

    def max_year(self) -> Optional[int]:
        return max(self.counts) if self.counts else None


class Severity(Enum):
    ERROR = "ERROR"
    WARNING = "WARNING"


@dataclass(frozen=True)
class Finding:
    severity: Severity
    message: str


def validate_dataset(ds: CitationDataset) -> list[Finding]:
    """Check dataset invariants; returns an empty list iff all hold.

    ERROR findings break the contracts the computations rely on (referential
    integrity, duplicate ids, empty cited-id sets, years out of range).
    WARNING findings are data-quality oddities the indicator tolerates, e.g.
    a citing year earlier than the earliest cited publication year.
    """
    findings: list[Finding] = []
    err = lambda msg: findings.append(Finding(Severity.ERROR, msg))
    warn = lambda msg: findings.append(Finding(Severity.WARNING, msg))

    def check_year(what: str, year: Optional[int]) -> None:
        if problem := year_error(what, year):
            err(problem)

    pub_years: dict[str, int] = {}
    for pub in ds.publications:
        if pub.id in pub_years:
            err(f"duplicate publication id {pub.id!r}")
        pub_years[pub.id] = pub.year
        check_year(f"publication {pub.id!r} year", pub.year)

    seen_rec_ids: set[str] = set()
    for rec in ds.citing_records:
        if rec.id in seen_rec_ids:
            err(f"duplicate citing record id {rec.id!r}")
        seen_rec_ids.add(rec.id)
        if not YEAR_MIN <= rec.year <= YEAR_MAX:  # the message is built only when needed
            check_year(f"citing record {rec.id!r} year", rec.year)
        cited = rec.cited_target_pub_ids
        if not cited:
            err(f"citing record {rec.id!r} cites no target publication")
        for pub_id in cited:
            if pub_years.get(pub_id, math.inf) > rec.year:  # unknown, or published later
                break
        else:
            continue  # no finding, so the ids need no order
        for pub_id in sorted(cited):
            if pub_id not in pub_years:
                err(f"citing record {rec.id!r} references unknown publication {pub_id!r}")
            elif rec.year < pub_years[pub_id]:
                warn(
                    f"citing record {rec.id!r} dated {rec.year} cites "
                    f"{pub_id!r} published {pub_years[pub_id]}"
                )

    earliest_citing = min((r.year for r in ds.citing_records), default=None)
    check_year("target career_start_year", ds.target.career_start_year)
    if ds.target.first_citation_year != earliest_citing:  # else a record's year, checked above
        check_year("target first_citation_year", ds.target.first_citation_year)

    start = ds.target.career_start_year
    if start is not None and earliest_citing is not None and start > earliest_citing + 1:
        warn(f"career_start_year {start} is after the earliest citing year {earliest_citing}")

    return findings


def has_errors(findings: list[Finding]) -> bool:
    return any(f.severity is Severity.ERROR for f in findings)


def yearly_citing_counts(ds: CitationDataset, fs: "FilterSet") -> YearlyCitingCounts:
    """Count distinct surviving citing records per year.

    A record citing several target publications still contributes exactly 1
    to its year.
    """
    from .filters import apply_filters

    counts: dict[int, int] = {}
    for rec in apply_filters(ds, fs):
        counts[rec.year] = counts.get(rec.year, 0) + 1
    return YearlyCitingCounts(counts)


def citation_counts_per_publication(ds: CitationDataset, fs: "FilterSet") -> dict[str, int]:
    """Per-publication counts of distinct surviving citing records.

    A record citing three publications contributes 1 to each of the three.
    Every dataset publication appears in the result, possibly with 0.
    """
    from .filters import apply_filters

    counts = {pub.id: 0 for pub in ds.publications}
    try:
        for rec in apply_filters(ds, fs):
            for pub_id in rec.cited_target_pub_ids:
                counts[pub_id] += 1
    except KeyError:  # a dataset that skipped validate_dataset
        raise ValueError(
            f"citing record {rec.id!r} references unknown publication {pub_id!r}"
        ) from None
    return counts
