"""Declarative exclusion of citing records.

A FilterSet composes up to four clause types conjunctively: explicit id
exclusions, self-citation exclusion, exclusion of records citing only one
designated publication (outlier analysis), and document-type allow-sets for
citing and cited sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .model import CitationDataset, CitingRecord, TargetAuthor


@dataclass(frozen=True)
class FilterSet:
    exclude_self_citations: bool = False
    exclude_citing_only: Optional[str] = None  # publication id
    citing_doc_types: Optional[frozenset[str]] = None
    cited_doc_types: Optional[frozenset[str]] = None
    exclude_ids: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.citing_doc_types is not None:
            object.__setattr__(self, "citing_doc_types", frozenset(self.citing_doc_types))
        if self.cited_doc_types is not None:
            object.__setattr__(self, "cited_doc_types", frozenset(self.cited_doc_types))
        object.__setattr__(self, "exclude_ids", frozenset(self.exclude_ids))


EMPTY_FILTERS = FilterSet()


def is_self_citing(rec: CitingRecord, target: TargetAuthor) -> bool:
    """True iff any record author matches a declared name variant."""
    return bool(rec.authors & target.name_variants)


def cites_only(rec: CitingRecord, pub_id: str) -> bool:
    """True iff the record cites exactly the one designated publication."""
    return rec.cited_target_pub_ids == frozenset({pub_id})


def most_cited_publication(ds: CitationDataset) -> str:
    """Id of the publication with the most distinct citing records.

    Ties go to the older publication year, then the lexicographically
    smaller id.
    """
    from .model import citation_counts_per_publication

    if not ds.citing_records:
        raise ValueError("dataset has no citing records")
    counts = citation_counts_per_publication(ds, EMPTY_FILTERS)
    pubs = sorted(ds.publications, key=lambda p: (-counts[p.id], p.year, p.id))
    return pubs[0].id


def apply_filters(ds: CitationDataset, fs: FilterSet) -> set[str]:
    """Ids of citing records passing every active clause.

    For cited_doc_types a record survives when at least one of its cited
    publications has an allowed type.
    """
    pub_types = {pub.id: pub.doc_type for pub in ds.publications}
    if fs.exclude_citing_only is not None and fs.exclude_citing_only not in pub_types:
        raise ValueError(
            f"exclude_citing_only references unknown publication {fs.exclude_citing_only!r}"
        )

    surviving: set[str] = set()
    for rec in ds.citing_records:
        if rec.id in fs.exclude_ids:
            continue
        if fs.exclude_self_citations and is_self_citing(rec, ds.target):
            continue
        if fs.exclude_citing_only is not None and cites_only(rec, fs.exclude_citing_only):
            continue
        if fs.citing_doc_types is not None and rec.doc_type not in fs.citing_doc_types:
            continue
        if fs.cited_doc_types is not None and not any(
            pub_types[pid] in fs.cited_doc_types for pid in rec.cited_target_pub_ids
        ):
            continue
        surviving.add(rec.id)
    return surviving
