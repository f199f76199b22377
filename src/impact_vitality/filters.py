"""Exclusion of citing records: the paper's two filter clauses.

A FilterSet can exclude self-citing records (an author matches one of the
target's name variants), records citing only one designated publication
(outlier analysis), or both. Together with no filter these give the three
regimes of the paper's Table 5. Document types are carried by the dataset
format, but no filter reads them. `apply_filters` returns the surviving
records themselves, in dataset order, and the reductions in `model` count
them as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import CitationDataset, CitingRecord, TargetAuthor, citation_counts_per_publication


@dataclass(frozen=True)
class FilterSet:
    exclude_self_citations: bool = False
    exclude_citing_only: Optional[str] = None  # publication id


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
    if not ds.citing_records:
        raise ValueError("dataset has no citing records")
    counts = citation_counts_per_publication(ds, FilterSet())
    return min(ds.publications, key=lambda p: (-counts[p.id], p.year, p.id)).id


def apply_filters(ds: CitationDataset, fs: FilterSet) -> list[CitingRecord]:
    """The citing records passing every active clause, in dataset order."""
    citing_only = fs.exclude_citing_only
    if citing_only is not None and all(pub.id != citing_only for pub in ds.publications):
        raise ValueError(f"exclude_citing_only references unknown publication {citing_only!r}")

    surviving: list[CitingRecord] = []
    for rec in ds.citing_records:
        if fs.exclude_self_citations and is_self_citing(rec, ds.target):
            continue
        if citing_only is not None and cites_only(rec, citing_only):
            continue
        surviving.append(rec)
    return surviving
