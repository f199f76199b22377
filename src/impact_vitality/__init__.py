"""Citation analytics around the Impact Vitality indicator.

Computes Impact Vitality profiles over time from author-centric citation
datasets, alongside the h-index and AR-index, with the paper's two filter
clauses (self-citations, records citing only one paper) and cohort
comparison statistics. Document types are carried by the dataset format,
but no computation reads them.
"""

from .cohort import (
    CohortStats,
    RangeStat,
    candidate_row,
    cohort_summary,
    profile_fluctuation,
    profile_min,
)
from .filters import FilterSet, apply_filters, cites_only, is_self_citing, most_cited_publication
from .indicators import (
    FixedStart,
    IVPoint,
    IVProfile,
    MovingWindow,
    WindowSpec,
    ar_index,
    h_index,
    impact_vitality,
    iv_profile,
    iv_upper_bound,
    select_h_core,
)
from .io import (
    FormatError,
    emit_counts,
    emit_dataset,
    emit_report,
    parse_counts,
    parse_dataset,
    parse_manifest,
)
from .model import (
    AuthorKey,
    CitationDataset,
    CitingRecord,
    Finding,
    Publication,
    Severity,
    TargetAuthor,
    YearlyCitingCounts,
    citation_counts_per_publication,
    validate_dataset,
    yearly_citing_counts,
)

__version__ = "0.1.0"

__all__ = [
    "AuthorKey",
    "CitationDataset",
    "CitingRecord",
    "CohortStats",
    "FilterSet",
    "Finding",
    "FixedStart",
    "FormatError",
    "IVPoint",
    "IVProfile",
    "MovingWindow",
    "Publication",
    "RangeStat",
    "Severity",
    "TargetAuthor",
    "WindowSpec",
    "YearlyCitingCounts",
    "apply_filters",
    "ar_index",
    "candidate_row",
    "citation_counts_per_publication",
    "cites_only",
    "cohort_summary",
    "emit_counts",
    "emit_dataset",
    "emit_report",
    "h_index",
    "impact_vitality",
    "is_self_citing",
    "iv_profile",
    "iv_upper_bound",
    "most_cited_publication",
    "parse_counts",
    "parse_dataset",
    "parse_manifest",
    "profile_fluctuation",
    "profile_min",
    "select_h_core",
    "validate_dataset",
    "yearly_citing_counts",
]
