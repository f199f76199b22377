"""Profile-level and cohort-level statistics.

Summarizes groups of candidates (selected vs not selected in a call) by
their IV profiles: per-profile minima, threshold compliance, fluctuation
over the years leading up to the call, and average citing volumes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from statistics import fmean
from typing import Iterable, Optional

from .indicators import IVProfile
from .model import YearlyCitingCounts

CALL_SPAN = 5  # the "5 years until call", inclusive, of IV fluctuation and citing mean


@dataclass(frozen=True)
class RangeStat:
    min: float
    max: float
    mean: float

    def __post_init__(self):
        if not (self.min <= self.mean <= self.max):
            raise ValueError("range statistic must satisfy min <= mean <= max")


@dataclass(frozen=True)
class CohortStats:
    group_size: int
    min_iv_range: Optional[RangeStat]
    share_all_above_one: Optional[float]
    fluctuation_range: Optional[RangeStat]  # over candidates with a defined fluctuation
    citing_per_year_last5: Optional[RangeStat]
    citing_per_year_since_start: Optional[RangeStat]  # candidates with a career start only


def profile_min(p: IVProfile) -> float:
    if not p.values:
        raise ValueError("profile is empty")
    return min(p.values)


def profile_fluctuation(p: IVProfile, call_year: int) -> Optional[float]:
    """Max minus min IV over the CALL_SPAN years up to the call, else None.

    Defined only when each of the CALL_SPAN observation years in
    [call_year - CALL_SPAN + 1, call_year] carries an IV value.
    """
    years = p.observation_years  # strictly ascending, so a span of years is a slice
    first = bisect_left(years, call_year - CALL_SPAN + 1)
    end = bisect_right(years, call_year, first)
    if end - first != CALL_SPAN:
        return None
    in_span = p.values[first:end]
    return max(in_span) - min(in_span)


def _range_stat(values: Iterable[Optional[float]]) -> Optional[RangeStat]:
    """Min, max and mean of the values that are not None, else None."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    low, high = min(values), max(values)
    # fmean rounds, so the mean of equal values can land one ulp outside them
    return RangeStat(min=low, max=high, mean=min(max(fmean(values), low), high))


def _mean_citing(counts: YearlyCitingCounts, first_year: int, last_year: int) -> float:
    get = counts.counts.get
    # a list, so fmean takes its len instead of counting; the mean is the same
    return fmean([get(y, 0) for y in range(first_year, last_year + 1)])


def candidate_row(candidate_id: str, profile: IVProfile, counts: YearlyCitingCounts,
                  call_year: int, career_start_year: Optional[int]) -> tuple:
    """Minimum, fluctuation, 5-year and since-start citing means; None if
    undefined. Floats and None only, so `marshal` carries a row exactly."""
    if not profile.values:
        raise ValueError(f"candidate {candidate_id!r} has an empty profile")
    if profile.observation_years[-1] > call_year:  # ascending, so the last is the latest
        raise ValueError(f"candidate {candidate_id!r} has IV points after call year {call_year}")
    return (
        profile_min(profile),
        profile_fluctuation(profile, call_year),
        _mean_citing(counts, call_year - CALL_SPAN + 1, call_year),
        None if career_start_year is None else _mean_citing(counts, career_start_year, call_year),
    )


def _group_stats(rows: list[tuple]) -> CohortStats:
    if not rows:
        return CohortStats(0, None, None, None, None, None)
    minima, fluctuations, last5, since_start = zip(*rows)
    return CohortStats(
        group_size=len(rows),
        min_iv_range=_range_stat(minima),
        share_all_above_one=sum(m > 1.0 for m in minima) / len(rows),  # all > 1 iff min > 1
        fluctuation_range=_range_stat(fluctuations),
        citing_per_year_last5=_range_stat(last5),
        citing_per_year_since_start=_range_stat(since_start),
    )


def cohort_summary(rows: Iterable[tuple[bool, tuple]]) -> dict[str, CohortStats]:
    """Group summaries for selected vs not-selected candidates, of the
    (selected, `candidate_row`) pairs that any iterable `rows` yields.

    Candidates whose fluctuation is undefined are excluded from the
    fluctuation aggregate but contribute to every other statistic; the
    since-start citing average covers only candidates with a known career
    start year.
    """
    selected, not_selected = [], []
    for is_selected, row in rows:
        (selected if is_selected else not_selected).append(row)
    if not selected and not not_selected:
        raise ValueError("candidate set is empty")
    return {"selected": _group_stats(selected), "not_selected": _group_stats(not_selected)}
