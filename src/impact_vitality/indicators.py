"""Impact Vitality and comparison indicators (h-index, AR-index).

Impact Vitality measures how the yearly volume of publications citing an
author's work trends over a window of n years. Citing counts are weighted by
inverse age (the observation year has age 1, weight 1; the oldest window
year has age n, weight 1/n) and normalized so that a constant yearly volume
yields exactly 1. Values above 1 mean the citing volume is growing, below 1
shrinking; the value is invariant under scaling all counts by a common
factor.

Float sums are plain left-to-right loops, not sum(): from CPython 3.12 on,
sum() of floats is compensated, which would change the last bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from itertools import accumulate
from typing import Sequence, Union

from .model import YEAR_MAX, YEAR_MIN, YearlyCitingCounts

DEFAULT_MIN_WINDOW = 4  # growing windows shorter than this are not reported


# H_n, the sum of 1/i for i from 1 to n added left to right, for every window
# that years in [YEAR_MIN, YEAR_MAX] can span. The 82,022 points of the
# seed-1 benchmark cohort look H_n up in 1.9 ms, against 8.4 ms through an
# lru_cache.
_HARMONIC = list(accumulate((1.0 / i for i in range(1, YEAR_MAX - YEAR_MIN + 2)), initial=0.0))


def harmonic(n: int) -> float:
    """H_n, 0.0 for n <= 0. Past the table's end the adds carry on from its
    last entry, in the same order, so every n gets the bits of one loop."""
    if n <= 0:
        return 0.0
    if n < len(_HARMONIC):
        return _HARMONIC[n]
    total = _HARMONIC[-1]
    for i in range(len(_HARMONIC), n + 1):
        total += 1.0 / i
    return total


def iv_upper_bound(n: int) -> float:
    """Largest attainable value for a window of n years.

    Reached when all citing mass sits in the newest year: (n-1)/(H_n - 1).
    """
    if n < 2:
        raise ValueError(f"window length must be >= 2, got {n}")
    return (n - 1) / (harmonic(n) - 1.0)


def impact_vitality(counts: Sequence[int]) -> float:
    """Impact Vitality of a citing-count window, newest year first.

    counts[0] is the observation year (age 1), counts[-1] the oldest window
    year (age n). Requires n >= 2 and a positive total.
    """
    n = len(counts)
    if n < 2:
        raise ValueError(f"window length must be >= 2, got {n}")
    weighted = 0.0
    age = 0
    for count in counts:
        if count < 0:
            raise ValueError("citing counts must be non-negative")
        age += 1
        weighted += count / age
    total = sum(counts)
    if total <= 0:
        raise ValueError("window total must be positive")
    try:
        h_n = _HARMONIC[n]
    except IndexError:  # a library caller's window, longer than the year range
        h_n = harmonic(n)
    return (n * (weighted / total) - 1.0) / (h_n - 1.0)


@dataclass(frozen=True)
class MovingWindow:
    """Fixed-length window of n years sliding with the observation year."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"moving window length must be >= 2, got {self.n}")


@dataclass(frozen=True)
class FixedStart:
    """Window growing from a fixed origin (PhD year or first-citation year)."""

    start_year: int
    min_length: int = DEFAULT_MIN_WINDOW

    def __post_init__(self):
        if self.min_length < 2:
            raise ValueError(f"minimum window length must be >= 2, got {self.min_length}")


WindowSpec = Union[MovingWindow, FixedStart]


@dataclass(frozen=True, slots=True)
class IVPoint:
    observation_year: int
    window_length: int
    value: float
    total_citing: int
    zero_year_flag: bool  # some window year had zero citing publications


@dataclass(frozen=True)
class IVProfile:
    """IV values across observation years, ascending, no duplicates, as one
    column per `IVPoint` field; the i-th entries of the columns are point i."""

    observation_years: tuple[int, ...]
    window_lengths: tuple[int, ...]
    values: tuple[float, ...]
    totals_citing: tuple[int, ...]
    zero_year_flags: tuple[bool, ...]
    window_spec: WindowSpec

    def __post_init__(self):
        lengths = []
        for name in _COLUMNS:
            column = tuple(getattr(self, name))
            object.__setattr__(self, name, column)
            lengths.append(len(column))
        if len(set(lengths)) > 1:
            raise ValueError(f"profile columns have unequal lengths {lengths}")
        years = self.observation_years
        if any(a >= b for a, b in zip(years, years[1:])):
            raise ValueError("profile observation years must be strictly increasing")

    def __len__(self) -> int:
        return len(self.observation_years)

    @functools.cached_property
    def points(self) -> tuple[IVPoint, ...]:
        """The columns as points, built on first access."""
        return tuple(map(IVPoint, self.observation_years, self.window_lengths, self.values,
                         self.totals_citing, self.zero_year_flags))


# The column fields, read once here: with `fields()` per profile, the
# 2,000 profiles of the seed-1 benchmark cohort took 24.1 against 20.9 ms.
# window_spec comes last.
_COLUMNS = tuple(f.name for f in fields(IVProfile))[:-1]


def iv_profile(
    counts: YearlyCitingCounts,
    spec: WindowSpec,
    first_year: int,
    last_year: int,
) -> IVProfile:
    """Compute one IV point per admissible observation year in the range.

    Years missing from `counts` contribute 0 inside a window. Observation
    years whose window total is 0 are skipped entirely (the formula is
    undefined there); windows containing an individual zero year are still
    reported but flagged, since the indicator is unreliable when counts
    fluctuate between zero and non-zero.
    """
    if first_year > last_year:
        raise ValueError(f"empty observation range [{first_year}, {last_year}]")
    if isinstance(spec, FixedStart) and spec.start_year > last_year:
        raise ValueError(
            f"window start {spec.start_year} is after the last observation year {last_year}"
        )

    # One list of counts, newest year first, from the last observation year
    # back to the oldest window start; each window is a slice of it.
    moving = isinstance(spec, MovingWindow)
    if moving:
        oldest = first_year - spec.n + 1
    else:
        oldest = spec.start_year
        first_year = max(first_year, oldest + spec.min_length - 1)  # shorter windows skipped
    get = counts.counts.get
    newest = [get(y, 0) for y in range(last_year, oldest - 1, -1)]

    # One pass gives every window's total and zero flag: after[i] is the sum
    # of newest[i:], and next_zero[i] the first index >= i that holds a 0.
    size = len(newest)
    after = [0] * (size + 1)
    next_zero = [size] * (size + 1)
    for i in range(size - 1, -1, -1):
        count = newest[i]
        after[i] = after[i + 1] + count
        next_zero[i] = i if count == 0 else next_zero[i + 1]

    # Window k (k years before the last) is newest[k:end]: a moving window
    # ends n cells on, a growing one at the oldest start. The kernel is read
    # from the module here, per call, so that a rebound `impact_vitality`
    # (the benchmark's call counter) sees every point.
    years, lengths, values, totals, flags = [], [], [], [], []
    kernel = impact_vitality
    for y_t in range(first_year, last_year + 1):
        k = last_year - y_t
        end = k + spec.n if moving else size
        total = after[k] - after[end]
        if total == 0:
            continue
        years.append(y_t)
        lengths.append(end - k)
        values.append(kernel(newest[k:end]))
        totals.append(total)
        flags.append(next_zero[k] < end)
    return IVProfile(years, lengths, values, totals, flags, spec)


def h_index(citation_counts: Sequence[int]) -> int:
    """Largest h such that at least h values are >= h."""
    ranked = sorted(citation_counts, reverse=True)
    h = 0
    for rank, cites in enumerate(ranked, start=1):
        if cites >= rank:
            h = rank
        else:
            break
    return h


def ar_index(h_core: Sequence[tuple[int, int]]) -> float:
    """Square root of the summed citations-per-age over the h-core.

    h_core holds (citations, age) pairs for exactly the h publications that
    realize the h-index; selecting them is the caller's duty. Ages are >= 1
    (a same-year publication has age 1).
    """
    total = 0.0
    for cites, age in h_core:
        if age < 1:
            raise ValueError(f"publication age must be >= 1, got {age}")
        if cites < 0:
            raise ValueError(f"citation count must be >= 0, got {cites}")
        total += cites / age
    return math.sqrt(total)


def select_h_core(
    pubs: Sequence[tuple[str, int, int]], observation_year: int
) -> list[tuple[int, int]]:
    """Pick the h-core as (citations, age) pairs for ar_index.

    `pubs` holds (publication id, citations, publication year) triples. Ties
    at the h-th citation count are broken toward the more recent publication
    (smaller age), then by id for determinism.
    """
    ranked = sorted(pubs, key=lambda p: (-p[1], -p[2], p[0]))
    h = h_index([cites for _, cites, _ in pubs])
    return [
        (cites, observation_year - year + 1) for _, cites, year in ranked[:h]
    ]
