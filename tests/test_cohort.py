import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from impact_vitality import (
    FixedStart,
    IVProfile,
    RangeStat,
    YearlyCitingCounts,
    candidate_row,
    cohort_summary,
    iv_profile,
    profile_fluctuation,
    profile_min,
)
from impact_vitality import cohort

from conftest import TABLE5_COUNTS


def profile_from_values(values, first_year=2000, n=5):
    size = len(values)
    return IVProfile(
        observation_years=range(first_year, first_year + size),
        window_lengths=[n] * size,
        values=values,
        totals_citing=[10] * size,
        zero_year_flags=[False] * size,
        window_spec=FixedStart(first_year - n + 1, 2),
    )


def candidate(cid, selected, values, call_year=None, counts=None, start=None):
    """The (selected, `candidate_row`) pair that `cohort_summary` folds."""
    profile = profile_from_values(values)
    call = call_year if call_year is not None else profile.points[-1].observation_year
    counts = counts or {p.observation_year: 10 for p in profile.points}
    return selected, candidate_row(cid, profile, YearlyCitingCounts(counts), call, start)


class TestProfileMin:
    def test_table5_minimum(self):
        counts = YearlyCitingCounts(TABLE5_COUNTS["all"])
        profile = iv_profile(counts, FixedStart(1988, 4), 1988, 2007)
        assert round(profile_min(profile), 2) == 1.04

    def test_single_point(self):
        assert profile_min(profile_from_values([1.3])) == 1.3

    def test_direct_min(self):
        assert profile_min(profile_from_values([1.2, 0.9, 1.5])) == 0.9

    def test_rejects_empty(self):
        empty = IVProfile((), (), (), (), (), window_spec=FixedStart(2000, 2))
        with pytest.raises(ValueError, match="profile is empty"):
            profile_min(empty)


class TestProfileFluctuation:
    def test_published_arithmetic(self):
        # Table 5 IV values for 2000-2004 around the 2004 call
        p = profile_from_values([1.84, 1.82, 1.76, 1.71, 1.62], first_year=2000)
        assert profile_fluctuation(p, 2004) == pytest.approx(0.22)

    def test_undefined_when_too_few_points(self):
        p = profile_from_values([1.1, 1.2, 1.3], first_year=2002)
        assert profile_fluctuation(p, 2004) is None

    def test_constant_profile(self):
        p = profile_from_values([1.3] * 5)
        assert profile_fluctuation(p, 2004) == 0.0

    def test_points_outside_span_ignored(self):
        p = profile_from_values([9.0, 1.5, 1.4, 1.3, 1.2, 1.1], first_year=1999)
        assert profile_fluctuation(p, 2004) == pytest.approx(0.4)


@st.composite
def profiles_around_a_call(draw):
    """A profile with points before, inside (maybe with gaps) and after the
    call span, and the call year; years strictly increasing."""
    call = draw(st.integers(1990, 2010))
    span = range(call - cohort.CALL_SPAN + 1, call + 1)
    before = draw(st.sets(st.integers(span[0] - 15, span[0] - 1), max_size=6))
    inside = draw(st.one_of(st.just(set(span)), st.sets(st.sampled_from(span))))
    after = draw(st.sets(st.integers(call + 1, call + 15), max_size=6))
    years = sorted(before | inside | after)
    values = draw(st.lists(st.floats(-5.0, 50.0), min_size=len(years), max_size=len(years)))
    size = len(years)
    profile = IVProfile(years, [5] * size, values, [10] * size, [False] * size, FixedStart(1950, 2))
    return profile, call


@given(profiles_around_a_call())
def test_fluctuation_reads_only_the_call_span(drawn):
    profile, call = drawn
    in_span = [
        pt.value for pt in profile.points
        if call - cohort.CALL_SPAN + 1 <= pt.observation_year <= call
    ]
    expected = max(in_span) - min(in_span) if len(in_span) == cohort.CALL_SPAN else None
    assert profile_fluctuation(profile, call) == expected


class TestCohortSummary:
    def test_single_constant_candidate(self):
        stats = cohort_summary([candidate("x", True, [1.3] * 5)])
        sel = stats["selected"]
        assert sel.group_size == 1
        assert sel.min_iv_range.mean == pytest.approx(1.3)
        assert sel.share_all_above_one == 1.0
        assert sel.fluctuation_range.mean == pytest.approx(0.0)
        assert stats["not_selected"].group_size == 0

    def test_undefined_fluctuation_excluded(self):
        cands = [
            candidate("a", True, [1.3] * 5),
            candidate("b", True, [1.2, 1.4, 1.6]),  # only 3 points: undefined
        ]
        stats = cohort_summary(cands)["selected"]
        assert stats.group_size == 2
        assert stats.fluctuation_range.mean == pytest.approx(0.0)  # only "a" counted
        assert stats.min_iv_range.min == pytest.approx(1.2)

    def test_growers_fluctuate_less_than_fluctuators(self):
        # deterministic synthetic cohort: 8 gently-growing profiles vs 17
        # saw-toothed ones; brute-force aggregation is the oracle
        growers = [
            candidate(f"g{i}", True, [1.2 + 0.01 * j + 0.005 * i for j in range(5)])
            for i in range(8)
        ]
        fluctuators = [
            candidate(
                f"f{i}",
                False,
                [1.0 + (0.5 + 0.05 * i) * (j % 2) for j in range(5)],
            )
            for i in range(17)
        ]
        stats = cohort_summary(growers + fluctuators)
        assert stats["selected"].group_size == 8
        assert stats["not_selected"].group_size == 17
        expected_grow = sum(0.04 for _ in range(8)) / 8
        assert stats["selected"].fluctuation_range.mean == pytest.approx(expected_grow)
        assert (
            stats["selected"].fluctuation_range.mean
            < stats["not_selected"].fluctuation_range.mean
        )

    def test_citing_averages(self):
        counts = {2000: 10, 2001: 20, 2002: 30, 2003: 40, 2004: 50}
        c = candidate("x", True, [1.1] * 5, counts=counts, start=2000)
        stats = cohort_summary([c])["selected"]
        assert stats.citing_per_year_last5.mean == pytest.approx(30.0)
        assert stats.citing_per_year_since_start.mean == pytest.approx(30.0)

    def test_share_all_above_one_is_strict(self):
        # a lowest IV of exactly 1.0 is not above 1; one just above it is
        cands = [
            candidate("at", True, [1.2, 1.0, 1.4]),
            candidate("above", True, [1.2, math.nextafter(1.0, 2.0), 1.4]),
        ]
        assert cohort_summary(cands)["selected"].share_all_above_one == 0.5

    def test_call_span_sets_both_last5_statistics(self, monkeypatch):
        monkeypatch.setattr(cohort, "CALL_SPAN", 3)
        counts = {2000: 10, 2001: 20, 2002: 30, 2003: 40, 2004: 60}
        c = candidate("x", True, [1.9, 1.1, 1.2, 1.6, 1.3], counts=counts)
        stats = cohort_summary([c])["selected"]
        assert stats.citing_per_year_last5.mean == pytest.approx((30 + 40 + 60) / 3)
        assert stats.fluctuation_range.mean == pytest.approx(1.6 - 1.2)

    def test_since_start_needs_career_start(self):
        c = candidate("x", True, [1.1] * 5)  # no career_start_year
        stats = cohort_summary([c])["selected"]
        assert stats.citing_per_year_since_start is None
        assert stats.citing_per_year_last5 is not None

    def test_aggregates_satisfy_ordering(self):
        cands = [candidate(f"c{i}", i % 2 == 0, [1.0 + 0.1 * i + 0.02 * j for j in range(5)]) for i in range(6)]
        for stats in cohort_summary(cands).values():
            for r in (stats.min_iv_range, stats.fluctuation_range, stats.citing_per_year_last5):
                if r is not None:
                    assert r.min <= r.mean <= r.max
        with pytest.raises(ValueError, match="min <= mean <= max"):
            RangeStat(1.0, 2.0, 3.0)

    def test_equal_values_give_their_own_mean(self):
        # fmean([x] * 5) is x plus one ulp for this x
        x = 0.8760103519345847
        stats = cohort_summary([candidate(f"c{i}", True, [x] * 5) for i in range(5)])["selected"]
        assert stats.min_iv_range == RangeStat(x, x, x)

    def test_rejects_empty_cohort(self):
        with pytest.raises(ValueError):
            cohort_summary([])

    def test_rejects_points_after_call(self):
        profile = profile_from_values([1.1] * 5)  # 2000 to 2004
        counts = YearlyCitingCounts({2000: 10})
        with pytest.raises(ValueError, match=r"^candidate 'x' has IV points after call year 2003$"):
            candidate_row("x", profile, counts, 2003, None)
        assert candidate_row("x", profile, counts, 2004, None)[0] == 1.1

    def test_multiplier_invariance_lifts(self):
        base = {1995 + i: 10 + 3 * i for i in range(10)}
        scaled = {y: 7 * c for y, c in base.items()}
        spec = FixedStart(1995, 4)
        p1 = iv_profile(YearlyCitingCounts(base), spec, 1995, 2004)
        p2 = iv_profile(YearlyCitingCounts(scaled), spec, 1995, 2004)
        assert profile_min(p1) == pytest.approx(profile_min(p2), abs=1e-12)
        assert (profile_min(p1) > 1.0) == (profile_min(p2) > 1.0)
        f1 = profile_fluctuation(p1, 2004)
        f2 = profile_fluctuation(p2, 2004)
        assert f1 == pytest.approx(f2, abs=1e-12)
