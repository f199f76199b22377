import copy
import inspect
import math
import pickle
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from impact_vitality import indicators
from impact_vitality import (
    FixedStart,
    IVPoint,
    IVProfile,
    MovingWindow,
    YearlyCitingCounts,
    ar_index,
    h_index,
    impact_vitality,
    iv_profile,
    iv_upper_bound,
    select_h_core,
)
from impact_vitality.indicators import harmonic
from impact_vitality.model import YEAR_MAX, YEAR_MIN

from conftest import SIMULATED_CASES, TABLE5_COUNTS, TABLE5_PRINTED_IV


def harmonic_from_zero(n):
    """H_n as one left-to-right loop from zero, the bits the kernel keeps."""
    total = 0.0
    for i in range(1, n + 1):
        total += 1.0 / i
    return total


def brute_force_h(citations):
    return max(
        (h for h in range(len(citations) + 1) if sum(c >= h for c in citations) >= h),
        default=0,
    )


class TestImpactVitality:
    @pytest.mark.parametrize("case", sorted(SIMULATED_CASES))
    def test_simulated_cases(self, case):
        counts, expected = SIMULATED_CASES[case]
        assert round(impact_vitality(counts), 1) == expected

    def test_exact_values(self):
        assert impact_vitality([5, 4, 3, 2, 1]) == pytest.approx(1.48052, abs=1e-5)
        assert impact_vitality([1, 2, 3, 4, 5]) == pytest.approx(0.51948, abs=1e-5)
        assert impact_vitality([1, 2, 3, 2, 1]) == pytest.approx(0.82251, abs=1e-5)
        assert impact_vitality([3, 2, 1, 2, 3]) == pytest.approx(1.14521, abs=1e-4)

    def test_worked_examples(self):
        assert round(impact_vitality([87, 77, 76, 82]), 2) == 1.04
        assert round(impact_vitality([120, 87, 77, 76, 82]), 2) == 1.20

    def test_all_mass_newest_hits_upper_bound(self):
        assert impact_vitality([10, 0]) == pytest.approx(2.0)
        for n in (2, 5, 12):
            counts = [7] + [0] * (n - 1)
            assert impact_vitality(counts) == pytest.approx(iv_upper_bound(n))

    def test_all_mass_oldest_is_zero(self):
        for n in (2, 5, 12):
            for k in (1, 3, 10**6):
                counts = [0] * (n - 1) + [k]
                assert impact_vitality(counts) == pytest.approx(0.0)

    def test_rejects_short_window(self):
        with pytest.raises(ValueError):
            impact_vitality([5])

    def test_rejects_zero_total(self):
        with pytest.raises(ValueError):
            impact_vitality([0, 0, 0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            impact_vitality([3, -1, 2])

    @pytest.mark.parametrize(
        "counts, message",
        [
            ([5], "window length must be >= 2, got 1"),
            ([-1, 1], "citing counts must be non-negative"),
            ([-1, -1], "citing counts must be non-negative"),  # also no positive total
            ([0, -1], "citing counts must be non-negative"),
            ([3, -1, 2], "citing counts must be non-negative"),
            ([0, 0, 0], "window total must be positive"),
        ],
    )
    def test_messages_in_the_order_of_their_checks(self, counts, message):
        """Length first, then a negative count, then the total."""
        with pytest.raises(ValueError) as info:
            impact_vitality(counts)
        assert str(info.value) == message

    def test_the_harmonic_table_holds_harmonic_bits(self):
        """The kernel looks H_n up in a table that covers every window the
        year range allows; each entry, and `harmonic(n)` on and past the
        table, has the bits of a loop from zero."""
        table = indicators._HARMONIC
        assert len(table) == YEAR_MAX - YEAR_MIN + 2
        ns = range(-2, len(table) + 40)
        expected = [harmonic_from_zero(n).hex() for n in ns]
        assert [harmonic(n).hex() for n in ns] == expected
        assert [h.hex() for h in table] == expected[2:len(table) + 2]

    def test_a_window_past_the_table_takes_harmonic(self):
        """A library caller may pass a longer window than the table covers:
        its value is the formula's with H_n from zero, bit for bit."""
        size = len(indicators._HARMONIC)
        for n in (size - 1, size, size + 40):
            counts = [1 + (7 * i) % 11 for i in range(n)]
            weighted = 0.0
            for age, count in enumerate(counts, start=1):
                weighted += count / age
            expected = (n * (weighted / sum(counts)) - 1.0) / (harmonic_from_zero(n) - 1.0)
            assert impact_vitality(counts).hex() == expected.hex()


class TestIvUpperBound:
    def test_known_values(self):
        assert iv_upper_bound(2) == pytest.approx(2.0)
        assert iv_upper_bound(5) == pytest.approx(4 / (137 / 60 - 1))
        assert iv_upper_bound(5) == pytest.approx(3.1169, abs=1e-4)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            iv_upper_bound(1)


class TestWindowSpecs:
    def test_moving_window_minimum(self):
        with pytest.raises(ValueError):
            MovingWindow(n=1)

    def test_fixed_start_minimum_length(self):
        with pytest.raises(ValueError):
            FixedStart(start_year=2000, min_length=1)

    def test_fixed_start_default_min_length(self):
        assert FixedStart(start_year=2000).min_length == 4


class TestIVProfile:
    def test_table5_growing_window(self):
        counts = YearlyCitingCounts(TABLE5_COUNTS["all"])
        profile = iv_profile(counts, FixedStart(1988, 4), 1988, 2007)
        assert len(profile) == 17
        assert [p.observation_year for p in profile.points] == list(range(1991, 2008))
        for pt in profile.points:
            assert round(pt.value, 2) == TABLE5_PRINTED_IV["all"][pt.observation_year]
        # window lengths grow with the observation year
        assert [p.window_length for p in profile.points] == list(range(4, 21))

    def test_sparse_counts_moving_window(self):
        # single burst year: only windows containing 2005 are admissible,
        # each with zeros elsewhere; 2005's window (3,0,0,0,0) hits the bound
        counts = YearlyCitingCounts({2005: 3})
        profile = iv_profile(counts, MovingWindow(5), 2000, 2010)
        assert [p.observation_year for p in profile.points] == list(range(2005, 2010))
        assert all(p.zero_year_flag for p in profile.points)
        assert profile.points[0].value == pytest.approx(4 / 1.2833333333, abs=1e-4)
        assert profile.points[0].value == pytest.approx(iv_upper_bound(5))

    def test_constant_counts_give_unit_profile(self):
        counts = YearlyCitingCounts({y: 9 for y in range(1990, 2011)})
        for spec in (MovingWindow(5), FixedStart(1990, 4)):
            profile = iv_profile(counts, spec, 1995, 2010)
            assert all(p.value == pytest.approx(1.0) for p in profile.points)

    def test_profile_matches_direct_calls(self):
        counts = YearlyCitingCounts(TABLE5_COUNTS["all"])
        profile = iv_profile(counts, MovingWindow(6), 1993, 2007)
        for pt in profile.points:
            window = [counts.get(y) for y in range(pt.observation_year, pt.observation_year - 6, -1)]
            assert pt.value == impact_vitality(window)
            assert pt.total_citing == sum(window)

    @pytest.mark.parametrize("spec", [MovingWindow(5), FixedStart(1988, 4), FixedStart(1988, 2)])
    def test_one_kernel_call_per_point(self, monkeypatch, spec):
        """The benchmark counts `indicators.impact_vitality` calls against
        points; each point's value comes from one call on its window."""
        calls = []

        def counting(window):
            calls.append(list(window))
            return impact_vitality(window)

        monkeypatch.setattr(indicators, "impact_vitality", counting)
        counts = YearlyCitingCounts({**TABLE5_COUNTS["all"], 1995: 0, 1996: 0})
        profile = iv_profile(counts, spec, 1990, 2007)
        assert len(calls) == len(profile) > 0
        assert {pt.zero_year_flag for pt in profile.points} == {True, False}
        for pt, window in zip(profile.points, calls):
            assert len(window) == pt.window_length
            assert sum(window) == pt.total_citing
            assert (0 in window) == pt.zero_year_flag

    def test_empty_range_rejected(self):
        counts = YearlyCitingCounts({2000: 1})
        with pytest.raises(ValueError):
            iv_profile(counts, MovingWindow(3), 2005, 2001)

    def test_fixed_start_after_range_rejected(self):
        counts = YearlyCitingCounts({2000: 1})
        with pytest.raises(ValueError):
            iv_profile(counts, FixedStart(2010), 1999, 2005)

    def test_years_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            IVProfile((2000, 2000), (5, 5), (1.0, 1.0), (10, 10), (False, False), MovingWindow(5))

    def test_columns_of_unequal_length_refused(self):
        with pytest.raises(ValueError, match=r"unequal lengths \[2, 2, 1, 2, 2\]"):
            IVProfile((2000, 2001), (5, 5), (1.0,), (10, 10), (False, False), MovingWindow(5))

    def test_columns_are_stored_as_tuples(self):
        profile = IVProfile(range(2000, 2002), [5, 6], [1.0, 1.5], [10, 12], [False, True],
                            MovingWindow(5))
        assert (profile.observation_years, profile.window_lengths, profile.values,
                profile.totals_citing, profile.zero_year_flags) == (
            (2000, 2001), (5, 6), (1.0, 1.5), (10, 12), (False, True))


class TestIVPointConstructor:
    """`IVPoint`'s generated constructor takes the fields by position or by
    name, and the point stays frozen and slotted."""

    def test_signature_lists_the_fields_in_order_without_defaults(self):
        params = inspect.signature(IVPoint).parameters
        assert [(p.name, p.kind, p.default) for p in params.values()] == [
            (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
            for f in fields(IVPoint)
        ]

    @given(st.tuples(st.integers(1800, 2030), st.integers(2, 300), st.floats(allow_nan=False),
                     st.integers(1, 10**6), st.booleans()))
    def test_a_positional_point_is_the_keyword_point(self, values):
        built = IVPoint(*values)
        by_name = IVPoint(**{f.name: v for f, v in zip(fields(IVPoint), values)})
        for remake in (lambda pt: pt, lambda pt: pickle.loads(pickle.dumps(pt)),
                       copy.deepcopy, replace):
            other = remake(built)
            assert other == by_name and hash(other) == hash(by_name)
            assert repr(other) == repr(by_name)
            assert [getattr(other, f.name) for f in fields(IVPoint)] == list(values)
        with pytest.raises(FrozenInstanceError):
            built.value = 1.0
        assert not hasattr(built, "__dict__")


class TestHIndex:
    def test_empty(self):
        assert h_index([]) == 0

    def test_known_cases(self):
        assert h_index([10, 8, 5, 4, 3]) == 4
        assert h_index([1, 1, 1, 1]) == 1
        assert h_index([0, 0]) == 0

    def test_matches_brute_force(self):
        import itertools

        for size in range(0, 5):
            for combo in itertools.product(range(5), repeat=size):
                assert h_index(list(combo)) == brute_force_h(combo)

    def test_permutation_invariant(self):
        assert h_index([3, 1, 4, 1, 5]) == h_index([5, 4, 3, 1, 1])


class TestARIndex:
    def test_empty_core(self):
        assert ar_index([]) == 0.0

    def test_direct_evaluation(self):
        assert ar_index([(9, 1), (4, 2)]) == pytest.approx(math.sqrt(11))
        assert ar_index([(9, 1), (4, 2)]) == pytest.approx(3.3166, abs=1e-4)

    def test_closed_form(self):
        for h in (1, 3, 7):
            core = [(h, 1)] * h
            assert ar_index(core) == pytest.approx(h)

    def test_rejects_bad_age(self):
        for core, message in [
            ([(5, 0)], "age must be >= 1"),
            ([(-1, 1)], "citation count must be >= 0"),
        ]:
            with pytest.raises(ValueError, match=message):
                ar_index(core)


class TestSelectHCore:
    def test_picks_top_h_by_citations(self):
        pubs = [("a", 10, 2000), ("b", 8, 2001), ("c", 5, 2002), ("d", 4, 2003), ("e", 3, 2004)]
        core = select_h_core(pubs, 2005)
        assert len(core) == 4
        assert sorted(c for c, _ in core) == [4, 5, 8, 10]

    def test_tie_break_prefers_recent(self):
        pubs = [("old", 2, 2000), ("new", 2, 2004), ("top", 5, 2003)]
        core = select_h_core(pubs, 2005)  # h = 2
        assert len(core) == 2
        # "new" (age 2) wins the tie against "old" (age 6)
        assert (2, 2) in core and (5, 3) in core
