"""Hypothesis property tests for the indicator math and dataset reductions."""

import functools
import math
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from impact_vitality import (
    FilterSet,
    FixedStart,
    IVPoint,
    IVProfile,
    MovingWindow,
    YearlyCitingCounts,
    apply_filters,
    h_index,
    impact_vitality,
    iv_profile,
    iv_upper_bound,
    parse_dataset,
    emit_dataset,
    yearly_citing_counts,
)

from conftest import TABLE5_COUNTS, make_dataset, make_target

window_counts = st.lists(
    st.integers(min_value=0, max_value=10**6), min_size=2, max_size=30
).filter(lambda xs: sum(xs) > 0)


@given(window_counts, st.integers(min_value=1, max_value=1000))
def test_multiplier_invariance(counts, factor):
    scaled = [factor * c for c in counts]
    assert abs(impact_vitality(scaled) - impact_vitality(counts)) <= 1e-12


@given(window_counts)
def test_bounds(counts):
    value = impact_vitality(counts)
    assert 0.0 <= value <= iv_upper_bound(len(counts)) + 1e-12


@given(st.integers(min_value=2, max_value=30), st.integers(min_value=1, max_value=10**6))
def test_constant_counts_give_one(n, level):
    assert abs(impact_vitality([level] * n) - 1.0) <= 1e-12


@given(window_counts, st.data())
def test_moving_mass_newer_strictly_increases(counts, data):
    donors = [i for i, c in enumerate(counts) if c > 0 and i > 0]
    assume(donors)
    src = data.draw(st.sampled_from(donors))
    dst = data.draw(st.integers(min_value=0, max_value=src - 1))
    moved = list(counts)
    moved[src] -= 1
    moved[dst] += 1
    assert impact_vitality(moved) > impact_vitality(counts)


def test_reversal_swaps_growth_and_decline():
    # the canonical increasing/decreasing pair are reversals of each other
    assert impact_vitality([1, 2, 3, 4, 5]) == impact_vitality([5, 4, 3, 2, 1][::-1])


@given(window_counts)
def test_reversal_changes_monotone_sequences(counts):
    assume(sorted(counts) in (counts, counts[::-1]))  # monotone either way
    assume(counts != counts[::-1])
    assert impact_vitality(counts) != impact_vitality(counts[::-1])


@given(st.lists(st.integers(min_value=0, max_value=100), max_size=50))
def test_h_index_properties(citations):
    h = h_index(citations)
    assert 0 <= h <= len(citations)
    assert h == h_index(sorted(citations))
    assert sum(c >= h for c in citations) >= h
    if h < len(citations):
        assert sum(c >= h + 1 for c in citations) < h + 1


year_counts = st.dictionaries(
    st.integers(min_value=1980, max_value=2020),
    st.integers(min_value=0, max_value=10000),
    min_size=1,
    max_size=30,
)


@given(year_counts, st.integers(min_value=2, max_value=8))
def test_profile_consistent_with_direct_formula(counts_map, n):
    counts = YearlyCitingCounts(counts_map)
    first, last = min(counts_map), max(counts_map)
    profile = iv_profile(counts, MovingWindow(n), first, last)
    for pt in profile.points:
        window = [counts.get(y) for y in range(pt.observation_year, pt.observation_year - n, -1)]
        assert pt.value == impact_vitality(window)
        assert pt.zero_year_flag == (0 in window)


def _reference_iv(window):
    """The Impact Vitality formula in one loop, with an uncached harmonic
    number. Its float sums add left to right, as the kernel's do."""
    n = len(window)
    weighted = harmonic = 0.0
    for i, c in enumerate(window, start=1):
        weighted += c / i
        harmonic += 1.0 / i
    return (n * (weighted / sum(window)) - 1.0) / (harmonic - 1.0)


def _reference_profile(counts_map, spec, first, last):
    """iv_profile as first written: one dict lookup per window cell."""
    points = []
    for y_t in range(first, last + 1):
        if isinstance(spec, MovingWindow):
            n, start = spec.n, y_t - spec.n + 1
        else:
            n, start = y_t - spec.start_year + 1, spec.start_year
            if n < spec.min_length:
                continue
        window = [counts_map.get(y, 0) for y in range(y_t, start - 1, -1)]
        if sum(window) == 0:
            continue
        zero_year = any(c == 0 for c in window)
        points.append((y_t, n, _reference_iv(window).hex(), sum(window), zero_year))
    return points


sparse_counts = st.dictionaries(
    st.integers(min_value=1980, max_value=2020),
    st.one_of(
        st.just(0),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=2**53 - 1),
    ),
    max_size=25,
)
window_specs = st.one_of(
    st.builds(MovingWindow, st.integers(min_value=2, max_value=15)),
    st.builds(
        FixedStart,
        st.integers(min_value=1970, max_value=2025),
        st.integers(min_value=2, max_value=8),
    ),
)


@given(
    sparse_counts,
    window_specs,
    st.integers(min_value=1970, max_value=2030),
    st.integers(min_value=0, max_value=50),
)
def test_profile_is_bit_identical_to_reference_formula(counts_map, spec, first, span):
    """Ranges may begin before the window start or the first counted year,
    and sparse counts leave some windows with a zero total."""
    last = first + span
    assume(not isinstance(spec, FixedStart) or spec.start_year <= last)
    profile = iv_profile(YearlyCitingCounts(counts_map), spec, first, last)
    got = [
        (p.observation_year, p.window_length, p.value.hex(), p.total_citing, p.zero_year_flag)
        for p in profile.points
    ]
    assert got == _reference_profile(counts_map, spec, first, last)


@given(
    sparse_counts,
    window_specs,
    st.integers(min_value=1970, max_value=2030),
    st.integers(min_value=0, max_value=50),
)
def test_points_are_the_columns(counts_map, spec, first, span):
    """`points[i]` holds the i-th entry of each column, and the fields of
    the points give the profile back."""
    last = first + span
    assume(not isinstance(spec, FixedStart) or spec.start_year <= last)
    profile = iv_profile(YearlyCitingCounts(counts_map), spec, first, last)
    columns = (profile.observation_years, profile.window_lengths, profile.values,
               profile.totals_citing, profile.zero_year_flags)
    assert len(profile.points) == len(profile) and profile.points is profile.points
    for i, pt in enumerate(profile.points):
        assert [getattr(pt, f.name) for f in fields(pt)] == [column[i] for column in columns]
    rebuilt = IVProfile(
        *([getattr(pt, f.name) for pt in profile.points] for f in fields(IVPoint)), spec
    )
    assert rebuilt == profile


@functools.lru_cache(maxsize=None)
def _lcm_terms(n):
    """L = lcm(1..n) and the integers L // a for a = 1..n."""
    lcm = math.lcm(*range(1, n + 1))
    return lcm, [lcm // a for a in range(1, n + 1)]


def _exact_iv(window):
    """IV of a newest-first window, correctly rounded. With L = lcm(1..n),
    P = sum(c_a * L/a), T = sum(c_a) and Q = sum(L/a), all integers,
    IV = (n*P - L*T) / (T*(Q - L)), and int/int true division rounds
    correctly."""
    n = len(window)
    lcm, terms = _lcm_terms(n)
    weighted = sum(c * t for c, t in zip(window, terms))
    total = sum(window)
    return (n * weighted - lcm * total) / (total * (sum(terms) - lcm))


def _fraction_iv(window):
    """IV by the textbook formula in exact fractions."""
    n = len(window)
    weighted = sum(Fraction(c, a) for a, c in enumerate(window, start=1))
    harmonic_n = sum(Fraction(1, a) for a in range(1, n + 1))
    return float((n * weighted / sum(window) - 1) / (harmonic_n - 1))


def _close_to_exact(value, exact):
    """Within 32 epsilon, relative to the exact value once it exceeds 1. No
    bound in ulps can hold: IV can be 0."""
    return abs(value - exact) <= 32 * sys.float_info.epsilon * max(1.0, abs(exact))


# Windows up to 228 years, the span of [1800, 2027], with counts up to the
# largest exact float integer.
long_windows = st.integers(min_value=2, max_value=228).flatmap(
    lambda n: st.lists(st.integers(min_value=0, max_value=2**53 - 1), min_size=n, max_size=n)
).filter(lambda xs: sum(xs) > 0)


@settings(max_examples=300, deadline=None)
@given(long_windows)
@example([2**53 - 1] + [0] * 227)
@example([0] * 227 + [1])
@example([1] * 228)
def test_iv_is_within_32_epsilon_of_the_exact_rational(window):
    assert _close_to_exact(impact_vitality(window), _exact_iv(window))


def test_table5_profile_is_within_32_epsilon_of_the_exact_rational():
    checked = 0
    for counts_map in TABLE5_COUNTS.values():
        profile = iv_profile(YearlyCitingCounts(counts_map), FixedStart(1988, 4), 1988, 2007)
        for pt in profile.points:
            window = [counts_map[y] for y in range(pt.observation_year, 1987, -1)]
            assert _close_to_exact(pt.value, _exact_iv(window))
            checked += 1
    assert checked == 51


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**53 - 1), min_size=2, max_size=40)
       .filter(lambda xs: sum(xs) > 0))
def test_exact_iv_equals_the_fraction_formula(window):
    assert _exact_iv(window) == _fraction_iv(window)


@given(year_counts)
def test_fixed_start_profile_years_increase(counts_map):
    counts = YearlyCitingCounts(counts_map)
    first, last = min(counts_map), max(counts_map)
    profile = iv_profile(counts, FixedStart(first, 2), first, last)
    years = [p.observation_year for p in profile.points]
    assert years == sorted(set(years))


record_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1995, max_value=2010),  # year
        st.sets(st.sampled_from(["pA", "pB", "pC"]), min_size=1),
        st.booleans(),  # self-citing
    ),
    min_size=1,
    max_size=40,
)


def dataset_from_tuples(tuples):
    recs = [
        (
            f"c{i}",
            year,
            cited,
            [("smith", "ja")] if selfcite else [("jones", "k")],
        )
        for i, (year, cited, selfcite) in enumerate(tuples)
    ]
    return make_dataset(
        [("pA", 1994), ("pB", 1995), ("pC", 1996)], recs, target=make_target("smith", "ja")
    )


@given(record_strategy)
def test_filter_relaxation_is_monotone(tuples):
    ds = dataset_from_tuples(tuples)
    strict = FilterSet(exclude_self_citations=True, exclude_citing_only="pA")
    relaxed = FilterSet(exclude_self_citations=True)
    strict_counts = yearly_citing_counts(ds, strict)
    relaxed_counts = yearly_citing_counts(ds, relaxed)
    for year in set(strict_counts.counts) | set(relaxed_counts.counts):
        assert relaxed_counts.get(year) >= strict_counts.get(year)


@given(record_strategy, st.integers(min_value=1, max_value=3))
def test_counts_sum_to_survivors(tuples, id_pool):
    # Ids repeat once the records outnumber the pool, as they may in a dataset
    # that skipped validate_dataset; each record still counts once.
    ds = dataset_from_tuples(tuples)
    recs = [replace(r, id=f"c{i % id_pool}") for i, r in enumerate(ds.citing_records)]
    ds = replace(ds, citing_records=recs)
    fs = FilterSet(exclude_self_citations=True)
    assert yearly_citing_counts(ds, fs).total() == len(apply_filters(ds, fs))


@given(record_strategy, st.none() | st.integers(min_value=1990, max_value=1996))
def test_dataset_round_trip(tuples, career_start):
    ds = dataset_from_tuples(tuples)
    target = make_target("smith", "ja", career_start_year=career_start)
    ds = make_dataset(
        [(p.id, p.year, p.doc_type) for p in ds.publications],
        [
            (r.id, r.year, set(r.cited_target_pub_ids),
             [(a.surname, a.initials) for a in r.authors])
            for r in ds.citing_records
        ],
        target=target,
    )
    assert parse_dataset(emit_dataset(ds)) == ds


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    """The suite's warning filters let a failing property report its example
    instead of ending the run in an INTERNALERROR."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 10\n"
    )
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         str(tmp_path / "test_fails.py")],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
