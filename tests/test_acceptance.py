"""Acceptance gate: published-value reproduction, property suites, CLI run.

Each test prints one PASS line on success; run with `pytest -s` (or read the
captured output) to see the per-criterion report.
"""

import itertools
import math
import random
import time

import pytest

from impact_vitality import (
    CandidateProfile,
    FilterSet,
    FixedStart,
    YearlyCitingCounts,
    apply_filters,
    ar_index,
    cohort_summary,
    emit_counts,
    h_index,
    impact_vitality,
    iv_profile,
    iv_upper_bound,
)
from impact_vitality.cli import main

from conftest import SIMULATED_CASES, TABLE5_COUNTS, TABLE5_PRINTED_IV, make_dataset, make_target

RNG_SEED = 20090318


def report(criterion, description):
    print(f"ACCEPTANCE criterion {criterion}: PASS - {description}")


def random_window(rng):
    n = rng.randint(2, 30)
    while True:
        counts = [rng.randint(0, 10**6) for _ in range(n)]
        if sum(counts) > 0:
            return counts


def test_criterion_1_simulated_cases():
    impact_vitality([1, 1])  # warm-up outside the timed section
    start = time.perf_counter()
    results = {case: impact_vitality(counts) for case, (counts, _) in SIMULATED_CASES.items()}
    elapsed = time.perf_counter() - start
    for case, (counts, expected) in SIMULATED_CASES.items():
        assert round(results[case], 1) == expected, f"case {case}"
    assert abs(results["D"] - results["B"]) <= 1e-12  # multiplier invariance
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"
    report(1, "six simulated 5-year cases reproduce at 1 decimal, D == B to 1e-12, < 1 ms")


def test_criterion_2_worked_examples():
    assert round(impact_vitality([87, 77, 76, 82]), 2) == 1.04
    assert round(impact_vitality([120, 87, 77, 76, 82]), 2) == 1.20
    report(2, "published 1991 and 1992 worked examples match at 2 decimals")


def test_criterion_3_full_profile_reproduction():
    checked = 0
    start = time.perf_counter()
    profiles = {
        column: iv_profile(
            YearlyCitingCounts(TABLE5_COUNTS[column]), FixedStart(1988, 4), 1988, 2007
        )
        for column in TABLE5_COUNTS
    }
    elapsed = time.perf_counter() - start
    for column, profile in profiles.items():
        assert len(profile) == 17
        for pt in profile.points:
            printed = TABLE5_PRINTED_IV[column][pt.observation_year]
            assert abs(round(pt.value, 2) - printed) <= 0.005, (
                f"{column} {pt.observation_year}: {pt.value:.4f} vs {printed}"
            )
            checked += 1
    assert checked == 51
    assert elapsed < 10e-3, f"took {elapsed * 1e3:.3f} ms"
    report(3, "all 51 published profile values reproduce within ±0.005, < 10 ms")


def test_criterion_4_property_suite():
    rng = random.Random(RNG_SEED)
    cases = 1000

    for _ in range(cases):
        counts = random_window(rng)
        factor = rng.randint(1, 1000)
        assert abs(impact_vitality([factor * c for c in counts]) - impact_vitality(counts)) <= 1e-12

    for _ in range(cases):
        counts = random_window(rng)
        n = len(counts)
        assert 0.0 <= impact_vitality(counts) <= iv_upper_bound(n) + 1e-12
    for n in range(2, 31):
        k = 1 + n  # arbitrary positive mass
        assert impact_vitality([k] + [0] * (n - 1)) == pytest.approx(iv_upper_bound(n))
        assert impact_vitality([0] * (n - 1) + [k]) == pytest.approx(0.0)

    for _ in range(cases):
        n = rng.randint(2, 30)
        level = rng.randint(1, 10**6)
        assert abs(impact_vitality([level] * n) - 1.0) <= 1e-12

    moved_checked = 0
    while moved_checked < cases:
        counts = random_window(rng)
        donors = [i for i, c in enumerate(counts) if c > 0 and i > 0]
        if not donors:
            continue
        src = rng.choice(donors)
        dst = rng.randrange(src)
        shifted = list(counts)
        shifted[src] -= 1
        shifted[dst] += 1
        assert impact_vitality(shifted) > impact_vitality(counts)
        moved_checked += 1

    report(4, "1000-case suites: multiplier invariance, bounds with attained extremes, "
              "constancy, strict recency monotonicity")


def test_criterion_5_h_and_ar_oracles():
    def brute_force_h(citations):
        return max(
            (h for h in range(len(citations) + 1) if sum(c >= h for c in citations) >= h),
            default=0,
        )

    total = 0
    for size in range(0, 7):
        for combo in itertools.combinations_with_replacement(range(7), size):
            assert h_index(list(combo)) == brute_force_h(combo)
            total += 1

    rng = random.Random(RNG_SEED)
    for _ in range(1000):
        core = [(rng.randint(0, 500), rng.randint(1, 40)) for _ in range(rng.randint(0, 12))]
        direct = math.sqrt(sum(c / a for c, a in core))
        assert abs(ar_index(core) - direct) <= 1e-12

    report(5, f"h-index exhaustive over {total} multisets; AR-index matches direct "
              "summation on 1000 random h-cores")


def test_criterion_6_filter_semantics():
    rng = random.Random(RNG_SEED)
    target = make_target("smith", "ja")
    doc_types = ["article", "review", "letter"]

    for trial in range(30):
        n_records = rng.randint(1, 50)
        pubs = [("pA", 1994, "article"), ("pB", 1995, "review"), ("pC", 1996, "letter")]
        recs = []
        for i in range(n_records):
            cited = set(rng.sample(["pA", "pB", "pC"], rng.randint(1, 3)))
            authors = [("smith", "ja")] if rng.random() < 0.3 else [("jones", "k")]
            recs.append((f"c{i}", 2000 + i % 5, cited, authors, rng.choice(doc_types)))
        ds = make_dataset(pubs, recs, target=target)

        for exclude_self, citing_only in itertools.product([False, True], [None, "pA"]):
            fs = FilterSet(exclude_self_citations=exclude_self, exclude_citing_only=citing_only)
            expected = []
            for rec in ds.citing_records:
                if fs.exclude_self_citations and rec.authors & ds.target.name_variants:
                    continue
                if fs.exclude_citing_only and rec.cited_target_pub_ids == {fs.exclude_citing_only}:
                    continue
                expected.append(rec)
            assert apply_filters(ds, fs) == expected
        assert apply_filters(ds, FilterSet()) == list(ds.citing_records)

    report(6, "apply_filters matches brute-force predicates for all 4 combinations "
              "of the paper's two clauses (self-citations, citing only pA) on 30 "
              "generated datasets; the records carry random doc types, which no "
              "clause reads; empty filter is identity")


def test_criterion_7_cohort_discrimination():
    rng = random.Random(RNG_SEED)
    call_year = 2007

    def build_candidate(cid, selected, counts_map, start):
        counts = YearlyCitingCounts(counts_map)
        profile = iv_profile(counts, FixedStart(start, 4), start, call_year)
        return CandidateProfile(
            candidate_id=cid,
            selected=selected,
            call_year=call_year,
            career_start_year=start,
            profile=profile,
            yearly_counts=counts,
        )

    growers = []
    for i in range(8):
        base = rng.randint(10, 40)
        step = rng.randint(3, 8)
        counts = {1998 + j: base + step * j for j in range(10)}
        growers.append(build_candidate(f"g{i}", True, counts, 1998))
    mixed = []
    for i in range(17):
        base = rng.randint(5, 30)
        counts = {
            1998 + j: max(1, base + rng.randint(-base + 1, base) * (j % 2))
            for j in range(10)
        }
        mixed.append(build_candidate(f"m{i}", False, counts, 1998))

    summary = cohort_summary(growers + mixed)
    assert summary["selected"].group_size == 8
    assert summary["not_selected"].group_size == 17
    assert summary["selected"].share_all_above_one == 1.0
    assert (
        summary["selected"].fluctuation_range.mean
        < summary["not_selected"].fluctuation_range.mean
    )
    report(7, "synthetic 8-grower / 17-fluctuator cohort: growth group all above 1 "
              "and strictly lower mean fluctuation")


def test_criterion_8_cli_end_to_end(tmp_path, capsys):
    path = tmp_path / "table5.csv"
    path.write_text(emit_counts(YearlyCitingCounts(TABLE5_COUNTS["all"])))
    args = ["profile", "--counts", str(path), "--window", "fixed:1988:4", "--format", "csv"]

    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-deterministic

    lines = first.splitlines()
    assert lines[0] == "observation_year,window_length,iv_value,total_citing,zero_year_flag"
    assert len(lines) == 18
    for line in lines[1:]:
        year, _, value = line.split(",")[:3]
        assert float(value) == TABLE5_PRINTED_IV["all"][int(year)]
    report(8, "CLI profile over the published counts file is byte-deterministic and "
              "matches the 17 printed values")
