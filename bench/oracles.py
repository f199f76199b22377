"""Reference answers for the benchmark, written apart from the package.

Nothing here imports `impact_vitality`. Each workload's expected output is
derived from the generator's ground truth (which records are
self-citations, which publications each record cites, the yearly counts of
each candidate) and from the definition of the indicators, so a wrong answer
from the package cannot also be the expected answer.
"""

from __future__ import annotations

import json
import math
import unicodedata
from statistics import fmean

MIN_WINDOW = 4  # growing windows shorter than this carry no IV value
FLUCTUATION_SPAN = 5  # observation years counted back from the call, inclusive
IV_TOL = 1e-9  # absolute tolerance on full-precision IV values
REL_TOL = 1e-9  # relative tolerance on cohort statistics


# -- definitions --------------------------------------------------------------


def normalize_key(surname: str, initials: str) -> tuple[str, str]:
    """Author matching key: NFKD with combining marks dropped, lowercased;
    surrounding whitespace stripped from the surname, periods and spaces
    removed from the initials."""

    def fold(s: str) -> str:
        return "".join(
            ch for ch in unicodedata.normalize("NFKD", s) if not unicodedata.combining(ch)
        ).lower()

    return fold(surname).strip(), fold(initials).replace(".", "").replace(" ", "")


def iv(window: list[int]) -> float:
    """Impact Vitality of a window of yearly citing counts, newest year first.

    The year of age i carries weight 1/i. The age-weighted share of the
    citing mass is scaled so that a constant yearly volume gives exactly 1
    and mass entirely in the oldest year gives 0.
    """
    n = len(window)
    total = sum(window)
    weighted = math.fsum(c / age for age, c in enumerate(window, start=1))
    harmonic = math.fsum(1.0 / age for age in range(1, n + 1))
    return (n * weighted / total - 1.0) / (harmonic - 1.0)


def fixed_start_profile(counts: dict[int, int], start: int, first: int, last: int) -> list[dict]:
    """IV points of a window growing from `start`, for observation years
    first..last. Windows shorter than MIN_WINDOW and zero-total windows have
    no point; a window holding a zero year is flagged."""
    points = []
    for year in range(first, last + 1):
        n = year - start + 1
        if n < MIN_WINDOW:
            continue
        window = [counts.get(y, 0) for y in range(year, start - 1, -1)]
        total = sum(window)
        if total == 0:
            continue
        points.append(
            {
                "observation_year": year,
                "window_length": n,
                "iv_value_raw": iv(window),
                "total_citing": total,
                "zero_year_flag": 0 in window,
            }
        )
    return points


def h_index_brute_force(citations: list[int]) -> int:
    """Largest h such that at least h of the values are >= h, by trying every h."""
    return max(h for h in range(len(citations) + 1) if sum(c >= h for c in citations) >= h)


# -- author_large -------------------------------------------------------------


def author_expected(doc: dict, self_ids: set[str]) -> dict:
    """Expected `profile` (self-citations and cites-only:most-cited removed)
    and `indicators` (no filter) results for a generated dataset."""
    pubs = doc["publications"]
    records = doc["citing_records"]
    per_pub = {p["id"]: 0 for p in pubs}
    for r in records:
        for pid in set(r["cited_target_pub_ids"]):
            per_pub[pid] += 1
    top = min(pubs, key=lambda p: (-per_pub[p["id"]], p["year"], p["id"]))["id"]

    def yearly(keep) -> dict[int, int]:
        counts: dict[int, int] = {}
        for r in records:
            if keep(r):
                counts[r["year"]] = counts.get(r["year"], 0) + 1
        return counts

    filtered = yearly(
        lambda r: r["id"] not in self_ids and set(r["cited_target_pub_ids"]) != {top}
    )
    unfiltered = yearly(lambda r: True)
    start = doc["target"]["career_start_year"]

    profile = fixed_start_profile(filtered, start, min(min(filtered), start), max(filtered))
    year = max(unfiltered)
    latest = fixed_start_profile(unfiltered, start, min(min(unfiltered), start), year)[-1]
    # total_citing of a window growing from `start` is the running sum of
    # the yearly counts, so matching it checks each surviving year's count.
    return {
        "profile_rows": list(reversed(profile)),
        "observation_year": year,
        "h_index": h_index_brute_force(list(per_pub.values())),
        "latest": latest,
    }


def check_author(expected: dict, profile_out: str, indicators_out: str) -> list[str]:
    """Mismatches between the CLI's JSON outputs and the expected results."""
    errors: list[str] = []
    try:
        rows = json.loads(profile_out)
        ind = json.loads(indicators_out)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    want_rows = expected["profile_rows"]
    if len(rows) != len(want_rows):
        errors.append(f"profile has {len(rows)} rows, expected {len(want_rows)}")
    for got, want in zip(rows, want_rows):
        year = want["observation_year"]
        for key in ("observation_year", "window_length", "total_citing", "zero_year_flag"):
            if got.get(key) != want[key]:
                errors.append(f"profile {year} {key}: {got.get(key)!r} != {want[key]!r}")
        raw = got.get("iv_value_raw")
        if not isinstance(raw, float) or abs(raw - want["iv_value_raw"]) > IV_TOL:
            errors.append(f"profile {year} iv_value_raw: {raw!r} != {want['iv_value_raw']!r}")
        shown = got.get("iv_value")
        if not isinstance(shown, (int, float)) or abs(shown - want["iv_value_raw"]) > 0.005 + IV_TOL:
            errors.append(f"profile {year} iv_value: {shown!r} vs {want['iv_value_raw']!r}")

    if ind.get("observation_year") != expected["observation_year"]:
        errors.append(f"indicators observation_year: {ind.get('observation_year')!r}")
    if ind.get("h_index") != expected["h_index"]:
        errors.append(f"h_index: {ind.get('h_index')!r} != {expected['h_index']}")
    point = ind.get("impact_vitality") or {}
    latest = expected["latest"]
    for key in ("observation_year", "window_length", "total_citing", "zero_year_flag"):
        if point.get(key) != latest[key]:
            errors.append(f"indicators impact_vitality {key}: {point.get(key)!r} != {latest[key]!r}")
    raw = point.get("value_raw")
    if not isinstance(raw, float) or abs(raw - latest["iv_value_raw"]) > IV_TOL:
        errors.append(f"indicators value_raw: {raw!r} != {latest['iv_value_raw']!r}")
    return errors


# -- cohort_counts ------------------------------------------------------------


def _range(values: list[float]):
    return {"min": min(values), "max": max(values), "mean": fmean(values)} if values else None


def _group(cands: list[dict]) -> dict:
    if not cands:
        return {
            "group_size": 0,
            "min_iv": None,
            "share_all_above_one": None,
            "fluctuation_last5": None,
            "citing_per_year_last5": None,
            "citing_per_year_since_start": None,
        }
    minima, above, fluct, last5, since = [], [], [], [], []
    for c in cands:
        counts, call = c["counts"], c["call_year"]
        start = c["career_start_year"]
        anchor = start if start is not None else min(counts)
        values = {
            p["observation_year"]: p["iv_value_raw"]
            for p in fixed_start_profile(counts, anchor, anchor, call)
        }
        minima.append(min(values.values()))
        # A value within IV_TOL of 1 may fall on either side in floating
        # point, so such a candidate may count either way.
        above.append(
            (all(v > 1.0 + IV_TOL for v in values.values()), all(v > 1.0 - IV_TOL for v in values.values()))
        )
        span = [values[y] for y in range(call - FLUCTUATION_SPAN + 1, call + 1) if y in values]
        if len(span) == FLUCTUATION_SPAN:
            fluct.append(max(span) - min(span))
        last5.append(fmean(counts.get(y, 0) for y in range(call - 4, call + 1)))
        if start is not None:
            since.append(fmean(counts.get(y, 0) for y in range(start, call + 1)))
    return {
        "group_size": len(cands),
        "min_iv": _range(minima),
        "share_all_above_one": (
            sum(sure for sure, _ in above) / len(cands),
            sum(maybe for _, maybe in above) / len(cands),
        ),
        "fluctuation_last5": _range(fluct),
        "citing_per_year_last5": _range(last5),
        "citing_per_year_since_start": _range(since),
    }


def cohort_expected(candidates: list[dict]) -> dict:
    """Expected `cohort --format json` result, recomputed from the counts."""
    return {
        "selected": _group([c for c in candidates if c["selected"]]),
        "not_selected": _group([c for c in candidates if not c["selected"]]),
    }


def _close(got, want, path: str, errors: list[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            errors.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}")
            return
        for key in want:
            _close(got[key], want[key], f"{path}.{key}", errors)
    elif isinstance(want, tuple):
        low, high = want
        if not isinstance(got, (int, float)) or not low - 1e-12 <= got <= high + 1e-12:
            errors.append(f"{path}: {got!r} outside [{low!r}, {high!r}]")
    elif want is None or isinstance(want, int):
        if got != want:
            errors.append(f"{path}: {got!r} != {want!r}")
    elif not isinstance(got, (int, float)) or not math.isclose(
        got, want, rel_tol=REL_TOL, abs_tol=1e-12
    ):
        errors.append(f"{path}: {got!r} != {want!r}")


def check_cohort(expected: dict, out: str) -> list[str]:
    """Mismatches between `cohort --format json` output and the expected stats."""
    try:
        got = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    errors: list[str] = []
    _close(got, expected, "cohort", errors)
    return errors


# -- dataset_roundtrip --------------------------------------------------------


def canonical_dataset(ds) -> tuple:
    """A dataset object as plain nested tuples, read attribute by attribute."""
    t = ds.target
    return (
        (
            (t.key.surname, t.key.initials),
            tuple(sorted((k.surname, k.initials) for k in t.name_variants)),
            t.career_start_year,
            t.first_citation_year,
        ),
        tuple((p.id, p.year, p.doc_type, p.label) for p in ds.publications),
        tuple(
            (
                r.id,
                r.year,
                tuple(sorted((a.surname, a.initials) for a in r.authors)),
                tuple(sorted(r.cited_target_pub_ids)),
                r.doc_type,
            )
            for r in ds.citing_records
        ),
    )


def canonical_document(doc: dict) -> tuple:
    """What `canonical_dataset` must give for a dataset parsed from `doc`."""
    t = doc["target"]

    def key(a: dict) -> tuple[str, str]:
        return normalize_key(a["surname"], a.get("initials", ""))

    records = doc["citing_records"]
    first_citation = t.get("first_citation_year")
    if first_citation is None and records:
        first_citation = min(r["year"] for r in records)
    return (
        (
            key(t["key"]),
            tuple(sorted({key(v) for v in t.get("name_variants", [])} | {key(t["key"])})),
            t.get("career_start_year"),
            first_citation,
        ),
        tuple(
            (p["id"], p["year"], p.get("doc_type", "article"), p.get("label"))
            for p in doc["publications"]
        ),
        tuple(
            (
                r["id"],
                r["year"],
                tuple(sorted({key(a) for a in r.get("authors", [])})),
                tuple(sorted(set(r["cited_target_pub_ids"]))),
                r.get("doc_type", "article"),
            )
            for r in records
        ),
    )


def check_roundtrip(expected: tuple, got: tuple) -> list[str]:
    """Structural differences between two canonical datasets."""
    if got == expected:
        return []
    names = ("target", "publications", "citing_records")
    for name, g, w in zip(names, got, expected):
        if g != w:
            if name == "target" or len(g) != len(w):
                return [f"{name} differs"]
            i = next(i for i, (a, b) in enumerate(zip(g, w)) if a != b)
            return [f"{name}[{i}]: {g[i]!r} != {w[i]!r}"]
    return ["datasets differ"]
