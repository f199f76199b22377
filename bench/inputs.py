"""Seeded input generators for the benchmark workloads.

Every generator takes the seed as an argument and draws from its own
`random.Random`, so one seed always gives byte-identical files. The package
sees only the files written here; the ground truth returned beside them
(which records are self-citations, each candidate's counts) is for the
oracles.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from oracles import normalize_key

END_YEAR = 2020  # newest citing year; below any clock's year bound

# Pool surnames are built from these syllables, none holding a "q", and every
# target surname holds one, so no pool author can match the target by chance.
SYLLABLES = (
    "ka lo mi ser tan ber gon ri zel an do vu hel mar tin son ne pe ra sto wi li "
    "chen wang yo ko fer ti nu bal"
).split()
ACCENTED = {
    "a": "áäå", "o": "öóø", "u": "üú", "e": "éë", "i": "í", "n": "ñ", "c": "ç", "l": "ł",
}
TARGETS = ("Quirós", "Vázquez", "Marqués", "Ljungqvist", "Quintão", "Sánchez-Quiñones")
# Surface forms of the target in self-citing records; each normalizes to a
# declared variant (initials "ja" or "j").
TARGET_INITIALS = ("J.A.", "J. A.", "ja", "J", "j.")
DOC_TYPES = ("article", "article", "article", "review", "proceedings")


def _pool_name(rng: random.Random, accented: bool) -> dict:
    surname = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 3)))
    if accented:
        spots = [i for i, ch in enumerate(surname) if ch in ACCENTED]
        i = rng.choice(spots)
        surname = surname[:i] + rng.choice(ACCENTED[surname[i]]) + surname[i + 1:]
    letters = [chr(rng.randint(65, 90)) for _ in range(rng.randint(1, 2))]
    initials = rng.choice(("".join(letters), ".".join(letters) + ".", " ".join(letters)))
    return {"surname": surname.capitalize(), "initials": initials}


def _zipf_cum_weights(ranks, alpha: float) -> list[float]:
    """Cumulative Zipf weights of items with the given popularity ranks."""
    cum, acc = [], 0.0
    for r in ranks:
        acc += r ** -alpha
        cum.append(acc)
    return cum


def author_dataset(seed: int, n_pubs: int, n_records: int) -> tuple[dict, set[str]]:
    """One target author's dataset and the ids of its self-citing records.

    Records have 1-6 authors from a recurring, popularity-skewed pool with
    about a third of the names non-ASCII; about 5% are self-citations.
    Publications are cited with Zipf-skewed popularity, so the most-cited
    one is cited alone by a sizeable share of records.
    """
    rng = random.Random(seed)
    surname = rng.choice(TARGETS)
    start = rng.randint(1972, 1976)
    target = {
        "key": {"surname": surname, "initials": "J.A."},
        "name_variants": [{"surname": surname.upper(), "initials": "J."}],
        "career_start_year": start,
    }
    pubs = []
    for i in range(n_pubs):
        pub = {
            "id": f"p{i:04d}",
            "year": start + int(rng.random() ** 0.8 * (END_YEAR - 2 - start)),
            "doc_type": rng.choice(DOC_TYPES),
        }
        if rng.random() < 0.05:
            pub["label"] = f"Paper {i}"
        pubs.append(pub)

    # The pool is in popularity order and every third name is accented, so
    # the non-ASCII share of author objects is about a third for every seed.
    pool = [_pool_name(rng, i % 3 == 1) for i in range(max(200, n_records // 5))]
    pool_cum = _zipf_cum_weights(range(1, len(pool) + 1), 0.9)
    pub_ranks = list(range(1, n_pubs + 1))
    rng.shuffle(pub_ranks)
    pub_cum = _zipf_cum_weights(pub_ranks, 1.1)

    records, self_ids = [], set()
    for i in range(n_records):
        k = rng.choices((1, 2, 3), weights=(60, 28, 12))[0]
        cited = sorted({p["id"] for p in rng.choices(pubs, cum_weights=pub_cum, k=k)})
        base = max(pubs[int(pid[1:])]["year"] for pid in cited)
        year = min(END_YEAR, base + int(rng.expovariate(1 / 6)))
        authors = [dict(a) for a in rng.choices(pool, cum_weights=pool_cum, k=rng.randint(1, 6))]
        rec_id = f"c{i:05d}"
        if rng.random() < 0.05:
            spelled = rng.choice((surname, surname.upper(), surname.lower(), f" {surname} "))
            authors[rng.randrange(len(authors))] = {
                "surname": spelled,
                "initials": rng.choice(TARGET_INITIALS),
            }
            self_ids.add(rec_id)
        records.append(
            {
                "id": rec_id,
                "year": year,
                "authors": authors,
                "cited_target_pub_ids": cited,
                "doc_type": rng.choice(DOC_TYPES),
            }
        )
    doc = {
        "schema_version": 1,
        "target": target,
        "publications": pubs,
        "citing_records": records,
    }
    return doc, self_ids


def dataset_text(doc: dict) -> str:
    """Compact JSON with non-ASCII kept as UTF-8."""
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":"))


def dataset_shape(doc: dict, text: str, self_ids: set[str]) -> dict:
    """Sizes the package's cost depends on, for quoting in later changes."""
    records = doc["citing_records"]
    authors = [a for r in records for a in r["authors"]]
    keys = {normalize_key(a["surname"], a["initials"]) for a in authors}
    per_pub: dict[str, int] = {}
    for r in records:
        for pid in r["cited_target_pub_ids"]:
            per_pub[pid] = per_pub.get(pid, 0) + 1
    top = min(doc["publications"], key=lambda p: (-per_pub.get(p["id"], 0), p["year"], p["id"]))
    only_top = sum(r["cited_target_pub_ids"] == [top["id"]] for r in records)
    years = [r["year"] for r in records]
    return {
        "bytes": len(text.encode("utf-8")),
        "publications": len(doc["publications"]),
        "records": len(records),
        "author_objects": len(authors),
        "distinct_name_ratio": len(keys) / len(authors),
        "non_ascii_share": sum(not (a["surname"] + a["initials"]).isascii() for a in authors)
        / len(authors),
        "first_year": min(years),
        "last_year": max(years),
        "self_citation_share": len(self_ids) / len(records),
        "cites_only_top_share": only_top / len(records),
    }


def cohort(seed: int, n: int) -> list[dict]:
    """Candidates with yearly counts over 30-60 years and a fixed-start anchor.

    A fifth are sparse: leading zero years give zero-total windows (skipped)
    and scattered zero years give flagged points. Some anchors lie before
    the first counted year, and some are blank (anchored at the first year).
    """
    rng = random.Random(seed)
    cands = []
    for i in range(n):
        span = rng.randint(30, 60)
        call = END_YEAR - rng.randint(0, 5)
        first = call - span + 1
        kind = rng.choices(("growing", "fluctuating", "sparse"), weights=(3, 5, 2))[0]
        counts = {}
        if kind == "growing":
            base, step = rng.randint(1, 40), rng.uniform(0.5, 8)
            for j in range(span):
                counts[first + j] = max(0, int(base + step * j + rng.gauss(0, 3)))
        elif kind == "fluctuating":
            level = rng.randint(5, 80)
            for j in range(span):
                counts[first + j] = max(0, int(level * rng.uniform(0.3, 1.7)))
        else:
            lead = rng.randint(4, 12)
            for j in range(span):
                counts[first + j] = 0 if j < lead else rng.choice((0, 0, 1, 2, 3))
            counts[call] = rng.randint(1, 3)
        r = rng.random()
        start = first if r < 0.7 else first - rng.randint(1, 3) if r < 0.85 else None
        cands.append(
            {
                "candidate_id": f"cand{i:04d}",
                "selected": rng.random() < 0.3,
                "call_year": call,
                "career_start_year": start,
                "counts": counts,
                "path": f"counts/cand{i:04d}.csv",
            }
        )
    return cands


def write_cohort(cands: list[dict], root: Path) -> Path:
    """Write each candidate's counts CSV and the manifest; return its path."""
    (root / "counts").mkdir(parents=True, exist_ok=True)
    lines = ["candidate_id,selected,call_year,career_start_year,path"]
    for c in cands:
        rows = ["year,count"] + [f"{y},{n}" for y, n in sorted(c["counts"].items())]
        (root / c["path"]).write_text("\n".join(rows) + "\n", encoding="utf-8")
        start = "" if c["career_start_year"] is None else str(c["career_start_year"])
        lines.append(
            f"{c['candidate_id']},{str(c['selected']).lower()},{c['call_year']},{start},{c['path']}"
        )
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def cohort_shape(cands: list[dict]) -> dict:
    spans = [len(c["counts"]) for c in cands]
    return {
        "candidates": len(cands),
        "selected": sum(c["selected"] for c in cands),
        "year_rows": sum(spans),
        "min_years": min(spans),
        "max_years": max(spans),
        "zero_rows": sum(v == 0 for c in cands for v in c["counts"].values()),
        "blank_career_start": sum(c["career_start_year"] is None for c in cands),
    }
