"""A fixed reference task that measures the machine's current speed.

On a virtual machine whose CPUs are shared with other tenants, speed can
drift by tens of percent within seconds. Timing this task beside each op
and dividing by it cancels much of that drift. The task never changes, and
it mixes the kinds of work the package does: dict lookups and float
arithmetic, JSON decoding, small-object allocation and sorting, and Unicode
normalization.
"""

from __future__ import annotations

import gc
import json
import time
import unicodedata

REF_S = 0.1  # reported times are scaled to a machine that runs the task in this many seconds

_DOC = json.dumps(
    [
        {
            "id": f"c{i:05d}",
            "year": 1950 + i % 70,
            "authors": [{"surname": f"Nú{i % 997}ñez", "initials": "J.A."}, {"surname": f"Lo{i % 89}"}],
            "cited": [f"p{i % 1000:04d}", f"p{i % 7:04d}"],
        }
        for i in range(6000)
    ],
    ensure_ascii=False,
)


def _fold(s: str) -> str:
    return "".join(ch for ch in unicodedata.normalize("NFKD", s) if not unicodedata.combining(ch))


def _task() -> float:
    acc = 0.0
    for k in range(20):
        counts = {1950 + i: (i * 7919 + k) % 113 for i in range(120)}
        for last in range(1950, 2070):
            for first in range(1950, last + 1):
                acc += counts.get(first, 0) / (last - first + 1)
    records = [
        (r["id"], r["year"], frozenset((_fold(a["surname"]), a.get("initials", "")) for a in r["authors"]),
         frozenset(r["cited"]))
        for r in json.loads(_DOC)
    ]
    records.sort(key=lambda r: (r[1], r[0]))
    return acc + len(records)


def reference_seconds() -> float:
    """Wall time of one run of the reference task.

    The cyclic GC is off while the task runs, so that its time does not
    depend on how many objects the package holds in the same process.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        _task()
        return time.perf_counter() - start
    finally:
        gc.enable()
