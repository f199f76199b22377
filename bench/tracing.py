"""Spans and counters around the package's layer boundaries.

`Tracer.install` replaces each traced function at every place a caller looks
it up: the defining module's attribute, every `from ... import` binding in
the package's other modules, and the package's own re-export. Functions the
package calls once per point or per name are counted, not spanned, to keep
the overhead low. `Tracer.restore` puts every original back.

A span records its name, start, end and parent. A layer's self time is its
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _after_parse(t: "Tracer", args, result) -> None:
    t.add("io.parse_dataset.bytes_in", len(args[0].encode("utf-8")))


def _after_emit(t: "Tracer", args, result) -> None:
    t.add("io.emit_dataset.bytes_out", len(result.encode("utf-8")))


def _after_filters(t: "Tracer", args, result) -> None:
    t.add("filters.apply_filters.records_in", len(args[0].citing_records))
    t.add("filters.apply_filters.records_out", len(result))


def _after_profile(t: "Tracer", args, result) -> None:
    t.add("indicators.iv_profile.points", len(result.points))
    t.add("indicators.iv_profile.window_cells", sum(p.window_length for p in result.points))


# (module, function, span name, hook run after the call returns)
SPANNED = (
    ("cli", "main", "cli.main", None),
    ("io", "parse_dataset", "io.parse_dataset", _after_parse),
    ("io", "emit_dataset", "io.emit_dataset", _after_emit),
    ("io", "parse_counts", "io.parse_counts", None),
    ("io", "parse_manifest", "io.parse_manifest", None),
    ("io", "emit_report", "io.emit_report", None),
    ("model", "validate_dataset", "model.validate_dataset", None),
    ("model", "yearly_citing_counts", "model.yearly_citing_counts", None),
    ("model", "citation_counts_per_publication", "model.citation_counts_per_publication", None),
    ("filters", "apply_filters", "filters.apply_filters", _after_filters),
    ("filters", "most_cited_publication", "filters.most_cited_publication", None),
    ("indicators", "iv_profile", "indicators.iv_profile", _after_profile),
    ("indicators", "h_index", "indicators.h_ar", None),
    ("indicators", "select_h_core", "indicators.h_ar", None),
    ("indicators", "ar_index", "indicators.h_ar", None),
    ("cohort", "cohort_summary", "cohort.cohort_summary", None),
)
COUNTED = (
    ("indicators", "impact_vitality", "indicators.impact_vitality.calls"),
    ("model", "AuthorKey", "io.parse_dataset.author_keys"),
)


class _JsonProxy:
    """Stands in for the `json` module inside `impact_vitality.io`, so that
    decoding and encoding there get spans of their own."""

    def __init__(self, tracer: "Tracer", real):
        self._real = real
        self.loads = tracer.spanned("io.json_decode", real.loads)
        self.dumps = tracer.spanned("io.json_encode", real.dumps)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self._stack: list[int] = []
        self.totals: dict[str, float] = defaultdict(float)
        self._patched: list = []  # (module, attribute, original)

    def add(self, name: str, amount: float = 1) -> None:
        self.totals[name] += amount

    def spanned(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent)
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        wrapper.bench_original = fn
        return wrapper

    def counted(self, name: str, fn):
        totals = self.totals

        def wrapper(*args, **kwargs):
            totals[name] += 1
            return fn(*args, **kwargs)

        wrapper.bench_original = fn
        return wrapper

    def _replace_everywhere(self, modules: dict, original, wrapper) -> None:
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self, modules: dict) -> None:
        """Wrap the traced functions in `modules` (short name -> module;
        "" names the package itself)."""
        for mod, fn, name, after in SPANNED:
            original = getattr(modules[mod], fn)
            self._replace_everywhere(modules, original, self.spanned(name, original, after))
        for mod, fn, name in COUNTED:
            original = getattr(modules[mod], fn)
            self._replace_everywhere(modules, original, self.counted(name, original))
        io_module = modules["io"]
        self._patched.append((io_module, "json", io_module.json))
        io_module.json = _JsonProxy(self, io_module.json)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, the self time of each span."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name].append(end - start - child)
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                f.write("\n")


def leftover_wrappers(modules: dict) -> list[str]:
    """Bindings in `modules` that still hold a tracing wrapper."""
    return [
        f"{mod}.{attr}"
        for mod, module in modules.items()
        for attr, value in vars(module).items()
        if hasattr(value, "bench_original") or isinstance(value, _JsonProxy)
    ]


PER_OP_SPANS = (
    "io.parse_dataset",
    "io.emit_dataset",
    "io.parse_counts",
    "model.validate_dataset",
    "model.yearly_citing_counts",
    "model.citation_counts_per_publication",
    "filters.apply_filters",
    "filters.most_cited_publication",
    "indicators.iv_profile",
    "io.emit_report",
)
SELF_ONLY = (
    "io.json_decode",
    "io.json_encode",
    "io.parse_manifest",
    "cohort.cohort_summary",
    "indicators.h_ar",
)
COUNTS = (
    "io.parse_dataset.bytes_in",
    "io.parse_dataset.author_keys",
    "io.emit_dataset.bytes_out",
    "filters.apply_filters.records_in",
    "filters.apply_filters.records_out",
    "indicators.iv_profile.points",
    "indicators.iv_profile.window_cells",
    "indicators.impact_vitality.calls",
)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit), each a mean per traced op, except
    ratios and the iv_profile tail, which are over all calls."""
    selfs = tracer.self_times()
    out: dict[str, tuple[float, str]] = {}
    for name in PER_OP_SPANS:
        out[f"{name}.calls"] = (len(selfs.get(name, ())) / ops, "count")
        out[f"{name}.self_s"] = (sum(selfs.get(name, ())) / ops, "s")
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = (sum(selfs.get(name, ())) / ops, "s")
    for name in COUNTS:
        unit = "bytes" if "bytes" in name else "count"
        out[name] = (tracer.totals.get(name, 0) / ops, unit)

    records_in = tracer.totals.get("filters.apply_filters.records_in", 0)
    out["filters.apply_filters.pass_ratio"] = (
        tracer.totals.get("filters.apply_filters.records_out", 0) / records_in if records_in else 0.0,
        "ratio",
    )
    profile_times = tracer.durations("indicators.iv_profile")
    out["indicators.iv_profile.p99_s"] = (
        statistics.quantiles(profile_times, n=100)[98] if len(profile_times) >= 2 else 0.0,
        "s",
    )
    cells = tracer.totals.get("indicators.iv_profile.window_cells", 0)
    out["indicators.iv_profile.ns_per_cell"] = (
        sum(selfs.get("indicators.iv_profile", ())) / cells * 1e9 if cells else 0.0,
        "ns",
    )
    out["cli.main.total_s"] = (sum(tracer.durations("cli.main")) / ops, "s")
    out["cli.main.self_s"] = (sum(selfs.get("cli.main", ())) / ops, "s")
    out["op.total_s"] = (sum(tracer.durations("op")) / ops, "s")
    return out
