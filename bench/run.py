"""Seeded, closed-loop benchmark of the impact-vitality package.

Usage, from the root of a checkout:

    python3 bench/run.py --workload author_large --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

One caller runs one op at a time, and the next op starts only when the
previous one has returned. The op is a batch command on fixed inputs,
generated from the seed, so throughput is given at a stated input size.
`--trace 0` reports the end-to-end metrics; `--trace 1` runs traced and
untraced ops in turn and reports per-layer metrics from the traced ones.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--workload all` runs every
workload in a fresh process of its own and merges their results.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracles
import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
MIN_OPS = 5  # timed ops per run even when they outlast --seconds
MODULES = ("cli", "io", "model", "filters", "indicators", "cohort")


def load_package() -> dict:
    """Import the package afresh from the checkout's source tree."""
    for name in [m for m in sys.modules if m == "impact_vitality" or m.startswith("impact_vitality.")]:
        del sys.modules[name]
    mods = {"": importlib.import_module("impact_vitality")}
    for name in MODULES:
        mods[name] = importlib.import_module(f"impact_vitality.{name}")
    if Path(mods[""].__file__).resolve().parent != SRC / "impact_vitality":
        raise ImportError(f"impact_vitality imported from {mods[''].__file__}, not {SRC}")
    return mods


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class _DatasetWorkload:
    """A workload on one generated dataset file of 1,000 publications.

    Each workload class provides `generate` (timed as set-up), `expect`
    (the oracle's answers, untimed), `drop_truth`, `load` (timed as set-up;
    returns something to check, or None), `op` and `check`.
    """

    records: int

    def __init__(self, seed: int, work: Path):
        self.seed, self.path = seed, work / f"{self.name}.json"

    def generate(self) -> None:
        self.doc, self.self_ids = inputs.author_dataset(self.seed, 1000, self.records)
        self.text = inputs.dataset_text(self.doc)
        self.path.write_text(self.text, encoding="utf-8")

    def expect(self) -> None:
        self.items = len(self.doc["citing_records"])
        self.shape = inputs.dataset_shape(self.doc, self.text, self.self_ids)

    def drop_truth(self) -> None:
        del self.doc, self.self_ids, self.text

    def load(self, mods: dict):
        return None


class AuthorLarge(_DatasetWorkload):
    """One author, 1,000 publications, 25,000 citing records: the CLI's
    `profile` with both filters, then `indicators`, on the same file."""

    name = "author_large"
    records = 25000

    def expect(self) -> None:
        super().expect()
        self.expected = oracles.author_expected(self.doc, self.self_ids)

    def op(self, mods: dict):
        ds = str(self.path)
        return (
            run_cli(mods["cli"], ["profile", ds, "--filter", "self-citations",
                                  "--filter", "cites-only:most-cited", "--format", "json"]),
            run_cli(mods["cli"], ["indicators", ds, "--format", "json"]),
        )

    def check(self, result) -> list[str]:
        errors = [f"exit {code}: {err.strip()}" for code, _, err in result if code != 0 or err]
        return errors or oracles.check_author(self.expected, result[0][1], result[1][1])


class DatasetRoundtrip(_DatasetWorkload):
    """A parsed dataset of 1,000 publications and 20,000 records:
    `emit_dataset`, then `parse_dataset` of the emitted text."""

    name = "dataset_roundtrip"
    records = 20000

    def expect(self) -> None:
        super().expect()
        self.expected = oracles.canonical_document(self.doc)

    def load(self, mods: dict):
        self.ds = mods["io"].parse_dataset(self.path.read_text(encoding="utf-8"))
        return self.ds

    def op(self, mods: dict):
        text = mods["io"].emit_dataset(self.ds)
        return mods["io"].parse_dataset(text)

    def check(self, result) -> list[str]:
        return oracles.check_roundtrip(self.expected, oracles.canonical_dataset(result))


class CohortCounts:
    """2,000 candidates, each a year,count CSV of 30-60 years, anchored at a
    fixed start: the CLI's `cohort`."""

    name = "cohort_counts"

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def generate(self) -> None:
        self.cands = inputs.cohort(self.seed, 2000)
        self.manifest = inputs.write_cohort(self.cands, self.work / "cohort")

    def expect(self) -> None:
        self.items = len(self.cands)
        self.shape = inputs.cohort_shape(self.cands)
        self.expected = oracles.cohort_expected(self.cands)

    def drop_truth(self) -> None:
        del self.cands

    def load(self, mods: dict):
        return None

    def op(self, mods: dict):
        return run_cli(mods["cli"], ["cohort", str(self.manifest), "--format", "json"])

    def check(self, result) -> list[str]:
        code, out, err = result
        if code != 0 or err:
            return [f"exit {code}: {err.strip()}"]
        return oracles.check_cohort(self.expected, out)


WORKLOADS = {w.name: w for w in (AuthorLarge, CohortCounts, DatasetRoundtrip)}


class Runner:
    """Times and checks the ops of one workload in this process."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.errors: list[str] = []

    def prepare(self) -> float:
        """Generate and write the inputs and import the package: the part
        of a set-up before its warm-up op. Return the time taken. The
        oracle's expected answers are computed on the first call, outside
        the timed part."""
        start = time.perf_counter()
        self.w.generate()
        spent = time.perf_counter() - start
        if not hasattr(self.w, "expected"):
            self.w.expect()
        self.w.drop_truth()
        gc.collect()
        start = time.perf_counter()
        self.mods = load_package()
        loaded = self.w.load(self.mods)
        spent += time.perf_counter() - start
        if loaded is not None:
            self.attempted += 1
            self.errors += [f"initial parse: {e}" for e in self.w.check(loaded)[:1]]
        return spent

    def timed_op(self, mods: dict, fn=None) -> float:
        """Run, time and check one op; return its wall time."""
        gc.collect()
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = (fn or self.w.op)(mods)
        except Exception as exc:  # a crash is a failed op, not a failed run
            self.errors.append(f"op raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        errors = self.w.check(result)
        if errors:
            self.errors.append("; ".join(errors[:3]))
        return elapsed


def scaled(timings: list[float], refs: list[float]) -> list[float]:
    """Timings scaled to the reference machine speed; refs[i] and
    refs[i + 1] are the reference task's times just before and after
    timing i."""
    return [t * 2 * reference.REF_S / (a + b) for t, a, b in zip(timings, refs, refs[1:])]


def end_to_end(w, seconds: float) -> tuple[Runner, dict, dict]:
    runner = Runner(w)
    refs = [reference.reference_seconds()]
    parts: list[float] = []  # each set-up's preparation, then its warm-up op
    for _ in range(SETUP_REPS):
        parts.append(runner.prepare())
        refs.append(reference.reference_seconds())
        parts.append(runner.timed_op(runner.mods))
        refs.append(reference.reference_seconds())
    scaled_parts = scaled(parts, refs)
    setups = [a + b for a, b in zip(parts[::2], parts[1::2])]
    scaled_setups = [a + b for a, b in zip(scaled_parts[::2], scaled_parts[1::2])]
    refs = refs[-1:]
    walls: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(walls) < MIN_OPS:
        walls.append(runner.timed_op(runner.mods))
        refs.append(reference.reference_seconds())
    p50 = statistics.median(scaled(walls, refs))
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "wall_s.p50": (p50, "s"),
        "items_per_s": (w.items / p50, "items/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    q1, raw, q3 = statistics.quantiles(walls, n=4)
    notes = {
        "setup_s": f"median of {SETUP_REPS}; unscaled {statistics.median(setups):.3f} s",
        "wall_s.p50": f"{len(walls)} ops; unscaled median {raw:.3f} s, quartiles {q1:.3f} to "
                      f"{q3:.3f} s; reference task median {statistics.median(refs):.4f} s",
        "items_per_s": f"{w.items} items per op",
    }
    return runner, metrics, notes


def traced(w, seconds: float, out_dir: Path) -> tuple[Runner, dict, dict]:
    runner = Runner(w)
    runner.prepare()
    mods = runner.mods
    runner.timed_op(mods)  # warm-up
    tracer = tracing.Tracer()
    traced_op = tracer.spanned("op", w.op)
    plain: list[float] = []
    spanned: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(spanned) < 2:
        plain.append(runner.timed_op(mods))
        tracer.install(mods)
        try:
            spanned.append(runner.timed_op(mods, traced_op))
        finally:
            tracer.restore()
    left = tracing.leftover_wrappers(mods)
    if left:
        runner.errors.append(f"wrappers left installed: {', '.join(left)}")
    tracer.write(out_dir / f"trace-{w.name}-seed{w.seed}.jsonl")

    metrics = tracing.layer_metrics(tracer, len(spanned))
    shape = w.shape
    metrics["model.author_keys.distinct_ratio"] = (shape.get("distinct_name_ratio", 0.0), "ratio")
    metrics["model.author_keys.non_ascii_share"] = (shape.get("non_ascii_share", 0.0), "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(spanned) / statistics.median(plain), "ratio"
    )
    notes = {"op.total_s": f"{len(spanned)} traced and {len(plain)} untraced ops"}
    op_total = metrics["op.total_s"][0]
    for name, (value, unit) in metrics.items():
        if name.endswith("self_s") or name == "cli.main.total_s":
            notes[name] = f"{value / op_total:.1%} of op.total_s"
    return runner, metrics, notes


def report(w, runner: Runner, metrics: dict, notes: dict) -> dict:
    print(f"workload {w.name}, seed {w.seed}: closed loop, 1 caller, "
          f"{runner.attempted} ops (warm-ups included)")
    print("input " + json.dumps(w.shape, sort_keys=True))
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<{width}}  {value:.6g} {unit}{note}")
    failed = len(runner.errors)
    print(f"  {'fail_ratio':<{width}}  {failed / runner.attempted:.6g} ratio  "
          f"({failed} of {runner.attempted} ops)")
    for error in runner.errors[:5]:
        print(f"  failed: {error}")
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in a fresh process; metrics prefixed by workload name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "impact_vitality" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'impact_vitality'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        w = WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            runner, metrics, notes = traced(w, args.seconds, ROOT / ".bench_out")
        else:
            runner, metrics, notes = end_to_end(w, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    print(json.dumps(report(w, runner, metrics, notes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
