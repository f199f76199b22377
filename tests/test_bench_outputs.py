"""The bytes of the benchmark's outputs on its seed-1 inputs.

The inputs come from bench/inputs.py, whose `END_YEAR` is fixed, so they do
not depend on the date. Each output is pinned by its SHA-256: the three CLI
commands the benchmark runs, the cohort under one, two and three shares,
and the text `emit_dataset` writes of the parsed `dataset_roundtrip` dataset.
"""

import hashlib

from impact_vitality import cli, emit_dataset, parse_dataset

from conftest import run_main
from test_io import _bench, bench_text

# Taken at b58f4b2; the outputs are 7,545, 264, 1,191 and 9,051,781 bytes.
DIGESTS = {
    "profile": "68be26eacfbe42c2ab551ae465bbe3075ead19bc56ab41190129adbbb33dffa8",
    "indicators": "285e7e8a7d1e4a31a2f2f3925147ad7bb538dbf258f2dfcbaca0b5bb70361c34",
    "cohort": "a809c9c9d1c7dd8dd312cf6a13cf8d00407f59c4b8635531dd914abe8c60fbdd",
    "dataset": "89a665792760eb34a8463c047f6bbe58b3701b4eb333e8634c7838033678ffb7",
}


def _changed(outputs: dict) -> list:
    """The names of the `outputs` (name -> bytes) whose digest is not the
    pinned one; a name of the form "cohort@2" is held to "cohort"."""
    return [name for name, data in outputs.items()
            if hashlib.sha256(data).hexdigest() != DIGESTS[name.partition("@")[0]]]


def test_bench_outputs_keep_their_bytes(tmp_path, monkeypatch):
    inputs = _bench("inputs")
    doc, _ = inputs.author_dataset(1, 1000, 25000)  # author_large
    path = tmp_path / "author_large.json"
    path.write_text(inputs.dataset_text(doc), encoding="utf-8")
    runs = {
        "profile": run_main(["profile", str(path), "--filter", "self-citations",
                             "--filter", "cites-only:most-cited", "--format", "json"]),
        "indicators": run_main(["indicators", str(path), "--format", "json"]),
    }
    manifest = inputs.write_cohort(inputs.cohort(1, 2000), tmp_path / "cohort")
    for shares in (1, 2, 3):
        monkeypatch.setattr(cli, "_worker_count", lambda candidates: shares)
        runs[f"cohort@{shares}"] = run_main(["cohort", str(manifest), "--format", "json"])
    assert {name: (run.status, run.err) for name, run in runs.items()} == {
        name: (0, "") for name in runs}

    outputs = {name: run.out.encode("utf-8") for name, run in runs.items()}
    text = bench_text(1, 20000)  # dataset_roundtrip
    outputs["dataset"] = emit_dataset(parse_dataset(text)).encode("utf-8")
    assert _changed(outputs) == []

    # one flipped byte in any output is named
    flipped = {name: data[:-1] + bytes([data[-1] ^ 1]) for name, data in outputs.items()}
    assert _changed(flipped) == list(outputs)
