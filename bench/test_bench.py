"""Tests of the benchmark's generators, oracles and tracer.

Run from the root of a checkout with `python3 -m pytest -q bench`.
"""

import json
import sys
from pathlib import Path

import pytest

import inputs
import oracles
import run
import tracing

sys.path.insert(0, str(run.SRC))

# Published citing counts of one author (PhD 1988) under three filter
# regimes, and the printed 2-decimal IV values of the window growing from
# 1988 (Table 5 of the source paper).
TABLE5_COUNTS = {
    "all": [82, 76, 77, 87, 120, 126, 125, 164, 153, 188, 211, 306, 421, 406, 398, 402,
            373, 341, 355, 316],
    "excl_citing_only_top": [82, 76, 77, 87, 120, 126, 125, 164, 153, 188, 211, 291, 346,
                             332, 332, 344, 322, 299, 314, 285],
    "excl_self_citing": [82, 75, 76, 84, 116, 125, 121, 160, 149, 183, 201, 296, 416, 402,
                         395, 397, 363, 335, 351, 307],
}
TABLE5_PRINTED_IV = {  # observation years 1991..2007
    "all": [1.04, 1.20, 1.23, 1.21, 1.32, 1.29, 1.36, 1.42, 1.62, 1.84, 1.82, 1.76, 1.71,
            1.62, 1.52, 1.49, 1.40],
    "excl_citing_only_top": [1.04, 1.20, 1.23, 1.21, 1.32, 1.29, 1.36, 1.42, 1.59, 1.70,
                             1.67, 1.63, 1.61, 1.54, 1.46, 1.44, 1.37],
    "excl_self_citing": [1.03, 1.19, 1.23, 1.20, 1.31, 1.28, 1.36, 1.40, 1.61, 1.85, 1.83,
                         1.77, 1.72, 1.62, 1.53, 1.49, 1.40],
}
# Simulated 5-year windows, newest year first, with their 1-decimal values.
SIMULATED_CASES = [
    ([5, 5, 5, 5, 5], 1.0),
    ([5, 4, 3, 2, 1], 1.5),
    ([1, 2, 3, 4, 5], 0.5),
    ([10, 8, 6, 4, 2], 1.5),
    ([1, 2, 3, 2, 1], 0.8),
    ([3, 2, 1, 2, 3], 1.1),
]


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _write_inputs(seed: int, root: Path) -> dict[str, bytes]:
    doc, _ = inputs.author_dataset(seed, 60, 2000)
    root.mkdir()
    (root / "author.json").write_text(inputs.dataset_text(doc), encoding="utf-8")
    inputs.write_cohort(inputs.cohort(seed, 40), root / "cohort")
    return _files(root)


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    first = _write_inputs(7, tmp_path / "a")
    again = _write_inputs(7, tmp_path / "b")
    other = _write_inputs(8, tmp_path / "c")
    assert first == again
    assert first.keys() == other.keys()
    assert first["author.json"] != other["author.json"]
    assert first["cohort/manifest.csv"] != other["cohort/manifest.csv"]


def test_input_shapes_have_the_stated_properties():
    doc, self_ids = inputs.author_dataset(3, 1000, 25000)
    shape = inputs.dataset_shape(doc, inputs.dataset_text(doc), self_ids)
    assert shape["records"] == 25000 and shape["publications"] == 1000
    assert 0.25 < shape["non_ascii_share"] < 0.42
    assert 0.03 < shape["self_citation_share"] < 0.07
    assert shape["cites_only_top_share"] > 0.03
    assert shape["last_year"] - shape["first_year"] >= 40
    cands = inputs.cohort(3, 2000)
    shape = inputs.cohort_shape(cands)
    assert shape["min_years"] >= 30 and shape["max_years"] <= 60
    assert shape["zero_rows"] > 0 and shape["blank_career_start"] > 0


def test_iv_oracle_reproduces_table5_and_simulated_cases():
    checked = 0
    for column, counts in TABLE5_COUNTS.items():
        by_year = dict(zip(range(1988, 2008), counts))
        points = oracles.fixed_start_profile(by_year, 1988, 1988, 2007)
        assert [p["observation_year"] for p in points] == list(range(1991, 2008))
        for point, printed in zip(points, TABLE5_PRINTED_IV[column]):
            assert round(point["iv_value_raw"], 2) == printed
            checked += 1
    assert checked == 51
    for window, printed in SIMULATED_CASES:
        assert round(oracles.iv(window), 1) == printed


@pytest.fixture(scope="module")
def mods():
    return run.load_package()


@pytest.fixture
def author_case(tmp_path, mods):
    w = run.AuthorLarge(11, tmp_path)
    w.doc, w.self_ids = inputs.author_dataset(11, 80, 3000)
    w.text = inputs.dataset_text(w.doc)
    w.path.write_text(w.text, encoding="utf-8")
    w.expect()
    return w


def test_author_oracle_accepts_the_package_and_flags_perturbations(author_case, mods):
    w = author_case
    result = w.op(mods)
    assert w.check(result) == []
    (code, profile, err), indicators = result

    rows = json.loads(profile)
    rows[3]["iv_value_raw"] += 1e-6
    assert w.check(((code, json.dumps(rows), err), indicators))
    rows = json.loads(profile)
    rows[-1]["total_citing"] += 1
    assert w.check(((code, json.dumps(rows), err), indicators))
    ind = json.loads(indicators[1])
    ind["h_index"] += 1
    assert w.check(((code, profile, err), (0, json.dumps(ind), "")))
    assert w.check(((code, profile, "warning\n"), indicators))


def test_cohort_oracle_accepts_the_package_and_flags_perturbations(tmp_path, mods):
    cands = inputs.cohort(5, 60)
    manifest = inputs.write_cohort(cands, tmp_path)
    expected = oracles.cohort_expected(cands)
    code, out, err = run.run_cli(mods["cli"], ["cohort", str(manifest), "--format", "json"])
    assert (code, err) == (0, "")
    assert oracles.check_cohort(expected, out) == []
    for group, stat, field in (("selected", "min_iv", "mean"),
                               ("not_selected", "citing_per_year_last5", "max")):
        got = json.loads(out)
        got[group][stat][field] *= 1 + 1e-6
        assert oracles.check_cohort(expected, json.dumps(got))
    got = json.loads(out)
    got["selected"]["group_size"] += 1
    assert oracles.check_cohort(expected, json.dumps(got))


def test_roundtrip_oracle_accepts_the_package_and_flags_perturbations(mods):
    doc, _ = inputs.author_dataset(9, 40, 800)
    expected = oracles.canonical_document(doc)
    ds = mods["io"].parse_dataset(inputs.dataset_text(doc))
    again = mods["io"].parse_dataset(mods["io"].emit_dataset(ds))
    assert oracles.check_roundtrip(expected, oracles.canonical_dataset(again)) == []
    target, pubs, records = oracles.canonical_dataset(again)
    moved = list(records)
    moved[17] = (moved[17][0], moved[17][1] + 1, *moved[17][2:])
    assert oracles.check_roundtrip(expected, (target, pubs, tuple(moved)))


def test_tracer_counts_layers_and_restores_every_binding(author_case, mods):
    originals = {m: dict(vars(module)) for m, module in mods.items()}
    tracer = tracing.Tracer()
    tracer.install(mods)
    assert tracing.leftover_wrappers(mods)
    try:
        result = tracer.spanned("op", author_case.op)(mods)
    finally:
        tracer.restore()
    assert tracing.leftover_wrappers(mods) == []
    assert {m: dict(vars(module)) for m, module in mods.items()} == originals
    assert author_case.check(result) == []

    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["filters.apply_filters.calls"][0] == 4
    assert metrics["io.parse_dataset.calls"][0] == 2
    assert metrics["cli.main.total_s"][0] > 0
    assert metrics["indicators.iv_profile.window_cells"][0] > 0
    assert metrics["indicators.impact_vitality.calls"][0] == metrics["indicators.iv_profile.points"][0]
    selfs = tracer.self_times()
    assert sum(sum(v) for v in selfs.values()) == pytest.approx(sum(tracer.durations("op")))
