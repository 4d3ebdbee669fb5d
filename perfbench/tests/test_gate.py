import json
import math
import shutil

import numpy as np
import pytest

import gate
import run
import workloads
from conftest import ROOT


def _write_measure(path, values, n=40):
    xs = np.arange(-n, n + 1)
    with open(path, "w") as fh:
        fh.write("# config_sha256=abc\n")
        fh.write("n,x,re_mu,im_mu\n")
        for x, v in zip(xs, values):
            fh.write(f"{n},{x},{v.real:.17g},{v.imag:.17g}\n")


@pytest.fixture
def measure_ref(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.normal(size=81) + 1j * rng.normal(size=81)
    ref_dir = tmp_path / "ref"
    ref_dir.mkdir()
    _write_measure(ref_dir / "measure_n40.csv", values)
    (ref_dir / "provenance.json").write_text(
        json.dumps({"config_sha256": "abc", "measure_sum_drift": 1e-16, "failures": []})
    )
    reference = gate.make_reference("simulate-band", 0, "", ref_dir, "test")
    cand = tmp_path / "cand"
    shutil.copytree(ref_dir, cand)
    return reference, values, cand


def test_identical_outputs_pass(measure_ref):
    reference, _, cand = measure_ref
    assert gate.check_outputs(cand, reference) == []


def test_nan_output_fails_the_gate(measure_ref):
    reference, values, cand = measure_ref
    for index in (0, 41, 80):
        bad = values.copy()
        bad[index] = complex(math.nan, 0.0)
        _write_measure(cand / "measure_n40.csv", bad)
        errors = gate.check_outputs(cand, reference)
        assert errors and all("measure_n40.csv" in e for e in errors)


def test_every_measure_value_is_held_to_its_tolerance(measure_ref):
    reference, values, cand = measure_ref
    for index in range(len(values)):
        bad = values.copy()
        bad[index] += 1e-11
        _write_measure(cand / "measure_n40.csv", bad)
        assert gate.check_outputs(cand, reference), index


def test_saved_reference_round_trips(measure_ref, tmp_path):
    reference, _, cand = measure_ref
    gate.save_reference(reference, tmp_path / "v0")
    loaded = gate.load_reference(tmp_path / "v0")
    assert loaded["files"] == reference["files"]
    assert np.array_equal(loaded["arrays"]["measure_n40.csv"], reference["arrays"]["measure_n40.csv"])
    assert gate.check_outputs(cand, loaded) == []


def _write_band(path, values):
    with open(path, "w") as fh:
        fh.write("# config_sha256=abc\nn,x,y,re,im\n")
        for i, v in enumerate(values):
            fh.write(f"40,{i},{-i},{v.real:.17g},{v.imag:.17g}\n")


def test_band_file_is_sketched_at_tolerance_times_rows(tmp_path):
    values = np.random.default_rng(3).normal(size=500) * (1 + 1j)
    (tmp_path / "ref").mkdir()
    _write_band(tmp_path / "ref" / "band_n40.csv", values)
    reference = gate.make_reference("simulate-band", 0, "", tmp_path / "ref", "test")
    assert reference["arrays"] == {}
    entry = reference["files"]["band_n40.csv"]
    unsampled = next(i for i in range(len(values)) if i not in entry["sample"])
    (tmp_path / "cand").mkdir()
    for error, fails in ((1e-13, False), (0.5 * 1e-12 * len(values), False), (2e-12 * len(values), True)):
        bad = values.copy()
        bad[unsampled] += error
        _write_band(tmp_path / "cand" / "band_n40.csv", bad)
        assert bool(gate.check_outputs(tmp_path / "cand", reference)) == fails, error


def test_measure_keys_of_characteristics_json_get_the_measure_tolerance(tmp_path):
    doc = {"per_m": [{"M": 2, "max_sum_deviation": 4e-13, "gamma": {"slope": 0.48}}]}
    (tmp_path / "ref").mkdir()
    (tmp_path / "ref" / "characteristics.json").write_text(json.dumps(doc))
    reference = gate.make_reference("characteristics", 0, "", tmp_path / "ref", "test")
    (tmp_path / "cand").mkdir()

    def check(deviation, slope):
        doc["per_m"][0].update(max_sum_deviation=deviation, gamma={"slope": slope})
        (tmp_path / "cand" / "characteristics.json").write_text(json.dumps(doc))
        return gate.check_outputs(tmp_path / "cand", reference)

    assert check(4e-13 + 1e-13, 0.48 + 1e-10) == []
    assert check(4e-13 + 1e-11, 0.48)
    assert check(4e-13, 0.48 + 1e-8)


def test_nan_in_json_fails_the_gate(measure_ref):
    reference, _, cand = measure_ref
    (cand / "provenance.json").write_text(
        json.dumps({"config_sha256": "abc", "measure_sum_drift": math.nan, "failures": []})
    )
    assert gate.check_outputs(cand, reference)


def test_tolerance_is_applied(measure_ref):
    reference, values, cand = measure_ref
    _write_measure(cand / "measure_n40.csv", values + 1e-14)
    assert gate.check_outputs(cand, reference) == []
    _write_measure(cand / "measure_n40.csv", values + 1e-10)
    assert gate.check_outputs(cand, reference)


def test_metadata_is_not_compared_but_results_are(measure_ref):
    reference, _, cand = measure_ref
    (cand / "provenance.json").write_text(
        json.dumps({"config_sha256": "other", "measure_sum_drift": 1e-16, "failures": [], "new": 1})
    )
    assert gate.check_outputs(cand, reference) == []
    (cand / "provenance.json").write_text(
        json.dumps({"config_sha256": "abc", "measure_sum_drift": 1e-16, "failures": ["x"]})
    )
    assert gate.check_outputs(cand, reference)


def test_missing_file_and_row_count_fail(measure_ref):
    reference, values, cand = measure_ref
    _write_measure(cand / "measure_n40.csv", values[:-2], n=39)
    assert any("rows" in e for e in gate.check_outputs(cand, reference))
    (cand / "measure_n40.csv").unlink()
    assert gate.check_outputs(cand, reference) == ["measure_n40.csv: missing"]


def test_spectrum_rows_may_swap_within_one_k(tmp_path):
    rows = [(2, 0.0, 0.5, 0.5, math.sqrt(0.5)), (2, 0.0, 0.5, -0.5, math.sqrt(0.5)),
            (2, 1.0, 0.1, 0.2, 0.3), (2, 1.0, 0.2, 0.1, 0.3)]

    def write(d, rs):
        d.mkdir(exist_ok=True)
        with open(d / "spectrum.csv", "w") as fh:
            fh.write("# config_sha256=abc\nM,k,re_lambda,im_lambda,abs_lambda\n")
            for r in rs:
                fh.write(",".join(f"{v:.17g}" for v in r) + "\n")

    write(tmp_path / "ref", rows)
    reference = gate.make_reference("spectrum-grid", 0, "", tmp_path / "ref", "test")
    write(tmp_path / "cand", [rows[1], rows[0], rows[3], rows[2]])
    assert gate.check_outputs(tmp_path / "cand", reference) == []
    write(tmp_path / "cand", [rows[0], rows[1], rows[2], (2, 1.0, 0.2, 0.1 + 1e-6, 0.3)])
    assert gate.check_outputs(tmp_path / "cand", reference)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_source_tree_passes_the_gate_on_several_seeds(workload, tmp_path):
    for seed in (1, 2, 3):
        reference = run.load_reference(workload, seed)
        config = tmp_path / "config.txt"
        config.write_text(workloads.config_text(workload, seed))
        res = run.launch(ROOT, workload, config, tmp_path / "out", tmp_path / "rec.json", "run", 170.0)
        assert res["exit_status"] == 0, res.get("log_tail")
        assert gate.check_outputs(tmp_path / "out", reference) == []
