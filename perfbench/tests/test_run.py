import shutil
import subprocess
import sys

import pytest

import run
import stats
from conftest import ROOT


def test_median_and_quartiles_with_sample_count():
    s = stats.summary([8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0])
    assert s == {"median": 4.5, "q1": 2.25, "q3": 6.75, "n": 8}
    assert stats.summary([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "n": 1}
    with pytest.raises(ValueError):
        stats.summary([])


def _runs(traced_walls, untraced_walls):
    record = {
        "layers": {
            "cli": {"calls": 1, "self_ns": 200_000_000, "incl_ns": 900_000_000, "counts": {"rows": 4}},
            "walker.step": {"calls": 10, "self_ns": 700_000_000, "incl_ns": 700_000_000,
                            "counts": {"cells": 1000, "nonzero": 500, "kernel_ns": 600_000_000}},
        },
        "m2_traffic": {},
        "n_crit": {},
    }
    out = [{"traced": False, "wall_s": w, "setup_s": 0.1, "exit_s": 0.05, "record": {}} for w in untraced_walls]
    out += [{"traced": True, "wall_s": w, "setup_s": 0.1, "exit_s": 0.05, "record": record} for w in traced_walls]
    return out


def test_tracing_overhead_is_traced_minus_untraced_median():
    m = run.layer_metrics(_runs([1.3, 1.1, 1.2], [1.0, 0.9, 5.0]))
    assert m["trace.wall_s"][0] == pytest.approx(1.2)
    assert m["trace.untraced_wall_s"][0] == pytest.approx(1.0)
    assert m["trace.overhead_s"][0] == pytest.approx(0.2)
    # 1.2 s wall - 0.1 s set-up - 0.05 s exit - 0.9 s of layer self time
    assert m["trace.unaccounted_s"][0] == pytest.approx(0.15)
    assert m["walker.step.ns_per_live_cell"][0] == pytest.approx(700_000.0)
    assert m["walker.step.live_fraction"][0] == pytest.approx(0.5)
    assert m["cli.ns_per_row"][0] == pytest.approx(50_000_000.0)
    assert m["spectral.eig.us_per_call"][0] == 0.0


def test_setup_probe_stops_where_the_subcommand_starts(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text("m = 3\nsteps = 5000\n")
    probe = run.launch(ROOT, "simulate-band", config, tmp_path / "out", tmp_path / "rec.json", "setup", 60.0)
    assert probe["exit_status"] == 0
    assert 0.0 < probe["setup_s"] < probe["wall_s"] < 5.0
    assert list((tmp_path / "out").iterdir()) == []


def test_peak_rss_is_the_cli_process_own(tmp_path):
    import numpy as np

    config = tmp_path / "cfg.txt"
    config.write_text("m = 3\nsteps = 50\n")
    args = (ROOT, "simulate-band", config, tmp_path / "out", tmp_path / "rec.json", "run", 60.0)
    alone = run.launch(*args)["peak_rss_mb"]
    ballast = np.ones(100 * 2**20 // 8)  # 100 MB resident in the launching process
    beside = run.launch(*args)["peak_rss_mb"]
    assert ballast.sum() > 0
    assert 0.0 < alone < 100.0
    assert abs(beside - alone) < 5.0


def test_fails_without_a_result_outside_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectrum-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
