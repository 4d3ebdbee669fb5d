"""Smoke tests of the experiment scripts and the README examples: each runs, and each script writes its CSVs or table."""

import re
import runpy
import sys
from pathlib import Path

import pytest

from stripewalk import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
README = SCRIPTS.parent / "README.md"


def _run(monkeypatch, name, *args, status=0):
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert exc.value.code == status


def _rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_crossover_profiles(tmp_path, monkeypatch, capsys):
    _run(monkeypatch, "crossover_profiles.py", "--steps", "20", "--out", str(tmp_path))
    for m in (1, 2, 3, 5, 10, 51):
        header, rows = _rows(tmp_path / f"profile_M{m}_n20.csv")
        assert header == "xbar,n_times_mu,konno"
        assert len(rows) == 41
        assert [float(r[0]) for r in rows] == [x / 20 for x in range(-20, 21)]
    # A drift above the bound (here: any drift, with the bound below 0)
    # exits 1, and the profiles are still written.
    monkeypatch.setattr(cli, "CONSERVATION_TOL", -1.0)
    _run(monkeypatch, "crossover_profiles.py", "--steps", "20", "--widths", "2", "3", "--out", str(tmp_path / "drift"), status=1)
    assert sorted(p.name for p in (tmp_path / "drift").iterdir()) == ["profile_M2_n20.csv", "profile_M3_n20.csv"]
    assert capsys.readouterr().err.count("FAIL simulate: measure sum drift") == 2


def test_crossover_profiles_stops_on_a_rejected_width(tmp_path, monkeypatch, capsys):
    _run(monkeypatch, "crossover_profiles.py", "--widths", "0", "--out", str(tmp_path / "o"), status=2)
    assert capsys.readouterr().err == "stripewalk simulate: error: stripe width must be >= 1, got 0\n"
    assert not (tmp_path / "o").exists()


def test_eigenvector_runs(tmp_path, monkeypatch, capsys):
    # The default n = 200: the three mode windows overlap below n = 192.
    _run(monkeypatch, "eigenvector_runs.py", "--out", str(tmp_path))
    for name in ("v1", "v2", "v3"):
        digest, *lines = (tmp_path / name / "measure_n200.csv").read_text().splitlines()
        assert digest.startswith("# config_sha256=")
        assert lines[0] == "n,x,re_mu,im_mu"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[1]) for r in rows] == list(range(-200, 201))
        assert all(r[0] == "200" for r in rows)
    masses = [line.split()[1:4] for line in capsys.readouterr().out.splitlines()]
    assert masses == [
        ["left=-0.000000", "center=-1.000000", "right=-0.000000"],
        ["left=-0.000000", "center=+0.000000", "right=+0.707107"],
        ["left=+0.707107", "center=+0.000000", "right=-0.000000"],
    ]
    _run(monkeypatch, "eigenvector_runs.py", "--steps", "20", "--out", str(tmp_path / "small"), status=2)
    assert "error: mode windows overlap at n=20" in capsys.readouterr().err
    assert not (tmp_path / "small").exists()


def test_side_mode_convergence(monkeypatch, capsys):
    _run(monkeypatch, "side_mode_convergence.py", "--steps", "300", "600")
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split(",")[:2] == ["n", "ks_left_1/9"]
    assert header.split(",")[-2:] == ["residue_off_sublattice", "residue_imag"]
    assert [int(r.split(",")[0]) for r in rows] == [300, 600]
    for row in rows:
        values = [float(v) for v in row.split(",")[1:]]
        assert len(values) == 9
        assert all(0.0 <= v < 1.0 for v in values[:4])
        assert all(abs(v) < 0.02 for v in values[4:7])
        assert all(0.0 <= v <= 1e-12 for v in values[7:])
    # A residue above the bound (here: any residue, with the bound below 0) exits 1.
    monkeypatch.setattr(cli, "SNAPSHOT_RESIDUE_TOL", -1.0)
    _run(monkeypatch, "side_mode_convergence.py", "--steps", "300", status=1)


def test_side_mode_convergence_stops_on_a_rejected_n(monkeypatch, capsys):
    # At n = 100 the windows overlap: the run stops with the CLI's one line
    # and status 2, after the row of n = 300 and without a row for n = 100
    # (nor for the n after it).
    _run(monkeypatch, "side_mode_convergence.py", "--steps", "300", "100", "600", status=2)
    captured = capsys.readouterr()
    header, *rows = captured.out.splitlines()
    assert header.startswith("n,")
    assert [r.split(",")[0] for r in rows] == ["300"]
    assert captured.err.splitlines() == [
        "stripewalk limits: error: M=2: mode windows overlap at n=100, w=4.0: (-97, -18) and (-40, 40)"
    ]


def test_spectrum_timing(monkeypatch, capsys):
    _run(monkeypatch, "spectrum_timing.py", "--widths", "2", "3", "--kgrid", "16", "--repeats", "2")
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "coin,M,kgrid,spectrum_grid_s,eig_s"
    assert [r.split(",")[:3] for r in rows] == [
        [coin, m, "16"] for coin in ("hadamard", "complex") for m in ("2", "3")
    ]
    for row in rows:
        wall, eig = (float(v) for v in row.split(",")[3:])
        assert 0.0 < eig <= wall


def test_readme_python_blocks_run():
    # Every ```python block of the README, in order and in one namespace,
    # as a reader would paste them: a stale example fails here.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_mutants_name_library_text_once():
    # Each mutant of scripts/mutants.py names one exact text of its file
    # and changes it, so the list cannot rot silently when the code moves.
    mutants = runpy.run_path(str(SCRIPTS / "mutants.py"))["MUTANTS"]
    assert len(mutants) >= 20
    for mutant in mutants:
        assert (SCRIPTS.parent / mutant.file).read_text().count(mutant.old) == 1, mutant
        assert mutant.new != mutant.old, mutant
