import concurrent.futures
import json
import math
import os
import platform
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from stripewalk import (
    cli,
    evolve,
    init_band_vector,
    init_product,
    make_hadamard,
    measure,
    spectral,
    trajectory,
)
from stripewalk.coin import LL, RR, blocks
from stripewalk.cli import (
    Check,
    RunConfig,
    _NoRandomGuard,
    _write_csv,
    cmd_limits,
    config_from_text,
    config_hash,
    config_to_text,
    main,
)
from stripewalk.limits import mode_windows

from oracles import konno_cdf, n_crit, pack


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


def test_config_round_trip_defaults():
    cfg = RunConfig()
    assert config_from_text(config_to_text(cfg)) == cfg


def test_config_round_trip_custom():
    cfg = RunConfig(
        coin="custom",
        coin_a=0.6 + 0j,
        coin_b=0.8j,
        coin_c=0.8j,
        coin_d=0.6 + 0j,
        m=3,
        init="band",
        band=tuple(complex(i, -i) for i in range(12)),
        steps=42,
        snapshots=(10, 42),
        mlist=(2, 4),
        emit_band_field=True,
    )
    again = config_from_text(config_to_text(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_text("nonsense = 1\n")
    with pytest.raises(ValueError, match="malformed"):
        config_from_text("steps\n")


def test_readme_config_block_lists_every_field_and_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"All fields\s+and their defaults.*?```\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.splitlines() if not line.lstrip().startswith("#")]
    keys = [line.partition("=")[0].strip() for line in lines]
    assert keys == [f.name for f in fields(RunConfig)]
    assert config_from_text(block) == RunConfig()


def test_simulate_outputs_and_reproducibility(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["simulate", "--out", str(out), "--steps", "60", "--m", "2"])
        assert rc == 0
    for name in ("measure_n60.csv", "normalized_n60.csv", "provenance.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    comment, header, rows = _read_csv(out1 / "measure_n60.csv")
    assert header == ["n", "x", "re_mu", "im_mu"]
    total = sum(float(r[2]) for r in rows)
    assert abs(total - 1.0) < 1e-10
    prov = json.loads((out1 / "provenance.json").read_text())
    assert prov["measure_sum_drift"] < 1e-10
    assert prov["failures"] == []
    assert comment.endswith(prov["config_sha256"])


def test_simulate_band_field_emission(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("steps = 12\nm = 3\nemit_band_field = true\nsnapshots = 12\ng = 0.6,0 0,0.8\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    _, header, rows = _read_csv(tmp_path / "o" / "band_n12.csv")
    assert header == ["n", "x", "y", "re", "im"]
    # One row per cell with |u| <= n, sorted by (x, y), holding LL + RR.
    n, m, (s, t) = 12, 3, (-1, 1)
    state = evolve(init_product(make_hadamard(), (0.6, 0.8j), m, n), n)
    field = state.dense()
    expected = []
    for v in range(s, t + 1):
        for u in range(-n, n + 1):
            cell = field[:, v - s, state.center + u]
            value = complex(cell[LL]) + complex(cell[RR])
            expected.append((u + v, u - v, value))
    expected.sort(key=lambda r: (r[0], r[1]))
    assert len(rows) == 3 * (2 * n + 1)
    assert rows == [
        [str(n), str(x), str(y), "%.17g" % z.real, "%.17g" % z.imag] for x, y, z in expected
    ]
    assert any(float(r[4]) != 0.0 for r in rows)


def test_write_csv_formats_ints_and_floats(tmp_path):
    rows = [(1, -2, 2.0, -0.0), (3, 4, math.nan, math.inf), (5, 6, 5e-324, 0.1)]
    _write_csv(tmp_path / "a.csv", "a,b,c,d", iter(rows), "abc")
    assert (tmp_path / "a.csv").read_text().splitlines() == [
        "# config_sha256=abc",
        "a,b,c,d",
        "1,-2,2,-0",
        "3,4,nan,inf",
        "5,6,4.9406564584124654e-324,0.10000000000000001",
    ]
    _write_csv(tmp_path / "empty.csv", "a,b", iter(()), "abc")
    assert (tmp_path / "empty.csv").read_text() == "# config_sha256=abc\na,b\n"


def test_simulate_failure_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "CONSERVATION_TOL", 0.0)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("steps = 20\nm = 2\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    prov = json.loads((tmp_path / "o" / "provenance.json").read_text())
    assert prov["failures"]
    assert prov["measure_sum_tol"] == 0.0
    assert "> tol 0.000e+00 at n=20" in capsys.readouterr().err


def test_simulate_drift_tolerance_scales_with_initial_total(tmp_path):
    # A band start's measure total scales with the square of its norm; a
    # drift of about 4e-14 of a 6e153 total is rounding, not a failure.
    cfg = tmp_path / "cfg.txt"
    band = " ".join(["3e153,0"] * 12)
    cfg.write_text(f"m = 3\ninit = band\nsteps = 200\nsnapshots = 10 200\nband = {band}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    prov = json.loads((tmp_path / "o" / "provenance.json").read_text())
    total = abs(complex(*prov["initial_measure_total"]))
    assert total > 1e153
    assert prov["measure_sum_tol"] == 1e-10 * total
    assert 1e-10 < prov["measure_sum_drift"] <= prov["measure_sum_tol"]
    assert prov["failures"] == []


def test_simulate_m1_profile(tmp_path):
    rc = main(["simulate", "--out", str(tmp_path / "o"), "--steps", "100", "--m", "1"])
    assert rc == 0
    _, _, rows = _read_csv(tmp_path / "o" / "measure_n100.csv")
    vals = np.array([float(r[2]) for r in rows])
    assert vals.min() >= 0.0
    assert abs(vals.sum() - 1.0) < 1e-12
    # Unimodal on the occupied (even) sublattice.
    occ = vals[::2]
    diffs = np.sign(np.diff(occ[occ > 1e-300]))
    switches = np.sum(np.abs(np.diff(diffs[diffs != 0]))) / 2
    assert switches <= 1


def test_simulate_m2_three_islands(tmp_path):
    rc = main(["simulate", "--out", str(tmp_path / "o"), "--steps", "100", "--m", "2"])
    assert rc == 0
    _, _, rows = _read_csv(tmp_path / "o" / "measure_n100.csv")
    xs = np.array([int(r[1]) for r in rows])
    vals = np.array([float(r[2]) for r in rows])
    n = 100
    c = n / math.sqrt(3)
    w = 2.5 * math.sqrt(n)
    island = [
        vals[np.abs(xs + c) <= w].sum(),
        vals[np.abs(xs) <= w].sum(),
        vals[np.abs(xs - c) <= w].sum(),
    ]
    gaps = vals[(np.abs(xs) > w) & (np.abs(xs + c) > w) & (np.abs(xs - c) > w)].sum()
    assert min(island) > 0.08
    assert abs(gaps) < 0.02


def test_spectrum_command(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("m = 2\nkgrid = 16\n")
    rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    _, header, rows = _read_csv(tmp_path / "o" / "spectrum.csv")
    assert header == ["M", "k", "re_lambda", "im_lambda", "abs_lambda"]
    by_k = {}
    for r in rows:
        by_k.setdefault(float(r[1]), []).append(complex(float(r[2]), float(r[3])))
        assert float(r[4]) <= 1 + 1e-10
    s7 = math.sqrt(7)
    expected = [0, 0, 1, 1, 1, -0.5, (-1 + 1j * s7) / 4, (-1 - 1j * s7) / 4]
    remaining = list(by_k[0.0])
    for z in expected:
        i = int(np.argmin(np.abs(np.array(remaining) - z)))
        assert abs(remaining.pop(i) - z) < 1e-9
    # Momentum reflection conjugates the spectrum.
    ks = sorted(by_k)
    for k in ks[1:]:
        mirrors = [kk for kk in ks if abs((2 * math.pi - k) - kk) < 1e-9]
        if not mirrors:
            continue
        remaining = [z.conjugate() for z in by_k[mirrors[0]]]
        for z in by_k[k]:
            i = int(np.argmin(np.abs(np.array(remaining) - z)))
            assert abs(remaining.pop(i) - z) < 1e-9


def _coin_config(coin) -> str:
    entries = zip("abcd", (coin.a, coin.b, coin.c, coin.d))
    return "coin = custom\n" + "".join(f"coin_{n} = {z.real!r},{z.imag!r}\n" for n, z in entries)


@pytest.mark.parametrize("kgrid", [2, 4, 6, 7, 16])
def test_spectrum_rows_match_per_k_eig(tmp_path, phased_coin, kgrid):
    # Odd K (reflection only), K = 2 mod 4 and K = 0 mod 4 (reflection and
    # pi-shift, whose orbits differ): every row, solved or derived, matches
    # the eigenvalues of W at its own k.
    m = 3
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(_coin_config(phased_coin) + f"m = {m}\nkgrid = {kgrid}\n")
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    _, _, rows = _read_csv(tmp_path / "o" / "spectrum.csv")
    assert len(rows) == kgrid * 4 * m
    for i in range(kgrid):
        k = 2.0 * math.pi * i / kgrid
        group = rows[4 * m * i : 4 * m * (i + 1)]
        assert all(r[0] == str(m) and float(r[1]) == k for r in group)
        got = [complex(float(r[2]), float(r[3])) for r in group]
        assert all(float(r[4]) == abs(z) for r, z in zip(group, got))
        remaining = list(spectral.eig(spectral.w_stack(blocks(phased_coin), m, [k])[0], k)[0])
        for z in got:
            j = int(np.argmin(np.abs(np.array(remaining) - z)))
            assert abs(remaining.pop(j) - z) < 1e-12


def test_spectrum_rerun_is_byte_identical(tmp_path, phased_coin):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(_coin_config(phased_coin) + "m = 3\nkgrid = 16\n")
    for out, extra in (("a", []), ("b", ["--seedless"])):
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / out), *extra]) == 0
    assert (tmp_path / "a" / "spectrum.csv").read_bytes() == (tmp_path / "b" / "spectrum.csv").read_bytes()


def test_spectrum_json_records_the_engine_and_the_bound(tmp_path, phased_coin):
    # The gauge phases are those of the phased coin's closed form:
    # chi = p1 + p2 - pi and phi = 2 p1 - pi (mod 2 pi), |a| = 0.6.
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(_coin_config(phased_coin) + "m = 3\nkgrid = 16\n")
    for out, extra in (("a", []), ("b", ["--seedless"]), ("c", [])):
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / out), *extra]) == 0
    text = (tmp_path / "a" / "spectrum.json").read_bytes()
    assert (tmp_path / "b" / "spectrum.json").read_bytes() == text == (tmp_path / "c" / "spectrum.json").read_bytes()
    report = json.loads(text)
    engine = report["engine"]
    gauge = engine.pop("gauge")
    assert engine == {"solver": "dgeev", "blocks": [7, 5], "solved_k": 5, "derived_k": 11}
    assert gauge["abs_a"] == pytest.approx(0.6, abs=1e-15)
    p1, p2 = 0.7, -1.1
    assert abs(np.exp(1j * gauge["chi"]) - np.exp(1j * (p1 + p2 - math.pi))) < 1e-14
    assert abs(np.exp(1j * gauge["phi"]) - np.exp(1j * (2 * p1 - math.pi))) < 1e-14
    _, _, rows = _read_csv(tmp_path / "a" / "spectrum.csv")
    assert report["max_abs_lambda"] == max(float(r[4]) for r in rows)
    assert report["max_abs_lambda"] <= report["max_abs_lambda_bound"] == 1.0 + 1e-10
    assert report["failures"] == [] and set(report["versions"]) == {"python", "numpy"}


def test_spectrum_json_records_each_failure(tmp_path, capsys, monkeypatch):
    _scaled_spectrum(monkeypatch)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("m = 2\nkgrid = 8\n")
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    report = json.loads((tmp_path / "o" / "spectrum.json").read_text())
    assert capsys.readouterr().err.splitlines() == [f"FAIL spectrum: {msg}" for msg in report["failures"]]
    assert report["failures"] and report["max_abs_lambda"] > report["max_abs_lambda_bound"]


def test_kato_command(tmp_path):
    rc = main(["kato", "--out", str(tmp_path / "o")])
    assert rc == 0
    report = json.loads((tmp_path / "o" / "kato.json").read_text())
    assert report["failures"] == []
    assert report["measured"]["pi_rank"] == pytest.approx(3.0, abs=1e-12)
    assert report["measured"]["minimality_witness"] >= 0.1
    pi = np.array([[complex(re, im) for re, im in row] for row in report["pi"]])
    assert abs(pi[0, 0] - 7 / 12) < 1e-14
    assert abs(pi[0, 7] + 1 / 12) < 1e-14
    res = report["perturbed_projections"][1]
    assert res["delta"] == 1e-2
    assert max(res["residuals"]) < 5e-2


def test_kato_solves_w0_once(tmp_path, monkeypatch):
    # One reduction serves every check: W(0) and the reduced generator are
    # solved once, W(k(delta)) once per delta; no check re-runs the reduction.
    solve = np.linalg.eig
    sizes = []

    def counting(a):
        sizes.extend([a.shape[-1]] * (a.size // a.shape[-1] ** 2))
        return solve(a)

    monkeypatch.setattr(np.linalg, "eig", counting)
    assert main(["kato", "--out", str(tmp_path / "o")]) == 0
    assert sorted(sizes) == [3, 8, 8, 8, 8]


def test_limits_command(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("steps = 600\nm = 2\ng = 0.70710678118654757,0 0.70710678118654757,0\n")
    rc = main(["limits", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    report = json.loads((tmp_path / "o" / "limits.json").read_text())
    s3 = math.sqrt(3)
    assert report["masses"]["left"] == pytest.approx((3 + s3) / 12, abs=0.02)
    assert report["masses"]["center"] == pytest.approx(0.5, abs=0.02)
    assert report["masses"]["right"] == pytest.approx((3 - s3) / 12, abs=0.02)
    assert report["cdf_distances"]["center"] < 0.05
    assert report["side_variances"]["second_order_cumulant"] == pytest.approx(1 / 9)
    windows = report["windows"]
    assert [windows["left"], windows["center"], windows["right"]] == [
        list(w) for w in mode_windows(600, windows["w_coeff"])
    ]


def test_characteristics_command(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("steps = 200\nmlist = 1 2 3\n")
    rc = main(["characteristics", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    _, header, rows = _read_csv(tmp_path / "o" / "characteristics.csv")
    assert header == ["M", "n_crit", "xmax", "ratio", "gamma", "r_center", "r_side"]
    table = {int(r[0]): r for r in rows}
    assert int(table[1][1]) == 44  # width one never goes negative
    sidecar = json.loads((tmp_path / "o" / "characteristics.json").read_text())
    assert [entry["M"] for entry in sidecar["per_m"]] == [1, 2, 3]
    assert sidecar["per_m"][1]["gamma"]["sensitivity"]
    engine = sidecar["per_m"][1]["engine"]
    assert engine["dtype"] == "float64" and engine["sublattices"] == [0]
    lo, hi = engine["live_u"]
    assert -200 <= lo < 0 < hi <= 200


def test_characteristics_health_values_match_the_trajectory(tmp_path):
    # The sidecar's max |Im mu| and max |sum mu_n - sum mu_1| over steps
    # 1..n, against the same maxima taken from a fresh trajectory.  A
    # complex spinor at even width gives a large imaginary part, and at
    # both widths the series runs past n (n_crit horizons 48 and 52 > 40).
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("steps = 40\nmlist = 2 3\ng = 0.6,0 0,0.8\n")
    assert main(["characteristics", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    sidecar = json.loads((tmp_path / "o" / "characteristics.json").read_text())
    for entry in sidecar["per_m"]:
        states = trajectory(init_product(make_hadamard(), (0.6, 0.8j), entry["M"], 40), 40)
        mus = [measure(st) for st in states]
        imag = np.array([mu.max_abs_imag() for mu in mus])
        sums = np.array([mu.values.real.sum() for mu in mus])
        deviation = np.abs(sums - sums[0])
        assert entry["max_abs_imag"] == imag.max()
        assert entry["max_sum_deviation"] == deviation.max()
        # Step 1 alone, or the first half, would read less.
        assert imag[0] < imag.max() and deviation[:20].max() < deviation.max()


def test_simulate_provenance_records_engine(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("steps = 30\nm = 3\ng = 1,0 0,1\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    prov = json.loads((tmp_path / "o" / "provenance.json").read_text())
    assert prov["engine"] == {"dtype": "complex128", "kernel": "real", "sublattices": [0], "live_u": [-30, 30]}
    cfg.write_text("steps = 30\nm = 3\ninit = mixed\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    prov = json.loads((tmp_path / "o" / "provenance.json").read_text())
    assert prov["engine"] == {"dtype": "float64", "kernel": "real", "sublattices": [0], "live_u": [-30, 30]}


def test_characteristics_workers_are_checked_and_capped(tmp_path, capsys, monkeypatch):
    # A process pool under fork starts all max_workers processes at once,
    # so a recording fake stands in for it and runs the jobs in order.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = tmp_path / "cfg.txt"
    args = ["characteristics", "--config", str(cfg), "--out", str(tmp_path / "o")]
    cfg.write_text("steps = 100\nmlist = 2 3\n")
    assert main([*args, "--workers", "64"]) == 0
    assert sizes == [2]
    cfg.write_text("steps = 100\nmlist = 2\n")
    assert main([*args, "--workers", "64"]) == 0
    assert sizes == [2]  # one width runs in this process
    for bad in ("0", "-3"):
        assert main([*args, "--workers", bad]) == 2
        err = capsys.readouterr().err
        assert err == f"stripewalk characteristics: error: --workers must be >= 1, got {bad}\n"
    assert sizes == [2]
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--workers", "2", "--out", str(tmp_path / "s")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_characteristics_parallel_matches_serial(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("steps = 150\nmlist = 2 3\n")
    rc = main(["characteristics", "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert rc == 0
    rc = main(
        ["characteristics", "--config", str(cfg), "--out", str(tmp_path / "p"), "--workers", "2"]
    )
    assert rc == 0
    assert (tmp_path / "s" / "characteristics.csv").read_bytes() == (
        tmp_path / "p" / "characteristics.csv"
    ).read_bytes()


def test_reruns_do_not_depend_on_blas_threads(tmp_path):
    # Fresh processes with one and two BLAS threads write byte-identical
    # files: the step kernel's products and the norm trace.  The M = 10
    # band start steps both sublattices, so late steps multiply over more
    # than 16k cells at once, where a threaded BLAS splits the work.  The
    # M = 10 complex spinor steps a complex field through its float64 view
    # under the real Hadamard coin.  The kato report's eigenvectors come
    # from LAPACK with their phase fixed by one rule, so it must rerun byte
    # for byte as well.
    band = " ".join(f"{(7 * k) % 11 - 5},0" for k in range(40))
    wide = "m = 10\nsteps = 1000\nsnapshots = 500 1000\nemit_band_field = true\n"
    runs = [
        ("simulate", f"{wide}init = band\nband = {band}\n", "band_n1000.csv"),
        ("simulate", f"{wide}g = 0.6,0 0,0.8\n", "band_n1000.csv"),
        ("characteristics", "steps = 300\nmlist = 2 3\n", "characteristics.csv"),
        ("kato", "", "kato.json"),
    ]
    src = Path(cli.__file__).resolve().parents[1]
    run_main = "import sys; from stripewalk.cli import main; sys.exit(main(sys.argv[1:]))"
    for i, (command, text, table) in enumerate(runs):
        cfg = tmp_path / f"{i}-{command}.txt"
        cfg.write_text(text)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{i}-{command}-{threads}"
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads}
            subprocess.run(
                [sys.executable, "-c", run_main, command, "--config", str(cfg), "--out", str(out)],
                env=env, check=True,
            )
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert table in outputs[0]
        assert outputs[0] == outputs[1], (i, command)


def test_oracle_check_command(tmp_path):
    rc = main(["oracle-check", "--out", str(tmp_path / "o"), "--seedless"])
    assert rc == 0
    report = json.loads((tmp_path / "o" / "oracle_check.json").read_text())
    assert report["unitary_limit_max_abs_diff"] < 1e-12
    assert report["classical_limit_max_abs_diff"] < 1e-12
    assert report["failures"] == []


def test_sweep_command(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("steps = 40\nmlist = 1 2\n")
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    for m in (1, 2):
        assert (tmp_path / "o" / f"measure_M{m}_n40.csv").exists()
        assert (tmp_path / "o" / f"normalized_M{m}_n40.csv").exists()
    _, header, _ = _read_csv(tmp_path / "o" / "normalized_M2_n40.csv")
    assert header == ["xbar", "n_times_mu"]


def test_mixed_initial_state_konno(tmp_path):
    # The half-half LL/RR cell reproduces the symmetric ballistic limit.
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("steps = 100\ninit = mixed\nm = 201\n")  # the stripe (-100, 100)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    _, _, rows = _read_csv(tmp_path / "o" / "measure_n100.csv")
    xs = np.array([int(r[1]) for r in rows])
    vals = np.array([float(r[2]) for r in rows])
    from stripewalk.limits import kolmogorov_distance

    assert kolmogorov_distance(xs / 100, vals, konno_cdf) < 0.08


def test_limits_requires_product_start(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("steps = 300\ninit = mixed\n")
    with pytest.raises(ValueError, match="product"):
        cmd_limits(config_from_text(cfg.read_text()), tmp_path)
    rc = main(["limits", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "product" in capsys.readouterr().err


def _floats(a, b, path=""):
    """(path, |a - b|) for every float of a JSON document b, read in a alike."""
    if isinstance(b, dict):
        assert a.keys() == b.keys(), path
        for key in b:
            yield from _floats(a[key], b[key], f"{path}.{key}")
    elif isinstance(b, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _floats(x, y, f"{path}[{i}]")
    elif isinstance(b, float):
        yield path, abs(a - b)
    else:
        assert a == b, path


@pytest.mark.parametrize(
    "text",
    [
        "m = 2\ng = 0.6,0 0.8,0\n",
        "m = 3\ncoin = custom\ncoin_a = 0.6,0\ncoin_b = 0,0.8\ncoin_c = 0,0.8\ncoin_d = 0.6,0\ng = 1,0 0,1\n",
    ],
)
def test_limits_spectral_report_matches_real_space(tmp_path, monkeypatch, text):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("steps = 600\n" + text)
    rc = main(["limits", "--config", str(cfg), "--out", str(tmp_path / "s")])
    report = json.loads((tmp_path / "s" / "limits.json").read_text())
    assert report["engine"] == {"momenta": 1201}
    assert report["measure_sum_drift"] <= report["measure_sum_tol"]
    # The same report made from the real-space engine's measure.  limits
    # builds its start with no horizon, so it is rebuilt with horizon n.
    def real_space(state, n):
        data = state.dense()[:, :, state.center].T  # each row's 4-vector at u = 0
        return measure(evolve(init_band_vector(state.blocks.coin, data, state.m, n), n))

    monkeypatch.setattr(cli, "snapshot_measure", real_space)
    assert main(["limits", "--config", str(cfg), "--out", str(tmp_path / "r")]) == rc
    reference = json.loads((tmp_path / "r" / "limits.json").read_text())
    worst = max(_floats(report, reference), key=lambda item: item[1])
    assert worst[1] <= 1e-12, worst


@pytest.mark.parametrize(
    "scale, needle",
    [
        # chi(0) alone is off by 5e-10: sum mu_n drifts past 1e-10 while
        # each cell moves by 5e-10 / 1201, under the residue tolerance.
        (5e-10, "measure sum drift"),
        (1e-6, "snapshot off-sublattice"),
    ],
)
def test_limits_snapshot_checks_are_one_fail_line(tmp_path, capsys, monkeypatch, scale, needle):
    power = spectral.apply_power

    def corrupted(w, n, x):
        y = power(w, n, x).copy()
        y[0] *= 1.0 + scale  # chi(0) of the first chunk, which sum mu_n reads
        return y

    monkeypatch.setattr(spectral, "apply_power", corrupted)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("steps = 600\nm = 2\n")
    rc = main(["limits", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith(f"FAIL limits: {needle}")
    assert "Traceback" not in err
    if needle == "measure sum drift":
        report = json.loads((tmp_path / "o" / "limits.json").read_text())
        assert report["measure_sum_drift"] > report["measure_sum_tol"]
        assert report["failures"] == [err[len("FAIL limits: ") : -1]]


def test_engine_records_carry_versions(tmp_path):
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("steps = 250\nmlist = 2 3\n")
    for command, name in (
        ("simulate", "provenance.json"),
        ("limits", "limits.json"),
        ("characteristics", "characteristics.json"),
    ):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
        report = json.loads((tmp_path / command / name).read_text())
        for entry in report.get("per_m", [report]):
            assert "engine" in entry and entry["versions"] == versions


@pytest.mark.parametrize(
    "command, text, needle",
    [
        ("spectrum", "m = 70\n", "exceeds limit"),
        ("simulate", "steps = 10\nsnapshots = 5 11\n", "snapshots must lie in [1, steps]"),
        ("simulate", "steps = 10\nsnapshots = 0 5\n", "snapshots must lie in [1, steps]"),
        ("simulate", "steps = 10\nnonsense = 1\n", "unknown config key"),
        ("limits", "steps = 300\ninit = mixed\n", "init = product"),
        ("limits", "m = 1\n", "stripewalk limits: error: m = 1: limits compares the side modes, which width 1 lacks; set m >= 2\n"),
        ("kato", "m = 3\n", "kato checks the width-2 statements; got width 3"),
        ("kato", "coin = custom\ncoin_a = 0.6,0\ncoin_b = 0,0.8\ncoin_c = 0,0.8\ncoin_d = 0.6,0\nm = 3\n", "width-2"),
        ("kato", "coin = custom\ncoin_a = 0.6,0\ncoin_b = 0.8,0\ncoin_c = 0.8,0\ncoin_d = -0.6,0\nm = 2\n", "Hadamard"),
        ("simulate", "coin = custom\ncoin_a = nan,0\ncoin_d = 1,0\n", "not unitary"),
        ("simulate", "steps = 10\ng = 1 0\n", "g: expected a complex number written re,im"),
        ("simulate", "steps = 10\ncoin_a = 1\n", "coin_a: expected a complex number written re,im"),
        ("simulate", "m = 3\ninit = band\nband = 1,0 0,0\n", "needs 12 complex entries"),
        ("simulate", "m = 2\ninit = band\nband = " + " ".join(["nan,0"] + ["0.5,0"] * 7) + "\n", "finite"),
        ("spectrum", "m = 2\ninit = band\nband = " + " ".join(["0,inf"] + ["0.5,0"] * 7) + "\n", "finite"),
        ("simulate", "m = 3\ninit = band\nband = " + " ".join(["1.7e308,0"] * 12) + "\n", "l2 norm"),
        ("simulate", "m = 3\ninit = band\nband = " + " ".join(["6e153,0"] * 12) + "\n", "l2 norm"),
        # Width 1 has no ballistic tail in the fit window (600, 1200).
        ("characteristics", "mlist = 1 2\nsteps = 1200\n", "M=1: only 0 positive tail widths"),
        # An integer key names itself and the form it expects.
        ("simulate", "steps = 1e3\n", "steps: expected an integer, got '1e3'"),
        ("sweep", "mlist = 2 x\n", "mlist: expected an integer, got 'x'"),
        # An empty width list names itself.
        ("characteristics", "mlist =\n", "mlist is empty"),
        ("sweep", "mlist =\n", "mlist is empty"),
        ("spectrum", "kgrid = 8.5\n", "kgrid: expected an integer, got '8.5'"),
        # Every width that reaches the library is checked there.
        *(
            (command, text, "stripe width must be >= 1")
            for command, text in (
                ("simulate", "m = 0\n"),
                ("simulate", "m = 0\ninit = mixed\n"),
                ("spectrum", "m = 0\n"),
                ("limits", "m = 0\n"),
                ("sweep", "mlist = 0 2\n"),
                ("characteristics", "mlist = 0 2\n"),
            )
        ),
        # A width rejected after an accepted one leaves no partial output.
        ("sweep", "mlist = 2 0\nsteps = 20\n", "stripe width must be >= 1, got 0"),
        ("sweep", "init = band\nmlist = 2 3\nband = " + " ".join(["0.5,0"] * 8) + "\n", "needs 12 complex entries, got 8"),
        # Keys that were settable once and are now fixed values.
        *(
            ("simulate", f"steps = 10\n{line}\n", "unknown config key")
            for line in (
                "emit_normalized = true",
                "delta = 0.3",
                "support_threshold = 1e-12",
                "ncrit_tol = 1e-12",
                "ncrit_nmax = 0",
                "w_coeff = 4.0",
                "fit_lo = 0",
                "fit_hi = 0",
                "conservation_tol = 1e-10",
                "imag_tol = 1e-12",
                "s = -1",
                "t = 0",
            )
        ),
    ],
)
@pytest.mark.filterwarnings("error")
def test_rejected_input_is_one_line_exit_2(tmp_path, capsys, command, text, needle):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and needle in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("o/*"))


@pytest.mark.parametrize("status", [0, 1])
def test_main_passes_on_the_subcommand_status(tmp_path, capsys, monkeypatch, status):
    # The benchmark's set-up probe replaces every cmd_* with a stub that
    # returns at once; main must exit with what the subcommand returned
    # and print nothing of its own.
    names = [name for name in vars(cli) if name.startswith("cmd_")]
    for name in names:
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: status)
    for name in names:
        command = name[len("cmd_"):].replace("_", "-")
        assert main([command, "--out", str(tmp_path / command)]) == status, command
        assert capsys.readouterr() == ("", ""), command
        assert not list((tmp_path / command).iterdir()), command


def test_library_check_failure_is_one_fail_line_exit_1(tmp_path, capsys, monkeypatch):
    solve = np.linalg.eig

    def corrupted(mats):
        values, vectors = solve(mats)
        vectors[0, :, 0] = 0.5  # a wrong first eigenvector at k = 0
        return values, vectors

    monkeypatch.setattr(np.linalg, "eig", corrupted)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("m = 2\nkgrid = 8\n")
    rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith("FAIL spectrum: eigenpair residual")
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "spectrum.csv").exists()


def _scaled_spectrum(monkeypatch):
    grid = cli.spectrum_grid

    def scaled(*args):
        ks, values = grid(*args)
        return ks, 1.5 * values

    monkeypatch.setattr(cli, "spectrum_grid", scaled)
    return ["max |lambda| - 1"]


def _assert_records(report):
    """Each check record is complete, and failures are the messages of the records that fail."""
    for r in report["checks"]:
        assert set(r) == {"name", "value", "bound", "floor", "where", "ok"}, r
        assert r["ok"] is (r["value"] >= r["bound"] if r["floor"] else r["value"] <= r["bound"]), r
    assert report["failures"] == [
        f"{r['name']} {r['value']:.3e} {'<' if r['floor'] else '>'} tol {r['bound']:.3e}{r['where']}"
        for r in report["checks"]
        if not r["ok"]
    ]


@pytest.mark.parametrize(
    "command, text, report, names",
    [
        (
            "simulate", "m = 3\nsteps = 20\nsnapshots = 10 20\n", "provenance.json",
            ["measure sum drift", "measure sum drift", "odd-width imaginary residue"],
        ),
        ("spectrum", "m = 2\nkgrid = 8\n", "spectrum.json", ["max |lambda| - 1"]),
        (
            "kato", "", "kato.json",
            [
                "projection is not an orthogonal projection",
                "projection rank error",
                "reduced generator is not skew-Hermitian",
                "minimal polynomial residual",
                "minimality witness",
                "reduced eigenpair residual",
            ],
        ),
        (
            "limits", "m = 2\nsteps = 600\n", "limits.json",
            ["left mass error", "center mass error", "right mass error", "measure sum drift"],
        ),
        (
            "characteristics", "steps = 100\nmlist = 2 3\n", "characteristics.json",
            ["M=2 measure sum drift", "M=3 measure sum drift", "M=3 odd-width imaginary residue"],
        ),
        (
            "oracle-check", "", "oracle_check.json",
            [
                "unitary-limit oracle deviation",
                "classical-limit oracle deviation",
                "classical-limit positivity/normalization: min value",
                "classical-limit positivity/normalization: sum deviation",
            ],
        ),
        ("sweep", "steps = 20\nmlist = 2 3\n", "provenance.json", []),
    ],
)
def test_every_report_lists_its_check_records(tmp_path, command, text, report, names):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    recorded = json.loads((tmp_path / "o" / report).read_text())
    assert recorded["command"] == command
    assert [r["name"] for r in recorded["checks"]] == names
    assert all(r["ok"] for r in recorded["checks"]) and recorded["failures"] == []
    _assert_records(recorded)


@pytest.mark.parametrize("floor", [False, True])
def test_a_nan_fails_its_check(floor):
    # The bound itself passes; past it fails, on the side the relation names.
    assert Check("x", 0.5, 0.5, floor).ok
    assert Check("x", 0.6, 0.5, floor).ok is floor
    assert Check("x", 0.4, 0.5, floor).ok is not floor
    nan = Check("x", math.nan, 0.5, floor)
    assert nan.ok is False
    assert nan.message() == f"x nan {'<' if floor else '>'} tol 5.000e-01"


# Each forcing below returns the checks it must fail, as message prefixes
# in the order the subcommand records them.


def _failed_polynomial(monkeypatch):
    residuals = cli.poly_residuals
    monkeypatch.setattr(
        cli,
        "poly_residuals",
        lambda w: {**residuals(w), "minimal_poly_residual": 1.0, "minimality_witness": 0.0},
    )
    return ["minimal polynomial residual", "minimality witness"]


def _corrupted_reduction(monkeypatch, name, change):
    """Make ``kato_reduction`` return one field replaced by change(field)."""
    reduction = cli.kato_reduction

    def corrupted(coin, m):
        red = reduction(coin, m)
        return replace(red, **{name: change(getattr(red, name))})

    monkeypatch.setattr(cli, "kato_reduction", corrupted)


def _doubled_projection(monkeypatch):
    _corrupted_reduction(monkeypatch, "pi", lambda pi: 2.0 * pi)
    return ["projection is not an orthogonal projection", "projection rank"]


def _shifted_generator(monkeypatch):
    # A skew-Hermitian r plus a real shift is not skew-Hermitian.
    _corrupted_reduction(monkeypatch, "r", lambda r: r + 1e-9 * np.eye(len(r)))
    return ["reduced generator is not skew-Hermitian", "reduced eigenpair residual"]


def _mirrored_coefficients(monkeypatch):
    coefficients = cli.limit_coefficients
    monkeypatch.setattr(cli, "limit_coefficients", lambda spinor: coefficients(spinor)[::-1])
    return ["left mass", "right mass"]


def _shifted_oqrw(monkeypatch):
    reference = cli.oqrw_reference
    monkeypatch.setattr(cli, "oqrw_reference", lambda coin, g, n: reference(coin, g, n) + 1e-6)
    return ["classical-limit oracle deviation"]


def _shifted_qw1d(monkeypatch):
    reference = cli.qw1d_trajectory
    monkeypatch.setattr(cli, "qw1d_trajectory", lambda coin, g, n: (p + 1e-6 for p in reference(coin, g, n)))
    return ["unitary-limit oracle deviation"]


def _scaled_width_one(monkeypatch):
    # The width-1 measure off by a factor 1 + 1e-6: its sum is no longer 1.
    evolve = cli.evolve

    def scaled(state, steps):
        state = evolve(state, steps)
        state.packed *= 1.0 + 1e-6
        return state

    monkeypatch.setattr(cli, "evolve", scaled)
    return ["classical-limit oracle deviation", "classical-limit positivity/normalization"]


def _dented_width_one(monkeypatch):
    # The width-1 measure's leftmost cell, of order 2^-500, pushed to -1e-6:
    # no longer positive, nor of sum 1.
    exact = cli.measure

    def dented(state):
        mu = exact(state)
        if state.m != 1:
            return mu
        values = mu.values.copy()
        values[0] -= 1e-6
        return replace(mu, values=values)

    monkeypatch.setattr(cli, "measure", dented)
    return [
        "classical-limit oracle deviation",
        "classical-limit positivity/normalization: min value",
        "classical-limit positivity/normalization: sum deviation",
    ]


def _drifting_series(monkeypatch):
    # Each width's measure sum off by 1e-9 at its last step: ten times the
    # bound, yet far inside a bound a million times too loose.
    series_of = cli.run_series

    def drifting(coin, m, n, g):
        series = series_of(coin, m, n, g=g)
        series.sum_re[-1] += 1e-9
        return series

    monkeypatch.setattr(cli, "run_series", drifting)
    return ["M=2 measure sum drift", "M=3 measure sum drift"]


@pytest.mark.parametrize(
    "command, text, report, force",
    [
        (
            "simulate", "m = 3\nsteps = 20\n", "provenance.json",
            lambda mp: mp.setattr(cli, "IMAG_TOL", -1.0) or ["odd-width imaginary residue"],
        ),
        ("spectrum", "m = 2\nkgrid = 8\n", "spectrum.json", _scaled_spectrum),
        ("kato", "m = 2\n", "kato.json", _failed_polynomial),
        ("kato", "m = 2\n", "kato.json", _doubled_projection),
        ("kato", "m = 2\n", "kato.json", _shifted_generator),
        ("limits", "m = 2\nsteps = 600\n", "limits.json", _mirrored_coefficients),
        ("oracle-check", "", "oracle_check.json", _shifted_oqrw),
        ("oracle-check", "", "oracle_check.json", _shifted_qw1d),
        ("oracle-check", "", "oracle_check.json", _scaled_width_one),
        ("oracle-check", "", "oracle_check.json", _dented_width_one),
        (
            "characteristics", "steps = 100\nmlist = 2 3\n", "characteristics.json",
            lambda mp: mp.setattr(cli, "IMAG_TOL", -1.0) or ["M=3 odd-width imaginary residue"],
        ),
        ("characteristics", "steps = 100\nmlist = 2 3\n", "characteristics.json", _drifting_series),
    ],
)
def test_subcommand_check_failure_is_one_fail_line_each_exit_1(
    tmp_path, capsys, monkeypatch, command, text, report, force
):
    # Each subcommand's own checks, forced to fail: every recorded failure
    # prints one FAIL line, and the run exits 1 with no traceback.  A JSON
    # report records exactly the checks the forcing must fail, so a check
    # that no longer fails is caught too.
    expected = force(monkeypatch)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    recorded = json.loads((tmp_path / "o" / report).read_text())
    _assert_records(recorded)
    failures = recorded["failures"]
    assert lines == [f"FAIL {command}: {msg}" for msg in failures]
    assert len(failures) == len(expected)
    assert all(msg.startswith(start) for msg, start in zip(failures, expected)), failures
    assert failures
    if command == "spectrum":  # one line for all eigenvalues above the bound, with their count
        _, _, rows = _read_csv(tmp_path / "o" / "spectrum.csv")
        above = sum(float(r[4]) > 1.0 + 1e-10 for r in rows)
        assert 0 < above < len(rows) and lines[0].endswith(f" at {above} of {len(rows)} eigenvalues")


def test_simulate_odd_width_imaginary_residue_fails(tmp_path, capsys, monkeypatch):
    # An imaginary residue of 1e-9 at every step, +1e-9j and -1e-9j in two
    # cells so that the measure sum does not drift: at odd width that
    # exceeds IMAG_TOL and is the one failure.
    exact = cli.measure

    def tilted(state):
        mu = exact(state)
        if mu.n < 1:
            return mu
        values = mu.values.copy()
        values[0] += 1e-9j
        values[-1] -= 1e-9j
        return replace(mu, values=values)

    monkeypatch.setattr(cli, "measure", tilted)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("m = 3\nsteps = 20\nsnapshots = 10 20\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "FAIL simulate: odd-width imaginary residue 1.000e-09 > tol 1.000e-12\n"
    prov = json.loads((tmp_path / "o" / "provenance.json").read_text())
    assert prov["max_abs_imag"] == 1e-9
    assert prov["measure_sum_drift"] <= prov["measure_sum_tol"]


def test_snapshot_range_is_checked_on_load(tmp_path):
    # The config pass checks snapshots after the --steps override.
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("steps = 10\nsnapshots = 5 10\n")
    assert cli.load_config(str(cfg), {"steps": 10}).snapshots == (5, 10)
    with pytest.raises(ValueError, match=r"snapshots must lie in \[1, steps\]"):
        cli.load_config(str(cfg), {"steps": 8})


def test_simulate_rejects_zero_spinor(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("steps = 10\ng = 0,0 0,0\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "g must be a nonzero finite 2-vector" in capsys.readouterr().err
    assert not (tmp_path / "o" / "measure_n10.csv").exists()


def test_simulate_nan_measure_fails_checks(tmp_path, monkeypatch):
    # No config reaches NaN (a band must be finite with a finite l2 norm),
    # so one live cell of the stepped float64 state is poisoned at n = 5.
    # That must fail the conservation check, and the running maxima must
    # carry the NaN rather than report 0.
    trajectory = cli.trajectory

    def poisoned(state, steps):
        for st in trajectory(state, steps):
            if st.n == 5:
                field = st.dense()
                field[LL, st.m // 2, st.center + 1] = np.nan  # u = 1, v = 0: u + v odd, live at n = 5
                pack(st, field)
            yield st

    monkeypatch.setattr(cli, "trajectory", poisoned)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("steps = 10\nsnapshots = 5 10\nm = 3\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    prov = json.loads((tmp_path / "o" / "provenance.json").read_text())
    assert prov["engine"]["dtype"] == "float64"
    assert math.isnan(prov["measure_sum_drift"])
    assert math.isnan(prov["max_abs_imag"])
    assert prov["failures"]


# At 40 steps the n_crit horizon 4M + 40 runs past n for every M.
@pytest.mark.parametrize("steps", [100, 40])
def test_characteristics_n_crit_matches_standalone(tmp_path, steps):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"steps = {steps}\nmlist = 1 2 3 5\n")
    rc = main(["characteristics", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    _, _, rows = _read_csv(tmp_path / "o" / "characteristics.csv")
    hadamard = make_hadamard()
    for r in rows:
        m = int(r[0])
        nmax = 4 * m + 40
        assert int(r[1]) == n_crit(hadamard, m, nmax, tol=1e-12, g=(1.0, 0.0))
    sidecar = json.loads((tmp_path / "o" / "characteristics.json").read_text())
    assert all(entry["n"] == steps for entry in sidecar["per_m"])


def test_sweep_rows_match_simulate(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("steps = 40\nmlist = 2 3\ng = 0.6,0 0,0.8\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == 0
    for m in (2, 3):
        sim = tmp_path / f"sim{m}"
        assert main(["simulate", "--config", str(cfg), "--m", str(m), "--out", str(sim)]) == 0
        for kind in ("measure", "normalized"):
            swept = (tmp_path / "sw" / f"{kind}_M{m}_n40.csv").read_text().splitlines()
            single = (sim / f"{kind}_n40.csv").read_text().splitlines()
            assert swept[1:] == single[1:]  # line 0 is the config digest


def test_band_count_is_checked_per_width(tmp_path, capsys):
    # The band's 4M count is checked against the width each state is built
    # for: sweep builds one per width in mlist, characteristics none.
    cfg = tmp_path / "cfg.txt"
    pairs = " ".join(["0.5,0"] * 12)
    cfg.write_text(f"steps = 20\nmlist = 3\ninit = band\nband = {pairs}\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == 0
    assert (tmp_path / "sw" / "measure_M3_n20.csv").exists()
    cfg.write_text(f"steps = 20\nmlist = 2\ninit = band\nband = {pairs}\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw2")]) == 2
    assert "needs 8 complex entries" in capsys.readouterr().err
    cfg.write_text(f"steps = 200\nmlist = 2\ninit = band\nband = {pairs}\n")
    assert main(["characteristics", "--config", str(cfg), "--out", str(tmp_path / "ch")]) == 0


def test_simulate_complex_band_init_odd_width(tmp_path):
    # A complex band start on a symmetric stripe may carry imaginary
    # residue; it is recorded, not failed.
    cfg = tmp_path / "cfg.txt"
    pairs = " ".join(["0.5,0.1"] * 12)
    cfg.write_text(f"steps = 30\nm = 3\ninit = band\nband = {pairs}\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    prov = json.loads((tmp_path / "o" / "provenance.json").read_text())
    assert prov["failures"] == []


def test_seedless_guard_blocks_rng():
    with _NoRandomGuard():
        with pytest.raises(RuntimeError, match="seedless"):
            np.random.random()
    np.random.random()  # restored afterwards
