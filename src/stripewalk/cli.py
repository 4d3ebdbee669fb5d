"""Command-line front end: reproducible runs, reports, and plot-ready data.

Configuration is a flat ``key = value`` text file (``#`` comments allowed);
complex numbers are written as ``re,im`` pairs, lists are whitespace
separated.  Every output file carries the sha256 of the canonical config
echo, and re-running a config reproduces byte-identical numeric payloads
(the pipeline is deterministic; no randomness is used anywhere).

Subcommands: simulate | spectrum | kato | limits | characteristics |
oracle-check | sweep.  Each lists its verdicts as ``Check`` records, which
``_report`` writes to its JSON report as ``checks`` and ``failures`` and
prints as ``FAIL <command>: <name> <value> > tol <bound><where>`` lines.
Exit status is 0 exactly when every check passes (a NaN never passes), 1
when a check fails, and 2 when the configuration or the input is rejected,
with a one-line message on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .coin import Coin, make_coin, make_hadamard
from .walker import (
    ComplexMeasure,
    band_field,
    evolve,
    init_band_vector,
    init_product,
    measure,
    oqrw_reference,
    qw1d_trajectory,
    stripe_for_width,
    trajectory,
)
from .spectral import (
    kato_reduction,
    perturbed_projection_check,
    poly_residuals,
    snapshot_measure,
    spectrum_engine,
    spectrum_grid,
)
from .limits import (
    SIDE_VARIANCE,
    SIDE_VARIANCE_CUMULANT,
    LimitProfile,
    limit_coefficients,
    limit_profiles,
    mode_masses,
    mode_windows,
    scaled_cdf_distance,
)
from .characteristics import (
    PEAK_DELTA,
    SUPPORT_THRESHOLDS,
    decay_exponent,
    height_ratio,
    n_crit_of_trace,
    run_series,
    tail_exponent,
)

FLOAT_FMT = "%.17g"  # full round-trip precision for regression comparisons

#: Bound on the measure-sum drift, relative to max(1, |initial total|).
CONSERVATION_TOL = 1e-10
#: Bound on the imaginary residue of an odd-width product or mixed start.
IMAG_TOL = 1e-12
#: The onset of negativity is the first min Re mu below -NCRIT_TOL.
NCRIT_TOL = 1e-12
#: Bound on |lambda| - 1 of every eigenvalue that ``spectrum`` writes.
MODULUS_TOL = 1e-10


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


@dataclass
class RunConfig:
    """Flat run configuration with explicit defaults.

    ``coin`` is either the preset "hadamard" or "custom" with the four
    entries given; ``m`` is the stripe width, placed as
    ``stripe_for_width`` places it.  ``init`` is "product" (spinor g, coin
    applied once), "band" (explicit 4M vector, v ascending), or "mixed"
    (the half-half LL/RR cell at v = 0).
    """

    coin: str = "hadamard"
    coin_a: complex = 0j
    coin_b: complex = 0j
    coin_c: complex = 0j
    coin_d: complex = 0j
    m: int = 2
    init: str = "product"
    g: tuple[complex, ...] = (1 + 0j, 0j)
    band: tuple[complex, ...] = ()
    steps: int = 100
    snapshots: tuple[int, ...] = ()
    emit_band_field: bool = False
    kgrid: int = 64
    mlist: tuple[int, ...] = (1, 2, 3, 5, 10)

    def coin_obj(self) -> Coin:
        if self.coin == "hadamard":
            return make_hadamard()
        if self.coin == "custom":
            return make_coin(self.coin_a, self.coin_b, self.coin_c, self.coin_d)
        raise ValueError(f"unknown coin preset {self.coin!r}")

    def snapshot_times(self) -> tuple[int, ...]:
        return self.snapshots if self.snapshots else (self.steps,)

    def widths(self) -> tuple[int, ...]:
        """mlist, the widths of characteristics and sweep; an empty list is rejected."""
        if not self.mlist:
            raise ValueError("mlist is empty; list at least one width")
        return self.mlist

    def spinor(self) -> np.ndarray:
        """g scaled to unit length, the one place it is normalized; zero or non-finite g is rejected."""
        g = np.asarray(self.g, dtype=complex)
        norm = np.linalg.norm(g)
        if g.shape != (2,) or not (np.isfinite(norm) and norm > 0):
            raise ValueError(f"g must be a nonzero finite 2-vector, got {_format_value(self.g)!r}")
        return g / norm

    def band_data(self) -> np.ndarray:
        """The band start as an (M, 4) array; its count must be 4M and its l2 norm finite."""
        data = _bounded_band(self.band)
        if data.size != 4 * self.m:
            raise ValueError(f"band init needs {4 * self.m} complex entries, got {data.size}")
        return data.reshape(self.m, 4)


def _bounded_band(band) -> np.ndarray:
    """The band entries as a complex array; rejects a non-finite entry or an overflowing l2 norm.

    The cut walk does not increase the l2 norm, so a band whose norm is
    finite keeps every cell, measure value and norm of the run finite.
    """
    data = np.asarray(band, dtype=complex)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(data)
    if not np.isfinite(norm):
        raise ValueError(f"band must have finite entries and a finite l2 norm, got norm {norm}")
    return data


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, complex):
        return f"{v.real!r},{v.imag!r}"
    if isinstance(v, tuple):
        return " ".join(_format_value(x) for x in v)
    return str(v)


def _parse_complex(name: str, text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError:
        raise ValueError(f"{name}: expected a complex number written re,im, got {text!r}") from None


def _parse_int(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name}: expected an integer, got {text!r}") from None


#: Element type of each tuple-valued config field.
_TUPLE_FIELDS = {"g": complex, "band": complex, "snapshots": int, "mlist": int}


def _parse_value(name: str, text: str, template):
    if name in _TUPLE_FIELDS:
        parts = text.split()
        if _TUPLE_FIELDS[name] is complex:
            return tuple(_parse_complex(name, p) for p in parts)
        return tuple(_parse_int(name, p) for p in parts)
    if isinstance(template, bool):
        if text.lower() not in ("true", "false"):
            raise ValueError(f"{name}: expected true/false, got {text!r}")
        return text.lower() == "true"
    if isinstance(template, complex):
        return _parse_complex(name, text)
    if isinstance(template, int):
        return _parse_int(name, text)
    return text


def config_to_text(cfg: RunConfig) -> str:
    """Canonical echo: every field explicit, one per line, field order fixed."""
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}" for f in fields(cfg)]
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> RunConfig:
    cfg = RunConfig()
    known = {f.name: f for f in fields(cfg)}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        setattr(cfg, key, _parse_value(key, val, getattr(cfg, key)))
    return cfg


def load_config(path: str | None, overrides: dict) -> RunConfig:
    cfg = config_from_text(Path(path).read_text()) if path else RunConfig()
    for key, val in overrides.items():
        if val is not None:
            setattr(cfg, key, val)
    # The engine reads the band to choose dtype and sublattices, so a bad
    # band stops here; the 4M count is checked per width when a state is
    # built, since sweep builds one for each width in mlist.
    if cfg.init == "band":
        _bounded_band(cfg.band)
    times = cfg.snapshot_times()
    if min(times) < 1 or max(times) > cfg.steps:
        raise ValueError("snapshots must lie in [1, steps]")
    return cfg


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(config_to_text(cfg).encode()).hexdigest()


# --------------------------------------------------------------------------
# output helpers
# --------------------------------------------------------------------------


def _write_csv(path: Path, header: str, rows, digest: str) -> None:
    """Write tuple rows under the digest comment and the header.

    The first row fixes one format for the file: ``FLOAT_FMT`` for its float
    columns, ``%d`` for the others, which must be integers in every row.
    """
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w") as fh:
        fh.write(f"# config_sha256={digest}\n")
        fh.write(header + "\n")
        if first is None:
            return
        fmt = ",".join(FLOAT_FMT if isinstance(v, float) else "%d" for v in first) + "\n"
        fh.write(fmt % first)
        fh.writelines(fmt % row for row in rows)


def _write_json(path: Path, payload: dict, digest: str) -> None:
    payload = {"config_sha256": digest, "version": __version__, **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_measure(out: Path, tag: str, mu: ComplexMeasure, digest: str) -> None:
    """measure_{tag}.csv and normalized_{tag}.csv of one snapshot."""
    n, xs, values = mu.n, mu.positions(), mu.values
    _write_csv(
        out / f"measure_{tag}.csv",
        "n,x,re_mu,im_mu",
        zip(repeat(n), xs.tolist(), values.real.tolist(), values.imag.tolist()),
        digest,
    )
    _write_csv(
        out / f"normalized_{tag}.csv",
        "xbar,n_times_mu",
        zip((xs / n).tolist(), (n * values.real).tolist()),
        digest,
    )


def _complex_pairs(values) -> list:
    """A complex scalar or array of any shape as nested [re, im] lists for JSON."""
    a = np.asarray(values)
    return np.stack([a.real, a.imag], -1).tolist()


def _versions() -> dict:
    """Python and numpy versions, recorded next to each engine record."""
    return {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__}


def _status(command: str, failures: list[str]) -> int:
    """Print one ``FAIL <command>: <message>`` line per failure; the exit status, 1 if any."""
    for msg in failures:
        print(f"FAIL {command}: {msg}", file=sys.stderr)
    return 1 if failures else 0


class Check(NamedTuple):
    """One verdict: a measured value against its bound, a floor when ``floor`` is set."""

    name: str
    value: float
    bound: float
    floor: bool = False
    where: str = ""

    @property
    def ok(self) -> bool:
        """value <= bound (value >= bound for a floor); a NaN never passes."""
        return bool(self.value >= self.bound if self.floor else self.value <= self.bound)

    def message(self) -> str:
        return f"{self.name} {self.value:.3e} {'<' if self.floor else '>'} tol {self.bound:.3e}{self.where}"


def _sum_tol(total0) -> float:
    """The drift bound, relative to a total above 1: a band start's total scales with its norm squared."""
    return CONSERVATION_TOL * max(1.0, abs(total0))


def _report(out: Path, file: str, command: str, payload: dict, checks: list[Check], digest: str) -> int:
    """Write the JSON report with its check records and failures; print the FAIL lines; the exit status."""
    failures = [c.message() for c in checks if not c.ok]
    records = [{**c._asdict(), "ok": c.ok} for c in checks]
    _write_json(out / file, {"command": command, **payload, "checks": records, "failures": failures}, digest)
    return _status(command, failures)


def _initial_state(cfg: RunConfig, n_max: int):
    coin = cfg.coin_obj()
    if cfg.init == "product":
        return init_product(coin, cfg.spinor(), cfg.m, n_max)
    if cfg.init == "mixed":
        s, _ = stripe_for_width(cfg.m)
        data = np.zeros((cfg.m, 4), dtype=complex)
        data[-s] = [0.5, 0.0, 0.0, 0.5]
        return init_band_vector(coin, data, cfg.m, n_max)
    if cfg.init == "band":
        return init_band_vector(coin, cfg.band_data(), cfg.m, n_max)
    raise ValueError(f"unknown init {cfg.init!r}")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_simulate(cfg: RunConfig, out: Path) -> int:
    digest = config_hash(cfg)
    snapshots = sorted(set(cfg.snapshot_times()))
    state = _initial_state(cfg, cfg.steps)
    total0 = measure(state).total()
    sum_tol = _sum_tol(total0)
    checks = []
    max_imag = 0.0
    norm_trace = []
    for state in trajectory(state, snapshots[-1]):
        n_snap = state.n
        if n_snap not in snapshots:
            continue
        mu = measure(state)
        _write_measure(out, f"n{n_snap}", mu, digest)
        if cfg.emit_band_field:
            field = band_field(state)
            values = field["value"]
            _write_csv(
                out / f"band_n{n_snap}.csv",
                "n,x,y,re,im",
                zip(
                    repeat(n_snap),
                    field["x"].tolist(),
                    field["y"].tolist(),
                    values.real.tolist(),
                    values.imag.tolist(),
                ),
                digest,
            )
        # np.maximum and np.max keep a NaN, where max(0.0, nan) would drop it.
        max_imag = float(np.maximum(max_imag, mu.max_abs_imag()))
        norm_trace.append([n_snap, state.norm()])
        checks.append(Check("measure sum drift", abs(mu.total() - total0), sum_tol, where=f" at n={n_snap}"))
    sum_drift = float(np.max([c.value for c in checks]))
    # The conjugate-mirror symmetry forcing a real measure on symmetric
    # stripes holds for product and mixed starts; arbitrary band vectors
    # may legitimately carry imaginary parts, which are only recorded.
    if cfg.m % 2 == 1 and cfg.init != "band":
        checks.append(Check("odd-width imaginary residue", max_imag, IMAG_TOL))
    return _report(
        out, "provenance.json", "simulate",
        {
            "config": config_to_text(cfg),
            "stripe": list(stripe_for_width(cfg.m)),
            "initial_measure_total": _complex_pairs(total0),
            "max_abs_imag": max_imag,
            "measure_sum_drift": sum_drift,
            "measure_sum_tol": sum_tol,
            "norm_trace": norm_trace,
            "engine": state.engine(),
            "versions": _versions(),
            "deterministic": True,
        },
        checks,
        digest,
    )


def cmd_spectrum(cfg: RunConfig, out: Path) -> int:
    digest = config_hash(cfg)
    coin = cfg.coin_obj()
    if cfg.kgrid < 2:
        raise ValueError("kgrid must be >= 2")
    ks, values = spectrum_grid(coin, cfg.m, cfg.kgrid)

    def rows():
        for k, lams in zip(ks.tolist(), values):
            for lam in sorted(lams.tolist(), key=lambda z: (-abs(z), z.real, z.imag)):
                yield cfg.m, k, lam.real, lam.imag, abs(lam)

    _write_csv(out / "spectrum.csv", "M,k,re_lambda,im_lambda,abs_lambda", rows(), digest)
    moduli = np.abs(values)
    max_abs = float(np.max(moduli))
    above = int(np.count_nonzero(~(moduli - 1.0 <= MODULUS_TOL)))  # a NaN counts as above
    check = Check("max |lambda| - 1", max_abs - 1.0, MODULUS_TOL, where=f" at {above} of {moduli.size} eigenvalues")
    return _report(
        out, "spectrum.json", "spectrum",
        {
            "engine": spectrum_engine(coin, cfg.m, cfg.kgrid),
            "max_abs_lambda": max_abs,
            "max_abs_lambda_bound": 1.0 + MODULUS_TOL,
            "versions": _versions(),
        },
        [check],
        digest,
    )


def cmd_kato(cfg: RunConfig, out: Path) -> int:
    digest = config_hash(cfg)
    coin = cfg.coin_obj()
    if cfg.m != 2:
        # Rank 3, the minimal and the characteristic polynomial are width-2 facts.
        raise ValueError(f"kato checks the width-2 statements; got width {cfg.m}, set m = 2")
    # They are Hadamard facts too, as are the delta-expansions.
    if cfg.coin != "hadamard":
        raise ValueError("kato checks the Hadamard statements; set coin = hadamard")
    red = kato_reduction(coin, cfg.m)
    measured = {
        "pi_idempotent": float(np.max(np.abs(red.pi @ red.pi - red.pi))),
        "pi_hermitian": float(np.max(np.abs(red.pi - red.pi.conj().T))),
        "pi_rank": float(np.trace(red.pi).real),
        "r_skew_hermitian": float(np.max(np.abs(red.r + red.r.conj().T))),
        **poly_residuals(red.w0),
        "eigvec_residuals": [
            float(np.linalg.norm(red.r @ v - lam * v))
            for lam, v in zip(red.eigenvalues, red.vectors)
        ],
    }
    projections = []
    for d in (1e-1, 1e-2, 1e-3):
        rep = perturbed_projection_check(red, d)
        projections.append(
            {
                "delta": rep["delta"],
                "matched_eigenvalues": _complex_pairs(rep["eigenvalues"]),
                "residuals": rep["residuals"],
            }
        )
    # np.maximum and np.max keep a NaN, where max() may drop it.
    orthogonality = np.maximum(measured["pi_idempotent"], measured["pi_hermitian"])
    checks = [
        Check("projection is not an orthogonal projection", orthogonality, 1e-12),
        Check("projection rank error", abs(measured["pi_rank"] - 3.0), 1e-10),
        Check("reduced generator is not skew-Hermitian", measured["r_skew_hermitian"], 1e-12),
        Check("minimal polynomial residual", measured["minimal_poly_residual"], 1e-12),
        Check("minimality witness", measured["minimality_witness"], 0.1, floor=True),
        Check("reduced eigenpair residual", np.max(measured["eigvec_residuals"]), 1e-12),
    ]
    return _report(
        out, "kato.json", "kato",
        {
            "stripe": list(stripe_for_width(cfg.m)),
            "pi": _complex_pairs(red.pi),
            "t1": _complex_pairs(red.t1),
            "r": _complex_pairs(red.r),
            "onb": _complex_pairs(red.onb),
            "eigenvalues": _complex_pairs(red.eigenvalues),
            "eigenvectors": _complex_pairs(red.vectors),
            "measured": measured,
            "perturbed_projections": projections,
        },
        checks,
        digest,
    )


def cmd_limits(cfg: RunConfig, out: Path) -> int:
    if cfg.m == 1:
        # Width 1 has the centre mode alone; m < 1 meets the library's width check.
        raise ValueError("m = 1: limits compares the side modes, which width 1 lacks; set m >= 2")
    digest = config_hash(cfg)
    coin = cfg.coin_obj()
    n = cfg.steps
    if cfg.init != "product":
        raise ValueError(
            "the limits command compares against product-start mode weights; "
            "set init = product"
        )
    g = cfg.spinor()
    cell_spinor = coin.matrix @ g
    cell_spinor /= np.linalg.norm(cell_spinor)  # H g is unit only up to rounding
    c_minus, c_zero, c_plus = limit_coefficients(cell_spinor)
    # snapshot_measure never steps, so the start needs no horizon.
    state = init_product(coin, g, cfg.m, 0)
    total0 = measure(state).total()
    mu = snapshot_measure(state, n)
    drift = abs(mu.total() - total0)
    sum_tol = _sum_tol(total0)
    masses = mode_masses(mu)
    profiles = limit_profiles(cell_spinor)
    distances = {}
    distances_cumulant = {}
    for p in profiles:
        distances[p.mode] = scaled_cdf_distance(mu, p)
        var = p.variance if p.mode == "center" else SIDE_VARIANCE_CUMULANT
        q = LimitProfile(p.mode, p.weight, p.speed, var)
        distances_cumulant[p.mode] = scaled_cdf_distance(mu, q)
    windows = mode_windows(n)
    expected = (c_minus.real, c_zero.real, c_plus.real)
    checks = [
        Check(f"{name} mass error", abs(got - want), 0.02, where=f" ({got:.4f} vs {want:.4f})")
        for name, got, want in zip(("left", "center", "right"), masses, expected)
    ]
    checks.append(Check("measure sum drift", drift, sum_tol))
    nonreal = abs(np.conj(cell_spinor[0]) * cell_spinor[1] - (np.conj(cell_spinor[0]) * cell_spinor[1]).real) > 1e-14
    return _report(
        out, "limits.json", "limits",
        {
            "n": n,
            "coefficients": {
                "c_minus": _complex_pairs(c_minus),
                "c_zero": _complex_pairs(c_zero),
                "c_plus": _complex_pairs(c_plus),
                "nonreal_flag": bool(nonreal),
            },
            "masses": {"left": masses[0], "center": masses[1], "right": masses[2]},
            "windows": {
                "w_coeff": 4.0,  # the default w of the limits functions
                "left": list(windows[0]),
                "center": list(windows[1]),
                "right": list(windows[2]),
            },
            "cdf_distances": distances,
            "cdf_distances_corrected_side_variance": distances_cumulant,
            "side_variances": {
                "stated": SIDE_VARIANCE,
                "second_order_cumulant": SIDE_VARIANCE_CUMULANT,
            },
            "max_abs_imag": mu.max_abs_imag(),
            "measure_sum_drift": drift,
            "measure_sum_tol": sum_tol,
            "engine": {"momenta": 2 * n + 1},
            "versions": _versions(),
        },
        checks,
        digest,
    )


def _characteristics_row(cfg: RunConfig, m: int) -> tuple[tuple, dict, list[Check]]:
    coin = cfg.coin_obj()
    n = cfg.steps
    nmax = 4 * m + 40
    # One evolution serves both the fits and n_crit; it runs past n only
    # when the n_crit horizon does.
    series = run_series(coin, m, max(n, nmax), g=cfg.spinor())
    lo, hi = n // 2, n
    sel = series.slice_window(lo, hi)
    xmax = float(np.nanmean(series.peak_xbar[sel]))
    try:
        nc = n_crit_of_trace(series.min_re, m, nmax, NCRIT_TOL)
        ratio = height_ratio(series, lo, hi)
        gamma = tail_exponent(series, (lo, hi))
        r_center = decay_exponent(series, "center", (lo, hi))
        r_side = decay_exponent(series, "side", (lo, hi))
    except ValueError as exc:
        raise ValueError(f"M={m}: {exc}") from None
    row = (m, nc, xmax, ratio, gamma.slope, r_center.slope, r_side.slope)
    deviation = float(np.max(np.abs(series.sum_re[:n] - series.sum_re[0])))
    imag = float(np.max(series.max_abs_im[:n]))
    # The run is a product start, real at every odd width.
    checks = [Check(f"M={m} measure sum drift", deviation, _sum_tol(series.sum_re[0]))]
    if m % 2 == 1:
        checks.append(Check(f"M={m} odd-width imaginary residue", imag, IMAG_TOL))
    sidecar = {
        "M": m,
        "n": n,
        "n_crit": {"value": nc, "n_max": nmax, "tol": NCRIT_TOL},
        "fit_window": [lo, hi],
        "delta": PEAK_DELTA,
        "support_threshold": SUPPORT_THRESHOLDS[1],
        "support_thresholds_recorded": list(SUPPORT_THRESHOLDS),
        "gamma": {
            "slope": gamma.slope,
            "rms_residual": gamma.rms_residual,
            "used_window": list(gamma.used_window),
            "oscillating": gamma.oscillating,
            "sensitivity": gamma.sensitivity,
        },
        "r_center": {"slope": r_center.slope, "rms_residual": r_center.rms_residual},
        "r_side": {"slope": r_side.slope, "rms_residual": r_side.rms_residual},
        "max_sum_deviation": deviation,
        "max_abs_imag": imag,
        "engine": series.engine,
        "versions": _versions(),
    }
    return row, sidecar, checks


def cmd_characteristics(cfg: RunConfig, out: Path, workers: int = 1) -> int:
    digest = config_hash(cfg)
    mlist = cfg.widths()
    if workers < 1:
        raise ValueError(f"--workers must be >= 1, got {workers}")
    # The pool starts all its processes at once, so it gets no more than
    # there are widths.
    workers = min(workers, len(mlist))
    if workers > 1:
        # Imported here: it pulls in multiprocessing, which no other run needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_characteristics_row, repeat(cfg), mlist))
    else:
        results = [_characteristics_row(cfg, m) for m in mlist]
    rows, sidecars, checks = zip(*results)
    _write_csv(out / "characteristics.csv", "M,n_crit,xmax,ratio,gamma,r_center,r_side", rows, digest)
    checks = [c for width_checks in checks for c in width_checks]
    return _report(out, "characteristics.json", "characteristics", {"per_m": list(sidecars)}, checks, digest)


def cmd_oracle_check(cfg: RunConfig, out: Path) -> int:
    digest = config_hash(cfg)
    coin = cfg.coin_obj()
    report = {}
    # Unitary-limit suite: untouched stripe reproduces the plain walk.
    n = 50
    worst_qw = 0.0
    for g in (np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2)):
        band = trajectory(init_product(coin, g, 2 * n + 1, n), n)
        for state, ref in zip(band, qw1d_trajectory(coin, g, n)):
            worst_qw = float(np.maximum(worst_qw, np.max(np.abs(measure(state).values - ref))))
    report["unitary_limit_max_abs_diff"] = worst_qw
    # Classical-limit suite: width 1 reproduces the dissipative recursion.
    n = 500
    worst_cl = 0.0
    worst_neg = 0.0
    worst_sum = 0.0
    for g in (np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2)):
        got = measure(evolve(init_product(coin, g, 1, n), n)).values
        ref = oqrw_reference(coin, g, n)
        worst_cl = float(np.maximum(worst_cl, np.max(np.abs(got - ref))))
        worst_neg = float(np.minimum(worst_neg, got.real.min()))
        worst_sum = float(np.maximum(worst_sum, abs(got.sum() - 1.0)))
    report["classical_limit_max_abs_diff"] = worst_cl
    report["classical_limit_min_value"] = worst_neg
    report["classical_limit_sum_deviation"] = worst_sum
    checks = [
        Check("unitary-limit oracle deviation", worst_qw, 1e-12),
        Check("classical-limit oracle deviation", worst_cl, 1e-12),
        Check("classical-limit positivity/normalization: min value", worst_neg, -1e-12, floor=True),
        Check("classical-limit positivity/normalization: sum deviation", worst_sum, 1e-12),
    ]
    return _report(out, "oracle_check.json", "oracle-check", report, checks, digest)


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    digest = config_hash(cfg)
    n = cfg.steps
    mlist = cfg.widths()
    starts = [_initial_state(replace(cfg, m=m), n) for m in mlist]  # reject before any write
    for m, state in zip(mlist, starts):
        _write_measure(out, f"M{m}_n{n}", measure(evolve(state, n)), digest)
    return _report(out, "provenance.json", "sweep", {"config": config_to_text(cfg)}, [], digest)


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


class _NoRandomGuard:
    """With --seedless, poison numpy's RNG entry points for the run."""

    _names = ("random", "rand", "randn", "randint", "choice", "seed", "normal", "uniform")

    def __enter__(self):
        def _raise(*_a, **_k):
            raise RuntimeError("randomness is forbidden in a --seedless run")

        self._saved = [(np.random, n, getattr(np.random, n)) for n in self._names]
        for mod, name, _ in self._saved:
            setattr(mod, name, _raise)
        return self

    def __exit__(self, *exc):
        for mod, name, fn in self._saved:
            setattr(mod, name, fn)
        return False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stripewalk",
        description="Simulate and analyze the stripe-cut quantum walk.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "spectrum", "kato", "limits", "characteristics", "oracle-check", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument(
            "--seedless",
            action="store_true",
            help="assert that the run draws no randomness",
        )
        p.add_argument("--steps", type=int, default=None, help="override steps")
        p.add_argument("--m", type=int, default=None, help="override stripe width")
        if name == "characteristics":
            p.add_argument(
                "--workers", type=int, default=1, help="worker processes, at most one per width"
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a rejected configuration or input exits 2 with one line.

    A check inside the library that fails (an eigenpair residual, a solver
    that does not converge, an ambiguous projection) raises RuntimeError,
    which exits 1 with one ``FAIL`` line like the subcommands' own checks.
    """
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, {"steps": args.steps, "m": args.m})
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        dispatch = {
            "simulate": lambda: cmd_simulate(cfg, out),
            "spectrum": lambda: cmd_spectrum(cfg, out),
            "kato": lambda: cmd_kato(cfg, out),
            "limits": lambda: cmd_limits(cfg, out),
            "characteristics": lambda: cmd_characteristics(cfg, out, args.workers),
            "oracle-check": lambda: cmd_oracle_check(cfg, out),
            "sweep": lambda: cmd_sweep(cfg, out),
        }
        with _NoRandomGuard() if args.seedless else nullcontext():
            return dispatch[args.command]()
    except ValueError as exc:
        print(f"stripewalk {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        return _status(args.command, [str(exc)])


if __name__ == "__main__":
    sys.exit(main())
