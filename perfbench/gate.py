"""Output gate: a CLI run passes when its outputs match the seed commit's.

The reference of one workload variant is ``v<i>.json``, holding for every
output file the seed commit wrote:

* for a JSON file, the whole parsed document;
* for a CSV file, its header and row count.  The values themselves are
  stored in full in ``v<i>.npz`` and every value is compared, except for
  the two large kinds in ``SKETCHED`` (band fields and the spectrum,
  3-4 MB per run);
* for a sketched CSV file, per-column sums, sums of absolute values and a
  +-1-weighted sum over all rows, and a sample of rows taken at evenly
  spaced positions.  Sampled values are held to the file's tolerance and
  each column aggregate to tolerance x rows (the bound the aggregate obeys
  when every value does), so outside the sample a single value is held
  only to tolerance x rows.  Any NaN in the file turns an aggregate into
  NaN and fails it.

Every test reads ``not (err <= tol)`` so that a NaN error fails.
Metadata that changes when the config schema grows (the config echo, its
sha256 and the version) is not compared; integer columns and strings are
compared exactly.  Files the reference does not list are ignored here;
the byte-identity check between runs of one set still covers them.
"""

from __future__ import annotations

import hashlib
import json
import math
from fnmatch import fnmatch
from pathlib import Path

import numpy as np

#: Rows sampled per CSV file, and row groups sampled per grouped file.
SAMPLE_ROWS = 32
SAMPLE_GROUPS = 4

#: JSON keys that describe the run rather than its results.
METADATA_KEYS = {"config", "config_sha256", "version"}

#: CSV columns holding integers, compared exactly.
INT_COLUMNS = {"M", "n", "x", "y", "n_crit"}

#: CSV files too large to store in full; they are compared through a sketch.
SKETCHED = ("band_*.csv", "spectrum.csv")

#: CSV files whose rows are an unordered multiset within a group of equal
#: keys: eigenvalues at one k are sorted by modulus, and near-equal moduli
#: may legitimately swap under last-bit changes.
GROUPED = {"spectrum.csv": "k"}

#: (file pattern, absolute tolerance) per workload; first match wins.
#: Measure, band and limits values: 1e-12.  The normalized CSV holds
#: n * Re mu, so its tolerance is 1e-12 scaled by n <= 2000.  Spectrum
#: values: 1e-10.  Characteristics fits (slopes, ratios) are least-squares
#: outputs of the measure and get 1e-9, except the keys in ``KEY_TOLERANCES``;
#: n_crit is an integer and exact.
TOLERANCES = {
    "characteristics": [("*", 1e-9)],
    "simulate-band": [("normalized_*.csv", 2e-9), ("*", 1e-12)],
    "limits-narrow": [("*", 1e-12)],
    "spectrum-grid": [("*", 1e-10)],
}


#: JSON keys that hold measure values wherever they appear: 1e-12.
KEY_TOLERANCES = {"max_sum_deviation": 1e-12, "max_abs_imag": 1e-12}


def tolerance(workload: str, name: str) -> float:
    for pattern, tol in TOLERANCES[workload]:
        if fnmatch(name, pattern):
            return tol
    raise KeyError(name)


def output_hashes(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir()) if p.is_file()}


def _sketched(name: str) -> bool:
    return any(fnmatch(name, pattern) for pattern in SKETCHED)


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and values of a CSV written by the CLI (comment line first)."""
    with open(path) as fh:
        fh.readline()
        header = fh.readline().strip().split(",")
    values = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2, dtype=float)
    if values.size == 0:
        values = np.zeros((0, len(header)))
    return header, values


def _signs(count: int) -> np.ndarray:
    """Fixed pseudo-random +-1 weights, recomputable from the count alone."""
    return np.where(np.random.default_rng(12345).random(count) < 0.5, -1.0, 1.0)


def _group_ids(values: np.ndarray, col: int) -> np.ndarray:
    """Group index of each row: runs of equal key in file order."""
    if len(values) == 0:
        return np.zeros(0, dtype=int)
    starts = np.concatenate([[True], values[1:, col] != values[:-1, col]])
    return np.cumsum(starts) - 1


def _sample_positions(count: int, size: int) -> list[int]:
    if count == 0:
        return []
    return sorted(set(np.linspace(0, count - 1, min(size, count)).astype(int).tolist()))


def _csv_sketch(name: str, header: list[str], values: np.ndarray) -> dict:
    group_col = header.index(GROUPED[name]) if name in GROUPED else None
    if group_col is None:
        weights = _signs(len(values))
        sample = _sample_positions(len(values), SAMPLE_ROWS)
        rows = [values[i].tolist() for i in sample]
    else:
        gid = _group_ids(values, group_col)
        ngroups = int(gid[-1]) + 1 if len(gid) else 0
        weights = _signs(ngroups)[gid]
        sample = _sample_positions(ngroups, SAMPLE_GROUPS)
        rows = [values[gid == g].tolist() for g in sample]
    return {
        "sums": values.sum(axis=0).tolist(),
        "abs_sums": np.abs(values).sum(axis=0).tolist(),
        "signed_sums": (weights[:, None] * values).sum(axis=0).tolist(),
        "sample": sample,
        "sample_rows": rows,
    }


def _entry(path: Path, arrays: dict[str, np.ndarray]) -> dict:
    """Reference entry of one output file; full CSV values go to ``arrays``."""
    if path.suffix == ".json":
        return {"kind": "json", "data": json.loads(path.read_text())}
    header, values = _read_csv(path)
    entry = {"kind": "csv", "header": header, "rows": int(len(values))}
    if _sketched(path.name):
        entry.update(_csv_sketch(path.name, header, values))
    else:
        arrays[path.name] = values
    return entry


def _differs(got: float, want: float, tol: float) -> bool:
    """NaN-aware: a NaN on one side only, or an error above tol, differs."""
    if isinstance(want, float) and math.isnan(want):
        return not (isinstance(got, float) and math.isnan(got))
    return not (abs(got - want) <= tol)


def _compare_json(got, want, tol: float, where: str, errors: list[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict):
            errors.append(f"{where}: expected an object")
            return
        for key, sub in want.items():
            if key in METADATA_KEYS:
                continue
            if key not in got:
                errors.append(f"{where}.{key}: missing")
                continue
            key_tol = min(tol, KEY_TOLERANCES.get(key, tol))
            _compare_json(got[key], sub, key_tol, f"{where}.{key}", errors)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            errors.append(f"{where}: expected a list of {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, tol, f"{where}[{i}]", errors)
    elif isinstance(want, float) and not isinstance(want, bool):
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            errors.append(f"{where}: expected a number, got {got!r}")
        elif _differs(float(got), want, tol):
            errors.append(f"{where}: {got!r} vs reference {want!r} (tol {tol:g})")
    elif got != want:
        errors.append(f"{where}: {got!r} vs reference {want!r}")


def _compare_rows(got: np.ndarray, want: np.ndarray, int_cols: np.ndarray) -> float | None:
    """Largest float error between two row blocks, None if integers differ."""
    if got.shape != want.shape or not np.array_equal(got[:, int_cols], want[:, int_cols]):
        return None
    err = np.abs(got[:, ~int_cols] - want[:, ~int_cols])
    return float(np.max(err)) if err.size else 0.0


def _match_group(got: np.ndarray, want: np.ndarray, int_cols: np.ndarray) -> float | None:
    """Largest error under a greedy nearest matching of unordered rows."""
    if got.shape != want.shape or not np.array_equal(
        np.unique(got[:, int_cols], axis=0), np.unique(want[:, int_cols], axis=0)
    ):
        return None
    fl = ~int_cols
    dist = np.max(np.abs(want[:, None, fl] - got[None, :, fl]), axis=2)
    dist = np.where(np.isnan(dist), np.inf, dist)
    worst = 0.0
    free = np.ones(len(got), dtype=bool)
    for i in range(len(want)):
        j = int(np.argmin(np.where(free, dist[i], np.inf)))
        free[j] = False
        worst = max(worst, float(dist[i, j]))
    return worst


def _compare_full(name: str, header: list[str], got: np.ndarray, want: np.ndarray, tol: float,
                  errors: list[str]) -> None:
    """Every value: integer columns exactly, the others within tol."""
    int_cols = np.array([h in INT_COLUMNS for h in header])
    bad_int = np.any(got[:, int_cols] != want[:, int_cols], axis=1)
    err = np.abs(got[:, ~int_cols] - want[:, ~int_cols])
    both_nan = np.isnan(got[:, ~int_cols]) & np.isnan(want[:, ~int_cols])
    bad = bad_int | np.any(~(err <= tol) & ~both_nan, axis=1)
    if np.any(bad):
        row = int(np.argmax(bad))
        errors.append(f"{name}: {int(bad.sum())} rows differ from the reference beyond tol {tol:g}, "
                      f"first at row {row}: {got[row].tolist()} vs {want[row].tolist()}")


def _compare_sketch(name: str, header: list[str], values: np.ndarray, ref: dict, tol: float,
                    errors: list[str]) -> None:
    got = _csv_sketch(name, header, values)
    bound = tol * max(1, len(values))
    for key in ("sums", "abs_sums", "signed_sums"):
        for col, g, w in zip(header, got[key], ref[key]):
            if _differs(g, w, bound):
                errors.append(f"{name}: {key}[{col}] {g!r} vs reference {w!r} (tol {bound:g})")
    if got["sample"] != ref["sample"]:
        errors.append(f"{name}: sampled positions differ from the reference")
        return
    int_cols = np.array([h in INT_COLUMNS for h in header])
    compare = _match_group if name in GROUPED else _compare_rows
    for pos, g, w in zip(ref["sample"], got["sample_rows"], ref["sample_rows"]):
        g, w = np.asarray(g, dtype=float).reshape(-1, len(header)), np.asarray(w, dtype=float).reshape(-1, len(header))
        err = compare(g, w, int_cols)
        if err is None:
            errors.append(f"{name}: integer columns differ at sample {pos}")
        elif not (err <= tol):
            errors.append(f"{name}: error {err!r} at sample {pos} (tol {tol:g})")


def _compare_csv(path: Path, ref: dict, want: np.ndarray | None, tol: float, errors: list[str]) -> None:
    name = path.name
    header, values = _read_csv(path)
    if header != ref["header"]:
        errors.append(f"{name}: header {header} vs reference {ref['header']}")
    elif len(values) != ref["rows"]:
        errors.append(f"{name}: {len(values)} rows vs reference {ref['rows']}")
    elif want is None:
        _compare_sketch(name, header, values, ref, tol, errors)
    else:
        _compare_full(name, header, values, want, tol, errors)


def check_outputs(out_dir: Path, reference: dict) -> list[str]:
    """Errors of one run's outputs against a reference; empty when it passes."""
    errors: list[str] = []
    workload = reference["workload"]
    for name, ref in reference["files"].items():
        path = out_dir / name
        if not path.is_file():
            errors.append(f"{name}: missing")
            continue
        tol = tolerance(workload, name)
        if ref["kind"] == "json":
            try:
                data = json.loads(path.read_text())
            except ValueError as exc:
                errors.append(f"{name}: unreadable JSON ({exc})")
                continue
            _compare_json(data, ref["data"], tol, name, errors)
        else:
            try:
                _compare_csv(path, ref, reference["arrays"].get(name), tol, errors)
            except ValueError as exc:
                errors.append(f"{name}: unreadable CSV ({exc})")
    return errors


def make_reference(workload: str, variant: int, config: str, out_dir: Path, revision: str) -> dict:
    arrays: dict[str, np.ndarray] = {}
    files = {p.name: _entry(p, arrays) for p in sorted(out_dir.iterdir()) if p.is_file()}
    return {
        "workload": workload,
        "variant": variant,
        "produced_by": revision,
        "config": config,
        "files": files,
        "arrays": arrays,
    }


def save_reference(reference: dict, stem: Path) -> None:
    """Write ``stem.json`` and the full CSV values to ``stem.npz``."""
    doc = {k: v for k, v in reference.items() if k != "arrays"}
    stem.with_suffix(".json").write_text(json.dumps(doc, sort_keys=True) + "\n")
    np.savez_compressed(stem.with_suffix(".npz"), **reference["arrays"])


def load_reference(stem: Path) -> dict:
    reference = json.loads(stem.with_suffix(".json").read_text())
    with np.load(stem.with_suffix(".npz")) as npz:
        reference["arrays"] = {name: npz[name] for name in npz.files}
    return reference
