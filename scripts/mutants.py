#!/usr/bin/env python3
"""Mutation check of the tier-1 suite: each listed one-line fault must turn it red.

Every entry of ``MUTANTS`` replaces one exact text of one library file.
Each mutant is applied, one at a time, to a fresh copy of the repository
under a temporary directory, and the tier-1 suite runs there with ``-x``
and without the two criteria that are red by design (c06, c08).  A mutant
is killed when the suite fails.  The unchanged copy must pass first, or
no verdict would mean anything.  Prints one line per mutant and exits 1
when a mutant that is not marked equivalent survives.

Standard library only; a full run takes a few minutes, so it is not part
of tier-1 (which checks only that every listed text occurs once).

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

#: The tier-1 command, stopping at the first failure.  The mutant-list
#: test is left out: in a mutated copy its text is gone by design.
PYTEST = [
    sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
    "-p", "no:cacheprovider",
    "--deselect", "tests/test_acceptance.py::test_c06_three_mode_limit",
    "--deselect", "tests/test_acceptance.py::test_c08_critical_time_rule",
    "--deselect", "tests/test_scripts.py::test_mutants_name_library_text_once",
]


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    equivalent: str = ""  # why no test can tell it apart, if none can


_COIN = "src/stripewalk/coin.py"
_WALKER = "src/stripewalk/walker.py"
_SPECTRAL = "src/stripewalk/spectral.py"
_CLI = "src/stripewalk/cli.py"

MUTANTS = (
    # The coin's blocks.
    Mutant(
        _COIN,
        "np.stack([pp[:, LL], qq[:, RR], pq[:, LR], qp[:, RL]], axis=1)",
        "np.stack([qq[:, RR], pp[:, LL], pq[:, LR], qp[:, RL]], axis=1)",
    ),
    Mutant(
        _COIN,
        "np.stack([pp[:, LL], qq[:, RR], pq[:, LR], qp[:, RL]], axis=1)",
        "np.stack([pp[:, LL], qq[:, RR], qp[:, RL], pq[:, LR]], axis=1)",
    ),
    Mutant(_COIN, "q_row=np.array([[0, 0], [c, d]], dtype=complex)", "q_row=np.array([[0, 0], [d, c]], dtype=complex)"),
    # The coin's realness: a complex coin must not take the real product.
    Mutant(
        _COIN,
        "real_weights=None if np.any(weights.imag) else np.ascontiguousarray(weights.real),",
        "real_weights=np.ascontiguousarray(weights.real),",
    ),
    # The kernel's gathers, and the column doubling of a complex field's float64 view.
    Mutant(
        _WALKER,
        "gathered[:, 0] = a[LL, rows, j0 + k * q : j1 + k * q]",
        "gathered[:, 0] = a[LL, rows, j0 + k * (q - 1) : j1 + k * (q - 1)]",
    ),
    Mutant(
        _WALKER,
        "gathered[:, 1] = a[RR, rows, j0 + k * (q - 1) : j1 + k * (q - 1)]",
        "gathered[:, 1] = a[RR, rows, j0 + k * q : j1 + k * q]",
    ),
    Mutant(_WALKER, "gathered[:, 2] = a[LR, up, j0:j1]", "gathered[:, 2] = a[LR, dn, j0:j1]"),
    Mutant(_WALKER, "k = src.itemsize // weights.itemsize", "k = 1"),
    # The cut: the rows read across the stripe edge are the zero guards.
    Mutant(
        _WALKER,
        "(slice(0, ne), slice(0, m, 2), slice(ne + 1, 2 * ne + 1), slice(ne, 2 * ne)),",
        "(slice(0, ne), slice(0, m, 2), slice(ne, 2 * ne), slice(ne, 2 * ne)),",
    ),
    Mutant(
        _WALKER,
        "(slice(ne + 1, m + 1), slice(1, m, 2), slice(1, m - ne + 1), slice(0, m - ne)),",
        "(slice(ne + 1, m + 1), slice(1, m, 2), slice(0, m - ne), slice(0, m - ne)),",
    ),
    # The drop of negligible edge columns.
    Mutant(_WALKER, "if not abs(value) < tiny:", "if abs(value) >= tiny:"),
    Mutant(_WALKER, "while lo < hi and _drop(dst, columns, hi - 1, tiny):", "while False and _drop(dst, columns, hi - 1, tiny):"),
    Mutant(_WALKER, "tiny = np.finfo(dst.dtype).tiny", "tiny = np.finfo(dst.dtype).eps"),
    # The diagonal measure.
    Mutant(_WALKER, "if vrows.start == r % 2:", "if vrows.start != r % 2:"),
    Mutant(_WALKER, "np.add(cells[LL], cells[RR], out=out[i0::2])", "np.subtract(cells[LL], cells[RR], out=out[i0::2])"),
    # The orbit maps of the momentum grid.
    Mutant(_SPECTRAL, "return np.repeat((-1.0) ** np.arange(m), 4)", "return np.repeat((1.0) ** np.arange(m), 4)"),
    Mutant(_SPECTRAL, "np.array([LL, RL, LR, RR])", "np.array([LL, LR, RL, RR])"),
    Mutant(_SPECTRAL, "vals = np.concatenate([vals, -vals])[fill]", "vals = np.concatenate([vals, vals])[fill]"),
    Mutant(
        _SPECTRAL,
        "chi[size - own[mirrored]] = y[mirrored][:, q_mirror, 1].sum(axis=1).conj()",
        "chi[size - own[mirrored]] = y[mirrored][:, q_mirror, 1].sum(axis=1)",
    ),
    # The real gauge and the split of W_R(k) into two real blocks.
    Mutant(
        _SPECTRAL,
        "np.exp(1j * self.chi * np.array([0, 1, -1, 0]))",
        "np.exp(1j * self.chi * np.array([0, -1, 1, 0]))",
    ),
    Mutant(
        _SPECTRAL,
        "rows = np.exp(-1j * self.phi * np.arange(m))[:, None]",
        "rows = np.exp(-1j * 0.0 * np.arange(m))[:, None]",
    ),
    Mutant(_SPECTRAL, "lifts = [gauge.phases(m)[:, None] * s for s in bases]", "lifts = [s for s in bases]"),
    Mutant(_SPECTRAL, "        [0, 1j, 0, 0],\n", "        [0, -1j, 0, 0],\n"),
    Mutant(
        _SPECTRAL,
        "w_real = w_stack(real, m, ks[rows[: fill.shape[1]]])",
        "w_real = w_stack(b, m, ks[rows[: fill.shape[1]]])",
    ),
    # The snapshot's residue checks.
    Mutant(_SPECTRAL, "    if not worst <= tol:", "    if not worst <= 1e6 * tol:"),
    Mutant(_SPECTRAL, "        off[:] = 0", "        off[:] *= 1"),
    Mutant(_SPECTRAL, "values = values.real.astype(complex)", "values = values.astype(complex)"),
    # The CLI's checks: the one comparison of every record, and each record's bound.
    Mutant(_CLI, "self.value >= self.bound if self.floor", "self.value <= self.bound if self.floor"),
    Mutant(_CLI, "else self.value <= self.bound)", "else not self.value > self.bound)"),
    Mutant(_CLI, "CONSERVATION_TOL = 1e-10", "CONSERVATION_TOL = 1e-3"),
    Mutant(_CLI, "IMAG_TOL = 1e-12", "IMAG_TOL = 1e-6"),
    Mutant(_CLI, "MODULUS_TOL = 1e-10", "MODULUS_TOL = 1.0"),
    Mutant(_CLI, "orthogonality, 1e-12)", "orthogonality, 1e3)"),
    Mutant(_CLI, 'abs(measured["pi_rank"] - 3.0), 1e-10)', 'abs(measured["pi_rank"] - 3.0), 1e3)'),
    Mutant(_CLI, 'measured["r_skew_hermitian"], 1e-12)', 'measured["r_skew_hermitian"], 1e-6)'),
    Mutant(_CLI, 'measured["minimal_poly_residual"], 1e-12)', 'measured["minimal_poly_residual"], 1e3)'),
    Mutant(_CLI, 'measured["minimality_witness"], 0.1, floor=True)', 'measured["minimality_witness"], 0.0, floor=True)'),
    Mutant(_CLI, 'np.max(measured["eigvec_residuals"]), 1e-12)', 'np.max(measured["eigvec_residuals"]), 1e-6)'),
    Mutant(_CLI, "abs(got - want), 0.02,", "abs(got - want), 1.0,"),
    Mutant(_CLI, 'Check("measure sum drift", drift, sum_tol))', 'Check("measure sum drift", drift, math.inf))'),
    Mutant(_CLI, "worst_qw, 1e-12)", "worst_qw, 1e-3)"),
    Mutant(_CLI, "worst_cl, 1e-12)", "worst_cl, 1e-3)"),
    Mutant(_CLI, "worst_neg, -1e-12, floor=True)", "worst_neg, -1.0, floor=True)"),
    Mutant(_CLI, "worst_sum, 1e-12)", "worst_sum, 1e-3)"),
    Mutant(_CLI, "return _status(args.command, [str(exc)])", "return _status(args.command, [])"),
    # The characteristics sidecar's health values.
    Mutant(_CLI, "series.max_abs_im[:n]", "series.max_abs_im[:1]"),
    Mutant(_CLI, "series.sum_re[:n] - series.sum_re[0]", "series.sum_re[: n // 2] - series.sum_re[0]"),
    Mutant(_CLI, "_sum_tol(series.sum_re[0])", "1e6 * _sum_tol(series.sum_re[0])"),
    Mutant(
        _CLI,
        "NCRIT_TOL = 1e-12",
        "NCRIT_TOL = 1e-9",
        equivalent="every onset dip on the frozen table is at least 2.9e-5 deep",
    ),
)


def _copy(dest: Path) -> Path:
    """A copy of the working tree at dest/repo, without git data, caches and run outputs."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "_work", "out")
    return Path(shutil.copytree(ROOT, dest / "repo", ignore=ignore))


def _suite_passes(mutant: Mutant | None) -> bool:
    """Whether tier-1 passes in a fresh copy with the mutant applied (none: unchanged)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        repo = _copy(Path(tmp))
        if mutant is not None:
            path = repo / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new, 1))
        env = {**os.environ, "PYTHONPATH": str(repo / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        run = subprocess.run(PYTEST, cwd=repo, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return run.returncode == 0


def main() -> int:
    for mutant in MUTANTS:
        text = (ROOT / mutant.file).read_text()
        if text.count(mutant.old) != 1 or mutant.old == mutant.new:
            print(f"stale mutant in {mutant.file}: {mutant.old!r}", file=sys.stderr)
            return 2
    if not _suite_passes(None):
        print("the unchanged suite fails; no mutant can be judged", file=sys.stderr)
        return 2
    counts = {"killed": 0, "survived": 0, "equivalent": 0}
    for i, mutant in enumerate(MUTANTS, start=1):
        start = time.perf_counter()
        survived = _suite_passes(mutant)
        verdict = "killed" if not survived else "equivalent" if mutant.equivalent else "survived"
        counts[verdict] += 1
        line = f"{i:2d} {verdict:10s} {time.perf_counter() - start:5.1f}s  {mutant.file}: {mutant.old.strip()!r} -> {mutant.new.strip()!r}"
        if verdict == "equivalent":
            line += f" ({mutant.equivalent})"
        print(line, flush=True)
    print(", ".join(f"{n} {name}" for name, n in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
