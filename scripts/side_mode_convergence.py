#!/usr/bin/env python3
"""Convergence of the width-2 three-mode split at large n.

Runs ``stripewalk limits --steps n`` on the default config (Hadamard,
M = 2, g = (1, 0)) once per n, each into its own directory, and prints
from each ``limits.json`` the Kolmogorov distances of the side modes to
N(0, 1/9) (the mode table's width) and to the stated N(0, 4/9), the
three mode-mass errors against the table's c_j, and the snapshot's two
rounding residues; n = 5e4 takes about a second.  Exits with the worst
status of the runs, and at once with 2, after the CLI's one line, when
an n is rejected (the windows overlap below n = 192).

    python scripts/side_mode_convergence.py --steps 2000 5000 10000 20000 50000
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

from stripewalk import cli

STEPS = (2000, 5000, 10_000, 20_000, 50_000)
#: The report's K-S keys, against N(0, 1/9) then N(0, 4/9), and its (mode, coefficient) names.
KS = ("cdf_distances_corrected_side_variance", "cdf_distances")
MODES = (("left", "c_minus"), ("center", "c_zero"), ("right", "c_plus"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, nargs="*", default=list(STEPS))
    args = parser.parse_args()
    print(
        "n,ks_left_1/9,ks_right_1/9,ks_left_4/9,ks_right_4/9,"
        "mass_err_left,mass_err_center,mass_err_right,residue_off_sublattice,residue_imag"
    )
    status = 0
    with tempfile.TemporaryDirectory(prefix="side-modes-") as tmp:
        for n in args.steps:
            out = Path(tmp) / f"n{n}"
            rc = cli.main(["limits", "--steps", str(n), "--out", str(out)])
            if rc == 2:
                return 2
            status = max(status, rc)
            r = json.loads((out / "limits.json").read_text())
            ks = [r[key][side] for key in KS for side in ("left", "right")]
            errors = [r["masses"][name] - r["coefficients"][key][0] for name, key in MODES]
            residue = [r["snapshot_residues"][key] for key in ("off_sublattice", "imag")]
            print(",".join([str(n)] + [f"{v:.6e}" for v in ks + errors + residue]), flush=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
