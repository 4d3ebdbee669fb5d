#!/usr/bin/env python3
"""Convergence of the width-2 three-mode split at large n.

For the Hadamard walk on a width-2 stripe, prints at each n the Kolmogorov
distance of each side mode's scaled CDF to N(0, 1/9) (the second-order
cumulant) and to N(0, 4/9) (the stated side variance), and the error of
the three mode masses against the weights c_-, 1/2, c_+.  Each mu_n comes
from ``spectral.snapshot_measure``, so n = 5e4 takes about a second; the
two rounding residues it returns close each row, and the script exits 1
when one exceeds ``SNAPSHOT_RESIDUE_TOL``.  A diagnostic only: no test
reads its distances.

    python scripts/side_mode_convergence.py --steps 2000 5000 10000 20000 50000
"""

from __future__ import annotations

import argparse

import numpy as np

from stripewalk import init_product, make_hadamard
from stripewalk.cli import SNAPSHOT_RESIDUE_TOL
from stripewalk.limits import (
    SIDE_VARIANCE,
    SIDE_VARIANCE_CUMULANT,
    LimitProfile,
    limit_profiles,
    mode_masses,
    scaled_cdf_distance,
)
from stripewalk.spectral import snapshot_measure

STEPS = (2000, 5000, 10_000, 20_000, 50_000)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, nargs="*", default=list(STEPS))
    parser.add_argument("--w", type=float, default=4.0, help="mode window half-width in sqrt(n)")
    args = parser.parse_args()
    coin = make_hadamard()
    g = np.array([1.0, 0.0])
    cell_spinor = coin.matrix @ g
    cell_spinor /= np.linalg.norm(cell_spinor)
    left, center, right = limit_profiles(cell_spinor)
    weights = [p.weight.real for p in (left, center, right)]
    print(
        "n,ks_left_1/9,ks_right_1/9,ks_left_4/9,ks_right_4/9,"
        "mass_err_left,mass_err_center,mass_err_right,residue_off_sublattice,residue_imag"
    )
    status = 0
    for n in args.steps:
        mu, residues = snapshot_measure(init_product(coin, g, 2, 0), n)
        ks = [
            scaled_cdf_distance(mu, LimitProfile(p.mode, p.weight, p.speed, var), args.w)
            for var in (SIDE_VARIANCE_CUMULANT, SIDE_VARIANCE)
            for p in (left, right)
        ]
        errors = [got - want for got, want in zip(mode_masses(mu, args.w), weights)]
        residue = [residues["off_sublattice"], residues["imag"]]
        print(",".join([str(n)] + [f"{v:.6e}" for v in ks + errors + residue]), flush=True)
        if not max(residue) <= SNAPSHOT_RESIDUE_TOL:
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
