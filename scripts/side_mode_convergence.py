#!/usr/bin/env python3
"""Convergence of the width-2 three-mode split at large n.

For the Hadamard walk on a width-2 stripe, prints at each n the Kolmogorov
distance of each side mode's scaled CDF to N(0, sigma^2) with the mode
table's width sigma^2 = -2 Re tau - mu^2 (1/9), and to N(0, -2 Re tau)
(the stated side variance 4/9), and the error of the three mode masses
against the table's masses c_j.  Speeds, widths and masses all come from
``spectral.kato_reduction``.  Each mu_n comes from
``spectral.snapshot_measure``, so n = 5e4 takes about a second; the
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
from stripewalk.limits import mode_masses, scaled_cdf_distance
from stripewalk.spectral import kato_reduction, snapshot_measure, start_vector

STEPS = (2000, 5000, 10_000, 20_000, 50_000)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, nargs="*", default=list(STEPS))
    parser.add_argument("--w", type=float, default=4.0, help="mode window half-width in sqrt(n)")
    args = parser.parse_args()
    coin = make_hadamard()
    state = init_product(coin, np.array([1.0, 0.0]), 2, 0)
    red = kato_reduction(coin, 2)
    order = np.argsort(red.speeds)  # left, center, right
    speeds, widths, stated = red.speeds[order], red.widths[order], -2.0 * red.tau.real[order]
    weights = red.masses(start_vector(state))[order].real
    print(
        "n,ks_left_1/9,ks_right_1/9,ks_left_4/9,ks_right_4/9,"
        "mass_err_left,mass_err_center,mass_err_right,residue_off_sublattice,residue_imag"
    )
    status = 0
    for n in args.steps:
        mu, residues, _ = snapshot_measure(state, n)
        ks = [scaled_cdf_distance(mu, speeds[j], var[j], args.w) for var in (widths, stated) for j in (0, 2)]
        errors = [got - want for got, want in zip(mode_masses(mu, speeds, args.w), weights)]
        residue = [residues["off_sublattice"], residues["imag"]]
        print(",".join([str(n)] + [f"{v:.6e}" for v in ks + errors + residue]), flush=True)
        if not max(residue) <= SNAPSHOT_RESIDUE_TOL:
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
