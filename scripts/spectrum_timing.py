#!/usr/bin/env python3
"""In-process timing of ``spectral.spectrum_grid`` and of its LAPACK share.

For the Hadamard coin and one fixed complex coin, at each width and one
momentum grid, prints the median wall time of ``spectrum_grid`` over the
repeats and the median time spent inside ``np.linalg.eig`` during those
calls (the two real blocks of every solved momentum).  Both coins have the
same |a|, so they solve the same real blocks; the complex coin pays only
for its gauge.  Set OPENBLAS_NUM_THREADS=1 for numbers comparable across
runs.

    python scripts/spectrum_timing.py --widths 2 5 10 --kgrid 1024 --repeats 7
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from stripewalk import make_coin, make_hadamard
from stripewalk.spectral import spectrum_grid

#: A complex coin with the Hadamard |a| and a phase on every entry.
R = float(np.sqrt(0.5))
COINS = {
    "hadamard": make_hadamard(),
    "complex": make_coin(R * np.exp(0.8j), R * np.exp(-0.6j), -R * np.exp(1.2j), R * np.exp(-0.2j)),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--widths", type=int, nargs="*", default=[2, 5, 10])
    parser.add_argument("--kgrid", type=int, default=1024)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    solve = np.linalg.eig
    spent = [0.0]

    def timed(mats):
        start = time.perf_counter()
        try:
            return solve(mats)
        finally:
            spent[0] += time.perf_counter() - start

    np.linalg.eig = timed
    try:
        print("coin,M,kgrid,spectrum_grid_s,eig_s")
        for name, coin in COINS.items():
            for m in args.widths:
                spectrum_grid(coin, m, args.kgrid)  # warm-up
                walls, eigs = [], []
                for _ in range(args.repeats):
                    spent[0] = 0.0
                    start = time.perf_counter()
                    spectrum_grid(coin, m, args.kgrid)
                    walls.append(time.perf_counter() - start)
                    eigs.append(spent[0])
                wall, eig = statistics.median(walls), statistics.median(eigs)
                print(f"{name},{m},{args.kgrid},{wall:.4f},{eig:.4f}", flush=True)
    finally:
        np.linalg.eig = solve
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
