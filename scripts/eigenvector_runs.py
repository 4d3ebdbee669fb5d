#!/usr/bin/env python3
"""Evolve the width-2 walk from the three reduced-generator eigenvectors.

The zero mode stays localized at the origin, the +-i/sqrt3 modes travel
right and left at speed 1/sqrt3.  Writes one measure CSV per vector and
prints the masses in the three mode windows (``limits.mode_windows`` about
the sorted speeds of the reduction) that identify each mode.  Below
n = 192 the windows overlap, and the script exits 2 before any run.

    python scripts/eigenvector_runs.py --steps 200 --out out/eigen
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from stripewalk import evolve, init_band_vector, make_hadamard, measure
from stripewalk.limits import mode_masses, mode_windows
from stripewalk.spectral import kato_reduction


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--out", default="out/eigen")
    args = parser.parse_args()
    n = args.steps
    coin = make_hadamard()
    red = kato_reduction(coin, 2)
    try:
        windows = mode_windows(n, np.sort(red.speeds))  # left, center, right
    except ValueError as exc:
        parser.error(str(exc))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for j, vec in enumerate(red.vectors, 1):
        name = f"v{j}"
        state = evolve(init_band_vector(coin, vec.reshape(2, 4), 2, n + 2), n)
        mu = measure(state)
        xs = mu.positions()
        path = out / f"measure_{name}_n{n}.csv"
        with open(path, "w") as fh:
            fh.write("n,x,re_mu,im_mu\n")
            for x, v in zip(xs, mu.values):
                fh.write(f"{n},{x},{v.real:.17g},{v.imag:.17g}\n")
        masses = mode_masses(mu, windows)
        print(
            f"{name}: left={masses[0]:+.6f} center={masses[1]:+.6f} "
            f"right={masses[2]:+.6f} total={mu.total().real:+.6f} -> {path}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
