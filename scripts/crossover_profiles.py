#!/usr/bin/env python3
"""Emit diagonal-measure profiles across stripe widths.

Reproduces the crossover picture: width 1 gives a random-walk-like bump,
width 2 three islands, larger widths an increasingly walk-like profile.
Writes one ``profile_M{m}_n{n}.csv`` per width with columns
``xbar,n_times_mu,konno``: the scaled position x / n, n Re mu_n(x), and
the Konno limit density at x / n as a reference.

    python scripts/crossover_profiles.py --out out/crossover --steps 100
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from stripewalk import evolve, init_product, make_hadamard, measure
from stripewalk.limits import konno_density

WIDTHS = (1, 2, 3, 5, 10, 51)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--out", default="out/crossover")
    parser.add_argument("--widths", type=int, nargs="*", default=list(WIDTHS))
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n = args.steps
    coin = make_hadamard()
    g = np.array([1.0, 0.0])
    for m in args.widths:
        state = evolve(init_product(coin, g, m, n), n)
        mu = measure(state)
        xs = mu.positions()
        path = out / f"profile_M{m}_n{n}.csv"
        with open(path, "w") as fh:
            fh.write("xbar,n_times_mu,konno\n")
            for x, v in zip(xs, mu.values):
                xbar = x / n
                fh.write(f"{xbar:.17g},{n * v.real:.17g},{konno_density(xbar):.17g}\n")
        print(
            f"M={m:3d}: wrote {path}  sum={mu.total().real:+.12f} "
            f"min={mu.values.real.min():+.3e} max|Im|={mu.max_abs_imag():.1e}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
