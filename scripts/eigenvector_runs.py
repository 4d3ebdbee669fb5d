#!/usr/bin/env python3
"""Evolve the width-2 walk from the three reduced-generator eigenvectors.

The zero mode stays localized at the origin, the +-i/sqrt3 modes travel
right and left at speed 1/sqrt3.  Runs ``stripewalk simulate`` once per
vector, on an ``init = band`` config written to ``<out>/v<j>/config.txt``,
into ``<out>/v<j>/``, and prints the masses of the run's
``measure_n{n}.csv`` in the three mode windows (``limits.mode_windows``
about the sorted speeds of the reduction) that identify each mode.  Below
n = 192 the windows overlap, and the script exits 2 before any run.
Otherwise it exits with the worst status of the runs, and at once with 2,
after the CLI's one line, when a run is rejected.

    python scripts/eigenvector_runs.py --steps 200 --out out/eigen
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from stripewalk import ComplexMeasure, cli, make_hadamard
from stripewalk.limits import mode_masses, mode_windows
from stripewalk.spectral import kato_reduction


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--out", default="out/eigen")
    args = parser.parse_args()
    n = args.steps
    red = kato_reduction(make_hadamard(), 2)
    try:
        windows = mode_windows(n, np.sort(red.speeds))  # left, center, right
    except ValueError as exc:
        parser.error(str(exc))
    status = 0
    for j, vec in enumerate(red.vectors, 1):
        name = f"v{j}"
        run = Path(args.out) / name
        run.mkdir(parents=True, exist_ok=True)
        config = run / "config.txt"
        config.write_text(cli.config_to_text(cli.RunConfig(m=2, init="band", band=tuple(vec.tolist()), steps=n)))
        rc = cli.main(["simulate", "--config", str(config), "--out", str(run)])
        if rc == 2:
            return 2
        status = max(status, rc)
        path = run / f"measure_n{n}.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()[2:]]  # below the digest and header
        mu = ComplexMeasure(n, np.array([complex(float(re), float(im)) for _, _, re, im in rows]))
        masses = mode_masses(mu, windows)
        print(
            f"{name}: left={masses[0]:+.6f} center={masses[1]:+.6f} "
            f"right={masses[2]:+.6f} total={mu.total().real:+.6f} -> {path}"
        )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
