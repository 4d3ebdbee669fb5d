#!/usr/bin/env python3
"""Emit diagonal-measure profiles across stripe widths.

Reproduces the crossover picture: width 1 gives a random-walk-like bump,
width 2 three islands, larger widths an increasingly walk-like profile.
Runs ``stripewalk simulate --steps n --m M`` on the default config
(Hadamard, g = (1, 0)) once per width, each into its own temporary
directory, and writes one ``profile_M{m}_n{n}.csv`` per width with columns
``xbar,n_times_mu,konno``: the rows of the run's ``normalized_n{n}.csv``
(x / n and n Re mu_n(x)) and the Konno limit density at x / n as a
reference.  The Konno column is the Hadamard density, so the coin is not
settable.  Exits with the worst status of the runs (1 when a drift or
odd-width check fails; the profile is still written), and at once with 2,
after the CLI's one line, when a width is rejected.

    python scripts/crossover_profiles.py --out out/crossover --steps 100
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

from stripewalk import cli
from stripewalk.limits import konno_density

WIDTHS = (1, 2, 3, 5, 10, 51)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--out", default="out/crossover")
    parser.add_argument("--widths", type=int, nargs="*", default=list(WIDTHS))
    args = parser.parse_args()
    out = Path(args.out)
    n = args.steps
    status = 0
    with tempfile.TemporaryDirectory(prefix="crossover-") as tmp:
        for m in args.widths:
            run = Path(tmp) / f"M{m}"
            rc = cli.main(["simulate", "--steps", str(n), "--m", str(m), "--out", str(run)])
            if rc == 2:
                return 2
            status = max(status, rc)
            rows = (run / f"normalized_n{n}.csv").read_text().splitlines()[2:]  # below the digest and header
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"profile_M{m}_n{n}.csv"
            with open(path, "w") as fh:
                fh.write("xbar,n_times_mu,konno\n")
                for row in rows:
                    fh.write(f"{row},{konno_density(float(row.split(',')[0])):.17g}\n")
            report = json.loads((run / "provenance.json").read_text())
            print(
                f"M={m:3d}: wrote {path}  drift={report['measure_sum_drift']:.1e} "
                f"max|Im|={report['max_abs_imag']:.1e}"
            )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
