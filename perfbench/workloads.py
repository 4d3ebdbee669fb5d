"""Seeded generator of the benchmark's stripewalk config files.

Each workload is one CLI subcommand with fixed sizes; the seed only draws
the initial spinor (or, for ``spectrum-grid``, the coin).  A seed selects
one of ``POOL`` input variants (``seed % POOL``), because the output gate
compares every run against reference outputs that the seed commit produced
for each variant (``reference/<workload>/v<i>.json``).

Draws use ``random.Random`` seeded with a string, whose stream is fixed
across Python versions, and floats are written with ``repr`` so a seed
regenerates a byte-identical config.
"""

from __future__ import annotations

import hashlib
import math
import random

#: Number of distinct input variants per workload.
POOL = 8

#: CLI subcommand of each workload.
SUBCOMMAND = {
    "characteristics": "characteristics",
    "simulate-band": "simulate",
    "limits-narrow": "limits",
    "spectrum-grid": "spectrum",
}

#: Extra CLI flags of each workload (the config file carries everything else).
FLAGS = {"characteristics": ["--workers", "1"]}

WORKLOADS = tuple(SUBCOMMAND)


def variant(seed: int) -> int:
    return seed % POOL


def _c(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _real_spinor(rng: random.Random) -> tuple[complex, complex]:
    theta = rng.uniform(0.0, math.pi)
    return complex(math.cos(theta)), complex(math.sin(theta))


def _haar_coin(rng: random.Random) -> tuple[complex, complex, complex, complex]:
    """A Haar-distributed 2x2 unitary, in closed form.

    U = e^{i alpha} [[e^{i psi} cos t, e^{i chi} sin t],
                     [-e^{-i chi} sin t, e^{-i psi} cos t]]
    with cos^2 t uniform on [0, 1] and the three phases uniform.
    """
    cos_t = math.sqrt(rng.random())
    sin_t = math.sqrt(1.0 - cos_t * cos_t)
    alpha, psi, chi = (rng.uniform(0.0, 2.0 * math.pi) for _ in range(3))

    def e(phi: float) -> complex:
        return complex(math.cos(phi), math.sin(phi))

    return (
        e(alpha + psi) * cos_t,
        e(alpha + chi) * sin_t,
        -e(alpha - chi) * sin_t,
        e(alpha - psi) * cos_t,
    )


def config_text(workload: str, seed: int) -> str:
    """The config file of one workload for one seed."""
    if workload not in SUBCOMMAND:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"stripewalk-bench:{workload}:{variant(seed)}")
    if workload == "characteristics":
        g0, g1 = _real_spinor(rng)
        lines = ["mlist = 2 3 5 10", "steps = 2000", f"g = {_c(g0)} {_c(g1)}"]
    elif workload == "simulate-band":
        g0, g1 = _real_spinor(rng)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        g1 = g1 * complex(math.cos(phase), math.sin(phase))
        lines = [
            "m = 10",
            "steps = 2000",
            "snapshots = 500 1000 1500 2000",
            "emit_band_field = true",
            f"g = {_c(g0)} {_c(g1)}",
        ]
    elif workload == "limits-narrow":
        g0, g1 = _real_spinor(rng)
        lines = ["m = 2", "steps = 4000", "init = product", f"g = {_c(g0)} {_c(g1)}"]
    else:
        a, b, c, d = _haar_coin(rng)
        lines = [
            "coin = custom",
            f"coin_a = {_c(a)}",
            f"coin_b = {_c(b)}",
            f"coin_c = {_c(c)}",
            f"coin_d = {_c(d)}",
            "m = 10",
            "kgrid = 1024",
        ]
    head = f"# stripewalk benchmark workload {workload}, variant {variant(seed)}\n"
    return head + "\n".join(lines) + "\n"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
