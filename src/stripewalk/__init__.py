"""Simulation and spectral analysis of a stripe-cut quantum walk.

The model interpolates between an open quantum random walk (stripe width
M = 1) and the unitary coined walk (M -> infinity) by zeroing the walker's
two-coordinate amplitudes outside a diagonal stripe after every step.  The
package provides the real-space evolution engine, the momentum-space
operator and its perturbation theory, closed-form limit profiles, and the
quantitative observables used to characterize the crossover.
"""

from .coin import Coin, CoinBlocks, blocks, make_coin, make_hadamard
from .walker import (
    BandState,
    ComplexMeasure,
    band_field,
    evolve,
    init_band_vector,
    init_product,
    measure,
    oqrw_reference,
    qw1d_trajectory,
    step,
    stripe_for_width,
    trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "Coin",
    "CoinBlocks",
    "blocks",
    "make_coin",
    "make_hadamard",
    "BandState",
    "ComplexMeasure",
    "band_field",
    "evolve",
    "init_band_vector",
    "init_product",
    "measure",
    "oqrw_reference",
    "qw1d_trajectory",
    "step",
    "stripe_for_width",
    "trajectory",
    "__version__",
]
