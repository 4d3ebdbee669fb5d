import math

import numpy as np
import pytest
from hypothesis import strategies as st

from stripewalk import make_coin, make_hadamard


@pytest.fixture(scope="session")
def hadamard():
    return make_hadamard()


@pytest.fixture(scope="session")
def complex_coin():
    # Unitary with all-complex entries, abcd != 0.
    r = 1.0 / math.sqrt(2.0)
    return make_coin(r, 1j * r, 1j * r, r)


@pytest.fixture(scope="session")
def phased_coin():
    # Unitary with unequal phases on all four entries: no entrywise
    # symmetry between W(k) and conj W(-k) without the reflection.
    c, s, g, p1, p2 = 0.6, 0.8, 0.3, 0.7, -1.1
    return make_coin(
        c * np.exp(1j * (g + p1)),
        s * np.exp(1j * (g + p2)),
        -s * np.exp(1j * (g - p2)),
        c * np.exp(1j * (g - p1)),
    )


def unitary_coin_strategy():
    """Arbitrary U(2) coin from four angles (always exactly unitary)."""
    angle = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)

    def build(phases):
        g, p1, p2, theta = phases
        c, s = math.cos(theta), math.sin(theta)
        a = c * np.exp(1j * (g + p1))
        b = s * np.exp(1j * (g + p2))
        cc = -s * np.exp(1j * (g - p2))
        d = c * np.exp(1j * (g - p1))
        return make_coin(a, b, cc, d)

    return st.tuples(angle, angle, angle, angle).map(build)


def unit_spinor_strategy():
    angle = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)

    def build(args):
        theta, phi = args
        return np.array([math.cos(theta), math.sin(theta) * np.exp(1j * phi)])

    return st.tuples(angle, angle).map(build)
