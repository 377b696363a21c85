import numpy as np
import pytest

from pairgrating.lattice import make_grid
from pairgrating.optics import transmission

WAVELENGTH = 0.78      # um
PERIOD = 25.0          # um
BLAZE = 0.5            # um
RED_ORDER = WAVELENGTH / PERIOD          # 31.2 mrad
BLUE_ORDER = WAVELENGTH / (2.0 * PERIOD)  # 15.6 mrad


@pytest.fixture(scope="session")
def grid512():
    return make_grid(512, 600.0)


@pytest.fixture(scope="session")
def grid256():
    return make_grid(256, 600.0)


@pytest.fixture(scope="session")
def amp_spot100(grid512):
    return transmission(grid512, PERIOD, BLAZE, WAVELENGTH, 100.0)


@pytest.fixture(scope="session")
def amp_spot100_256(grid256):
    return transmission(grid256, PERIOD, BLAZE, WAVELENGTH, 100.0)


def matched_deviation(candidate, reference, mask=None):
    """Max |scale*candidate - reference| / max|reference| with the
    least-squares global scale; the standard profile comparison here."""
    c = np.asarray(candidate, dtype=float)
    r = np.asarray(reference, dtype=float)
    if mask is not None:
        c = c[mask]
        r = r[mask]
    scale = float(np.dot(c, r) / np.dot(c, c))
    return float(np.max(np.abs(scale * c - r)) / np.max(np.abs(r)))


@pytest.fixture(scope="session")
def scaled_err():
    return matched_deviation
