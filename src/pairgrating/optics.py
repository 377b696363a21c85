"""Blazed-grating transmission under a Gaussian illumination spot.

The grating is modeled as an ideal thin sawtooth phase profile with
phase depth 2*pi*blaze_wavelength/wavelength.  That is the simplest
scalar model that concentrates all power into the first diffraction
order at the blaze wavelength and leaves a residual zeroth order away
from it; manufactured groove imperfections are out of scope.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .lattice import TWO_PI, SpatialGrid


def blaze_phase(x, period: float, blaze_wavelength: float, wavelength: float):
    """Sawtooth phase in rad: 2*pi*(blaze_wavelength/wavelength)*frac(x/period).

    frac maps into [0, 1), so the phase is exactly periodic with the
    grating period and zero at x = 0.  Far-field magnitudes do not
    depend on where the sawtooth starts; evaluate at x - x0 to move it.
    """
    frac = np.mod(np.asarray(x, dtype=float) / period, 1.0)
    return TWO_PI * (blaze_wavelength / wavelength) * frac


def transmission(grid: SpatialGrid, period: float, blaze_wavelength: float,
                 wavelength: float, spot_diameter: float) -> np.ndarray:
    """Single-photon transmission amplitude A on the grid, unit square sum.

    A(x_j) = exp(-x_j**2/w0**2) * exp(i*blaze_phase(x_j)), normalized so
    that sum(|A|**2)*dx = 1, with w0 = spot_diameter/2 (the 1/e^2 intensity
    full width of the spot).  ScenarioConfig guarantees w0 > 0 and
    0 < dx <= period/4; the envelope is 1 at x = 0, so the sum is positive.
    """
    phase = blaze_phase(grid.x, period, blaze_wavelength, wavelength)
    w0 = spot_diameter / 2.0
    with np.errstate(over="ignore"):  # x/w0 past sqrt(max double) is an envelope of 0
        envelope = np.exp(-((grid.x / w0) ** 2))
    amp = envelope * np.exp(1j * phase)
    amp /= np.sqrt(np.sum(np.abs(amp) ** 2) * grid.dx)
    amp.setflags(write=False)
    return amp


def order_efficiency(m: int, wavelength: float, blaze_wavelength: float) -> float:
    """Power fraction diffracted into order m by an ideal sawtooth grating.

    eta_m = sinc(blaze_wavelength/wavelength - m)**2 with the normalized
    sinc(u) = sin(pi*u)/(pi*u); the efficiencies over all integer orders
    sum to one.  Wavelengths enter only through their ratio, so any
    consistent unit works.
    """
    if not (wavelength > 0.0) or not (blaze_wavelength > 0.0):
        raise ParameterError("wavelengths must be positive")
    return float(np.sinc(blaze_wavelength / wavelength - m) ** 2)
