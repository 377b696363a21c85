"""Closed-form limiting profiles used as independent pipeline oracles.

Uncorrelated pairs factorize, so the far-field coincidence diagonal and
the singles rate are plain powers of the transform of the single-photon
amplitude.  Perfectly correlated pairs pass through the grating as one
object of squared amplitude: the coincidence diagonal becomes the
transform of A**2 read at doubled transverse frequency (the pair
diffracts as if it carried half the wavelength) and the singles rate is
constant.

Note on the delta limit: substituting a delta correlation into the
joint-amplitude definition gives |FT[A**2](2k)|**2 on the diagonal,
i.e. the transform of the squared amplitude.  For a non-Gaussian A this
differs from the fourth power of the shifted transform of A itself
(|FT[A](2k)|**4); the two coincide only up to factorization of A**2.
The transform-of-the-product form is the one the full pipeline
converges to, so that is what this module implements.  The test suite
reports both forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .lattice import SpatialGrid, angles_of
from .propagation import RateProfile, fourier_1d


@dataclass(frozen=True)
class LimitProfiles:
    """Diagonal and singles profiles of one limiting case, on one angle lattice."""

    diagonal: RateProfile
    singles: RateProfile


def _unit_mass(values: np.ndarray, bin_width: float) -> np.ndarray:
    total = values.sum() * bin_width
    return values / total if total > 0.0 else values


def _check_inputs(amplitude, grid: SpatialGrid, wavelength: float) -> np.ndarray:
    """The oracles take raw inputs, not a ScenarioConfig, so they check them; A as complex."""
    if not (grid.n >= 4 and grid.n % 2 == 0 and 0.0 < grid.window < np.inf):
        raise ParameterError("grid must have an even n >= 4 and a positive finite window, "
                             f"got {grid!r}")
    if not (wavelength > 0.0):
        raise ParameterError(f"wavelength must be positive, got {wavelength!r}")
    amplitude = np.asarray(amplitude, dtype=complex)
    if amplitude.shape != (grid.n,):
        raise ParameterError(f"values must have shape ({grid.n},), got {amplitude.shape}")
    return amplitude


def _limit_profiles(grid: SpatialGrid, wavelength: float, diagonal, singles) -> LimitProfiles:
    """Both profiles on the grid's angle lattice, each normalized to unit mass over it."""
    angles = angles_of(grid, wavelength)
    bin_width = float(angles[1] - angles[0])
    return LimitProfiles(RateProfile(angles, _unit_mass(diagonal, bin_width)),
                         RateProfile(angles.copy(), _unit_mass(singles, bin_width)))


def uncorrelated_profiles(amplitude, grid: SpatialGrid, wavelength: float) -> LimitProfiles:
    """Limit of no correlation: diagonal ~ |FT[A]|**4, singles ~ |FT[A]|**2.

    Both profiles are normalized to unit mass over the angle lattice, so
    the diagonal equals the squared singles up to one global scale.
    """
    power = np.abs(fourier_1d(_check_inputs(amplitude, grid, wavelength), grid)) ** 2
    return _limit_profiles(grid, wavelength, power ** 2, power)


def delta_correlated_profiles(amplitude, grid: SpatialGrid, wavelength: float) -> LimitProfiles:
    """Limit of perfect position correlation.

    diagonal_j ~ |FT[A**2](2*k_j)|**2, evaluated by index doubling
    (exact on the lattice for even n); doubled indices beyond the window
    carry energy outside the angular range and are set to zero.  The
    singles rate is constant.  Both are normalized to unit mass.
    """
    power = np.abs(fourier_1d(_check_inputs(amplitude, grid, wavelength) ** 2, grid)) ** 2
    doubled = 2 * np.arange(grid.n) - grid.n // 2
    diagonal = np.where((doubled >= 0) & (doubled < grid.n), power[doubled % grid.n], 0.0)
    return _limit_profiles(grid, wavelength, diagonal, np.ones(grid.n))
