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


def uncorrelated_profiles(amplitude, grid: SpatialGrid, wavelength: float) -> LimitProfiles:
    """Limit of no correlation: diagonal ~ |FT[A]|**4, singles ~ |FT[A]|**2.

    Both profiles are normalized to unit mass over the angle lattice, so
    the diagonal equals the squared singles up to one global scale.
    """
    at = fourier_1d(np.asarray(amplitude, dtype=complex), grid)
    angles = angles_of(grid, wavelength)
    bin_width = float(angles[1] - angles[0])
    power = np.abs(at) ** 2
    singles = _unit_mass(power, bin_width)
    diagonal = _unit_mass(power ** 2, bin_width)
    return LimitProfiles(diagonal=RateProfile(angles=angles, values=diagonal),
                         singles=RateProfile(angles=angles.copy(), values=singles))


def delta_correlated_profiles(amplitude, grid: SpatialGrid, wavelength: float) -> LimitProfiles:
    """Limit of perfect position correlation.

    diagonal_j ~ |FT[A**2](2*k_j)|**2, evaluated by index doubling
    (exact on the lattice for even n); doubled indices beyond the window
    carry energy outside the angular range and are set to zero.  The
    singles rate is constant.
    """
    squared = np.asarray(amplitude, dtype=complex) ** 2
    bt = fourier_1d(squared, grid)
    power = np.abs(bt) ** 2
    n = grid.n
    doubled = 2 * np.arange(n) - n // 2
    in_range = (doubled >= 0) & (doubled < n)
    diagonal = np.zeros(n)
    diagonal[in_range] = power[doubled[in_range]]
    angles = angles_of(grid, wavelength)
    bin_width = float(angles[1] - angles[0])
    diagonal = _unit_mass(diagonal, bin_width)
    singles = np.full(n, 1.0 / (n * bin_width))
    return LimitProfiles(diagonal=RateProfile(angles=angles, values=diagonal),
                         singles=RateProfile(angles=angles.copy(), values=singles))
