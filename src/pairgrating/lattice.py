"""Transverse sampling lattice shared by every stage of the simulation.

Positions are sampled on n points spanning a physical window; the
conjugate wavevector lattice follows from the discrete Fourier pairing.
Both sequences use centered ordering (zero sits at index n//2) so that
profiles can be plotted without index reshuffling.  Units are fixed
project wide: lengths in micrometers, wavevectors in rad/um, angles in
rad (the command line reports mrad).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SpatialGrid:
    """1D sample lattice x_j = (j - n/2)*dx with conjugate k_j = (j - n/2)*2*pi/window.

    n must be even so that doubled wavevectors (2*k_j) land back on
    lattice points.  All derived arrays are read-only; instances can be
    shared across workers without synchronization.
    """

    n: int
    window: float

    @property
    def dx(self) -> float:
        """Sample spacing in um (window/n)."""
        return self.window / self.n

    @property
    def dk(self) -> float:
        """Wavevector spacing in rad/um (2*pi/window)."""
        return TWO_PI / self.window

    @cached_property
    def x(self) -> np.ndarray:
        """Positions in um, strictly increasing, zero at index n//2."""
        pos = (np.arange(self.n) - self.n // 2) * self.dx
        pos.setflags(write=False)
        return pos

    @cached_property
    def k(self) -> np.ndarray:
        """Transverse wavevectors in rad/um, same ordering as x."""
        vec = (np.arange(self.n) - self.n // 2) * self.dk
        vec.setflags(write=False)
        return vec


def make_grid(n: int, window: float) -> SpatialGrid:
    """Build a SpatialGrid with n (even, >= 4) samples over window um (ScenarioConfig's rules)."""
    return SpatialGrid(n=int(n), window=float(window))


def angles_of(grid: SpatialGrid, wavelength: float) -> np.ndarray:
    """Detection angles theta_j = k_j*wavelength/(2*pi).

    This is the paraxial diffraction angle k_perp/k; it inherits the
    grid ordering, so theta(-k) = -theta(k) holds exactly.
    """
    return grid.k * (wavelength / TWO_PI)
