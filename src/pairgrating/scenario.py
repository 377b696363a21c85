"""Scenario configuration and the forward chain from config to rate profiles.

A scenario bundles every knob of one simulated experiment.  The
defaults reproduce the reference setup used throughout: 780 nm photons,
25 um grating period blazed for 500 nm, 29 um spot imaged from the pair
source (near mode), 10 mrad detector resolution, 512 samples over a
600 um window.

Two evaluators share the grid, the transmission A and the pair
amplitude builder.  rate_map_for runs the full chain on the n x n grid
(pair amplitude, 2D FFT, |F|**2, 2D blur) for the map that simulate
writes.  profiles_for, which every fit and sweep evaluation calls,
builds the pair amplitude only on the spot's support S, where |A|
exceeds SUPPORT_FLOOR times its peak (155 samples at the default 29 um
spot and 1.17 um spacing, whatever n is), and takes the blurred
diagonal and singles through propagation.support_profiles: a centered
1D FFT along the first axis of the support block, the diagonal band
read through a column phase, and the singles through Parseval.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .biphoton import two_photon_amplitude
from .errors import ConfigError
from .lattice import SpatialGrid, make_grid
from .optics import transmission
from .propagation import (RateMap, RateProfile, blur, coincidence_map, support_profiles,
                          to_far_field)

# The full-map chain holds several n x n complex128 arrays at once.
MAX_GRID_N = 4096

# Samples where |A| is below this fraction of its peak are left out of
# profiles_for's pair amplitude.  Their terms sit far below rounding: the
# profiles agree with the cuts of rate_map_for to ~3e-14 relative.
SUPPORT_FLOOR = 1e-17

# How parse_config reads a value for each field annotation of ScenarioConfig,
# and what a value that fails to read must be.
_READERS = {"float": (float, "a number"), "int": (int, "an integer"), "str": (str, "text")}


@dataclass(frozen=True)
class ScenarioConfig:
    """Full forward-model configuration plus the CLI output prefix."""

    wavelength_nm: float = 780.0
    grating_period_um: float = 25.0
    blaze_wavelength_nm: float = 500.0
    spot_diameter_um: float = 29.0
    sigma_corr_um: float = 9.0
    illumination: str = "near"
    resolution_mrad: float = 10.0
    detector_separation_mrad: float = 0.0
    angle_offset_mrad: float = 0.0
    grid_n: int = 512
    window_um: float = 600.0
    output_prefix: str = "out"

    def __post_init__(self):
        for name in ("wavelength_nm", "grating_period_um", "blaze_wavelength_nm",
                     "spot_diameter_um", "sigma_corr_um", "window_um"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise ConfigError(f"{name} must be positive, got {value!r}")
        for name in ("resolution_mrad",):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                raise ConfigError(f"{name} must be nonnegative, got {value!r}")
        for name in ("detector_separation_mrad", "angle_offset_mrad"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if not self.output_prefix.strip():
            raise ConfigError(
                f"output_prefix must name the output files, got {self.output_prefix!r}")
        if self.illumination not in ("near", "far"):
            raise ConfigError(
                f"illumination must be 'near' or 'far', got {self.illumination!r}")
        if isinstance(self.grid_n, bool) or not isinstance(self.grid_n, (int, np.integer)):
            raise ConfigError(f"grid_n must be an integer, got {self.grid_n!r}")
        if self.grid_n < 4 or self.grid_n % 2 != 0:
            raise ConfigError(f"grid_n must be even and >= 4, got {self.grid_n}")
        if self.grid_n > MAX_GRID_N:
            nbytes = 16 * self.grid_n ** 2
            raise ConfigError(
                f"grid_n must be at most {MAX_GRID_N}, got {self.grid_n}: one "
                f"{self.grid_n}x{self.grid_n} complex128 array is {nbytes} bytes "
                f"({nbytes / 2 ** 20:.1f} MiB), and the forward chain holds several")
        if self.window_um / self.grid_n > self.grating_period_um / 4.0:
            raise ConfigError(
                f"grid too coarse for the grating: window_um/grid_n = "
                f"{self.window_um / self.grid_n:.6g} um exceeds period/4 = "
                f"{self.grating_period_um / 4.0:.6g} um")

    @property
    def wavelength_um(self) -> float:
        return self.wavelength_nm * 1e-3

    @property
    def blaze_wavelength_um(self) -> float:
        return self.blaze_wavelength_nm * 1e-3


def parse_config(path) -> ScenarioConfig:
    """Parse a key=value config file; '#' starts a comment.

    Unspecified keys take the documented defaults.  Unknown or repeated
    keys, non-numeric values, and invariant violations raise ConfigError
    naming the key.
    """
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    kinds = {field.name: field.type for field in fields(ScenarioConfig)}
    values: dict = {}
    key_lines: dict = {}
    for line_no, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key=value, got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in kinds:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in key_lines:
            raise ConfigError(
                f"line {line_no}: key {key!r} repeats the one on line {key_lines[key]}")
        key_lines[key] = line_no
        read, expected = _READERS[kinds[key]]
        try:
            values[key] = read(text)
        except ValueError:
            raise ConfigError(f"line {line_no}: {key} must be {expected}, got {text!r}") from None
    return ScenarioConfig(**values)


def grid_for(config: ScenarioConfig) -> SpatialGrid:
    return make_grid(config.grid_n, config.window_um)


def transmission_for(config: ScenarioConfig, grid: SpatialGrid | None = None) -> np.ndarray:
    """Single-photon amplitude for the configured grating and spot."""
    if grid is None:
        grid = grid_for(config)
    return transmission(grid, config.grating_period_um, config.blaze_wavelength_um,
                        config.wavelength_um, config.spot_diameter_um)


def rate_map_for(config: ScenarioConfig, sigma_um: float | None = None) -> RateMap:
    """Run the full forward chain on the n x n grid; sigma_um overrides the configured width."""
    grid = grid_for(config)
    amp = transmission_for(config, grid)
    sigma = config.sigma_corr_um if sigma_um is None else float(sigma_um)
    pair = two_photon_amplitude(amp, sigma, config.illumination, grid.x, grid.dx)
    rmap = coincidence_map(to_far_field(pair, grid), grid, config.wavelength_um)
    return blur(rmap, config.resolution_mrad * 1e-3)


def profiles_for(config: ScenarioConfig,
                 sigma_um: float | None = None) -> tuple[RateProfile, RateProfile]:
    """Diagonal (at the configured detector separation) and singles profiles.

    Both are the cuts of rate_map_for's blurred map up to rounding,
    computed on the spot's support from n x m arrays in place of n x n
    ones (see the module docstring).
    """
    grid = grid_for(config)
    amp = transmission_for(config, grid)
    magnitude = np.abs(amp)
    inside = np.flatnonzero(magnitude > SUPPORT_FLOOR * magnitude.max())
    support = np.arange(inside[0], inside[-1] + 1)
    sigma = config.sigma_corr_um if sigma_um is None else float(sigma_um)
    pair = two_photon_amplitude(amp[support], sigma, config.illumination,
                                grid.x[support], grid.dx)
    return support_profiles(pair, support, grid, config.wavelength_um,
                            config.resolution_mrad * 1e-3,
                            config.detector_separation_mrad * 1e-3)
