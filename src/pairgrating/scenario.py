"""Scenario configuration, its checks, and the forward chain from config to rate profiles.

A scenario bundles every knob of one simulated experiment.  The
defaults reproduce the reference setup used throughout: 780 nm photons,
25 um grating period blazed for 500 nm, 29 um spot imaged from the pair
source (near mode), 10 mrad detector resolution, 512 samples over a
600 um window.  ScenarioConfig checks every field and every rule the
chain relies on, each in Python floats as the stage computes it, the
grid spacing among them, so no stage leaves the doubles; profiles_for
checks its sigma_um, span, diagonal_span and channel.  The stages trust both.

Both evaluators work on the spot's support S, which propagation finds
(support_of: 155 samples at the default 29 um spot and 1.17 um spacing,
whatever n is), with the Gaussian pair weight on it: biphoton.pair_weight
on the 2m - 1 distinct exponents -(x_j -+ x_l)**2 of S, which propagation
lays out (pair_exponent_line) and spreads over the m x m pairs as a
strided view (pair_matrix) where it needs the matrix.
rate_map_for blurs propagation.support_map's n x n map of that pair for
simulate: a traced peak of 6.0 MiB at n = 512 and 96 MiB at n = 2048,
two n x n complex128 arrays when S covers the grid.  The n x n chain
(two_photon_amplitude, to_far_field, coincidence_map) is the reference
the tests check it against.  profiles_for, which every fit and sweep
evaluation calls, hands A to a propagation.SupportPlan, which finds S
and the first-detector rows K that cover the span, and works on them:
one real product of U = W_{K,S} diag(A_S sqrt(dx)) with the m x m
weight on S for the singles, and for the diagonal either the band of
that product or, when the mode is near and the band narrow, the band
from lag tables of the 2m - 1 weights (propagation's docstring), which
a fit's coincidence evaluation at the default config takes with no U
at all.  The diagonal runs on the rows of diagonal_span within K, or on
all of K: a sweep passes its two order positions there, 52 of its 311
rows at n = 2048.

The SupportPlan holds what does not depend on the width.  profiles_for
keeps it in a one-entry cache keyed on the values of the nine optics
fields it reads (every config field except sigma_corr_um,
angle_offset_mrad and output_prefix), on the span and on the
diagonal_span, so the evaluations of a fit or a sweep share it, and a
call builds no config unless it builds the plan.  A plan that is not
kept (SupportPlan.kept: propagation counts its bytes against
MAX_KEPT_PLAN_BYTES) serves only the call that built it.  Each call
weighs the plan's exponents for its width (SupportPlan.weights), then
runs the plan for the channel asked for: a fit computes only its scan's
cut, a sweep both.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import attrgetter

import numpy as np

from .errors import ParameterError, read_lines, read_number
from .lattice import TWO_PI, SpatialGrid, angles_of, make_grid
from .optics import transmission
from .propagation import (CHANNELS, RateMap, RateProfile, SupportPlan, _cut_angles, _snap_shift,
                          blur, support_map)

# rate_map_for holds at most two n x n complex128 arrays at once, 512 MiB at this n
# (the traced peak when the support covers the grid; 384 MiB at the default spot).
MAX_GRID_N = 4096

# Every window below this has a finite square, and so does every pair exponent
# -(x_j -+ x_l)**2 on its lattice.  At the bound itself the lattice's rounding makes
# |x_j + x_l| exceed it for 405 of the 2047 allowed grid_n.
MAX_WINDOW_UM = float(np.sqrt(np.finfo(float).max))

# The smallest grid spacing, 2*pi*sqrt(tiny) with a margin for sum(b) rounding above 1:
# the factor (dx/(2*pi))**2/T of SupportPlan and support_map is then normal (T <= sum(b)**2
# = 1 for every width), and the reference chain's sum(|F|**2) <= 1/dx**2 finite (|A|**2 <= 1/dx).
MIN_GRID_SPACING_UM = TWO_PI * float(np.sqrt(np.finfo(float).tiny)) * (1.0 + 1e-9)

# The ScenarioConfig fields that profiles_for's plan reads, and so its cache key.
_PLAN_FIELDS = ("wavelength_nm", "grating_period_um", "blaze_wavelength_nm", "spot_diameter_um",
                "illumination", "resolution_mrad", "detector_separation_mrad", "grid_n",
                "window_um")
_plan_key = attrgetter(*_PLAN_FIELDS)

# For each field annotation of ScenarioConfig: how parse_config reads a value and the
# config stores it, the type the config takes, and what a value that fails must be.
_READERS = {"float": (float, numbers.Real, "a number"), "int": (int, numbers.Integral, "an integer"),
            "str": (str, str, "text")}


def _typed(value, kind: str, name: str):
    """value as the Python type of the annotation kind, of which a bool is not one."""
    read, accepted, expected = _READERS[kind]
    if isinstance(value, accepted) and not isinstance(value, bool):
        try:
            return read(value)
        except OverflowError:  # an int past the doubles, too long to print
            raise ParameterError(f"{name} must be {expected} within the doubles") from None
    raise ParameterError(f"{name} must be {expected}, got {value!r}")


def _check_width(value, name: str) -> float:
    """value as a float, if it is positive and 2*value**2 is a positive finite double."""
    sigma = _typed(value, "float", name)
    # in Python floats, which overflow to inf and underflow to 0 with no warning
    if not (sigma > 0.0 and 0.0 < 2.0 * (sigma * sigma) < np.inf):
        raise ParameterError(
            f"{name} must be positive with 2*{name}**2 a positive finite double, got {sigma!r}")
    return sigma


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
        for f in fields(self):
            object.__setattr__(self, f.name, _typed(getattr(self, f.name), f.type, f.name))
        for name in ("wavelength_nm", "grating_period_um", "blaze_wavelength_nm",
                     "spot_diameter_um", "window_um"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise ParameterError(f"{name} must be positive, got {value!r}")
        for name in ("resolution_mrad",):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                raise ParameterError(f"{name} must be nonnegative, got {value!r}")
        for name in ("detector_separation_mrad", "angle_offset_mrad"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        if not self.output_prefix.strip():
            raise ParameterError(
                f"output_prefix must name the output files, got {self.output_prefix!r}")
        if self.illumination not in ("near", "far"):
            raise ParameterError(
                f"illumination must be 'near' or 'far', got {self.illumination!r}")
        if self.grid_n < 4 or self.grid_n % 2 != 0:
            raise ParameterError(f"grid_n must be even and >= 4, got {self.grid_n}")
        if self.grid_n > MAX_GRID_N:
            nbytes = 16 * self.grid_n ** 2
            raise ParameterError(
                f"grid_n must be at most {MAX_GRID_N}, got {self.grid_n}: one "
                f"{self.grid_n}x{self.grid_n} complex128 array is {nbytes} bytes "
                f"({nbytes / 2 ** 20:.1f} MiB), and the rate map holds up to two")
        if self.grating_period_um <= self.wavelength_um:
            raise ParameterError(
                f"grating_period_um must exceed wavelength_nm/1000 = {self.wavelength_um:.6g} "
                f"um, got {self.grating_period_um!r}: the first order does not propagate")
        if self.window_um <= 2.0 * self.grating_period_um:
            raise ParameterError(
                f"window_um must exceed 2*grating_period_um = {2.0 * self.grating_period_um:.6g} "
                f"um, got {self.window_um!r}: the angular step wavelength/window_um reaches "
                f"the order ratio's overlap point wavelength/(2*grating_period_um)")
        if self.window_um / self.grid_n > self.grating_period_um / 4.0:
            raise ParameterError(
                f"grid too coarse for the grating: window_um/grid_n = "
                f"{self.window_um / self.grid_n:.6g} um exceeds period/4 = "
                f"{self.grating_period_um / 4.0:.6g} um")
        for name, length, rule in (
                ("wavelength_nm", self.wavelength_um, "wavelength_nm*1e-3 um"),
                ("blaze_wavelength_nm", self.blaze_wavelength_um, "blaze_wavelength_nm*1e-3 um"),
                ("spot_diameter_um", self.spot_diameter_um / 2.0, "half of it")):
            if not length > 0.0:
                raise ParameterError(
                    f"{name} is too small: {rule} rounds to 0, got {getattr(self, name)!r}")
        # optics.blaze_phase's depth, in Python floats as it computes it: an inf depth
        # makes A nan everywhere
        if not np.isfinite(TWO_PI * (self.blaze_wavelength_um / self.wavelength_um)):
            raise ParameterError(
                f"blaze_wavelength_nm is too large for wavelength_nm = {self.wavelength_nm!r}: "
                f"the phase depth 2*pi*blaze_wavelength_nm/wavelength_nm is not a finite "
                f"double, got {self.blaze_wavelength_nm!r}")
        # the grid spacing as grid.dx computes it; it keeps grid_n*pi/window_um finite too
        n, dk = self.grid_n, TWO_PI / self.window_um
        if self.window_um / n < MIN_GRID_SPACING_UM:
            raise ParameterError(
                f"window_um is too small for grid_n = {n}: the grid spacing window_um/grid_n "
                f"is below {MIN_GRID_SPACING_UM:.6g} um, where the rates leave the doubles, "
                f"got {self.window_um!r}")
        # angles_of's first, second and last angles
        scale = self.wavelength_um / TWO_PI
        # a subnormal scale would round the whole angle lattice off lambda/window_um
        if not scale >= np.finfo(float).tiny:
            raise ParameterError(
                f"wavelength_nm is too small: wavelength_nm*1e-3/(2*pi) um is below the normal "
                f"doubles, got {self.wavelength_nm!r}")
        first, second, last = (((j - n // 2) * dk) * scale for j in (0, 1, n - 1))
        # the angular step as angles_of and SupportPlan compute it, which the blur divides by
        if not min(second - first, self.wavelength_um / self.window_um) >= np.finfo(float).tiny:
            raise ParameterError(
                f"window_um is too large for wavelength_nm = {self.wavelength_nm!r}: the angular "
                f"step wavelength_nm*1e-3/window_um is below the normal doubles, got "
                f"{self.window_um!r}")
        if self.window_um >= MAX_WINDOW_UM:
            raise ParameterError(
                f"window_um must be below sqrt(max double) = {MAX_WINDOW_UM:.6g} um, got "
                f"{self.window_um!r}: the pair exponent (x_j -+ x_l)**2 leaves the doubles")
        _check_width(self.sigma_corr_um, "sigma_corr_um")
        if self.resolution_mrad * 1e-3 > (last - first) / 2.0:
            raise ParameterError(
                f"resolution_mrad must be at most half the angular window, "
                f"{(last - first) / 2.0 * 1e3:.6g} mrad, got {self.resolution_mrad!r}")
        # in bins, as propagation._snap_shift divides: under n - 1/2 rounds to under n
        if not abs(self.detector_separation_mrad * 1e-3 / (second - first)) < n - 0.5:
            raise ParameterError(
                f"detector_separation_mrad must be under grid_n - 1/2 = {n - 0.5:g} angle bins "
                f"of {(second - first) * 1e3:.6g} mrad, got {self.detector_separation_mrad!r}")

    @property
    def wavelength_um(self) -> float:
        return self.wavelength_nm * 1e-3

    @property
    def blaze_wavelength_um(self) -> float:
        return self.blaze_wavelength_nm * 1e-3


def parse_config(path) -> ScenarioConfig:
    """Parse a key=value config file of UTF-8 text; '#' starts a comment.

    Unspecified keys take the documented defaults; read_number reads
    numbers.  Unknown or repeated keys, non-numeric values, and invariant
    violations raise ParameterError naming the key; errors about one line, a
    byte that is not UTF-8 among them, name the file and the line.
    """
    kinds = {field.name: field.type for field in fields(ScenarioConfig)}
    values: dict = {}
    key_lines: dict = {}
    for line_no, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}: line {line_no}: expected key=value, got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in kinds:
            raise ParameterError(f"{path}: line {line_no}: unknown key {key!r}")
        if key in key_lines:
            raise ParameterError(
                f"{path}: line {line_no}: key {key!r} repeats the one on line {key_lines[key]}")
        key_lines[key] = line_no
        read, _, expected = _READERS[kinds[key]]
        try:
            values[key] = text if read is str else read_number(text, read)
        except ValueError:
            raise ParameterError(
                f"{path}: line {line_no}: {key} must be {expected}, got {text!r}") from None
    return ScenarioConfig(**values)


def grid_for(config: ScenarioConfig) -> SpatialGrid:
    return make_grid(config.grid_n, config.window_um)


def transmission_for(config: ScenarioConfig, grid: SpatialGrid) -> np.ndarray:
    """Single-photon amplitude for the configured grating and spot on grid (grid_for's)."""
    return transmission(grid, config.grating_period_um, config.blaze_wavelength_um,
                        config.wavelength_um, config.spot_diameter_um)


def rate_map_for(config: ScenarioConfig) -> RateMap:
    """Blurred rate map on the n x n angle lattice at config.sigma_corr_um (module docstring)."""
    grid = grid_for(config)
    amp = transmission_for(config, grid)
    return blur(support_map(amp, config.sigma_corr_um, config.illumination, grid,
                            config.wavelength_um), config.resolution_mrad * 1e-3)


def _check_span(span, name: str) -> tuple[float, float] | None:
    """span as two floats lo <= hi, or None."""
    if span is None:
        return None
    try:
        lo, hi = span
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be two angles lo <= hi in rad, got {span!r}") from None
    span = (_typed(lo, "float", name), _typed(hi, "float", name))
    if not span[0] <= span[1]:
        raise ParameterError(f"{name} must be two angles lo <= hi in rad, got {span!r}")
    return span


@lru_cache(maxsize=1)
def _support_plan(optics: tuple, span: tuple[float, float] | None,
                  diagonal_span: tuple[float, float] | None) -> SupportPlan:
    """profiles_for's SupportPlan; optics holds a config's values of _PLAN_FIELDS, in order."""
    config = ScenarioConfig(**dict(zip(_PLAN_FIELDS, optics)))
    grid = grid_for(config)
    return SupportPlan(transmission_for(config, grid), config.illumination, grid,
                       config.wavelength_um, config.resolution_mrad * 1e-3,
                       config.detector_separation_mrad * 1e-3, span, diagonal_span)


def profiles_for(config: ScenarioConfig, sigma_um: float | None = None,
                 span: tuple[float, float] | None = None, channel: str | None = None,
                 diagonal_span: tuple[float, float] | None = None
                 ) -> tuple[RateProfile | None, RateProfile | None]:
    """Diagonal (at the configured detector separation) and singles profiles, read-only.

    Both are the cuts of rate_map_for's blurred map up to rounding, on
    the rows of the first-detector angles span = (lo, hi) in rad plus one
    bin each side, or on the whole lattice for None (module docstring).
    diagonal_span narrows the diagonal to its own angles by the same
    rule, within span's rows; None keeps it on span's.  channel
    "coincidences" or "singles" computes that cut alone and puts None in
    place of the other; None computes both.  A cut is the same, bit for
    bit, whichever channel asked for it.
    """
    sigma = config.sigma_corr_um if sigma_um is None else _check_width(sigma_um, "sigma_um")
    span = _check_span(span, "span")
    diagonal_span = _check_span(diagonal_span, "diagonal_span")
    if channel is not None and channel not in CHANNELS:
        raise ParameterError(f"channel must be one of {CHANNELS} or None, got {channel!r}")
    plan = _support_plan(_plan_key(config), span, diagonal_span)
    if not plan.kept:
        _support_plan.cache_clear()
    return plan(plan.weights(sigma), channel)


def profile_angles(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """First-detector angles of the whole-lattice diagonal and singles, with no evaluation."""
    angles = angles_of(grid_for(config), config.wavelength_um)
    shift = _snap_shift(angles, config.detector_separation_mrad * 1e-3)[0]
    return _cut_angles(angles, shift), angles
