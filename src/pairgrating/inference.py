"""Measured-scan ingestion, summary metrics, and correlation-width fitting.

The fit is deliberately plain: a sum-of-squares objective over
(width, scale, background) where scale and background solve a linear
subproblem in closed form, and the width search is a coarse logarithmic
grid followed by golden-section refinement.  The one-dimensional width
landscape is smooth and unimodal in every regime of interest, and full
determinism is worth more than optimizer generality here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import MeasurementFormatError, ParameterError, SamplingWarning
from .scenario import ScenarioConfig, profiles_for

# Angular window used for visibility summaries (rad): the central region
# holding the zeroth and both first orders of the reference grating.
VISIBILITY_WINDOW = (-0.050, 0.050)

SIGMA_RANGE = (0.5, 200.0)
COARSE_POINTS = 25
REFINE_REL_WIDTH = 1e-3
FLAT_LANDSCAPE_REL = 1e-9
CHANNELS = ("coincidences", "singles")


@dataclass(frozen=True)
class Measurement:
    """One angular scan: strictly increasing angles (rad) and count rates.

    rate_errors, when present, are one-sigma uncertainties used as
    inverse-variance weights by the fit.  metadata carries free-form
    acquisition context (wavelength, spot, grating, ...).
    """

    angles: np.ndarray
    rates: np.ndarray
    rate_errors: np.ndarray | None = None
    channel: str = "coincidences"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=float)
        rates = np.asarray(self.rates, dtype=float)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "rates", rates)
        if angles.ndim != 1 or angles.shape != rates.shape:
            raise ParameterError("angles and rates must be 1D arrays of equal length")
        if not (np.all(np.isfinite(angles)) and np.all(np.isfinite(rates))):
            raise ParameterError("angles and rates must be finite")
        if angles.size and np.any(np.diff(angles) <= 0.0):
            raise ParameterError("angles must be strictly increasing")
        if np.any(rates < 0.0):
            raise ParameterError("rates must be nonnegative")
        if self.rate_errors is not None:
            errors = np.asarray(self.rate_errors, dtype=float)
            object.__setattr__(self, "rate_errors", errors)
            if errors.shape != rates.shape:
                raise ParameterError("rate_errors must match rates in length")
            if not np.all(np.isfinite(errors)):
                raise ParameterError("rate_errors must be finite")
            if np.any(errors <= 0.0):
                raise ParameterError("rate_errors must be positive")
        if self.channel not in CHANNELS:
            raise ParameterError(f"channel must be one of {CHANNELS}, got {self.channel!r}")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a correlation-width fit.

    converged is False when the width landscape is flat or the minimum
    sits on the search boundary; message then carries the diagnostics.
    """

    sigma_corr: float
    scale: float
    background: float
    residual_sse: float
    n_evaluations: int
    converged: bool
    message: str = ""


def load_measurement(path, channel: str = "coincidences") -> Measurement:
    """Read an angular scan from a comma-separated text file.

    Format: UTF-8, lines beginning with '#' are comments, first data
    line must be the header `angle_mrad,rate` or
    `angle_mrad,rate,rate_err`, then one sample per line with angles in
    mrad (converted to rad here).  Comments of the form `# key: value`
    are collected into metadata; a `channel` entry overrides the
    argument.
    """
    p = Path(path)
    if not p.is_file():
        raise MeasurementFormatError(f"measurement file not found: {path}")
    metadata: dict = {}
    n_columns = 0
    angles: list[float] = []
    rates: list[float] = []
    errors: list[float] = []
    row_lines: list[int] = []
    for line_no, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if ":" in body:
                key, _, value = body.partition(":")
                key, value = key.strip(), value.strip()
                if key == "channel" and value not in CHANNELS:
                    raise MeasurementFormatError(
                        f"line {line_no}: channel must be one of {CHANNELS}, got {value!r}")
                metadata[key] = value
            continue
        if n_columns == 0:
            if line == "angle_mrad,rate":
                n_columns = 2
            elif line == "angle_mrad,rate,rate_err":
                n_columns = 3
            else:
                raise MeasurementFormatError(
                    f"line {line_no}: expected header 'angle_mrad,rate' or "
                    f"'angle_mrad,rate,rate_err', got {raw!r}")
            continue
        parts = [s.strip() for s in line.split(",")]
        if len(parts) != n_columns:
            raise MeasurementFormatError(
                f"line {line_no}: expected {n_columns} columns, got {len(parts)}")
        try:
            numbers = [float(s) for s in parts]
        except ValueError:
            raise MeasurementFormatError(
                f"line {line_no}: non-numeric value in {raw!r}") from None
        if not all(math.isfinite(x) for x in numbers):
            raise MeasurementFormatError(f"line {line_no}: non-finite value in {raw!r}")
        if numbers[1] < 0.0:
            raise MeasurementFormatError(f"line {line_no}: negative rate {numbers[1]!r}")
        if n_columns == 3 and numbers[2] <= 0.0:
            raise MeasurementFormatError(
                f"line {line_no}: rate_err must be positive, got {numbers[2]!r}")
        angles.append(numbers[0])
        rates.append(numbers[1])
        if n_columns == 3:
            errors.append(numbers[2])
        row_lines.append(line_no)
    if n_columns == 0:
        raise MeasurementFormatError(f"{path}: no header line found")
    if not angles:
        raise MeasurementFormatError(f"{path}: no data rows")
    angle_arr = np.asarray(angles, dtype=float)
    steps = np.diff(angle_arr)
    if np.any(steps <= 0.0):
        bad = int(np.argmax(steps <= 0.0)) + 1
        raise MeasurementFormatError(
            f"line {row_lines[bad]}: angles must be strictly increasing")
    return Measurement(
        angles=angle_arr * 1e-3,
        rates=np.asarray(rates, dtype=float),
        rate_errors=np.asarray(errors, dtype=float) if errors else None,
        channel=metadata.get("channel", channel),
        metadata=metadata)


def visibility(profile, window) -> float:
    """(max - min)/(max + min) over the samples inside the angle window.

    Reads the profile's angles and values.  Returns 0 for an
    identically zero window; needs at least 3 samples inside.
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ParameterError(f"empty visibility window ({lo}, {hi})")
    angles, values = profile.angles, profile.values
    mask = (angles >= lo) & (angles <= hi)
    count = int(mask.sum())
    if count < 3:
        raise ParameterError(
            f"visibility window ({lo:.6g}, {hi:.6g}) rad contains {count} samples, need >= 3")
    vmax = float(values[mask].max())
    vmin = float(values[mask].min())
    if vmax == 0.0 and vmin == 0.0:
        return 0.0
    return (vmax - vmin) / (vmax + vmin)


def od_ratio(profile, wavelength: float, period: float,
             peak_halfwidth: float | None = None) -> float:
    """Blue-to-red order ratio of a coincidence profile.

    Peak heights are the maximum sample inside a window of half width
    peak_halfwidth around the half-wavelength first order at
    wavelength/(2*period) and around the plain first order at
    wavelength/period.  The default half width is half an angular bin,
    which reads off the sample at each order position; wider windows
    mix in the shoulders of neighboring orders when the spot is small.
    Returns +inf when the red peak is exactly zero.
    """
    if peak_halfwidth is None:
        bins = np.diff(profile.angles)
        peak_halfwidth = 0.5 * float(bins.min())
    if not (peak_halfwidth > 0.0):
        raise ParameterError(f"peak_halfwidth must be positive, got {peak_halfwidth!r}")
    blue_center = wavelength / (2.0 * period)
    red_center = wavelength / period
    if blue_center + peak_halfwidth >= red_center - peak_halfwidth:
        raise ParameterError(
            f"peak windows overlap: half width {peak_halfwidth:.6g} rad is too large "
            f"for order spacing {red_center - blue_center:.6g} rad")
    angles, values = profile.angles, profile.values
    if blue_center - peak_halfwidth < angles[0] or red_center + peak_halfwidth > angles[-1]:
        raise ParameterError("peak windows fall outside the profile's angular range")

    def peak(center: float) -> float:
        mask = (angles >= center - peak_halfwidth) & (angles <= center + peak_halfwidth)
        if not mask.any():
            raise ParameterError(f"no samples inside the window at {center:.6g} rad")
        return float(values[mask].max())

    blue = peak(blue_center)
    red = peak(red_center)
    if red == 0.0:
        return math.inf
    return blue / red


def forward_on_angles(scenario: ScenarioConfig, sigma_um: float, angles,
                      channel: str = "coincidences") -> np.ndarray:
    """Peak-normalized forward profile interpolated to the given angles (rad).

    The scenario's angle_offset_mrad shifts the model before
    interpolation, for scans whose angular zero is pre-aligned.  Angles
    outside the shifted model's range by more than a millionth of a bin
    raise ParameterError instead of being clamped to the edge values.
    channel is "coincidences" (the diagonal) or "singles".
    """
    if channel not in CHANNELS:
        raise ParameterError(f"channel must be one of {CHANNELS}, got {channel!r}")
    diagonal, singles = profiles_for(scenario, sigma_um=sigma_um)
    profile = diagonal if channel == "coincidences" else singles
    model_angles = profile.angles + scenario.angle_offset_mrad * 1e-3
    angles = np.asarray(angles, dtype=float)
    # The slack admits the edge angles of simulate's output, which the CSV
    # rounds to 10 significant digits.
    slack = 1e-6 * (model_angles[1] - model_angles[0])
    outside = ~((angles >= model_angles[0] - slack) & (angles <= model_angles[-1] + slack))
    if outside.any():
        raise ParameterError(
            f"scan angle {angles[np.argmax(outside)] * 1e3:.6g} mrad lies outside the "
            f"model's range {model_angles[0] * 1e3:.6g} to {model_angles[-1] * 1e3:.6g} mrad")
    model = np.interp(angles, model_angles, profile.values)
    peak = model.max()
    return model / peak if peak > 0.0 else model


def _scale_and_background(model: np.ndarray, rates: np.ndarray,
                          weights: np.ndarray) -> tuple[float, float]:
    """Closed-form weighted least squares for rates ~ scale*model + background.

    background is clamped at zero; a flat model leaves the scale
    undefined and returns scale 0.
    """
    s1 = float(weights.sum())
    sm = float((weights * model).sum())
    smm = float((weights * model * model).sum())
    sr = float((weights * rates).sum())
    smr = float((weights * model * rates).sum())
    denom = s1 * smm - sm * sm
    if denom <= 0.0:
        return 0.0, max(sr / s1, 0.0)
    scale = (s1 * smr - sm * sr) / denom
    background = (sr - scale * sm) / s1
    if background < 0.0:
        background = 0.0
        scale = smr / smm if smm > 0.0 else 0.0
    return scale, background


def fit_sigma(measurement: Measurement, scenario: ScenarioConfig) -> FitResult:
    """Fit the correlation width of a measured scan against the forward model.

    Minimizes sum_i w_i*(rate_i - scale*model(theta_i) - background)**2
    where the model is the blurred forward profile (matching the
    measurement channel) interpolated to the scan angles.  The width
    search is a 25-point logarithmic grid over [0.5, 200] um followed by
    golden-section refinement to a relative width of 1e-3, evaluating
    each width once.  Fully deterministic; a flat landscape or a
    boundary minimum yields a non-converged result at the coarse-grid
    best, with diagnostics rather than a silent answer.
    """
    rates = measurement.rates
    if measurement.rate_errors is not None:
        weights = 1.0 / np.square(measurement.rate_errors)
    else:
        weights = np.ones_like(rates)

    evaluations: list[tuple[float, float, float, float]] = []

    def objective(sigma: float) -> float:
        model = forward_on_angles(scenario, sigma, measurement.angles,
                                  channel=measurement.channel)
        scale, background = _scale_and_background(model, rates, weights)
        residual = rates - (scale * model + background)
        sse = float(np.sum(weights * residual * residual))
        evaluations.append((sigma, sse, scale, background))
        return sse

    coarse = np.geomspace(SIGMA_RANGE[0], SIGMA_RANGE[1], COARSE_POINTS)
    message = ""
    with warnings.catch_warnings():
        # the search grid probes widths below the sampling limit by design;
        # warning on every probe would only be noise
        warnings.simplefilter("ignore", SamplingWarning)
        coarse_sse = np.array([objective(float(s)) for s in coarse])
        best = int(np.argmin(coarse_sse))
        sse_spread = float(coarse_sse.max() - coarse_sse.min())
        # Flatness is judged against the data scale, not against the SSE values
        # themselves: data the model fits exactly for every width (for example a
        # constant rate) leave only rounding noise in the landscape.
        data_scale = float(np.sum(weights * rates * rates))
        if sse_spread <= FLAT_LANDSCAPE_REL * max(float(coarse_sse.max()), data_scale):
            message = "flat objective: the data do not constrain the correlation width"
        elif best in (0, COARSE_POINTS - 1):
            message = (f"minimum at the search boundary sigma = {coarse[best]:.6g} um "
                       f"(range {SIGMA_RANGE[0]} to {SIGMA_RANGE[1]} um)")
        else:
            # Golden-section refinement inside the bracketing coarse interval.
            inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
            lo, hi = float(coarse[best - 1]), float(coarse[best + 1])
            c = hi - inv_phi * (hi - lo)
            d = lo + inv_phi * (hi - lo)
            f_c = objective(c)
            f_d = objective(d)
            while hi - lo > REFINE_REL_WIDTH * 0.5 * (lo + hi):
                if f_c <= f_d:
                    hi, d, f_d = d, c, f_c
                    c = hi - inv_phi * (hi - lo)
                    f_c = objective(c)
                else:
                    lo, c, f_c = c, d, f_d
                    d = lo + inv_phi * (hi - lo)
                    f_d = objective(d)
            objective(0.5 * (lo + hi))

    # A non-converged search reports its coarse best, a refined one its last evaluation.
    sigma, sse, scale, background = evaluations[best] if message else evaluations[-1]
    if not message and (not (scale > 0.0) or not math.isfinite(sse)):
        message = f"degenerate solution at sigma = {sigma:.6g} um: scale = {scale:.6g}"
    return FitResult(sigma_corr=sigma, scale=scale, background=background, residual_sse=sse,
                     n_evaluations=len(evaluations), converged=not message, message=message)
