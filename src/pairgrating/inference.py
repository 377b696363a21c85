"""Measured-scan ingestion, summary metrics, and correlation-width fitting.

The fit is deliberately plain, and in two parts.  The driver,
_search_width, searches the width on a coarse logarithmic grid of 25 widths
followed by Brent's parabolic refinement, about 31 evaluations in all,
reports the evaluation of lowest loss, and owns the flat and boundary
diagnostics.
The inner solver of _least_squares takes the model at one width to its
weighted sum of squares, with scale and background solved in closed form,
on the rates scaled by a power of two so that small rates keep their sums
in the normal doubles.
The one-dimensional width landscape is smooth and unimodal in every
regime of interest, and full determinism is worth more than optimizer
generality here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SamplingWarning, read_lines, read_number
from .propagation import CHANNELS
from .scenario import ScenarioConfig, profile_angles, profiles_for

# Angular window used for visibility summaries (rad): the central region
# holding the zeroth and both first orders of the reference grating.
VISIBILITY_WINDOW = (-0.050, 0.050)

SIGMA_RANGE = (0.5, 200.0)
COARSE_POINTS = 25
REFINE_REL_WIDTH = 1e-3
FLAT_LANDSCAPE_REL = 1e-9
# load_measurement's header lines and the number of columns each announces
_HEADERS = {"angle_mrad,rate": 2, "angle_mrad,rate,rate_err": 3}
_SAMPLE_FAULTS = ("non-finite value", "negative rate", "non-positive rate_err",
                  "rate_err too small for the fit", "rate_err too large for the fit",
                  "rate too large for the fit")
# A scan of N samples keeps the fit's sums in the doubles when each sample's weight
# w = 1/rate_err**2 (1 without rate_err) and w*rate**2 are at most _SUM_BOUND/N, and w
# is at least _LEAST_WEIGHT.  Then sum(w) and sum(w*rate) (as w*rate <= the bound too)
# are at most _SUM_BOUND, so the largest products of _scale_and_background, s1*smm and
# s1*smr, stay below max/4, and s1*smm, at least the peak sample's w**2, is normal.
_SUM_BOUND = float(np.sqrt(np.finfo(float).max)) / 2.0
_LEAST_WEIGHT = float(np.sqrt(np.finfo(float).tiny))


def unit_peak(values: np.ndarray) -> np.ndarray:
    peak = values.max()
    return values / peak if peak > 0.0 else values


def _check_channel(channel: str) -> None:
    if channel not in CHANNELS:
        raise ParameterError(f"channel must be one of {CHANNELS}, got {channel!r}")


def _first_fault(angles, rates, rate_errors) -> tuple[int, str] | None:
    """Index and fault of the first sample a scan may not hold, or None.

    The per-sample faults come first, in scan order; a sample with several
    reports the first of: a non-finite value in any column, a negative
    rate, a rate_err that is not positive, a weight 1/rate_err**2 above or
    below the fit's bounds, a weighted squared rate above them.  Then comes
    the angle order: the first angle that is not above the one before it.
    """
    errors = np.ones_like(rates) if rate_errors is None else rate_errors
    most = _SUM_BOUND / max(rates.size, 1)
    with np.errstate(all="ignore"):  # a bad sample's weight may leave the doubles
        weights = 1.0 / np.square(errors)   # as fit_sigma weighs
        faults = np.stack([~np.isfinite([angles, rates, errors]).all(axis=0),
                           rates < 0.0, errors <= 0.0, weights > most,
                           weights < _LEAST_WEIGHT, weights * rates * rates > most])
    bad = np.flatnonzero(faults.any(axis=0))
    if bad.size:
        return int(bad[0]), _SAMPLE_FAULTS[int(np.argmax(faults[:, bad[0]]))]
    falls = np.flatnonzero(np.diff(angles) <= 0.0)
    return (int(falls[0]) + 1, "non-increasing angle") if falls.size else None


@dataclass(frozen=True)
class Measurement:
    """One angular scan: strictly increasing angles (rad) and count rates.

    Every value is finite, the rates are nonnegative, and rate_errors,
    when present, are positive one-sigma uncertainties that the fit uses
    as inverse-variance weights w = 1/rate_err**2 (w = 1 without them).
    For N samples, each w and w*rate**2 is at most sqrt(max double)/(2N)
    and each w at least sqrt(tiny), the smallest normal double's root,
    so that the fit's sums stay in the doubles.  A sample that breaks a
    rule raises ParameterError naming its index.
    """

    angles: np.ndarray
    rates: np.ndarray
    rate_errors: np.ndarray | None = None
    channel: str = "coincidences"

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=float)
        rates = np.asarray(self.rates, dtype=float)
        errors = None if self.rate_errors is None else np.asarray(self.rate_errors, dtype=float)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "rate_errors", errors)
        if angles.ndim != 1 or angles.shape != rates.shape:
            raise ParameterError("angles and rates must be 1D arrays of equal length")
        if errors is not None and errors.shape != rates.shape:
            raise ParameterError("rate_errors must match rates in length")
        fault = _first_fault(angles, rates, errors)
        if fault:
            raise ParameterError(f"{fault[1]} at sample {fault[0]}")
        _check_channel(self.channel)


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


def load_measurement(path) -> Measurement:
    """Read an angular scan from a comma-separated text file.

    Format: UTF-8 (a leading byte-order mark is dropped), lines
    beginning with '#' are comments, first data line must be the header
    `angle_mrad,rate` or `angle_mrad,rate,rate_err`, then one sample per
    line with angles in mrad (converted to rad here), read by read_number.
    A `# channel: <name>` comment sets the channel (coincidences without
    one; a second one is an error); others are ignored.  Every fault
    raises ParameterError naming the file and line, a sample that breaks a
    rule of Measurement only after every line has parsed.
    """
    channel, channel_line = "coincidences", 0
    n_columns = 0
    rows: list[tuple[int, str, list[float]]] = []  # line number, raw line, numbers
    for line_no, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, colon, value = line.lstrip("#").partition(":")
            if colon and key.strip() == "channel":
                if channel_line:
                    raise ParameterError(
                        f"{path}: line {line_no}: channel comment repeats the one on line "
                        f"{channel_line}")
                channel, channel_line = value.strip(), line_no
                if channel not in CHANNELS:
                    raise ParameterError(
                        f"{path}: line {line_no}: channel must be one of {CHANNELS}, "
                        f"got {channel!r}")
            continue
        if n_columns == 0:
            if line not in _HEADERS:
                raise ParameterError(
                    f"{path}: line {line_no}: expected header "
                    f"{' or '.join(map(repr, _HEADERS))}, got {raw!r}")
            n_columns = _HEADERS[line]
            continue
        parts = line.split(",")
        if len(parts) != n_columns:
            raise ParameterError(
                f"{path}: line {line_no}: expected {n_columns} columns, got {len(parts)}")
        try:
            rows.append((line_no, raw, [read_number(s) for s in parts]))
        except ValueError:
            raise ParameterError(
                f"{path}: line {line_no}: non-numeric value in {raw!r}") from None
    if not rows:
        raise ParameterError(f"{path}: no data rows" if n_columns
                             else f"{path}: no header line found")
    columns = np.array([numbers for _, _, numbers in rows]).T
    angles = columns[0] * 1e-3   # checked in rad, as Measurement holds them
    errors = columns[2] if n_columns == 3 else None
    fault = _first_fault(angles, columns[1], errors)
    if fault:
        line_no, raw, _ = rows[fault[0]]
        raise ParameterError(f"{path}: line {line_no}: {fault[1]} in {raw!r}")
    return Measurement(angles, columns[1], rate_errors=errors, channel=channel)


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


def od_ratio(profile, wavelength: float, period: float) -> float:
    """Blue-to-red order ratio of a coincidence profile.

    Peak heights are the maximum sample within half the smallest
    angular step, widened by 1e-9 relative, of the half-wavelength first
    order at wavelength/(2*period) and of the plain first order at
    wavelength/period: the sample at each order position, or the larger
    of two when an order falls halfway between them.  Raises
    ParameterError when the windows overlap (a step of about
    wavelength/(2*period) or more) or leave the profile's range.
    Returns +inf when the red peak is exactly zero.  The profile needs
    at least 2 samples.
    """
    count = np.size(profile.angles)
    if count < 2:
        raise ParameterError(f"order ratio needs a profile of at least 2 samples, got {count}")
    peak_halfwidth = 0.5 * float(np.diff(profile.angles).min()) * (1.0 + 1e-9)
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
    interpolation, for scans whose angular zero is pre-aligned.  The
    model is computed once, on the lattice rows the scan's range reads,
    for the one channel asked for.  angles must be a nonempty 1-D array
    of finite values.  Angles outside the shifted lattice's range by more
    than a millionth of a bin raise ParameterError instead of being
    clamped to the edge values.  channel is "coincidences" (the diagonal)
    or "singles".
    """
    _check_channel(channel)
    if sigma_um is None:  # profiles_for would read None as the config's width
        raise ParameterError("sigma_um must be a number, got None")
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 1 or angles.size == 0:
        raise ParameterError(
            f"angles must be a nonempty 1-D array, got shape {angles.shape}")
    bad = np.flatnonzero(~np.isfinite(angles))
    if bad.size:
        raise ParameterError(
            f"angles must be finite, got {float(angles[bad[0]])} at index {bad[0]}")
    return _model_on_angles(scenario, sigma_um, angles, channel)


def _model_on_angles(scenario: ScenarioConfig, sigma_um: float, angles: np.ndarray,
                     channel: str) -> np.ndarray:
    """forward_on_angles after its checks of the channel and the angle array."""
    offset = scenario.angle_offset_mrad * 1e-3
    lowest, highest = angles.min(), angles.max()
    diagonal, singles = profiles_for(scenario, sigma_um=sigma_um,
                                     span=(lowest - offset, highest - offset), channel=channel)
    profile = diagonal if channel == "coincidences" else singles
    model_angles = profile.angles + offset
    # The slack admits the edge angles of simulate's output, which the CSV
    # rounds to 10 significant digits.
    slack = 1e-6 * scenario.wavelength_um / scenario.window_um
    if (not model_angles.size or lowest < model_angles[0] - slack
            or highest > model_angles[-1] + slack):
        # the model's rows cover the scan where the lattice does; name the whole
        # lattice, and the first angle outside the model's rows
        lo, hi = (model_angles[0], model_angles[-1]) if model_angles.size else (np.inf, -np.inf)
        outside = ~((angles >= lo - slack) & (angles <= hi + slack))
        lattice = profile_angles(scenario)[channel == "singles"] + offset
        raise ParameterError(
            f"scan angle {angles[np.argmax(outside)] * 1e3:.6g} mrad lies outside the "
            f"model's range {lattice[0] * 1e3:.6g} to {lattice[-1] * 1e3:.6g} mrad")
    return unit_peak(np.interp(angles, model_angles, profile.values))


def _scale_and_background(model: np.ndarray, rates: np.ndarray, weights: np.ndarray,
                          s1: float, sr: float) -> tuple[float, float]:
    """Closed-form weighted least squares for rates ~ scale*model + background.

    s1 = sum(weights) and sr = sum(weights*rates) depend on the scan
    alone, so a fit computes them once.  background is clamped at
    zero; a model flat up to rounding leaves the scale undefined and
    returns scale 0.
    """
    weighted = weights * model
    sm = float(weighted.sum())
    smm = float((weighted * model).sum())
    smr = float((weighted * rates).sum())
    denom = s1 * smm - sm * sm
    # s1*smm - sm**2 is s1 times the model's weighted variance; for a constant
    # model its rounding error reaches about 7 eps of s1*smm
    if denom <= 16 * np.finfo(float).eps * s1 * smm:
        return 0.0, max(sr / s1, 0.0)
    scale = (s1 * smr - sm * sr) / denom
    background = (sr - scale * sm) / s1
    if background < 0.0:
        background = 0.0
        scale = smr / smm if smm > 0.0 else 0.0
    return scale, background


def _rate_exponent(rates: np.ndarray, weights: np.ndarray) -> int:
    """The k that puts the largest w*(rate*2**k)**2 in [1, 4); 0 for a scan of zero rates."""
    with np.errstate(divide="ignore"):  # log2(0) = -inf for a zero rate
        top = float(np.max(np.log2(weights) + 2.0 * np.log2(rates)))
    if top == -math.inf:
        return 0
    k = -math.floor(top / 2.0)   # log2's rounding may leave the peak just outside [1, 4)
    scaled = np.ldexp(rates, k)
    peak = float(np.max(weights * scaled * scaled))
    return k - (math.frexp(peak)[1] - 1) // 2


def _least_squares(rates: np.ndarray, weights: np.ndarray):
    """A scan's inner solver, model -> (loss, (scale, background, sse)), and its data scale.

    The solver is weighted least squares by _scale_and_background on the
    rates times 2**k, where k puts the largest w*rate**2 in [1, 4): the
    scaling is exact, and it keeps the sums of a scan of small rates off
    the bottom of the doubles.  The loss is the scaled rates' SSE and the
    data scale their sum(w*rate**2), which the width search compares;
    scale, background and sse are the scan's own, scaled back exactly
    (sse may round to 0 where the loss does not).
    """
    k = _rate_exponent(rates, weights)
    scaled = np.ldexp(rates, k)
    s1, sr = float(weights.sum()), float((weights * scaled).sum())

    def solve(model: np.ndarray) -> tuple[float, tuple[float, float, float]]:
        scale, background = _scale_and_background(model, scaled, weights, s1, sr)
        residual = scaled - (scale * model + background)
        loss = float(np.sum(weights * residual * residual))
        return loss, (math.ldexp(scale, -k), math.ldexp(background, -k), math.ldexp(loss, -2 * k))

    return solve, float(np.sum(weights * scaled * scaled))


def _search_width(objective, data_scale: float):
    """Minimize objective(sigma) -> (loss, params) over the width in SIGMA_RANGE um.

    A logarithmic grid of COARSE_POINTS, then Brent's parabolic minimization
    with golden-section safeguards (R. P. Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 5) in the best one's bracket, each width
    evaluated once.  It starts from the parabola through the coarse best and
    its two neighbours, and stops when no point of the bracket lies further
    from the best width than REFINE_REL_WIDTH/2 of the bracket's centre:
    the bracket is then at most REFINE_REL_WIDTH of its centre, and the best
    width within half that of the minimum.  On measured fits the refinement
    takes 4 to 9 evaluations, about 31 in all.  Returns ((sigma, loss,
    params), evaluations, message): the evaluation of lowest loss, which is
    the coarse best with a flat (against data_scale) or grid-end message.
    """
    log = []  # (sigma, loss, params) of each evaluation

    def evaluate(sigma: float) -> float:
        log.append((sigma, *objective(sigma)))
        return log[-1][1]

    coarse = np.geomspace(SIGMA_RANGE[0], SIGMA_RANGE[1], COARSE_POINTS)
    message = ""
    with warnings.catch_warnings():
        # the search grid probes widths below the sampling limit by design;
        # warning on every probe would only be noise
        warnings.simplefilter("ignore", SamplingWarning)
        coarse_loss = np.array([evaluate(float(s)) for s in coarse])
        best = int(np.argmin(coarse_loss))
        spread = float(coarse_loss.max() - coarse_loss.min())
        # Flatness is judged against the data scale, not against the losses
        # themselves: data the model fits exactly for every width (for example a
        # constant rate) leave only rounding noise in the landscape.
        if spread <= FLAT_LANDSCAPE_REL * max(float(coarse_loss.max()), data_scale):
            message = "flat objective: the data do not constrain the correlation width"
        elif best in (0, COARSE_POINTS - 1):
            message = (f"minimum at the search boundary sigma = {coarse[best]:.6g} um "
                       f"(range {SIGMA_RANGE[0]} to {SIGMA_RANGE[1]} um)")
        else:
            # x has the lowest loss so far, w the next, v the one w held before.  Only x
            # of the widths evaluated lies inside the bracket (a, b), and each step lands
            # inside it at least tol from x, so no width is evaluated twice, and x, w and v,
            # three distinct coarse widths at the start, stay distinct.
            a, b = float(coarse[best - 1]), float(coarse[best + 1])
            x, f_x = float(coarse[best]), float(coarse_loss[best])
            (w, f_w), (v, f_v) = sorted([(a, float(coarse_loss[best - 1])),
                                         (b, float(coarse_loss[best + 1]))],
                                        key=lambda point: point[1])
            step = last_step = b - a
            while max(x - a, b - x) > REFINE_REL_WIDTH * 0.25 * (a + b):
                tol = REFINE_REL_WIDTH * 0.125 * (a + b)    # the shortest step
                far = b - x if x < 0.5 * (a + b) else a - x   # to the farther bracket end
                r, q = (x - w) * (f_x - f_v), (x - v) * (f_x - f_w)
                p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
                p, q = (-p, q) if q > 0.0 else (p, -q)
                # the parabola's step must land inside the bracket and be under half the
                # step before last, or a golden-section step into the larger part is taken
                if (abs(last_step) > tol and abs(p) < abs(0.5 * q * last_step)
                        and q * (a - x) < p < q * (b - x)):
                    last_step, step = step, p / q
                    if min(x + step - a, b - x - step) < 2.0 * tol:
                        step = math.copysign(tol, far)
                else:
                    last_step = far
                    step = 0.5 * (3.0 - math.sqrt(5.0)) * far
                u = x + (step if abs(step) >= tol else math.copysign(tol, step))
                f_u = evaluate(u)
                if f_u <= f_x:
                    a, b = (a, x) if u < x else (x, b)
                    (v, f_v), (w, f_w), (x, f_x) = (w, f_w), (x, f_x), (u, f_u)
                    best = len(log) - 1
                else:
                    a, b = (u, b) if u < x else (a, u)
                    if f_u <= f_w:
                        (v, f_v), (w, f_w) = (w, f_w), (u, f_u)
                    elif f_u <= f_v:
                        v, f_v = u, f_u
    return log[best], len(log), message


def fit_sigma(measurement: Measurement, scenario: ScenarioConfig) -> FitResult:
    """Fit the correlation width of a measured scan against the forward model.

    Minimizes sum_i w_i*(rate_i - scale*model(theta_i) - background)**2 by
    _search_width and _least_squares, the model being the blurred forward
    profile of the scan's channel at its angles.  A refined fit whose scale
    is not positive, or loss not finite, is degenerate.  Needs 3 samples.
    """
    rates = measurement.rates
    if rates.size < 3:
        raise ParameterError(
            f"fit needs at least 3 scan samples for width, scale and background, "
            f"got {rates.size}")
    errors = measurement.rate_errors
    weights = np.ones_like(rates) if errors is None else 1.0 / np.square(errors)
    solve, data_scale = _least_squares(rates, weights)
    # Measurement has checked the angles and the channel
    (sigma, loss, (scale, background, sse)), evaluations, message = _search_width(
        lambda sigma: solve(_model_on_angles(scenario, sigma, measurement.angles,
                                             measurement.channel)), data_scale)
    if not message and (not (scale > 0.0) or not math.isfinite(loss)):
        message = f"degenerate solution at sigma = {sigma:.6g} um: scale = {scale:.6g}"
    return FitResult(sigma_corr=sigma, scale=scale, background=background, residual_sse=sse,
                     n_evaluations=evaluations, converged=not message, message=message)
