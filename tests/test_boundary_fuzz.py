"""Seeded fuzz of the config boundary at the ends of the doubles.

Every drawn config either fails ScenarioConfig with a ParameterError or
runs both evaluators, rate_map_for and profiles_for, to finite and
nonnegative outputs, with numpy's RuntimeWarnings as errors.  The draws
keep the defaults' length ratios, jittered, at one length scale, and put
one length near a bound: the grid spacing (MIN_GRID_SPACING_UM), the
largest window, the angular step, a wavelength or half spot that rounds
to 0, the phase depth, the width's 2*sigma**2, the blur's half window
and the separation's n - 1/2 bins.
"""

import math
import warnings

import numpy as np

from pairgrating import ScenarioConfig, profiles_for, rate_map_for
from pairgrating.errors import ParameterError
from pairgrating.scenario import MAX_WINDOW_UM, MIN_GRID_SPACING_UM

TINY = float(np.finfo(float).tiny)
HUGE = float(np.finfo(float).max)
BOUNDS = ("spacing", "window", "step", "wavelength", "spot", "depth", "sigma", "blur",
          "separation")


def _near(rng, value):
    """value within 3 ulps either side, or within a factor of 4 of it."""
    if rng.random() < 0.5:
        return value * 2.0 ** rng.uniform(-2.0, 2.0)
    ulps = int(rng.integers(-3, 4))
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else 0.0)
    return value


def _draw(rng, bound):
    """ScenarioConfig keyword arguments with one length near bound."""
    n = 2 * int(rng.integers(2, 33))
    # a spacing at the scale the draw needs, then the defaults' ratios to it
    dx = {"spacing": _near(rng, MIN_GRID_SPACING_UM),
          "window": _near(rng, MAX_WINDOW_UM) / n}.get(bound, 10.0 ** rng.uniform(-150, 150))
    window = n * dx
    period = window / 2.0 ** rng.uniform(1.0, max(1.1, math.log2(n / 4.0)))
    wavelength = period / 2.0 ** rng.uniform(0.2, 6.0)
    if bound == "step":                                # wavelength/window near tiny
        wavelength = _near(rng, window * TINY)
    blaze = wavelength * 2.0 ** rng.uniform(-1.5, 1.0)
    if bound == "depth":                               # 2*pi*blaze/wavelength near max
        blaze = _near(rng, HUGE / (2.0 * math.pi)) * wavelength
    spot = _near(rng, 1e-323) if bound == "spot" else window * 2.0 ** rng.uniform(-4.0, 0.5)
    sigma = window * 10.0 ** rng.uniform(-3.0, 1.0)
    if bound == "sigma":                               # 2*sigma**2 leaves the doubles
        sigma = _near(rng, math.sqrt(HUGE / 2.0) if rng.random() < 0.5 else 1.6e-162)
    # the angular window's half width and bin, in mrad
    step = 1e3 * wavelength / window if window > 0.0 else 0.0
    resolution = step * (n - 1) / 2.0 * (_near(rng, 1.0) if bound == "blur" else rng.random())
    bins = _near(rng, n - 0.5) if bound == "separation" else rng.uniform(0.0, n / 4.0)
    return dict(grid_n=n, window_um=window, grating_period_um=period,
                wavelength_nm=_near(rng, 3e-321) if bound == "wavelength" else wavelength * 1e3,
                blaze_wavelength_nm=blaze * 1e3,
                spot_diameter_um=spot, sigma_corr_um=sigma,
                illumination=("near", "far")[int(rng.integers(2))],
                resolution_mrad=resolution if rng.random() < 0.8 else 0.0,
                detector_separation_mrad=float(rng.choice([-1.0, 1.0]) * bins * step))


def _outcome(keys):
    """"rejected", "ran", or what went wrong: an escape."""
    try:
        config = ScenarioConfig(**keys)
    except ParameterError:
        return "rejected"
    if keys["window_um"] / keys["grid_n"] < MIN_GRID_SPACING_UM:
        return "accepted below the smallest grid spacing"
    try:
        outputs = [rate_map_for(config).values, *(p.values for p in profiles_for(config))]
    except Exception as exc:                           # anything else is an escape
        return f"{type(exc).__name__}: {exc}"
    if not all(np.all(np.isfinite(values)) and np.all(values >= 0.0) for values in outputs):
        return "a rate that is not finite and nonnegative"
    return "ran"


def test_boundary_fuzz_finds_no_escape():
    rng = np.random.default_rng(25)
    draws = [(bound, _draw(rng, bound)) for _ in range(34) for bound in BOUNDS]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")                # sampling and snap notices
        warnings.simplefilter("error", RuntimeWarning)
        outcomes = [(bound, keys, _outcome(keys)) for bound, keys in draws]
    assert [entry for entry in outcomes if entry[2] not in ("rejected", "ran")] == []
    ran = {bound: 0 for bound in BOUNDS}
    for bound, _, outcome in outcomes:
        ran[bound] += outcome == "ran"
    # the draws reach both sides of the boundary
    assert 100 <= sum(ran.values()) <= len(draws) - 100, ran
    assert 0 < ran["spacing"] < 34, ran
