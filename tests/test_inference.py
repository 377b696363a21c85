import warnings

import numpy as np
import pytest

from pairgrating import (Measurement, ScenarioConfig, fit_sigma,
                         forward_on_angles, load_measurement, od_ratio,
                         visibility)
from pairgrating import inference
from pairgrating.propagation import RateProfile
from pairgrating.errors import (BinSnapWarning, MeasurementFormatError, ParameterError,
                                SamplingWarning)

from conftest import PERIOD, WAVELENGTH

SCAN = np.arange(-60.0, 60.5, 1.0) * 1e-3


@pytest.fixture(scope="module")
def fast_config():
    # coarser grid keeps each forward evaluation cheap; dx is unchanged
    return ScenarioConfig(grid_n=256, window_um=300.0)


# ---------------------------------------------------------------- loading

def _write(tmp_path, text, name="scan.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_well_formed(tmp_path):
    path = _write(tmp_path, "angle_mrad,rate\n-1.0,10\n0.0,12\n2.5,11\n")
    meas = load_measurement(path)
    assert meas.angles.size == 3
    np.testing.assert_allclose(meas.angles, [-1.0e-3, 0.0, 2.5e-3])
    np.testing.assert_allclose(meas.rates, [10.0, 12.0, 11.0])
    assert meas.rate_errors is None
    assert meas.channel == "coincidences"


def test_load_with_errors_column(tmp_path):
    path = _write(tmp_path, "angle_mrad,rate,rate_err\n0,5,1\n1,6,1.5\n2,7,2\n")
    meas = load_measurement(path)
    np.testing.assert_allclose(meas.rate_errors, [1.0, 1.5, 2.0])


def test_load_metadata_comments(tmp_path):
    path = _write(tmp_path,
                  "# channel: singles\n# spot_um: 29\nangle_mrad,rate\n0,1\n1,2\n")
    meas = load_measurement(path)
    assert meas.channel == "singles"
    assert meas.metadata["spot_um"] == "29"


def test_load_invalid_channel_comment_names_line(tmp_path):
    path = _write(tmp_path, "# spot_um: 29\n# channel: coincidence\nangle_mrad,rate\n0,1\n")
    with pytest.raises(MeasurementFormatError, match="line 2: channel .* 'coincidence'"):
        load_measurement(path)


def test_load_non_numeric_row_names_line(tmp_path):
    path = _write(tmp_path, "angle_mrad,rate\n0.0,1.0\nabc,5.0\n")
    with pytest.raises(MeasurementFormatError, match="line 3"):
        load_measurement(path)


def test_load_non_monotone_names_line(tmp_path):
    path = _write(tmp_path, "angle_mrad,rate\n1.0,1\n1.0,2\n2.0,3\n")
    with pytest.raises(MeasurementFormatError, match="line 3"):
        load_measurement(path)


def test_load_wrong_column_count(tmp_path):
    path = _write(tmp_path, "angle_mrad,rate\n0.0,1.0,9.0\n")
    with pytest.raises(MeasurementFormatError, match="line 2"):
        load_measurement(path)


def test_load_negative_rate(tmp_path):
    path = _write(tmp_path, "angle_mrad,rate\n0.0,-1.0\n")
    with pytest.raises(MeasurementFormatError, match="line 2"):
        load_measurement(path)


@pytest.mark.parametrize("text,line", [
    ("angle_mrad,rate\n0.0,1.0\nnan,2.0\n", 3),
    ("angle_mrad,rate\n0.0,inf\n", 2),
    ("angle_mrad,rate\n0.0,NaN\n", 2),
    ("angle_mrad,rate,rate_err\n-inf,1.0,1.0\n", 2),
    ("angle_mrad,rate,rate_err\n0.0,1.0,1.0\n1.0,-inf,1.0\n", 3),
    ("angle_mrad,rate,rate_err\n0.0,1.0,1.0\n1.0,2.0,inf\n", 3),
    ("angle_mrad,rate,rate_err\n0.0,1.0,nan\n", 2),
])
def test_load_non_finite_value_names_line(tmp_path, text, line):
    path = _write(tmp_path, text)
    with pytest.raises(MeasurementFormatError, match=f"line {line}: non-finite"):
        load_measurement(path)


def test_load_missing_header(tmp_path):
    path = _write(tmp_path, "0.0,1.0\n1.0,2.0\n")
    with pytest.raises(MeasurementFormatError, match="header"):
        load_measurement(path)


def test_load_empty_data(tmp_path):
    path = _write(tmp_path, "angle_mrad,rate\n")
    with pytest.raises(MeasurementFormatError, match="no data"):
        load_measurement(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(MeasurementFormatError, match="not found"):
        load_measurement(tmp_path / "absent.csv")


def test_measurement_validation():
    with pytest.raises(ParameterError):
        Measurement(angles=np.array([0.0, -1.0]), rates=np.array([1.0, 2.0]))
    with pytest.raises(ParameterError):
        Measurement(angles=np.array([0.0, 1.0]), rates=np.array([1.0, -2.0]))
    with pytest.raises(ParameterError):
        Measurement(angles=np.array([0.0, 1.0]), rates=np.array([1.0, 2.0]),
                    channel="triples")


# ---------------------------------------------------------------- metrics

def test_visibility_constant_profile():
    profile = RateProfile(angles=SCAN, values=np.full(SCAN.size, 4.0))
    assert visibility(profile, (-0.05, 0.05)) == 0.0


def test_visibility_full_contrast():
    values = np.zeros(SCAN.size)
    values[::2] = 3.0
    profile = RateProfile(angles=SCAN, values=values)
    assert visibility(profile, (-0.05, 0.05)) == 1.0


def test_visibility_all_zero():
    profile = RateProfile(angles=SCAN, values=np.zeros(SCAN.size))
    assert visibility(profile, (-0.05, 0.05)) == 0.0


def test_visibility_window_validation():
    profile = RateProfile(angles=SCAN, values=np.ones(SCAN.size))
    with pytest.raises(ParameterError):
        visibility(profile, (0.05, -0.05))
    with pytest.raises(ParameterError):
        visibility(profile, (0.2, 0.3))  # no samples


def test_visibility_accepts_measurements():
    meas = Measurement(angles=SCAN, rates=np.linspace(1.0, 2.0, SCAN.size))
    expected = (2.0 - 1.0) / (2.0 + 1.0)
    profile = RateProfile(meas.angles, meas.rates)
    assert visibility(profile, (SCAN[0], SCAN[-1])) == pytest.approx(expected, rel=1e-12)


def _profile_with_order_values(blue, red, fill=0.0):
    values = np.full(SCAN.size, fill)
    blue_idx = int(np.argmin(np.abs(SCAN - WAVELENGTH / (2 * PERIOD))))
    red_idx = int(np.argmin(np.abs(SCAN - WAVELENGTH / PERIOD)))
    values[blue_idx] = blue
    values[red_idx] = red
    return RateProfile(angles=SCAN, values=values)


def test_od_ratio_equal_peaks():
    profile = _profile_with_order_values(5.0, 5.0)
    assert od_ratio(profile, WAVELENGTH, PERIOD) == 1.0


def test_od_ratio_reads_order_samples():
    profile = _profile_with_order_values(2.0, 8.0, fill=1.0)
    assert od_ratio(profile, WAVELENGTH, PERIOD) == pytest.approx(0.25)


def test_od_ratio_zero_red_peak():
    profile = _profile_with_order_values(3.0, 0.0)
    assert od_ratio(profile, WAVELENGTH, PERIOD) == np.inf


def test_od_ratio_window_validation():
    profile = _profile_with_order_values(1.0, 1.0)
    with pytest.raises(ParameterError):
        od_ratio(profile, WAVELENGTH, PERIOD, peak_halfwidth=0.01)   # overlap
    with pytest.raises(ParameterError):
        od_ratio(profile, WAVELENGTH, PERIOD, peak_halfwidth=0.0)
    narrow = RateProfile(angles=SCAN[:30], values=np.ones(30))
    with pytest.raises(ParameterError):
        od_ratio(narrow, WAVELENGTH, PERIOD)                         # out of range


# ---------------------------------------------------------------- fitting

def test_fit_round_trip_noise_free(fast_config):
    model = forward_on_angles(fast_config, 9.0, SCAN)
    result = fit_sigma(Measurement(angles=SCAN, rates=1000.0 * model), fast_config)
    assert result.converged
    assert result.sigma_corr == pytest.approx(9.0, rel=0.02)
    assert result.scale == pytest.approx(1000.0, rel=1e-3)
    # the width search stops at a relative width of 1e-3, so a residual
    # background of that order absorbs the model mismatch
    assert result.background == pytest.approx(0.0, abs=0.05)


def test_fit_recovers_background(fast_config):
    model = forward_on_angles(fast_config, 9.0, SCAN)
    result = fit_sigma(Measurement(angles=SCAN, rates=1000.0 * model + 50.0), fast_config)
    assert result.converged
    assert result.sigma_corr == pytest.approx(9.0, rel=0.02)
    assert result.background == pytest.approx(50.0, rel=1e-3)


def test_fit_singles_channel(fast_config):
    model = forward_on_angles(fast_config, 9.0, SCAN, channel="singles")
    meas = Measurement(angles=SCAN, rates=500.0 * model, channel="singles")
    result = fit_sigma(meas, fast_config)
    assert result.converged
    assert result.sigma_corr == pytest.approx(9.0, rel=0.02)


def test_fit_is_deterministic(fast_config):
    model = forward_on_angles(fast_config, 13.0, SCAN)
    meas = Measurement(angles=SCAN, rates=800.0 * model)
    assert fit_sigma(meas, fast_config) == fit_sigma(meas, fast_config)


def test_fit_scale_equivariance(fast_config):
    model = forward_on_angles(fast_config, 13.0, SCAN)
    base = fit_sigma(Measurement(angles=SCAN, rates=1000.0 * model), fast_config)
    scaled = fit_sigma(Measurement(angles=SCAN, rates=4000.0 * model), fast_config)
    assert scaled.sigma_corr == base.sigma_corr
    assert scaled.scale == 4.0 * base.scale
    odd = fit_sigma(Measurement(angles=SCAN, rates=3000.0 * model), fast_config)
    assert odd.sigma_corr == pytest.approx(base.sigma_corr, rel=1e-9)


def _quiet_model(config, sigma):
    """forward_on_angles on SCAN, also at widths below the grid's sampling limit."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SamplingWarning)
        return forward_on_angles(config, sigma, SCAN)


def _assert_coarse_best(result, rates, config):
    """A non-converged fit reports the coarse grid's best point, evaluated once each."""
    assert result.n_evaluations == inference.COARSE_POINTS
    landscape = []  # (sigma, sse, scale, background) at each coarse width, by hand
    for sigma in np.geomspace(*inference.SIGMA_RANGE, inference.COARSE_POINTS):
        model = _quiet_model(config, sigma)
        weights = np.ones_like(rates)
        scale, background = inference._scale_and_background(model, rates, weights)
        residual = rates - (scale * model + background)
        landscape.append((sigma, float(np.sum(weights * residual * residual)), scale, background))
    best = min(landscape, key=lambda point: point[1])
    assert (result.sigma_corr, result.residual_sse, result.scale, result.background) == best


def test_fit_flat_data_not_converged(fast_config):
    rates = np.full(SCAN.size, 7.0)
    filters = list(warnings.filters)
    result = fit_sigma(Measurement(angles=SCAN, rates=rates), fast_config)
    assert warnings.filters == filters
    assert not result.converged
    assert "flat" in result.message
    _assert_coarse_best(result, rates, fast_config)


def test_fit_boundary_not_converged(fast_config):
    with pytest.warns(SamplingWarning):
        model = forward_on_angles(fast_config, 0.4, SCAN)  # below the search range
    result = fit_sigma(Measurement(angles=SCAN, rates=900.0 * model), fast_config)
    assert not result.converged
    assert "boundary" in result.message
    _assert_coarse_best(result, 900.0 * model, fast_config)


@pytest.mark.parametrize("sigma", [0.4, 13.0])  # a boundary and a refined fit
def test_fit_evaluates_each_width_once(fast_config, monkeypatch, sigma):
    model = _quiet_model(fast_config, sigma)
    widths = []

    def recording(config, sigma_um, *args, **kwargs):
        widths.append(sigma_um)
        return forward_on_angles(config, sigma_um, *args, **kwargs)

    monkeypatch.setattr(inference, "forward_on_angles", recording)
    result = fit_sigma(Measurement(angles=SCAN, rates=900.0 * model), fast_config)
    assert result.n_evaluations == len(widths) == len(set(widths))


def test_fit_warns_once_per_location():
    # 4 mrad is not a whole number of 2.6 mrad bins, so every evaluation snaps
    config = ScenarioConfig(grid_n=256, window_um=300.0, detector_separation_mrad=4.0)
    with pytest.warns(BinSnapWarning):
        model = forward_on_angles(config, 13.0, SCAN)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")  # Python's own action for a UserWarning
        result = fit_sigma(Measurement(angles=SCAN, rates=900.0 * model), config)
    assert result.converged
    assert [w.category for w in caught] == [BinSnapWarning]


@pytest.mark.parametrize("keys", [
    dict(angles=np.array([0.0, np.nan]), rates=np.array([1.0, 2.0])),
    dict(angles=np.array([0.0, 1.0]), rates=np.array([1.0, np.inf])),
    dict(angles=np.array([0.0, 1.0]), rates=np.array([1.0, 2.0]),
         rate_errors=np.array([np.nan, 1.0])),
    dict(angles=np.array([0.0, 1.0]), rates=np.array([1.0, 2.0]),
         rate_errors=np.array([1.0, np.inf])),
])
def test_measurement_rejects_non_finite(keys):
    with pytest.raises(ParameterError, match="finite"):
        Measurement(**keys)


@pytest.mark.parametrize("keys,angle,message", [
    # n = 256 over 300 um: the model spans -332.8 to 330.2 mrad
    (dict(), 0.5, "500 mrad .* -332.8 to 330.2 mrad"),
    (dict(), 0.9, "900 mrad"),
    (dict(), -0.34, "-340 mrad"),
    (dict(angle_offset_mrad=-20.0), 0.32, "320 mrad .* -352.8 to 310.2 mrad"),
    # a 5-bin separation drops the diagonal's last 5 angles
    (dict(detector_separation_mrad=13.0), 0.32, "320 mrad .* -332.8 to 317.2 mrad"),
])
def test_forward_on_angles_rejects_angles_outside_model(keys, angle, message):
    config = ScenarioConfig(grid_n=256, window_um=300.0, **keys)
    with pytest.raises(ParameterError, match=message):
        forward_on_angles(config, 9.0, [-0.01, 0.0, angle, 0.1])


def test_forward_on_angles_rejects_unknown_channel(fast_config):
    with pytest.raises(ParameterError, match="'coincidence'"):
        forward_on_angles(fast_config, 9.0, SCAN, channel="coincidence")


def test_forward_on_angles_accepts_the_model_edges(fast_config):
    # the edges as simulate writes them, rounded to 10 significant digits
    model = forward_on_angles(fast_config, 9.0, [-0.3328, 0.3302])
    assert np.all(np.isfinite(model))


# Fit results at the commit before the blurred cuts were taken from the
# unblurred map; the scans carry a fixed 2% multiplicative ripple so the
# fit does not simply recover its input.
PINNED_FITS = [
    (dict(), 13.0, "coincidences",
     12.986018411101686, 4961.436933557459, 101.81834054417901, 41),
    (dict(illumination="far"), 13.0, "coincidences",
     12.953479083391436, 4960.914436247362, 100.52219206477253, 41),
    (dict(), 9.0, "singles",
     8.943693859151008, 4969.857900743222, 99.09607712184497, 42),
]


@pytest.mark.parametrize("keys,sigma,channel,fit_sigma_um,scale,background,evaluations",
                         PINNED_FITS)
def test_fit_pinned(keys, sigma, channel, fit_sigma_um, scale, background, evaluations):
    config = ScenarioConfig(grid_n=256, window_um=300.0, **keys)
    angles = np.linspace(-60.0, 60.0, 121) * 1e-3
    ripple = 1.0 + 0.02 * np.random.default_rng(5).standard_normal(angles.size)
    rates = 5e3 * forward_on_angles(config, sigma, angles, channel) * ripple + 100.0
    result = fit_sigma(Measurement(angles, rates, channel=channel), config)
    assert result.converged
    assert result.sigma_corr == pytest.approx(fit_sigma_um, rel=1e-9)
    assert result.scale == pytest.approx(scale, rel=1e-9)
    assert result.background == pytest.approx(background, rel=1e-9)
    assert result.n_evaluations == evaluations


def test_fit_honors_rate_errors(fast_config):
    model = forward_on_angles(fast_config, 9.0, SCAN)
    meas = Measurement(angles=SCAN, rates=1000.0 * model + 20.0,
                       rate_errors=np.full(SCAN.size, 5.0))
    result = fit_sigma(meas, fast_config)
    assert result.converged
    assert result.sigma_corr == pytest.approx(9.0, rel=0.02)


def test_angle_offset_shifts_model(fast_config):
    shifted = ScenarioConfig(grid_n=256, window_um=300.0, angle_offset_mrad=5.0)
    dense = np.arange(-60.0, 60.01, 0.1) * 1e-3
    base = forward_on_angles(fast_config, 9.0, dense)
    moved = forward_on_angles(shifted, 9.0, dense)
    assert dense[np.argmax(moved)] - dense[np.argmax(base)] == pytest.approx(5e-3, abs=2e-4)


def test_metric_anticorrelation_over_width_sweep(fast_config):
    # the order ratio falls while the singles contrast rises
    ratios, contrasts = [], []
    for sigma in (0.5, 3.0, 9.0, 31.0, 100.0):
        diag, singles = _profiles(fast_config, sigma)
        ratios.append(od_ratio(diag, WAVELENGTH, PERIOD))
        contrasts.append(visibility(singles, (-0.05, 0.05)))
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(a < b for a, b in zip(contrasts, contrasts[1:]))


def _profiles(config, sigma):
    import warnings
    from pairgrating import profiles_for
    from pairgrating.errors import SamplingWarning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SamplingWarning)
        return profiles_for(config, sigma_um=sigma)
