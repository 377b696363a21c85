import math
import re
import warnings

import numpy as np
import pytest

from pairgrating import (Measurement, ScenarioConfig, fit_sigma,
                         forward_on_angles, load_measurement, od_ratio,
                         visibility)
from pairgrating import inference, scenario
from pairgrating.propagation import RateProfile
from pairgrating.errors import BinSnapWarning, ParameterError, SamplingWarning

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
    # `# channel:` sets the channel; any other `# key: value` comment is ignored
    path = _write(tmp_path,
                  "# channel: singles\n# spot_um: 29\nangle_mrad,rate\n0,1\n1,2\n")
    meas = load_measurement(path)
    assert meas.channel == "singles"
    assert not hasattr(meas, "metadata")
    np.testing.assert_array_equal(meas.angles, [0.0, 1e-3])
    np.testing.assert_array_equal(meas.rates, [1.0, 2.0])


def test_load_invalid_channel_comment_names_line(tmp_path):
    path = _write(tmp_path, "# spot_um: 29\n# channel: coincidence\nangle_mrad,rate\n0,1\n")
    with pytest.raises(ParameterError, match="line 2: channel .* 'coincidence'"):
        load_measurement(path)


@pytest.mark.parametrize("second", ["coincidences", "singles"])
def test_load_repeated_channel_comment_names_both_lines(tmp_path, second):
    # a second channel comment, even one after the rows, would otherwise
    # replace the first and fit the scan as the other channel
    path = _write(tmp_path,
                  f"# channel: singles\nangle_mrad,rate\n0,1\n1,2\n# channel: {second}\n")
    with pytest.raises(ParameterError,
                       match=r"scan.csv: line 5: channel comment repeats the one on line 1$"):
        load_measurement(path)


def test_load_non_numeric_row_names_line(tmp_path):
    path = _write(tmp_path, "angle_mrad,rate\n0.0,1.0\nabc,5.0\n")
    with pytest.raises(ParameterError, match="line 3"):
        load_measurement(path)


def test_load_non_monotone_names_line(tmp_path):
    path = _write(tmp_path, "angle_mrad,rate\n1.0,1\n1.0,2\n2.0,3\n")
    with pytest.raises(ParameterError, match="line 3"):
        load_measurement(path)


def test_load_angles_that_tie_only_in_rad_name_the_line(tmp_path):
    # +-1e-323 mrad are distinct in mrad but round to 0 rad, the angles the fit holds
    path = _write(tmp_path, "angle_mrad,rate\n-1e-323,1\n0,2\n1e-323,3\n")
    with pytest.raises(ParameterError,
                       match=re.escape(f"{path}: line 3: non-increasing angle in '0,2'") + "$"):
        load_measurement(path)


def test_load_wrong_column_count(tmp_path):
    path = _write(tmp_path, "angle_mrad,rate\n0.0,1.0,9.0\n")
    with pytest.raises(ParameterError, match="line 2"):
        load_measurement(path)


def test_load_negative_rate(tmp_path):
    path = _write(tmp_path, "angle_mrad,rate\n0.0,-1.0\n")
    with pytest.raises(ParameterError, match="line 2"):
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
    with pytest.raises(ParameterError, match=f"line {line}: non-finite"):
        load_measurement(path)


def test_load_reports_sample_faults_before_the_angle_order(tmp_path):
    # line 3 steps the angle back, line 5 holds a negative rate
    path = _write(tmp_path, "angle_mrad,rate\n1.0,1\n0.5,2\n2.0,3\n3.0,-4\n")
    with pytest.raises(ParameterError, match=r"line 5: negative rate in '3\.0,-4'$"):
        load_measurement(path)


def test_non_finite_comes_before_a_negative_rate(tmp_path):
    path = _write(tmp_path, "angle_mrad,rate,rate_err\n0,1,1\n1,2,1\n2,3,1\n3,-1,nan\n")
    with pytest.raises(ParameterError,
                       match=r"line 5: non-finite value in '3,-1,nan'$"):
        load_measurement(path)
    with pytest.raises(ParameterError, match="^non-finite value at sample 3$"):
        Measurement(angles=np.array([0.0, 1.0, 2.0, 3.0]), rates=np.array([1.0, 2.0, 3.0, -1.0]),
                    rate_errors=np.array([1.0, 1.0, 1.0, np.nan]))


def test_load_missing_header(tmp_path):
    path = _write(tmp_path, "0.0,1.0\n1.0,2.0\n")
    with pytest.raises(ParameterError, match="header"):
        load_measurement(path)


def test_load_empty_data(tmp_path):
    path = _write(tmp_path, "angle_mrad,rate\n")
    with pytest.raises(ParameterError, match="no data"):
        load_measurement(path)


def test_load_drops_byte_order_mark(tmp_path):
    path = tmp_path / "scan.csv"
    path.write_bytes(b"\xef\xbb\xbfangle_mrad,rate\n0,1\n1,2\n")
    np.testing.assert_allclose(load_measurement(path).rates, [1.0, 2.0])


def test_load_non_utf8_byte_names_line(tmp_path):
    path = tmp_path / "scan.csv"
    path.write_bytes(b"# temperature: 20\xb0C\nangle_mrad,rate\n0,1\n")
    with pytest.raises(ParameterError,
                       match=r"scan\.csv: line 1: byte 0xb0 is not UTF-8 text"):
        load_measurement(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(ParameterError, match="not found"):
        load_measurement(tmp_path / "absent.csv")


def test_measurement_validation():
    with pytest.raises(ParameterError):
        Measurement(angles=np.array([0.0, -1.0]), rates=np.array([1.0, 2.0]))
    with pytest.raises(ParameterError):
        Measurement(angles=np.array([0.0, 1.0]), rates=np.array([1.0, -2.0]))
    with pytest.raises(ParameterError):
        Measurement(angles=np.array([0.0, 1.0]), rates=np.array([1.0, 2.0]),
                    channel="triples")


@pytest.mark.parametrize("keys,message", [
    (dict(angles=np.zeros((2, 2)), rates=np.ones((2, 2))),
     "angles and rates must be 1D arrays of equal length"),
    (dict(angles=np.array([0.0, 1.0]), rates=np.ones(3)),
     "angles and rates must be 1D arrays of equal length"),
    (dict(angles=np.array([0.0, 1.0]), rates=np.ones(2), rate_errors=np.ones(3)),
     "rate_errors must match rates in length"),
])
def test_measurement_length_rules(keys, message):
    with pytest.raises(ParameterError, match=message):
        Measurement(**keys)


# ---------------------------------------------------------------- metrics

@pytest.mark.parametrize("size", [3, 1000])
@pytest.mark.parametrize("past", [False, True])
def test_measurement_bounds_the_fit_sums(size, past):
    # for N samples, w = 1/rate_err**2 and w*rate**2 at most sqrt(max)/(2N), w at
    # least sqrt(tiny); sample 1 sits a relative 1e-12 inside or past each bound
    most = math.sqrt(np.finfo(float).max) / (2 * size)
    least = math.sqrt(np.finfo(float).tiny)
    step = 1e-12 if past else -1e-12
    for column, value, fault in [
            ("rate_errors", (1.0 - step) / math.sqrt(most), "rate_err too small for the fit"),
            ("rate_errors", (1.0 + step) / math.sqrt(least), "rate_err too large for the fit"),
            ("rates", (1.0 + step) * math.sqrt(most), "rate too large for the fit")]:
        keys = dict(angles=np.arange(float(size)), rates=np.ones(size),
                    rate_errors=np.ones(size))
        keys[column][1] = value
        if past:
            with pytest.raises(ParameterError, match=f"^{fault} at sample 1$"):
                Measurement(**keys)
        else:
            Measurement(**keys)


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
    # a step of the order spacing lambda/period is twice the lambda/(2*period)
    # at which windows of half a step start to touch
    coarse = RateProfile(angles=np.arange(-4, 5) * WAVELENGTH / PERIOD, values=np.ones(9))
    with pytest.raises(ParameterError, match="peak windows overlap"):
        od_ratio(coarse, WAVELENGTH, PERIOD)
    narrow = RateProfile(angles=SCAN[:30], values=np.ones(30))
    with pytest.raises(ParameterError):
        od_ratio(narrow, WAVELENGTH, PERIOD)                         # out of range


def test_od_ratio_order_in_a_gap():
    # the smallest step sets the window half width; a gap wider than that step
    # around an order leaves its window empty
    angles = np.array([-0.05, -0.001, 0.0, 0.001, 0.03, 0.05])
    profile = RateProfile(angles=angles, values=np.ones(angles.size))
    blue = WAVELENGTH / (2 * PERIOD)
    with pytest.raises(ParameterError, match=f"^no samples inside the window at {blue:.6g} rad$"):
        od_ratio(profile, WAVELENGTH, PERIOD)


@pytest.mark.parametrize("count", [0, 1])
def test_od_ratio_needs_two_samples(count):
    # no bin width to read, and no two peaks to compare
    profile = RateProfile(angles=SCAN[:count], values=np.ones(count))
    with pytest.raises(ParameterError, match=f"at least 2 samples, got {count}"):
        od_ratio(profile, WAVELENGTH, PERIOD)


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


def test_fit_of_a_scan_times_a_power_of_two_is_bitwise_the_same(fast_config):
    # the solver scales the rates by a power of two that puts the largest w*rate**2
    # in [1, 4): a scan times 2**-600 is searched on the same numbers, bit for bit
    rates = 1000.0 * forward_on_angles(fast_config, 9.0, SCAN) + 20.0
    base = fit_sigma(Measurement(angles=SCAN, rates=rates), fast_config)
    small = fit_sigma(Measurement(angles=SCAN, rates=rates * 2.0 ** -600), fast_config)
    assert base.converged and small.converged
    assert (small.sigma_corr, small.n_evaluations) == (base.sigma_corr, base.n_evaluations)
    assert small.scale == base.scale * 2.0 ** -600
    assert small.background == base.background * 2.0 ** -600


@pytest.mark.parametrize("factor", [1e-170, 1e-200])
def test_fit_of_a_scan_of_small_rates_converges(fast_config, factor):
    # unscaled, the squared residuals of these scans underflow, and the landscape
    # read as flat at sigma = 0.5 with residual_sse = 0
    rates = 1000.0 * forward_on_angles(fast_config, 9.0, SCAN) + 20.0
    base = fit_sigma(Measurement(angles=SCAN, rates=rates), fast_config)
    small = fit_sigma(Measurement(angles=SCAN, rates=rates * factor), fast_config)
    assert small.converged, small.message
    assert small.sigma_corr == pytest.approx(base.sigma_corr, abs=1e-6)
    assert small.scale == pytest.approx(base.scale * factor, rel=1e-6)


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
        scale, background = inference._scale_and_background(
            model, rates, weights, float(weights.sum()), float((weights * rates).sum()))
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


def test_fit_negative_scale_is_degenerate(fast_config):
    # an inverted profile is fitted best at scale -1: the refinement ends
    # inside the search range, but a negative scale is no fit
    rates = 2.0 - forward_on_angles(fast_config, 13.0, SCAN)
    result = fit_sigma(Measurement(angles=SCAN, rates=rates), fast_config)
    assert not result.converged
    assert result.message == "degenerate solution at sigma = 13.0005 um: scale = -0.999999"
    assert result.scale < 0.0


def test_scale_and_background_flat_model():
    # a flat model cannot tell scale from background: scale 0, the clamped mean as background
    weights = np.ones(5)
    rates = np.arange(1.0, 6.0)
    assert inference._scale_and_background(np.ones(5), rates, weights, 5.0, 15.0) == (0.0, 3.0)
    assert inference._scale_and_background(np.ones(5), -rates, weights, 5.0, -15.0) == (0.0, 0.0)


@pytest.mark.parametrize("level", [0.1, 0.3])
def test_scale_and_background_model_flat_up_to_rounding(level):
    # seven copies of 0.1 leave s1*smm - sm**2 at +1 eps of s1*smm, and of 0.3
    # at -0.9 eps: both are flat, not a model of scale 32
    rates = np.arange(1.0, 8.0)
    assert inference._scale_and_background(np.full(7, level), rates, np.ones(7),
                                           7.0, 28.0) == (0.0, 4.0)


@pytest.mark.parametrize("count", [0, 1, 2])
def test_fit_needs_three_samples(fast_config, monkeypatch, count):
    # one sample per fitted parameter: width, scale and background
    monkeypatch.setattr(inference, "_model_on_angles", None)   # no evaluation is spent
    measurement = Measurement(angles=SCAN[:count], rates=np.ones(count))
    with pytest.raises(ParameterError, match=f"at least 3 scan samples .*got {count}$"):
        fit_sigma(measurement, fast_config)


def test_fit_builds_the_grid_and_transmission_once(monkeypatch):
    config = ScenarioConfig()
    model = _quiet_model(config, 9.0)
    calls = {"make_grid": 0, "transmission": 0}

    def counting(name):
        original = getattr(scenario, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(scenario, name, counting(name))
    scenario._support_plan.cache_clear()
    result = fit_sigma(Measurement(angles=SCAN, rates=900.0 * model), config)
    assert result.converged and result.n_evaluations > 30
    assert calls == {"make_grid": 1, "transmission": 1}


def test_warm_fit_builds_at_most_one_config(fast_config, monkeypatch):
    # the plan's cache key is the optics fields' values: evaluations on a
    # kept plan construct no ScenarioConfig
    model = _quiet_model(fast_config, 13.0)
    built = []
    post_init = ScenarioConfig.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ScenarioConfig, "__post_init__", counted)
    result = fit_sigma(Measurement(angles=SCAN, rates=900.0 * model), fast_config)
    assert result.converged and result.n_evaluations > 30
    assert len(built) <= 1


@pytest.mark.parametrize("sigma", [0.4, 13.0])  # a boundary and a refined fit
def test_fit_evaluates_each_width_once(fast_config, monkeypatch, sigma):
    model = _quiet_model(fast_config, sigma)
    widths = []
    evaluate = inference._model_on_angles

    def recording(config, sigma_um, *args, **kwargs):
        widths.append(sigma_um)
        return evaluate(config, sigma_um, *args, **kwargs)

    monkeypatch.setattr(inference, "_model_on_angles", recording)
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


@pytest.mark.parametrize("channel,angles,message", [
    # the diagonal ends at 317.2 mrad with a 5-bin separation: no model row
    # lies near the scan, and the message still names the whole lattice
    ("coincidences", [0.32, 0.325], "320 mrad .* -332.8 to 317.2 mrad"),
    ("singles", [0.2, 0.34], "340 mrad .* -332.8 to 330.2 mrad"),
])
def test_forward_on_angles_past_the_lattice_names_its_range(channel, angles, message):
    config = ScenarioConfig(grid_n=256, window_um=300.0, detector_separation_mrad=13.0)
    with pytest.raises(ParameterError, match=message):
        forward_on_angles(config, 9.0, angles, channel=channel)


@pytest.mark.parametrize("angles,message", [
    ([], r"nonempty 1-D array, got shape \(0,\)"),
    ([[-0.01, 0.0], [0.01, 0.02]], r"nonempty 1-D array, got shape \(2, 2\)"),
    ([-0.01, np.nan, 0.01], "finite, got nan at index 1"),
])
def test_forward_on_angles_rejects_bad_angle_arrays(fast_config, angles, message):
    # checked before any evaluation, so no numpy or span error comes first
    with pytest.raises(ParameterError, match=message):
        forward_on_angles(fast_config, 9.0, angles)


def test_forward_on_angles_needs_a_width(fast_config):
    # profiles_for reads a width of None as the config's; forward_on_angles takes a number
    with pytest.raises(ParameterError, match="sigma_um must be a number, got None"):
        forward_on_angles(fast_config, None, SCAN)


def test_forward_on_angles_rejects_unknown_channel(fast_config):
    with pytest.raises(ParameterError, match="'coincidence'"):
        forward_on_angles(fast_config, 9.0, SCAN, channel="coincidence")


def test_forward_on_angles_accepts_the_model_edges(fast_config):
    # the edges as simulate writes them, rounded to 10 significant digits
    model = forward_on_angles(fast_config, 9.0, [-0.3328, 0.3302])
    assert np.all(np.isfinite(model))


# Fit results of the width search with Brent's parabolic refinement; the scans
# carry a fixed 2% multiplicative ripple so the fit does not simply recover its input.
PINNED_FITS = [
    (dict(), 13.0, "coincidences",
     12.983290494837988, 4961.457398421363, 101.77146599944312, 31),
    (dict(illumination="far"), 13.0, "coincidences",
     12.95132780206773, 4960.779599525499, 100.43610886737179, 31),
    (dict(), 9.0, "singles",
     8.944742205481647, 4969.880467420006, 99.17855720680899, 31),
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


# test_fit_pinned's scans with rate_err = sqrt(rate), as a counted scan carries it,
# pinned with the same search
PINNED_WEIGHTED_FITS = [
    (dict(), 13.0, "coincidences",
     12.984189796868874, 4969.343631402498, 100.2961665023472, 25.023801414052766, 31),
    (dict(illumination="far"), 13.0, "coincidences",
     12.970830013119572, 4965.09123843381, 100.22738914918942, 35.7316039681594, 31),
    (dict(), 9.0, "singles",
     8.97626644809549, 4973.573584271485, 100.0168875129207, 65.08262217168514, 31),
]


@pytest.mark.parametrize("keys,sigma,channel,fit_sigma_um,scale,background,sse,evaluations",
                         PINNED_WEIGHTED_FITS)
def test_fit_pinned_weighted(keys, sigma, channel, fit_sigma_um, scale, background, sse,
                             evaluations):
    config = ScenarioConfig(grid_n=256, window_um=300.0, **keys)
    angles = np.linspace(-60.0, 60.0, 121) * 1e-3
    ripple = 1.0 + 0.02 * np.random.default_rng(5).standard_normal(angles.size)
    counts = 5e3 * forward_on_angles(config, sigma, angles, channel) * ripple + 100.0
    result = fit_sigma(Measurement(angles, counts, rate_errors=np.sqrt(counts),
                                   channel=channel), config)
    assert result.converged
    assert result.sigma_corr == pytest.approx(fit_sigma_um, rel=1e-9)
    assert result.scale == pytest.approx(scale, rel=1e-9)
    assert result.background == pytest.approx(background, rel=1e-9)
    assert result.residual_sse == pytest.approx(sse, rel=1e-9)
    assert result.n_evaluations == evaluations


# ------------------------------------------------- the width search and the inner solver

def _recorded_search(loss):
    """_search_width on loss(sigma), with params the call's index; also the widths tried."""
    widths = []

    def objective(sigma):
        widths.append(sigma)
        return loss(sigma), len(widths) - 1

    return inference._search_width(objective, 0.0), widths


# the refinement evaluations of the golden section that Brent's steps replaced
GOLDEN_SECTION_EVALUATIONS = 16


def _assert_refined(loss, minimizer):
    """A search of loss(sigma) refines, lands within REFINE_REL_WIDTH/2 of the minimizer,
    reports its lowest-loss evaluation, evaluates each width once and refines in at most
    as many evaluations as the golden section did; returns the report's index and the
    widths tried."""
    ((sigma, reported, index), evaluations, message), widths = _recorded_search(loss)
    assert message == ""
    assert abs(sigma - minimizer) <= 0.5 * inference.REFINE_REL_WIDTH * minimizer
    assert sigma == widths[index]
    assert reported == loss(sigma) == min(map(loss, widths))
    assert inference.COARSE_POINTS < evaluations == len(widths) == len(set(widths))
    assert evaluations <= inference.COARSE_POINTS + GOLDEN_SECTION_EVALUATIONS
    return index, widths


def test_search_width_refines_a_minimum_inside_the_grid():
    index, widths = _assert_refined(lambda s: math.log(s / 7.0) ** 2, 7.0)
    # the lowest loss is a refinement evaluation's, after a few parabolic steps
    assert index >= inference.COARSE_POINTS
    assert len(widths) <= inference.COARSE_POINTS + 8


COARSE = np.geomspace(*inference.SIGMA_RANGE, inference.COARSE_POINTS)
_BETWEEN = 0.5 * (COARSE[9] + COARSE[11])   # the middle of COARSE[10]'s bracket


@pytest.mark.parametrize("loss,minimizer", [
    (lambda s: abs(math.log(s / 7.0)), 7.0),                 # a kink: no parabola fits it
    # a lopsided kink: parabolas creep towards it, and the golden-section steps the
    # safeguard takes keep the count down (unguarded, this takes 192 refinement steps)
    (lambda s: math.log(s / 7.0) * (3.0 if s > 7.0 else -1.0), 7.0),
    (lambda s: math.log(s / 7.0) ** 4, 7.0),                 # flat at the minimum
    (lambda s: math.log(s / COARSE[10]) ** 2, COARSE[10]),   # a minimum on a coarse width
    (lambda s: (s - _BETWEEN) ** 2, _BETWEEN),               # equal losses at both neighbours
], ids=["v-shape", "lopsided-v-shape", "quartic", "on-a-coarse-width", "equal-neighbours"])
def test_search_width_safeguards_its_parabolic_steps(loss, minimizer):
    if minimizer == _BETWEEN:
        assert loss(COARSE[9]) == loss(COARSE[11]) > loss(COARSE[10])
    _assert_refined(loss, minimizer)


@pytest.mark.parametrize("illumination", ["near", "far"])
@pytest.mark.parametrize("channel", ["coincidences", "singles"])
@pytest.mark.parametrize("sigma", [3.0, 9.0, 31.0])
def test_fit_lands_on_a_dense_grid_minimizer(illumination, channel, sigma):
    # a noise-free scan and a Poisson one with sqrt(counts) errors; the dense grid
    # spans 2*REFINE_REL_WIDTH about the fit in steps of REFINE_REL_WIDTH/20
    config = ScenarioConfig(grid_n=256, window_um=300.0, illumination=illumination)
    mean = 1000.0 * forward_on_angles(config, sigma, SCAN, channel) + 20.0
    counts = np.random.default_rng(11).poisson(mean).astype(float)
    for rates, errors in ((mean, None), (counts, np.sqrt(np.maximum(counts, 1.0)))):
        result = fit_sigma(Measurement(SCAN, rates, rate_errors=errors, channel=channel), config)
        assert result.converged, result.message
        assert result.n_evaluations <= inference.COARSE_POINTS + 10
        solve, _ = inference._least_squares(
            rates, np.ones_like(rates) if errors is None else 1.0 / np.square(errors))
        grid = result.sigma_corr * (1.0 + inference.REFINE_REL_WIDTH * np.linspace(-1, 1, 41))
        losses = [solve(inference._model_on_angles(config, s, SCAN, channel))[0] for s in grid]
        best = int(np.argmin(losses))
        assert 0 < best < grid.size - 1   # the grid holds the minimizer
        assert abs(result.sigma_corr - grid[best]) <= 0.5 * inference.REFINE_REL_WIDTH * grid[best]


def test_search_width_flat_objective():
    ((sigma, loss, index), evaluations, message), widths = _recorded_search(lambda s: 5.0)
    assert message == "flat objective: the data do not constrain the correlation width"
    assert evaluations == len(widths) == inference.COARSE_POINTS
    assert (sigma, loss, index) == (inference.SIGMA_RANGE[0], 5.0, 0)


def test_search_width_flatness_reads_the_data_scale():
    # the coarse losses spread by 1.1e-5: flat against a data scale of 1e6, not
    # against losses near 1
    def objective(sigma):
        return 1.0 + 1e-6 * math.log(sigma / 7.0) ** 2, None
    assert inference._search_width(objective, 0.0)[2] == ""
    assert inference._search_width(objective, 1e6)[2].startswith("flat objective")


@pytest.mark.parametrize("sign,end", [(1.0, 0), (-1.0, -1)])
def test_search_width_boundary_minimum(sign, end):
    coarse = np.geomspace(*inference.SIGMA_RANGE, inference.COARSE_POINTS)
    ((sigma, loss, index), evaluations, message), widths = _recorded_search(lambda s: sign * s)
    assert message == (f"minimum at the search boundary sigma = {coarse[end]:.6g} um "
                       f"(range {inference.SIGMA_RANGE[0]} to {inference.SIGMA_RANGE[1]} um)")
    assert evaluations == len(widths) == inference.COARSE_POINTS
    assert (sigma, loss, index) == (coarse[end], sign * coarse[end], end % len(coarse))


def test_least_squares_matches_weighted_lstsq():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(3, 300))
        model = rng.random(n)
        weights = rng.uniform(0.01, 100.0, n)
        rates = (rng.uniform(1.0, 1e4) * model + rng.uniform(10.0, 1e3)
                 + rng.standard_normal(n) / np.sqrt(weights))
        solve, data_scale = inference._least_squares(rates, weights)
        loss, (scale, background, sse) = solve(model)
        root = np.sqrt(weights)
        design = np.column_stack([model, np.ones(n)]) * root[:, None]
        want_scale, want_background = np.linalg.lstsq(design, rates * root, rcond=None)[0]
        want_sse = float(np.sum(weights * (rates - want_scale * model - want_background) ** 2))
        assert background > 0.0                  # the clamp at zero is not in play
        assert scale == pytest.approx(want_scale, rel=1e-12)
        assert background == pytest.approx(want_background, rel=1e-12)
        assert sse == pytest.approx(want_sse, rel=1e-12)
        # the loss and the data scale are the rates times 2**k's: sse and sum(w*rate**2)
        # times 4**k, with the largest w*(rate*2**k)**2 in [1, 4)
        k = inference._rate_exponent(rates, weights)
        assert loss == math.ldexp(sse, 2 * k)
        assert data_scale == pytest.approx(math.ldexp(float(np.sum(weights * rates ** 2)), 2 * k),
                                           rel=1e-12)
        assert 1.0 <= np.max(weights * np.ldexp(rates, k) ** 2) < 4.0


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
