import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import pairgrating
from pairgrating import scenario, shell
from pairgrating import (ScenarioConfig, forward_on_angles, load_measurement, od_ratio,
                         parse_config, profiles_for, rate_map_for, visibility)
from pairgrating.errors import BinSnapWarning, ParameterError, SamplingWarning
from pairgrating.inference import VISIBILITY_WINDOW
from pairgrating.scenario import MAX_GRID_N, MAX_WINDOW_UM, MIN_GRID_SPACING_UM
from pairgrating.propagation import RateProfile, diagonal_profile, singles_profile
from pairgrating.shell import (_NUMBER, _RATE_WIDTH, _format_rates, _write_csv, _write_map_csv,
                              main, run_fit, run_simulate, run_sweep)

from conftest import matched_deviation

FAST = "grid_n=256\nwindow_um=300\n"


def _spacing_text(dx, illumination):
    """Config text at grid_n = 64 and grid spacing dx, every length in the defaults' ratios."""
    f = dx / (600.0 / 512)
    return (f"grid_n=64\nwindow_um={64 * dx!r}\nwavelength_nm={780 * f!r}\n"
            f"blaze_wavelength_nm={500 * f!r}\ngrating_period_um={25 * f!r}\n"
            f"spot_diameter_um={29 * f!r}\nsigma_corr_um={9 * f!r}\n"
            f"illumination={illumination}\n")


def _config(tmp_path, text="", name="scenario.cfg"):
    """Write text as UTF-8, or bytes as they are, to tmp_path/name."""
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    return path


# ------------------------------------------------------------- parse_config

def test_empty_config_gives_defaults(tmp_path):
    config = parse_config(_config(tmp_path))
    assert config == ScenarioConfig()
    assert config.wavelength_nm == 780.0
    assert config.spot_diameter_um == 29.0
    assert config.resolution_mrad == 10.0
    assert config.grid_n == 512


def test_single_override(tmp_path):
    config = parse_config(_config(tmp_path, "sigma_corr_um=9\n"))
    assert config == ScenarioConfig(sigma_corr_um=9.0)


def test_comments_and_blank_lines(tmp_path):
    text = "# scenario\n\nspot_diameter_um=30  # on the grating\n"
    assert parse_config(_config(tmp_path, text)).spot_diameter_um == 30.0


@pytest.mark.parametrize("text,fragment", [
    ("grid_n=7\n", "grid_n"),
    ("grating_pitch=25\n", "unknown key"),
    ("wavelength_nm=abc\n", "wavelength_nm"),
    ("wavelength_nm=-780\n", "wavelength_nm"),
    ("illumination=sideways\n", "illumination"),
    ("grid_n=64\n", "coarse"),          # dx = 9.375 um > period/4
    ("spot_diameter_um\n", "key=value"),
    ("grid_n = 512\n# smaller\ngrid_n = 256\n", "line 3: key 'grid_n' repeats the one on line 1"),
    ("output_prefix =\n", "output_prefix"),
    ("\ufeffgrid_n=7\n", "grid_n must be even"),     # the byte-order mark is not in the key
    ("grid_n=2_56\n", "line 1: grid_n must be an integer, got '2_56'"),
    ("wavelength_nm=\u0667\u0668\u0660\n", "wavelength_nm must be a number"),  # Arabic-Indic 780
    ("wavelength_nm=7_80.5\n", "wavelength_nm must be a number"),
    (b"grid_n=256\n# 90\xb0 turn\n", r"scenario\.cfg: line 2: byte 0xb0 is not UTF-8"),
    ("resolution_mrad=-1\n", "resolution_mrad must be nonnegative"),
    ("detector_separation_mrad=nan\n", "detector_separation_mrad must be finite"),
    ("angle_offset_mrad=inf\n", "angle_offset_mrad must be finite"),
    ("grid_n=0\n", "grid_n must be even and >= 4, got 0"),
    ("grid_n=2\n", "grid_n must be even and >= 4, got 2"),
    ("grid_n=-8\n", "grid_n must be even and >= 4, got -8"),
    ("window_um=0\n", "window_um must be positive, got 0.0"),
    ("window_um=-1\n", "window_um must be positive, got -1.0"),
    ("window_um=nan\n", "window_um must be positive, got nan"),
    ("grating_period_um=0\n", "grating_period_um must be positive, got 0.0"),
    ("grating_period_um=-25\n", "grating_period_um must be positive, got -25.0"),
    ("blaze_wavelength_nm=0\n", "blaze_wavelength_nm must be positive, got 0.0"),
    ("blaze_wavelength_nm=-1\n", "blaze_wavelength_nm must be positive, got -1.0"),
    ("spot_diameter_um=0\n", "spot_diameter_um must be positive, got 0.0"),
    # positive, but the length the chain computes from the key rounds to 0
    ("wavelength_nm=1e-321\n", r"wavelength_nm is too small: wavelength_nm\*1e-3 um rounds to 0"),
    ("blaze_wavelength_nm=1e-321\n", r"blaze_wavelength_nm is too small: blaze_wavelength_nm\*"),
    ("spot_diameter_um=5e-324\n", "spot_diameter_um is too small: half of it rounds to 0"),
    # 2*pi/window_um overflows, and the wavevector lattice would read inf*0 = nan; the
    # grid spacing's rule, which implies a finite wavevector, names it
    ("grid_n=256\nwindow_um=5e-318\nwavelength_nm=1e-315\nblaze_wavelength_nm=1e-315\n"
     "grating_period_um=2e-318\nspot_diameter_um=1e-300\n",
     r"window_um is too small for grid_n = 256: the grid spacing window_um/grid_n is below"),
    # one ulp below the smallest grid spacing, where the rates would leave the doubles
    (_spacing_text(math.nextafter(MIN_GRID_SPACING_UM, 0.0), "near"),
     r"window_um is too small for grid_n = 64: the grid spacing window_um/grid_n is below "
     r"9.37243e-154 um, where the rates leave the doubles"),
    (_spacing_text(math.nextafter(MIN_GRID_SPACING_UM, 0.0), "far"),
     r"window_um is too small for grid_n = 64: the grid spacing"),
    # the reference lengths times 1e153: (x_j - x_l)**2 would overflow to inf
    ("grid_n=256\nwindow_um=3e155\nwavelength_nm=7.8e155\nblaze_wavelength_nm=5e155\n"
     "grating_period_um=2.5e154\nspot_diameter_um=2.9e154\nsigma_corr_um=9e153\n",
     r"window_um must be below sqrt\(max double\) = 1.34078e\+154 um, got 3e\+155"),
    # 2*pi*blaze/wavelength overflows to inf, and the transmission would be nan everywhere
    ("wavelength_nm=1e-300\nblaze_wavelength_nm=1e8\n",
     r"blaze_wavelength_nm is too large for wavelength_nm = 1e-300: the phase depth"),
    # wavelength/window rounds to 0: the angle lattice would be all zeros, and the blur
    # and SupportPlan divided by its step
    ("grid_n=64\nwavelength_nm=1e-297\ngrating_period_um=1e29\nwindow_um=1e30\n"
     "spot_diameter_um=1e28\nresolution_mrad=0\n",
     r"window_um is too large for wavelength_nm = 1e-297: the angular step"),
    # wavelength/(2*pi) is subnormal, and angles_of would scale the lattice by a rounded
    # factor: every length of the defaults in um times 3e-15, with no blur, put the bin
    # 4.9e-6 below wavelength/window_um and od_ratio at 0.300670 against 0.300688
    ("window_um=1.8e-12\ngrating_period_um=7.5e-14\nspot_diameter_um=8.7e-14\n"
     "sigma_corr_um=2.7e-14\nwavelength_nm=3e-316\nblaze_wavelength_nm=1.9230769e-316\n"
     "resolution_mrad=0\n",
     r"wavelength_nm is too small: wavelength_nm\*1e-3/\(2\*pi\) um is below the normal "
     r"doubles, got 3e-316"),
    # the rules the chain's stages relied on, named by key: 2*sigma**2 leaves the
    # doubles, the blur passes half the window, the separation reaches n - 1/2 bins
    # (the two test_simulate_checks_* tests and the 1e300 separation test below hold
    # the CLI's whole message)
    ("sigma_corr_um=1e200\n", r"sigma_corr_um must be positive with 2\*sigma_corr_um\*\*2 a "
                              r"positive finite double, got 1e\+200"),
    ("sigma_corr_um=1e-170\n", r"2\*sigma_corr_um\*\*2 a positive finite double, got 1e-170"),
    ("resolution_mrad=700\n",
     r"resolution_mrad must be at most half the angular window, 332.15 mrad, got 700.0"),
    ("detector_separation_mrad=665\n",                                       # 511.54 bins
     r"detector_separation_mrad must be under grid_n - 1/2 = 511.5 angle bins of 1.3 mrad"),
])
def test_config_errors(tmp_path, monkeypatch, text, fragment):
    path = _config(tmp_path, text)
    with pytest.raises(ParameterError, match=fragment):
        parse_config(path)
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", str(path)]) == 2
        assert main(["sweep", str(path), "9"]) == 2
    assert [entry.name for entry in tmp_path.iterdir()] == ["scenario.cfg"]


@pytest.mark.parametrize("illumination", ["near", "far"])
@pytest.mark.parametrize("dx", [MIN_GRID_SPACING_UM, math.nextafter(MIN_GRID_SPACING_UM, 1.0)])
def test_simulate_and_sweep_run_at_the_smallest_grid_spacing(tmp_path, monkeypatch, capsys,
                                                             dx, illumination):
    # at the bound and one ulp above it (test_config_errors holds one ulp below)
    path = _config(tmp_path, _spacing_text(dx, illumination))
    assert parse_config(path).window_um / 64 == dx
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", str(path)]) == 0
        assert main(["sweep", str(path), "9"]) == 0
    assert "warning:" not in capsys.readouterr().err
    for name in ("out_diagonal.csv", "out_singles.csv", "out_map.csv"):
        rates = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)[:, -1]
        assert np.all(np.isfinite(rates)) and np.all(rates >= 0.0) and rates.max() > 0.0
    ratio = np.loadtxt(tmp_path / "out_sweep.csv", delimiter=",", skiprows=1)[1]
    assert 0.0 < ratio < np.inf


def test_sweep_is_scale_free_below_the_largest_window(tmp_path, monkeypatch):
    # every length of the FAST config, sigma_corr_um among them; scaled by 1e153 the
    # window reaches MAX_WINDOW_UM (test_config_errors)
    lengths = dict(window_um=300.0, wavelength_nm=780.0, blaze_wavelength_nm=500.0,
                   grating_period_um=25.0, spot_diameter_um=29.0, sigma_corr_um=9.0)
    monkeypatch.chdir(tmp_path)
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for factor in (1.0, 1e150):
            config = ScenarioConfig(grid_n=256, **{key: value * factor
                                                   for key, value in lengths.items()})
            rows.append(run_sweep(config, [config.sigma_corr_um])[0][1:])
    np.testing.assert_allclose(rows[1], rows[0], rtol=1e-12, atol=0.0)
    assert rows[0] == pytest.approx((0.2903, 0.8862), abs=5e-5)


def test_window_one_ulp_below_the_bound_runs_without_overflow():
    # at grid_n = 24, far mode, the lattice's |x_j + x_l| reaches past a window of
    # exactly MAX_WINDOW_UM, and its square overflowed
    window = float(np.nextafter(MAX_WINDOW_UM, 0.0))
    period = window / 2.5
    config = ScenarioConfig(grid_n=24, window_um=window, grating_period_um=period,
                            wavelength_nm=period * 1e2, blaze_wavelength_nm=period * 1e2,
                            spot_diameter_um=window / 2.0, sigma_corr_um=window / 5.0,
                            illumination="far", resolution_mrad=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = [profile.values for profile in profiles_for(config)]
        values.append(rate_map_for(config).values)
    assert all(np.all(np.isfinite(v)) and v.max() > 0.0 for v in values)
    with pytest.raises(ParameterError, match="window_um must be below sqrt"):
        replace(config, window_um=MAX_WINDOW_UM)


@pytest.mark.parametrize("grid_n", [512.0, True, np.float64(256)])
def test_grid_n_must_be_an_integer(grid_n):
    with pytest.raises(ParameterError, match="grid_n must be an integer"):
        ScenarioConfig(grid_n=grid_n)


@pytest.mark.parametrize("keys,fragment", [
    (dict(wavelength_nm="780"), "wavelength_nm must be a number, got '780'"),
    (dict(resolution_mrad=None), "resolution_mrad must be a number, got None"),
    (dict(sigma_corr_um=True), "sigma_corr_um must be a number, got True"),
    (dict(window_um=np.bool_(True)), "window_um must be a number"),
    (dict(spot_diameter_um=np.array(29.0)), "spot_diameter_um must be a number"),
    (dict(angle_offset_mrad=10 ** 5000), "angle_offset_mrad must be a number within the doubles"),
    (dict(output_prefix=5), "output_prefix must be text, got 5"),
    (dict(illumination=None), "illumination must be text, got None"),
])
def test_config_fields_must_have_their_types(keys, fragment):
    # parse_config reads every value by its field's type; a config built in Python
    # is held to the same types, and no value reaches numpy's checks first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=fragment):
            ScenarioConfig(**keys)


def test_config_stores_numbers_as_python_floats():
    # np.float32 would overflow in the comparison with MAX_WINDOW_UM and carry
    # float32 into the chain
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = ScenarioConfig(window_um=np.float32(600.3), grid_n=np.int64(512))
    assert config == ScenarioConfig(window_um=float(np.float32(600.3)))
    assert type(config.window_um) is float and type(config.grid_n) is int


def test_grid_n_accepts_numpy_integers():
    assert ScenarioConfig(grid_n=np.int64(256), window_um=300.0).grid_n == 256


def test_grid_n_memory_guard():
    # by construction only: a config allocates no grid
    assert MAX_GRID_N == 4096
    assert ScenarioConfig(grid_n=4096).grid_n == 4096
    with pytest.raises(ParameterError, match=r"grid_n .* 4098x4098 complex128 array is 268697664 bytes"):
        ScenarioConfig(grid_n=4098)


@pytest.mark.parametrize("prefix", ["", "   "])
def test_output_prefix_must_not_be_blank(prefix):
    with pytest.raises(ParameterError, match="output_prefix"):
        ScenarioConfig(output_prefix=prefix)


def test_every_key_parses(tmp_path):
    # one non-default value per field pins the key table parse_config derives
    expected = ScenarioConfig(
        wavelength_nm=810.0, grating_period_um=30.0, blaze_wavelength_nm=450.0,
        spot_diameter_um=40.0, sigma_corr_um=13.0, illumination="far",
        resolution_mrad=5.0, detector_separation_mrad=2.0, angle_offset_mrad=-0.5,
        grid_n=1024, window_um=900.0, output_prefix="every_key")  # "_" reads as text
    assert all(getattr(expected, f.name) != f.default for f in fields(ScenarioConfig))
    text = "".join(f"{f.name} = {getattr(expected, f.name)}\n" for f in fields(ScenarioConfig))
    config = parse_config(_config(tmp_path, text))
    assert config == expected
    assert ([type(getattr(config, f.name)) for f in fields(ScenarioConfig)]
            == [type(getattr(expected, f.name)) for f in fields(ScenarioConfig)])


def test_byte_order_mark_is_dropped(tmp_path):
    config = parse_config(_config(tmp_path, "\ufeffgrid_n=256\nwindow_um=300\n"))
    assert config == ScenarioConfig(grid_n=256, window_um=300.0)


def test_missing_config_file(tmp_path):
    with pytest.raises(ParameterError, match="not found"):
        parse_config(tmp_path / "absent.cfg")


# ------------------------------------------------------------- simulate

def test_simulate_writes_three_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = parse_config(_config(tmp_path, FAST + "output_prefix=run\n"))
    paths = run_simulate(config)
    assert paths == ["run_diagonal.csv", "run_singles.csv", "run_map.csv"]
    assert (tmp_path / "run_diagonal.csv").read_text().splitlines()[0] == "angle_mrad,rate"
    assert (tmp_path / "run_singles.csv").read_text().splitlines()[0] == "angle_mrad,rate"
    assert (tmp_path / "run_map.csv").read_text().splitlines()[0] == "angle1_mrad,angle2_mrad,rate"
    diag = np.loadtxt(tmp_path / "run_diagonal.csv", delimiter=",", skiprows=1)
    assert diag.shape == (256, 2)
    assert diag[:, 1].max() == pytest.approx(1.0)          # unit peak
    map_rows = np.loadtxt(tmp_path / "run_map.csv", delimiter=",", skiprows=1)
    assert map_rows.shape == (256 * 256, 3)


def test_simulate_default_sigma_shows_both_orders(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = parse_config(_config(tmp_path, "output_prefix=dflt\n"))
    run_simulate(config)
    diag = np.loadtxt(tmp_path / "dflt_diagonal.csv", delimiter=",", skiprows=1)
    angles, rates = diag[:, 0], diag[:, 1]
    # dominant order inside the red window, a clear feature at the blue one
    assert 25.2 <= angles[np.argmax(rates)] <= 37.2
    blue = rates[np.abs(angles - 15.6) <= 6.0].max()
    assert blue >= 0.05


def test_simulate_weak_correlation_files_are_separable(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = parse_config(_config(tmp_path, "sigma_corr_um=1e4\noutput_prefix=sep\n"))
    run_simulate(config)
    diag = np.loadtxt(tmp_path / "sep_diagonal.csv", delimiter=",", skiprows=1)[:, 1]
    singles = np.loadtxt(tmp_path / "sep_singles.csv", delimiter=",", skiprows=1)[:, 1]
    assert matched_deviation(singles ** 2, diag) <= 1e-6


def test_simulate_strong_correlation_singles_flat(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = parse_config(_config(tmp_path, "sigma_corr_um=0.01\noutput_prefix=flat\n"))
    with pytest.warns(Warning):
        run_simulate(config)
    meas = load_measurement(tmp_path / "flat_singles.csv")
    assert visibility(RateProfile(meas.angles, meas.rates), (-0.05, 0.05)) < 0.05


# ------------------------------------------------------------- fit and sweep

def test_emitted_diagonal_round_trips_through_fit(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = parse_config(_config(tmp_path, FAST + "output_prefix=rt\n"))
    run_simulate(config)
    result = run_fit(config, "rt_diagonal.csv")
    assert result.converged
    assert result.sigma_corr == pytest.approx(config.sigma_corr_um, rel=0.02)
    curve = np.loadtxt(tmp_path / "rt_fitcurve.csv", delimiter=",", skiprows=1)
    assert curve.shape == (256, 2)
    assert (tmp_path / "rt_fitcurve.csv").read_text().splitlines()[0] == "angle_mrad,rate"


def test_sweep_rows_and_anticorrelation(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = parse_config(_config(tmp_path, FAST + "output_prefix=sw\n"))
    with pytest.warns(SamplingWarning):  # 0.5 um is below half the 1.17 um grid spacing
        rows = run_sweep(config, [0.5, 9.0, 100.0])
    table = np.loadtxt(tmp_path / "sw_sweep.csv", delimiter=",", skiprows=1)
    assert (tmp_path / "sw_sweep.csv").read_text().splitlines()[0] == \
        "sigma_um,od_ratio,singles_visibility"
    assert table.shape == (3, 3)
    np.testing.assert_allclose(table[:, 0], [0.5, 9.0, 100.0])
    ratios, contrasts = table[:, 1], table[:, 2]
    assert ratios[0] > ratios[1] > ratios[2]
    assert contrasts[0] < contrasts[1] < contrasts[2]
    assert len(rows) == 3


def test_sweep_singleton(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = parse_config(_config(tmp_path, FAST + "output_prefix=one\n"))
    run_sweep(config, [9.0])
    table = np.loadtxt(tmp_path / "one_sweep.csv", delimiter=",", skiprows=1)
    assert table.shape == (3,)


def test_sweep_order_outside_the_diagonal_fails_as_the_whole_lattice(tmp_path, monkeypatch):
    # a 312 mrad separation (240 bins) ends the diagonal at 19.5 mrad, below
    # the red order at 31.2 mrad: sweep's rows give the whole lattice's error
    monkeypatch.chdir(tmp_path)
    config = ScenarioConfig(detector_separation_mrad=312.0, output_prefix="red")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BinSnapWarning)
        with pytest.raises(ParameterError) as whole:
            od_ratio(profiles_for(config)[0], config.wavelength_um, config.grating_period_um)
        with pytest.raises(ParameterError) as swept:
            run_sweep(config, [9.0])
    assert str(swept.value) == str(whole.value) == \
        "peak windows fall outside the profile's angular range"
    assert not (tmp_path / "red_sweep.csv").exists()


# near and far, separations 0, 4 (snapped to whole bins) and -5.2 mrad, n = 256 to 2048,
# the blur off and at 3.3 mrad, and a spot that covers the grid
SWEEP_CONFIGS = [
    dict(grid_n=256, window_um=300.0), dict(grid_n=256, window_um=300.0, illumination="far"),
    dict(), dict(illumination="far", detector_separation_mrad=4.0),
    dict(detector_separation_mrad=-5.2), dict(resolution_mrad=0.0),
    dict(resolution_mrad=3.3, illumination="far", detector_separation_mrad=-5.2),
    dict(spot_diameter_um=250.0), dict(grid_n=1024, window_um=1200.0, grating_period_um=12.0),
    dict(grid_n=2048, window_um=2400.0),
]
SWEEP_WIDTHS = [0.5, 1.0, 3.0, 9.0, 13.0, 31.0, 100.0, 1e3, 1e4]


def test_sweep_reads_a_half_bin_order_as_the_whole_lattice(tmp_path, monkeypatch, capsys):
    # window/period = 25 puts the blue order at 12.5 bins, halfway between two
    # samples: both windows read both of them, on sweep's rows as on the whole
    # lattice, whatever rounding each set of rows gives the angle step
    monkeypatch.chdir(tmp_path)
    cfg = _config(tmp_path, FAST + "grating_period_um=12\noutput_prefix=half\n")
    config = parse_config(cfg)
    whole = od_ratio(profiles_for(config)[0], config.wavelength_um, config.grating_period_um)
    assert whole == pytest.approx(0.030395394478983158, rel=1e-9)
    assert run_sweep(config, [9.0])[0][1] == pytest.approx(whole, rel=1e-9)
    capsys.readouterr()
    assert main(["sweep", str(cfg), "9"]) == 0
    assert "od_ratio =     0.0304" in capsys.readouterr().out
    # sweep's rows, the diagonal's on the orders alone, read as the whole lattice
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BinSnapWarning)
        warnings.simplefilter("ignore", SamplingWarning)
        for keys in SWEEP_CONFIGS:
            config = ScenarioConfig(**keys)
            for sigma, ratio, contrast in run_sweep(config, SWEEP_WIDTHS):
                diagonal, singles = profiles_for(config, sigma_um=sigma)
                assert ratio == pytest.approx(
                    od_ratio(diagonal, config.wavelength_um, config.grating_period_um),
                    rel=1e-12, abs=0.0), (keys, sigma)
                assert contrast == pytest.approx(visibility(singles, VISIBILITY_WINDOW),
                                                 rel=1e-12, abs=0.0), (keys, sigma)


@pytest.mark.parametrize("n,rows,singles_rows", [(512, 16, 81), (2048, 52, 311)])
def test_sweep_computes_the_diagonal_on_the_order_rows_alone(n, rows, singles_rows, tmp_path,
                                                              monkeypatch):
    # the orders at 15.6 and 31.2 mrad, one bin of margin each side: 16 of the
    # 81 rows sweep's singles need at n = 512, 52 of 311 at n = 2048
    read = {}

    def reading(name):
        def reader(profile, *args):
            read[name] = profile
            return 1.0
        return reader

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(shell, "od_ratio", reading("diagonal"))
    monkeypatch.setattr(shell, "visibility", reading("singles"))
    config = ScenarioConfig(grid_n=n, window_um=600.0 * n / 512)
    run_sweep(config, [9.0])
    diagonal, singles = read["diagonal"], read["singles"]
    assert diagonal.angles.size == diagonal.values.size == rows
    assert diagonal.angles[0] < 0.0156 and diagonal.angles[-1] > 0.0312
    assert singles.angles[0] < VISIBILITY_WINDOW[0] and singles.angles[-1] > VISIBILITY_WINDOW[1]
    assert singles.angles.size == singles_rows


def test_sweep_checks_every_width_before_the_first_evaluation(tmp_path, monkeypatch, capsys):
    # a bad last width exits 2 with no evaluation, no row printed and no file
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("sigma_um"))
        return profiles_for(*args, **kwargs)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(shell, "profiles_for", counted)
    cfg = _config(tmp_path, FAST)
    capsys.readouterr()
    assert main(["sweep", str(cfg), "9,13,31,100,1e4,-3"]) == 2
    captured = capsys.readouterr()
    assert calls == []
    assert captured.out == ""
    assert captured.err == ("error: sigma_um must be positive with 2*sigma_um**2 a positive "
                            "finite double, got -3.0\n")
    assert not (tmp_path / "out_sweep.csv").exists()
    assert main(["sweep", str(cfg), "9,13"]) == 0
    assert calls == [9.0, 13.0]


def test_simulate_checks_the_blur_before_the_pair(tmp_path, monkeypatch, capsys):
    # lengths near 1e-150 and a spot far wider than the window: the config rejects
    # the blur width before the n x n map is built, for simulate as for sweep
    def unreachable(*args, **kwargs):
        raise AssertionError("the rate map was built")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(scenario, "support_map", unreachable)
    extreme = _config(tmp_path, "grid_n=256\nwavelength_nm=1e-150\ngrating_period_um=1e-149\n"
                                "window_um=1e-148\nspot_diameter_um=2.9e151\n"
                                "sigma_corr_um=9e150\noutput_prefix=extreme\n")
    for argv in (["simulate", str(extreme)], ["sweep", str(extreme), "9"]):
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: resolution_mrad must be at most half the angular "
                                "window, 1.275 mrad, got 10.0\n")
    assert not list(tmp_path.glob("extreme_*.csv"))


def test_simulate_checks_the_separation_before_the_pair(tmp_path, monkeypatch, capsys):
    # a separation past the angular window fails before the n x n map is built
    def unreachable(*args, **kwargs):
        raise AssertionError("the rate map was built")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(scenario, "support_map", unreachable)
    far = _config(tmp_path, FAST + "detector_separation_mrad=1e4\noutput_prefix=far\n")
    capsys.readouterr()
    assert main(["simulate", str(far)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: detector_separation_mrad must be under grid_n - 1/2 = "
                            "255.5 angle bins of 2.6 mrad, got 10000.0\n")
    assert not list(tmp_path.glob("far_*.csv"))


def test_a_separation_past_the_doubles_in_bins_exits_2(tmp_path, monkeypatch, capsys):
    # 1e297 rad over a 1.7e-16 rad bin is inf bins, which int() cannot round
    path = _config(tmp_path, FAST + "wavelength_nm=1e-10\nresolution_mrad=0\n"
                                    "detector_separation_mrad=1e300\n")
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for command in (["simulate", str(path)], ["sweep", str(path), "9"]):
            capsys.readouterr()
            assert main(command) == 2
            assert capsys.readouterr().err == (
                "error: detector_separation_mrad must be under grid_n - 1/2 = 255.5 angle "
                "bins of 3.33333e-13 mrad, got 1e+300\n")
    assert [entry.name for entry in tmp_path.iterdir()] == ["scenario.cfg"]


def test_simulate_warns_once_of_a_snapped_separation(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = parse_config(_config(tmp_path, FAST + "detector_separation_mrad=4\n"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_simulate(config)
    assert [w.category for w in caught] == [BinSnapWarning]


SPACING_ERROR = ("error: window_um is too small for grid_n = 256: the grid spacing "
                 "window_um/grid_n is below 9.37243e-154 um, where the rates leave the "
                 "doubles, got 1e-298\n")


def test_simulate_rejects_a_pair_that_leaves_the_doubles(tmp_path, monkeypatch, capsys):
    # with the blur off the blur check passes; the pair's square sum would overflow,
    # and the config names the grid spacing instead of simulate writing nan rates
    monkeypatch.chdir(tmp_path)
    extreme = _config(tmp_path, "grid_n=256\nwavelength_nm=1e-300\ngrating_period_um=1e-299\n"
                                "window_um=1e-298\nresolution_mrad=0\noutput_prefix=extreme\n")
    capsys.readouterr()
    assert main(["simulate", str(extreme)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == SPACING_ERROR
    assert not list(tmp_path.glob("extreme_*.csv"))


def test_sweep_rejects_rates_below_the_doubles(tmp_path, monkeypatch, capsys):
    # with the blur off at these lengths the diagonal's factor (dx/(2*pi))**2/T
    # would underflow to 0; the config names the grid spacing instead of sweep
    # printing od_ratio = inf
    monkeypatch.chdir(tmp_path)
    extreme = _config(tmp_path, "grid_n=256\nwavelength_nm=1e-300\ngrating_period_um=1e-299\n"
                                "window_um=1e-298\nresolution_mrad=0\noutput_prefix=extreme\n")
    capsys.readouterr()
    assert main(["sweep", str(extreme), "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == SPACING_ERROR
    assert not list(tmp_path.glob("extreme_*.csv"))


# ------------------------------------------------------------- CSV writers

# numpy.savetxt with fmt="%.10g" is the writers' reference, byte for byte, on -0.0,
# the smallest subnormal, extremes, values with no short binary form, values that
# round at the 10th significant digit, exact binary ties there (a half rounds to the
# even digit: 0.10009765625 is written 0.1000976562), the neighbours of the powers
# of ten where the map writer's layouts and its numpy path end, nan and inf.
EDGE_VALUES = np.array([-0.0, 5e-324, 1e-300, 1e300, 0.1, 1.0, 123456789012.0, 1.0 / 3.0,
                        0.99999999995, 1.234567890500001, 9.9999999995e-5, -12345678905.0,
                        2.5e-7, -1.00000000049,
                        0.10009765625, 0.00018310546875, 2.0 ** -15, 3 * 2.0 ** -15,
                        *(math.nextafter(power, direction) for power in (1e-4, 1e-5, 1e-99)
                          for direction in (0.0, 1.0)),
                        math.nan, math.inf])


def _savetxt_bytes(path, header, columns) -> bytes:
    np.savetxt(path, np.column_stack(columns), delimiter=",", header=header, comments="",
               fmt="%.10g")
    return path.read_bytes()


def _map_savetxt_bytes(path, angles_mrad, rates) -> bytes:
    n = angles_mrad.size
    return _savetxt_bytes(path, "angle1_mrad,angle2_mrad,rate",
                          [np.repeat(angles_mrad, n), np.tile(angles_mrad, n), rates.ravel()])


@pytest.mark.parametrize("columns", [
    [EDGE_VALUES],
    [EDGE_VALUES, EDGE_VALUES[::-1]],
    [EDGE_VALUES, -EDGE_VALUES, EDGE_VALUES[::-1]],
    [EDGE_VALUES[:1], EDGE_VALUES[1:2], EDGE_VALUES[2:3]],      # one row, as a singleton sweep
])
def test_write_csv_matches_savetxt(tmp_path, columns):
    _write_csv(tmp_path / "written.csv", "a,b", columns)
    assert (tmp_path / "written.csv").read_bytes() == \
        _savetxt_bytes(tmp_path / "reference.csv", "a,b", columns)


def test_write_map_csv_matches_savetxt(tmp_path):
    n = EDGE_VALUES.size
    # every row a different cyclic shift, so each value meets each angle label
    rates = EDGE_VALUES[(3 * np.arange(n)[:, None] + np.arange(n)) % n]
    _write_map_csv(tmp_path / "written.csv", EDGE_VALUES, rates)
    assert (tmp_path / "written.csv").read_bytes() == \
        _map_savetxt_bytes(tmp_path / "reference.csv", EDGE_VALUES, rates)


@pytest.mark.parametrize("grid_n,window_um", [(64, 75.0), (256, 300.0)])
@pytest.mark.parametrize("extra", [
    "",
    "illumination=far\n",
    "detector_separation_mrad={two_bins}\n",   # a whole number of bins: no BinSnapWarning
    "resolution_mrad=0\n",
])
def test_simulate_files_match_savetxt(tmp_path, monkeypatch, grid_n, window_um, extra):
    monkeypatch.chdir(tmp_path)
    text = f"grid_n={grid_n}\nwindow_um={window_um}\noutput_prefix=run\n"
    text += extra.format(two_bins=2e3 * 0.78 / window_um)     # one bin is wavelength/window
    config = parse_config(_config(tmp_path, text))
    paths = run_simulate(config)

    rmap = rate_map_for(config)
    diagonal = diagonal_profile(rmap, config.detector_separation_mrad * 1e-3)
    singles = singles_profile(rmap)
    references = [
        _savetxt_bytes(tmp_path / "ref_diagonal.csv", "angle_mrad,rate",
                       [diagonal.angles * 1e3, diagonal.values / diagonal.values.max()]),
        _savetxt_bytes(tmp_path / "ref_singles.csv", "angle_mrad,rate",
                       [singles.angles * 1e3, singles.values / singles.values.max()]),
        _map_savetxt_bytes(tmp_path / "ref_map.csv", rmap.angles * 1e3,
                           rmap.values / rmap.values.max()),
    ]
    for path, reference in zip(paths, references):
        assert (tmp_path / path).read_bytes() == reference, path


def _formatted(values):
    """_format_rates's text of each value, and how many took the per-value way."""
    fields = np.zeros((values.size, _RATE_WIDTH + 1), dtype=np.uint8)
    fields[:, -1] = ord("\n")
    slow = _format_rates(values, fields[:, :-1])
    return fields[fields != 0].tobytes().decode("ascii").splitlines(), slow


def _near_boundaries(rng, count):
    """Floats within 150 ulps of (D + 1/2) * 10**(e - 9), where 10-digit D turns to D + 1."""
    exponents = rng.integers(-101, 1, count)
    digits = rng.integers(10 ** 9, 10 ** 10, count)
    digits[::10] = 10 ** 10 - 1                       # the carries: 0.99999999995, ...
    centres = np.array([float(f"{d}5e{e - 10}") for d, e in zip(digits.tolist(),
                                                                   exponents.tolist())])
    values = [centres]
    for steps in (1, 2, 3, 8, 20, 60, 150):
        for direction in (0.0, 1.0):
            shifted = centres
            for _ in range(steps):
                shifted = np.nextafter(shifted, direction)
            values.append(shifted)
    return np.concatenate(values)


def test_rate_format_fuzz_matches_percent_format():
    rng = np.random.default_rng(26)
    # random bit patterns, binary exponents 2**-346 (1.4e-104) to 2**3, some negative
    bits = (rng.integers(1023 - 346, 1023 + 4, 700_000, dtype=np.uint64) << np.uint64(52)
            | rng.integers(0, 1 << 52, 700_000, dtype=np.uint64))
    bits[::50] |= np.uint64(1 << 63)
    random = bits.view(np.float64)
    powers = np.array([float(f"1e-{k}") for k in range(101)])
    values = np.concatenate([random, powers, np.nextafter(powers, 0.0), np.nextafter(powers, 1.0),
                             _near_boundaries(rng, 22_000)])
    assert values.size > 10 ** 6
    for chunk in np.array_split(values, 16):
        text, _ = _formatted(chunk)
        expected = [_NUMBER % x for x in chunk.tolist()]
        if text != expected:
            assert len(text) == chunk.size
            wrong = [(x, got, want) for x, got, want in zip(chunk.tolist(), text, expected)
                     if got != want]
            pytest.fail(f"{len(wrong)} values written differently, first {wrong[:5]}")
    # the numpy path, not the per-value one, formats the random values it covers and
    # the powers of ten inside its range, where log10 may give the exponent one off
    covered = random[(random >= 1e-99) & (random < 0.9999999999)]
    assert covered.size > 500_000
    assert _formatted(covered)[1] < 1e-3 * covered.size
    inside = powers[1:99]
    assert _formatted(np.concatenate([inside, np.nextafter(inside, 0.0),
                                      np.nextafter(inside, 1.0)]))[1] == 0


def test_map_rates_take_the_numpy_path():
    rmap = rate_map_for(ScenarioConfig())
    rates = rmap.values / rmap.values.max()
    assert _formatted(rates.ravel())[1] < 0.01 * rates.size


def test_map_writer_builds_no_full_map_array(tmp_path):
    # one n x n float64 array at n = 512 is 2 MiB; an n**2 x 3 column stack
    # of the map, as numpy.savetxt takes it, is three of them
    n = 512
    angles_mrad = np.linspace(-341.0, 341.0, n)
    rates = np.random.default_rng(5).random((n, n))
    tracemalloc.start()
    try:
        _write_map_csv(tmp_path / "map.csv", angles_mrad, rates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n ** 2


# ------------------------------------------------------------- CLI exit codes

def test_cli_simulate_ok(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _config(tmp_path, FAST)
    assert main(["simulate", str(cfg)]) == 0


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = _config(tmp_path, FAST)
    bad_cfg = _config(tmp_path, "grid_n=7\n", name="bad.cfg")
    const = tmp_path / "const.csv"
    const.write_text("angle_mrad,rate\n" +
                     "".join(f"{a},5.0\n" for a in range(-50, 51)), encoding="utf-8")

    assert main(["simulate", str(bad_cfg)]) == 2                  # config error
    assert main(["fit", str(cfg), str(tmp_path / "nope.csv")]) == 2    # parse error
    assert main(["fit", str(cfg), str(const)]) == 4               # not converged
    nan_scan = tmp_path / "nan.csv"
    nan_scan.write_text("angle_mrad,rate\n0,5.0\n1,nan\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["fit", str(cfg), str(nan_scan)]) == 2            # non-finite rate
    assert capsys.readouterr().err == f"error: {nan_scan}: line 3: non-finite value in '1,nan'\n"
    unknown_cfg = _config(tmp_path, FAST + "grating_pitch=25\n", name="unknown.cfg")
    assert main(["simulate", str(unknown_cfg)]) == 2              # unknown key
    assert (capsys.readouterr().err
            == f"error: {unknown_cfg}: line 3: unknown key 'grating_pitch'\n")
    wide = tmp_path / "wide.csv"
    wide.write_text("angle_mrad,rate\n" + "".join(f"{a},5.0\n" for a in range(0, 400, 10)),
                    encoding="utf-8")
    assert main(["fit", str(cfg), str(wide)]) == 2                # beyond the model's angles
    one_row = tmp_path / "one_row.csv"
    one_row.write_text("angle_mrad,rate\n0,5.0\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["fit", str(cfg), str(one_row)]) == 2             # too few samples to fit
    assert capsys.readouterr().err == (
        "error: fit needs at least 3 scan samples for width, scale and background, got 1\n")
    assert main(["sweep", str(cfg), "1,abc"]) == 2
    capsys.readouterr()
    assert main(["sweep", str(cfg), "1,-3"]) == 2                 # the second width is bad
    captured = capsys.readouterr()
    assert captured.out == ""                                     # not even the first row
    assert captured.err == ("error: sigma_um must be positive with 2*sigma_um**2 a positive "
                            "finite double, got -3.0\n")
    assert not (tmp_path / "out_sweep.csv").exists()
    assert main(["sweep", str(cfg), ","]) == 2                    # no widths

    bom_cfg = _config(tmp_path, "\ufeff" + FAST, name="bom.cfg")
    bom_const = tmp_path / "bom_const.csv"
    bom_const.write_bytes(b"\xef\xbb\xbf" + const.read_bytes())
    assert main(["fit", str(bom_cfg), str(bom_const)]) == 4       # both parse
    latin_cfg = _config(tmp_path, b"grid_n=256\n# 90\xb0 turn\n", name="latin.cfg")
    latin_scan = tmp_path / "latin.csv"
    latin_scan.write_bytes(b"# 20\xb0C\nangle_mrad,rate\n0,5.0\n")
    capsys.readouterr()
    assert main(["simulate", str(latin_cfg)]) == 2                # not UTF-8
    assert main(["fit", str(cfg), str(latin_scan)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: {latin_cfg}: line 2: byte 0xb0 is not UTF-8 text (invalid start byte)",
        f"error: {latin_scan}: line 1: byte 0xb0 is not UTF-8 text (invalid start byte)"]

    blank = _config(tmp_path, FAST + "output_prefix =\n", name="blank.cfg")
    assert main(["simulate", str(blank)]) == 2                    # no file name
    assert not (tmp_path / "_map.csv").exists()

    unwritable = _config(tmp_path, FAST + "output_prefix=/no/such/dir/run\n",
                         name="unwritable.cfg")
    assert main(["simulate", str(unwritable)]) == 3               # I/O error

    for widths in ("9,1e200", "9,1e-170"):                        # 2*sigma**2 leaves the doubles
        capsys.readouterr()
        assert main(["sweep", str(cfg), widths]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: sigma_um must be positive with 2*sigma_um**2 a "
                                f"positive finite double, got {float(widths[2:])!r}\n")
        assert not (tmp_path / "out_sweep.csv").exists()
    pinpoint = _config(tmp_path, FAST + "spot_diameter_um=5e-324\n", name="pinpoint.cfg")
    capsys.readouterr()
    assert main(["sweep", str(pinpoint), "9"]) == 2               # half the spot rounds to 0
    assert capsys.readouterr().err == (
        "error: spot_diameter_um is too small: half of it rounds to 0, got 5e-324\n")
    for text, key in [("window_um=1e-300\n", "window_um"),    # lengths that left the doubles
                      ("window_um=1e-150\n", "window_um"),
                      ("window_um=1e-299\ngrating_period_um=1e-300\n", "grating_period_um"),
                      ("window_um=40\n", "window_um")]:       # sweep steps overlap the orders
        extreme = _config(tmp_path, f"grid_n=256\n{text}output_prefix=extreme\n",
                          name="extreme.cfg")
        for argv in (["simulate", str(extreme)], ["sweep", str(extreme), "9"]):
            capsys.readouterr()
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {key} must exceed ")
            assert captured.err.count("\n") == 1 and "warning:" not in captured.err
        assert not list(tmp_path.glob("extreme_*.csv"))

    underscored_cfg = _config(tmp_path, "grid_n=2_56\n", name="underscored.cfg")
    underscored_scan = tmp_path / "underscored.csv"
    underscored_scan.write_text("angle_mrad,rate\n0,5\n1_0,6\n20,7\n", encoding="utf-8")
    assert main(["simulate", str(underscored_cfg)]) == 2          # digit-group underscores
    assert main(["fit", str(cfg), str(underscored_scan)]) == 2
    assert main(["sweep", str(cfg), "1_0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {underscored_cfg}: line 1: grid_n must be an integer, got '2_56'",
        f"error: {underscored_scan}: line 3: non-numeric value in '1_0,6'",
        "error: could not parse width list '1_0'"]


def test_cli_degenerate_fit_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = _config(tmp_path, FAST)
    angles = np.arange(-60.0, 60.5, 1.0)
    rates = 2.0 - forward_on_angles(parse_config(cfg), 13.0, angles * 1e-3)   # scale -1
    scan = tmp_path / "inverted.csv"
    rows = "".join(f"{a:g},{r:.17g}\n" for a, r in zip(angles, rates))
    scan.write_text("angle_mrad,rate\n" + rows, encoding="utf-8")
    assert main(["fit", str(cfg), str(scan)]) == 4
    out = capsys.readouterr().out
    assert "converged        = False\n" in out
    assert "diagnostics      = degenerate solution at sigma = 13.0005 um: scale = -0.999999\n" in out
    assert not (tmp_path / "out_fitcurve.csv").exists()


def _write_scan(path, angles_mrad, rates, rate_err):
    rows = "".join(f"{a:.17g},{r:.17g},{rate_err:.17g}\n" for a, r in zip(angles_mrad, rates))
    path.write_text("angle_mrad,rate,rate_err\n" + rows, encoding="utf-8")


@pytest.mark.parametrize("factor,rate_err,fault", [
    (1.0, 1e160, "rate_err too large for the fit"),     # every weight is 0
    (1.0, 1e-150, "rate_err too small for the fit"),    # sum(w)**2 overflows
    (1e200, 1.0, "rate too large for the fit"),         # sum(w*rate**2) overflows
])
def test_cli_rejects_a_scan_whose_fit_sums_leave_the_doubles(tmp_path, monkeypatch, capsys,
                                                             factor, rate_err, fault):
    monkeypatch.chdir(tmp_path)
    cfg = _config(tmp_path, FAST)
    angles = np.linspace(-60.0, 60.0, 121)
    rates = factor * (1000.0 * forward_on_angles(parse_config(cfg), 9.0, angles * 1e-3) + 20.0)
    scan = tmp_path / "scan.csv"
    _write_scan(scan, angles, rates, rate_err)
    assert main(["fit", str(cfg), str(scan)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {scan}: line 2: {fault} in '-60,")
    assert captured.err.count("\n") == 1 and "warning:" not in captured.err


@pytest.mark.parametrize("case", ["largest rates", "largest weights", "least weights"])
def test_cli_fits_a_scan_just_inside_the_sum_bounds(tmp_path, monkeypatch, capsys, case):
    # the bounds of a 121-sample scan: w and w*rate**2 at most sqrt(max)/242, w at
    # least sqrt(tiny), each missed by a relative 1e-9
    monkeypatch.chdir(tmp_path)
    cfg = _config(tmp_path, FAST)
    angles = np.linspace(-60.0, 60.0, 121)
    rates = 1000.0 * forward_on_angles(parse_config(cfg), 9.0, angles * 1e-3) + 20.0
    most = math.sqrt(np.finfo(float).max) / (2 * angles.size)
    rates, rate_err = {
        "largest rates": (rates * (math.sqrt(most) / rates.max() * (1.0 - 1e-9)), 1.0),
        "largest weights": (rates / rates.max() * (1.0 - 1e-9), (1.0 + 1e-9) / math.sqrt(most)),
        "least weights": (rates, (1.0 - 1e-9) / math.sqrt(math.sqrt(np.finfo(float).tiny))),
    }[case]
    scan = tmp_path / "scan.csv"
    _write_scan(scan, angles, rates, rate_err)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["fit", str(cfg), str(scan)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    sigma = float(captured.out.split("sigma_corr_um    = ")[1].split()[0])
    assert sigma == pytest.approx(9.0, rel=0.02)


def test_cli_fit_round_trip_exit_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _config(tmp_path, FAST + "output_prefix=cli\n")
    assert main(["simulate", str(cfg)]) == 0
    assert main(["fit", str(cfg), "cli_diagonal.csv"]) == 0


def _run_module(tmp_path, *args):
    """Run `python -m pairgrating *args` in tmp_path."""
    # The child runs in tmp_path, where a relative PYTHONPATH entry such as
    # `src` no longer resolves; hand it the absolute directory that holds the
    # package imported here, ahead of whatever PYTHONPATH already lists.
    env = os.environ.copy()
    package_root = str(Path(pairgrating.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "pairgrating", *args],
                          cwd=tmp_path, capture_output=True, text=True, env=env)


def test_module_entry_point(tmp_path):
    cfg = _config(tmp_path, FAST + "output_prefix=mod\n")
    proc = _run_module(tmp_path, "simulate", str(cfg))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "mod_diagonal.csv").exists()


def test_cli_prints_a_sweep_warning_once(tmp_path):
    cfg = _config(tmp_path, FAST + "output_prefix=sw\n")
    proc = _run_module(tmp_path, "sweep", str(cfg), "0.1,9")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: correlation width 0.1 um ")
    assert "runpy" not in proc.stderr


def test_cli_prints_a_fit_warning_once(tmp_path):
    # 4 mrad is not a whole number of 2.6 mrad bins, so every forward evaluation snaps
    cfg = _config(tmp_path, FAST + "detector_separation_mrad=4\noutput_prefix=snap\n")
    config = parse_config(cfg)
    angles = np.linspace(-60.0, 60.0, 121)
    with pytest.warns(BinSnapWarning):
        rates = 900.0 * forward_on_angles(config, 13.0, angles * 1e-3)
    scan = tmp_path / "scan.csv"
    rows = "".join(f"{a},{r:.17g}\n" for a, r in zip(angles, rates))
    scan.write_text("angle_mrad,rate\n" + rows, encoding="utf-8")
    proc = _run_module(tmp_path, "fit", str(cfg), str(scan))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "warning: detector separation 0.004 rad is not a multiple of the 0.0026 rad "
        "angular bin; snapped to 2 bins"]
