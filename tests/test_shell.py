import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import pairgrating
from pairgrating import (ScenarioConfig, forward_on_angles, load_measurement, parse_config,
                         visibility)
from pairgrating.errors import BinSnapWarning, ConfigError, SamplingWarning
from pairgrating.scenario import MAX_GRID_N
from pairgrating.propagation import RateProfile
from pairgrating.shell import main, run_fit, run_simulate, run_sweep

from conftest import matched_deviation

FAST = "grid_n=256\nwindow_um=300\n"


def _config(tmp_path, text="", name="scenario.cfg"):
    path = tmp_path / name
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
])
def test_config_errors(tmp_path, text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(_config(tmp_path, text))


@pytest.mark.parametrize("grid_n", [512.0, True, np.float64(256)])
def test_grid_n_must_be_an_integer(grid_n):
    with pytest.raises(ConfigError, match="grid_n must be an integer"):
        ScenarioConfig(grid_n=grid_n)


def test_grid_n_accepts_numpy_integers():
    assert ScenarioConfig(grid_n=np.int64(256), window_um=300.0).grid_n == 256


def test_grid_n_memory_guard():
    # by construction only: a config allocates no grid
    assert MAX_GRID_N == 4096
    assert ScenarioConfig(grid_n=4096).grid_n == 4096
    with pytest.raises(ConfigError, match=r"grid_n .* 4098x4098 complex128 array is 268697664 bytes"):
        ScenarioConfig(grid_n=4098)


@pytest.mark.parametrize("prefix", ["", "   "])
def test_output_prefix_must_not_be_blank(prefix):
    with pytest.raises(ConfigError, match="output_prefix"):
        ScenarioConfig(output_prefix=prefix)


def test_every_key_parses(tmp_path):
    # one non-default value per field pins the key table parse_config derives
    expected = ScenarioConfig(
        wavelength_nm=810.0, grating_period_um=30.0, blaze_wavelength_nm=450.0,
        spot_diameter_um=40.0, sigma_corr_um=13.0, illumination="far",
        resolution_mrad=5.0, detector_separation_mrad=2.0, angle_offset_mrad=-0.5,
        grid_n=1024, window_um=900.0, output_prefix="every")
    assert all(getattr(expected, f.name) != f.default for f in fields(ScenarioConfig))
    text = "".join(f"{f.name} = {getattr(expected, f.name)}\n" for f in fields(ScenarioConfig))
    config = parse_config(_config(tmp_path, text))
    assert config == expected
    assert ([type(getattr(config, f.name)) for f in fields(ScenarioConfig)]
            == [type(getattr(expected, f.name)) for f in fields(ScenarioConfig)])


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
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
    meas = load_measurement(tmp_path / "flat_singles.csv", channel="singles")
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


# ------------------------------------------------------------- CLI exit codes

def test_cli_simulate_ok(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _config(tmp_path, FAST)
    assert main(["simulate", str(cfg)]) == 0


def test_cli_exit_codes(tmp_path, monkeypatch):
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
    assert main(["fit", str(cfg), str(nan_scan)]) == 2            # non-finite rate
    wide = tmp_path / "wide.csv"
    wide.write_text("angle_mrad,rate\n" + "".join(f"{a},5.0\n" for a in range(0, 400, 10)),
                    encoding="utf-8")
    assert main(["fit", str(cfg), str(wide)]) == 2                # beyond the model's angles
    assert main(["sweep", str(cfg), "1,abc"]) == 2
    assert main(["sweep", str(cfg), "1,-3"]) == 2
    assert main(["sweep", str(cfg), ","]) == 2                    # no widths

    blank = _config(tmp_path, FAST + "output_prefix =\n", name="blank.cfg")
    assert main(["simulate", str(blank)]) == 2                    # no file name
    assert not (tmp_path / "_map.csv").exists()

    unwritable = _config(tmp_path, FAST + "output_prefix=/no/such/dir/run\n",
                         name="unwritable.cfg")
    assert main(["simulate", str(unwritable)]) == 3               # I/O error


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
