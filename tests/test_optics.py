import warnings

import numpy as np
import pytest

from pairgrating import order_efficiency
from pairgrating.errors import ParameterError
from pairgrating.lattice import angles_of, make_grid
from pairgrating.optics import blaze_phase, transmission
from pairgrating.propagation import fourier_1d

from conftest import BLAZE, PERIOD, RED_ORDER, WAVELENGTH


def test_blaze_phase_at_origin():
    assert blaze_phase(0.0, PERIOD, BLAZE, WAVELENGTH) == 0.0


def test_blaze_phase_half_period_at_blaze():
    assert blaze_phase(PERIOD / 2.0, PERIOD, BLAZE, BLAZE) == pytest.approx(np.pi, rel=1e-12)


def test_blaze_phase_half_period_off_blaze():
    phi = blaze_phase(PERIOD / 2.0, PERIOD, BLAZE, WAVELENGTH)
    assert phi == pytest.approx(np.pi * BLAZE / WAVELENGTH, rel=1e-12)
    assert phi == pytest.approx(2.0136, abs=5e-4)


def test_blaze_phase_periodicity():
    x = np.linspace(-80.0, 80.0, 641)
    np.testing.assert_allclose(blaze_phase(x + PERIOD, PERIOD, BLAZE, WAVELENGTH),
                               blaze_phase(x, PERIOD, BLAZE, WAVELENGTH), atol=1e-12)


def test_spot_far_below_the_grid_spacing_lights_one_sample(grid512):
    # (x/w0)**2 overflows for every sample but x = 0: an envelope of exactly 0 there
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        amp = transmission(grid512, PERIOD, BLAZE, WAVELENGTH, 1e-300)
    assert np.flatnonzero(amp).tolist() == [grid512.n // 2]


def test_transmission_is_pure_phase_under_envelope(grid512, amp_spot100):
    w0 = 50.0
    envelope = np.exp(-((grid512.x / w0) ** 2))
    norm = np.sqrt(np.sum(envelope ** 2) * grid512.dx)
    np.testing.assert_allclose(np.abs(amp_spot100) * norm, envelope, atol=1e-14)


def test_transmission_envelope_at_spot_radius(grid512):
    # amplitude envelope falls to 1/e at x = w0 = spot_diameter/2
    amp = transmission(grid512, PERIOD, BLAZE, WAVELENGTH, 100.0)
    j0 = 256                      # x = 0
    jr = 256 + int(round(50.0 / grid512.dx))  # closest sample to x = 50 um
    assert grid512.x[jr] == pytest.approx(50.0, abs=grid512.dx)
    expected = np.exp(-((grid512.x[jr] / 50.0) ** 2))
    assert np.abs(amp[jr]) / np.abs(amp[j0]) == pytest.approx(expected, rel=1e-12)


def test_transmission_unit_square_sum(grid512, amp_spot100):
    assert np.sum(np.abs(amp_spot100) ** 2) * grid512.dx == pytest.approx(1.0, abs=1e-12)


def test_transmission_accepts_quarter_period_spacing():
    grid = make_grid(96, 600.0)   # dx = 6.25 um = period/4 exactly
    assert grid.dx == PERIOD / 4.0
    amp = transmission(grid, PERIOD, BLAZE, WAVELENGTH, 100.0)
    assert amp.shape == (96,)


def test_order_efficiency_blaze_condition():
    assert order_efficiency(1, 0.5, 0.5) == 1.0
    assert order_efficiency(0, 0.5, 0.5) <= 1e-30


def test_order_efficiency_at_red_wavelength():
    assert order_efficiency(1, 0.78, 0.5) == pytest.approx(0.642, abs=1e-3)
    assert order_efficiency(0, 0.78, 0.5) == pytest.approx(0.201, abs=1e-3)
    # ratio-only dependence: nm and um inputs agree
    assert order_efficiency(1, 780.0, 500.0) == pytest.approx(
        order_efficiency(1, 0.78, 0.5), rel=1e-12)


def test_order_efficiency_validation():
    with pytest.raises(ParameterError):
        order_efficiency(1, 0.0, 0.5)


def test_order_efficiencies_sum_to_one():
    # Exact completeness: sum over all integer orders is 1.  Truncated sums
    # converge like 1/M; over [-8, 8] the floor across 0.4..1.0 um is 0.976
    # (worst at 1.0 um where the power splits between orders 0 and 1).
    for lam in np.linspace(0.4, 1.0, 31):
        s8 = sum(order_efficiency(m, lam, 0.5) for m in range(-8, 9))
        s100 = sum(order_efficiency(m, lam, 0.5) for m in range(-100, 101))
        assert s8 >= 0.97
        assert s100 >= 0.995
    near_blaze = sum(order_efficiency(m, 0.5, 0.5) for m in range(-8, 9))
    assert near_blaze == pytest.approx(1.0, abs=1e-12)


def test_first_order_power_matches_analytic(grid512):
    # wide spot (8 periods): numerical first-order power within 2 percent
    amp = transmission(grid512, PERIOD, BLAZE, WAVELENGTH, 200.0)
    power = np.abs(fourier_1d(amp, grid512)) ** 2 * grid512.dk
    theta = angles_of(grid512, WAVELENGTH)
    window = np.abs(theta - RED_ORDER) <= RED_ORDER / 2.0
    numeric = power[window].sum()
    analytic = order_efficiency(1, WAVELENGTH, BLAZE)
    assert abs(numeric - analytic) / analytic <= 0.02


def test_lateral_shift_leaves_order_powers_unchanged(grid512, amp_spot100):
    # moving the sawtooth sideways by x0 shifts nothing in far-field order powers
    theta = angles_of(grid512, WAVELENGTH)
    envelope = np.exp(-((grid512.x / 50.0) ** 2))

    def shifted_amplitude(x0):
        amp = envelope * np.exp(1j * blaze_phase(grid512.x - x0, PERIOD, BLAZE, WAVELENGTH))
        return amp / np.sqrt(np.sum(np.abs(amp) ** 2) * grid512.dx)

    def order_power(amp, center):
        power = np.abs(fourier_1d(amp, grid512)) ** 2 * grid512.dk
        return power[np.abs(theta - center) <= RED_ORDER / 4.0].sum()

    np.testing.assert_allclose(shifted_amplitude(0.0), amp_spot100, rtol=0.0, atol=1e-15)
    for center in (0.0, RED_ORDER):
        reference = order_power(amp_spot100, center)
        for x0 in (5.0, 7.3, 12.5):
            assert abs(order_power(shifted_amplitude(x0), center) - reference) / reference <= 1e-3
