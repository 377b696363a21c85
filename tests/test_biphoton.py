import contextlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pairgrating import ScenarioConfig, profiles_for, rate_map_for
from pairgrating import scenario
from pairgrating.biphoton import (WEIGHT_LOG_FLOOR, pair_exponent_line, pair_matrix,
                                   pair_weight, two_photon_amplitude)
from pairgrating.lattice import make_grid
from pairgrating.optics import transmission
from pairgrating.inference import COARSE_POINTS, SIGMA_RANGE
from pairgrating.errors import ParameterError, SamplingWarning

from conftest import BLAZE, PERIOD, WAVELENGTH


def _pair_weights(dx, sigma, mode):
    # with a unit amplitude the joint amplitude is the Gaussian weight G
    # times one normalization, so ratios of its entries are ratios of G;
    # the positions are -2*dx, -dx, 0 and dx
    return two_photon_amplitude(np.ones(4), sigma, mode, make_grid(4, 4 * dx))


def _exponent(mode, x):
    """-(x_j - x_l)**2 (near) or -(x_j + x_l)**2 (far) on the positions x, pair by pair."""
    x = np.asarray(x, dtype=float)
    return -(x[:, None] - x[None, :]) ** 2 if mode == "near" else -(x[:, None] + x[None, :]) ** 2


def _plain_two_photon_amplitude(amplitude, sigma_corr, mode, grid):
    """two_photon_amplitude as plain expressions, each step a new array."""
    n, dx = grid.n, grid.dx
    a = np.asarray(amplitude, dtype=complex)
    product = a[:, None] * a[None, :]
    product = product + product.T
    product *= 0.5
    line = pair_exponent_line(mode, -(n // 2), n, dx)
    joint = product * pair_matrix(pair_weight(line, sigma_corr, dx), mode)
    joint /= np.sqrt(np.sum(np.abs(joint) ** 2) * dx ** 2)
    return joint


@pytest.mark.parametrize("mode", ["near", "far"])
@pytest.mark.parametrize("sigma", [0.3, 9.0, 1e4])
def test_two_photon_amplitude_is_bitwise_the_plain_expressions(sigma, mode):
    # the symmetrized pair is weighted and normalized in place; the result is the
    # plain expressions', bit for bit
    config = ScenarioConfig()
    grid = scenario.grid_for(config)
    amp = scenario.transmission_for(config, grid)
    under_resolved = sigma < grid.dx / 2.0
    with pytest.warns(SamplingWarning) if under_resolved else contextlib.nullcontext():
        got = two_photon_amplitude(amp, sigma, mode, grid)
        want = _plain_two_photon_amplitude(amp, sigma, mode, grid)
    assert got.dtype == want.dtype and not got.flags.writeable
    assert np.array_equal(got, want)


def test_correlation_factor_on_diagonal():
    weights = _pair_weights(7.3, 5.0, "near")     # positions 7.3 and 0
    assert weights[3, 3] / weights[2, 2] == 1.0


def test_correlation_factor_on_antidiagonal():
    weights = _pair_weights(5.0, 5.0, "far")      # positions 5 and -5, then 0 and 0
    assert weights[3, 1] / weights[2, 2] == 1.0


def test_correlation_factor_one_width_away():
    weights = _pair_weights(5.0, 5.0, "near")     # positions 0 and 5
    ratio = (weights[2, 3] / weights[2, 2]).real
    assert ratio == pytest.approx(np.exp(-0.5), rel=1e-15)
    assert ratio == pytest.approx(0.6065, abs=1e-4)


@pytest.mark.parametrize("sigma,mode", [(0.0, "near"), (-1.0, "near"), (float("nan"), "near")])
def test_correlation_model_validation(sigma, mode):
    with pytest.raises(ParameterError, match="sigma_corr_um must be positive"):
        ScenarioConfig(sigma_corr_um=sigma, illumination=mode)


@pytest.mark.parametrize("sigma", [1e200, np.float64(1e200), 1e-170, np.float64(1e-170)])
def test_width_whose_square_leaves_the_doubles_is_rejected(sigma):
    # 2*sigma**2 overflows to inf or underflows to 0; neither may warn on the way,
    # in the config or in profiles_for's sigma_um
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=r"2\*sigma_corr_um\*\*2 a positive finite"):
            ScenarioConfig(sigma_corr_um=sigma)
        with pytest.raises(ParameterError, match=r"2\*sigma_um\*\*2 a positive finite"):
            profiles_for(ScenarioConfig(grid_n=256, window_um=300.0), sigma_um=sigma)


@pytest.mark.parametrize("mode", ["near", "far"])
def test_subnormal_square_width_gives_the_strong_correlation_limit(small_grid, small_amp, mode):
    # 2*sigma**2 = 2e-320 is a subnormal double: the exponent of every pair
    # off the diagonal overflows to -inf, whose weight is exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.warns(SamplingWarning):
            tiny = two_photon_amplitude(small_amp, 1e-160, mode, small_grid)
        with pytest.warns(SamplingWarning):
            small = two_photon_amplitude(small_amp, 1e-3, mode, small_grid)
    np.testing.assert_array_equal(tiny, small)


@pytest.fixture(scope="module")
def small_grid():
    return make_grid(128, 300.0)


@pytest.fixture(scope="module")
def small_amp(small_grid):
    return transmission(small_grid, PERIOD, BLAZE, WAVELENGTH, 29.0)


@pytest.mark.parametrize("mode", ["near", "far"])
def test_joint_amplitude_exchange_symmetric(small_grid, small_amp, mode):
    f = two_photon_amplitude(small_amp, 9.0, mode, small_grid)
    np.testing.assert_array_equal(f, f.T)


def test_joint_amplitude_normalized(small_grid, small_amp):
    f = two_photon_amplitude(small_amp, 9.0, "near", small_grid)
    total = np.sum(np.abs(f) ** 2) * small_grid.dx ** 2
    assert total == pytest.approx(1.0, abs=1e-12)


def test_weak_correlation_gives_separable_amplitude(small_grid, small_amp):
    # wide correlation: the matrix is the outer product of the amplitude
    # with itself; the residual shrinks like 1/sigma**2
    outer = small_amp[:, None] * small_amp[None, :]
    outer = outer / np.sqrt(np.sum(np.abs(outer) ** 2) * small_grid.dx ** 2)
    f7 = two_photon_amplitude(small_amp, 1e7, "near", small_grid)
    assert np.max(np.abs(f7 - outer)) <= 1e-12
    f6 = two_photon_amplitude(small_amp, 1e6, "near", small_grid)
    assert np.max(np.abs(f6 - outer)) <= 5e-12


def test_strong_correlation_gives_diagonal_matrix(small_grid, small_amp):
    sigma = 0.01 * small_grid.dx
    with pytest.warns(SamplingWarning):
        f = two_photon_amplitude(small_amp, sigma, "near", small_grid)
    # one grid spacing away the Gaussian weight is exp(-5000), which
    # underflows to exactly zero
    for offset in (1, 2, 5):
        assert np.abs(np.diagonal(f, offset=offset)).max() == 0.0
    assert np.abs(np.diagonal(f)).max() > 0.0


def test_sampling_warning_threshold(small_grid, small_amp):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", SamplingWarning)
        two_photon_amplitude(small_amp, small_grid.dx, "near", small_grid)
    with pytest.warns(SamplingWarning):
        two_photon_amplitude(small_amp, 0.4 * small_grid.dx, "near", small_grid)


@pytest.mark.parametrize("entry", ["two_photon_amplitude", "profiles_for", "rate_map_for"])
def test_sampling_warning_names_the_calling_line(small_grid, small_amp, entry):
    config = ScenarioConfig(grid_n=128, window_um=300.0)
    sigma = 0.4 * small_grid.dx
    with pytest.warns(SamplingWarning) as caught:
        if entry == "two_photon_amplitude":
            two_photon_amplitude(small_amp, sigma, "near", small_grid)
        elif entry == "profiles_for":
            profiles_for(config, sigma_um=sigma)
        else:
            rate_map_for(replace(config, sigma_corr_um=sigma))
    assert [w.filename for w in caught] == [__file__]


def test_mode_duality_for_symmetric_envelope():
    # with a symmetric amplitude (no grating), the far-mode matrix is the
    # near-mode matrix with the second coordinate mirrored
    grid = make_grid(64, 200.0)
    envelope = np.exp(-((grid.x / 30.0) ** 2)).astype(complex)
    near = two_photon_amplitude(envelope, 10.0, "near", grid)
    far = two_photon_amplitude(envelope, 10.0, "far", grid)
    # x -> -x maps index l to n - l for l >= 1; index 0 has no partner
    np.testing.assert_array_equal(far[:, 1:], near[:, :0:-1])


def test_mass_near_diagonal_grows_with_correlation(grid512, amp_spot100):
    # fixed physical band |x1 - x2| <= one grating period: the enclosed
    # fraction is non-decreasing as the correlation width shrinks
    band = np.abs(grid512.x[:, None] - grid512.x[None, :]) <= 25.0
    fractions = []
    for sigma in (100.0, 31.0, 9.0, 3.0, 1.0):
        f = two_photon_amplitude(amp_spot100, sigma, "near", grid512)
        weight = np.abs(f) ** 2
        fractions.append(float(weight[band].sum() / weight.sum()))
    assert all(b >= a - 1e-12 for a, b in zip(fractions, fractions[1:]))


def test_values_read_only(small_grid, small_amp):
    f = two_photon_amplitude(small_amp, 9.0, "near", small_grid)
    with pytest.raises(ValueError):
        f[0, 0] = 0.0


FLOOR_WIDTHS = np.geomspace(0.1, 1e4, 41)   # um


@pytest.mark.parametrize("mode", ["near", "far"])
def test_pair_weight_holds_no_subnormal(grid512, mode):
    # unzeroed, widths of a few um leave subnormal weights on the far pairs
    exponent = _exponent(mode, grid512.x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SamplingWarning)
        for sigma in FLOOR_WIDTHS:
            weight = pair_weight(exponent, sigma, grid512.dx)
            assert not np.any((weight > 0.0) & (weight < np.finfo(float).tiny)), sigma


@pytest.mark.parametrize("mode", ["near", "far"])
def test_pair_weight_is_the_exponential_above_the_floor(grid512, mode):
    exponent = _exponent(mode, grid512.x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SamplingWarning)
        for sigma in FLOOR_WIDTHS:
            scaled = exponent / (2.0 * sigma ** 2)
            kept = scaled >= WEIGHT_LOG_FLOOR
            weight = pair_weight(exponent, sigma, grid512.dx)
            assert np.array_equal(weight[kept], np.exp(scaled[kept])), sigma
            assert not np.any(weight[~kept]), sigma


@pytest.mark.parametrize("mode", ["near", "far"])
def test_pair_matrix_lays_out_the_line_by_hand(mode):
    # positions -1, 0, 1: near pairs by l - j, far pairs by j + l
    line = pair_exponent_line(mode, -1, 3, 1.0)
    assert line.tolist() == [-4.0, -1.0, 0.0, -1.0, -4.0]
    want = ([[0.0, -1.0, -4.0], [-1.0, 0.0, -1.0], [-4.0, -1.0, 0.0]] if mode == "near"
            else [[-4.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, -4.0]])
    view = pair_matrix(line, mode)
    assert view.tolist() == want == _exponent(mode, [-1.0, 0.0, 1.0]).tolist()
    assert not view.flags.writeable and np.shares_memory(view, line)


def _support_positions(config):
    """The support's first lattice offset, its size and its positions, from profiles_for's plan."""
    support = scenario._support_plan(scenario._plan_key(config), None, None).support
    grid = scenario.grid_for(config)
    return support.start - grid.n // 2, support.stop - support.start, grid.x[support]


COARSE_WIDTHS = [float(s) for s in np.geomspace(*SIGMA_RANGE, COARSE_POINTS)] + [0.1]


@pytest.mark.parametrize("keys", [
    dict(), dict(illumination="far"), dict(grid_n=2048, window_um=2400.0),
    dict(spot_diameter_um=250.0), dict(grid_n=256, window_um=300.0, illumination="far"),
])
def test_weight_from_the_line_is_the_full_weight_on_dyadic_spacings(keys):
    # dx = 75/64 um: every position, difference and sum is exact, so the
    # 2m - 1 weights spread over the pairs are pair_weight on the m x m exponent
    config = ScenarioConfig(**keys)
    mode = config.illumination
    first, m, x = _support_positions(config)
    line = pair_exponent_line(mode, first, m, config.window_um / config.grid_n)
    # the plan lays out the same line, bit for bit
    plan = scenario._support_plan(scenario._plan_key(config), None, None)
    assert plan.exponents.tobytes() == line.tobytes()
    exponent = _exponent(mode, x)
    assert np.array_equal(pair_matrix(line, mode), exponent)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SamplingWarning)
        for sigma in COARSE_WIDTHS:
            got = pair_matrix(pair_weight(line, sigma, 1.0), mode)
            assert np.array_equal(got, pair_weight(exponent, sigma, 1.0)), sigma


@pytest.mark.parametrize("mode", ["near", "far"])
def test_weight_from_the_line_on_a_rounded_spacing(mode):
    # at window_um = 600.3 the positions round, by up to 7e-15 um at the
    # support's edge, and the positions' exponent inherits that pair by pair.  Over the
    # coarse widths no one value per offset can come within 4.5e-15 of every
    # such pair (half the spread of the full weight along a diagonal reaches
    # 4.47e-15 at 0.82 um); the line's exact offsets stay within 5.4e-15
    config = ScenarioConfig(window_um=600.3, illumination=mode)
    first, m, x = _support_positions(config)
    dx = config.window_um / config.grid_n
    line = pair_exponent_line(mode, first, m, dx)
    exponent = _exponent(mode, x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SamplingWarning)
        for sigma in COARSE_WIDTHS[:-1]:
            got = pair_matrix(pair_weight(line, sigma, dx), mode)
            want = pair_weight(exponent, sigma, dx)
            assert np.array_equal(got > 0.0, want > 0.0), sigma
            assert np.max(np.abs(got - want)) <= 8e-15, sigma
