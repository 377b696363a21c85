import warnings

import numpy as np
import pytest

from pairgrating import delta_correlated_profiles, uncorrelated_profiles
from pairgrating.biphoton import two_photon_amplitude
from pairgrating.errors import ParameterError, SamplingWarning
from pairgrating.lattice import make_grid
from pairgrating.propagation import (coincidence_map, diagonal_profile, fourier_1d,
                                     singles_profile, to_far_field)

from conftest import BLUE_ORDER, RED_ORDER, WAVELENGTH, matched_deviation


def _pipeline_profiles(amp, grid, sigma, mode="near"):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SamplingWarning)
        f = two_photon_amplitude(amp, sigma, mode, grid)
    rate_map = coincidence_map(to_far_field(f, grid), grid, WAVELENGTH)
    return diagonal_profile(rate_map), singles_profile(rate_map)


def test_uncorrelated_singles_parseval(grid256, amp_spot100_256):
    transformed = fourier_1d(amp_spot100_256, grid256)
    assert np.sum(np.abs(transformed) ** 2) * grid256.dk == pytest.approx(1.0, abs=1e-12)


def test_uncorrelated_profiles_structure(grid256, amp_spot100_256):
    limit = uncorrelated_profiles(amp_spot100_256, grid256, WAVELENGTH)
    bin_width = limit.singles.angles[1] - limit.singles.angles[0]
    assert limit.singles.values.sum() * bin_width == pytest.approx(1.0, rel=1e-12)
    assert limit.diagonal.values.sum() * bin_width == pytest.approx(1.0, rel=1e-12)
    # diagonal is the squared singles up to one global factor, entrywise
    assert matched_deviation(limit.singles.values ** 2, limit.diagonal.values) <= 1e-13


def test_oracles_need_positive_wavelength(grid256, amp_spot100_256):
    # the oracles take a raw wavelength, not a ScenarioConfig
    for oracle in (uncorrelated_profiles, delta_correlated_profiles):
        for wavelength in (0.0, -1.0, float("nan")):
            with pytest.raises(ParameterError, match="wavelength must be positive"):
                oracle(amp_spot100_256, grid256, wavelength)


@pytest.mark.parametrize("n, window", [(5, 4.0), (0, 4.0), (2, 4.0), (8, 0.0), (8, -1.0),
                                       (8, float("inf")), (8, float("nan"))])
def test_oracles_check_the_grid(n, window):
    # make_grid leaves its rules to ScenarioConfig; delta_correlated_profiles' index
    # doubling is exact only for even n
    grid = make_grid(n, window)
    fragment = (r"grid must have an even n >= 4 and a positive finite window, "
                rf"got SpatialGrid\(n={n}, window={window}\)")
    for oracle in (uncorrelated_profiles, delta_correlated_profiles):
        with pytest.raises(ParameterError, match=fragment):
            oracle(np.ones(n, dtype=complex), grid, WAVELENGTH)


def test_oracles_check_the_amplitude_shape():
    for oracle in (uncorrelated_profiles, delta_correlated_profiles):
        with pytest.raises(ParameterError, match=r"values must have shape \(16,\), got \(5,\)"):
            oracle(np.ones(5), make_grid(16, 16.0), WAVELENGTH)


def test_delta_profiles_structure(grid512, amp_spot100):
    limit = delta_correlated_profiles(amp_spot100, grid512, WAVELENGTH)
    assert np.unique(limit.singles.values).size == 1
    peak_angle = limit.diagonal.angles[np.argmax(limit.diagonal.values)]
    assert peak_angle == pytest.approx(BLUE_ORDER, abs=1e-12)


def test_delta_blue_order_dominates_red(grid512, amp_spot100):
    limit = delta_correlated_profiles(amp_spot100, grid512, WAVELENGTH)
    angles = limit.diagonal.angles
    blue = limit.diagonal.values[np.abs(angles - BLUE_ORDER) <= 0.006].max()
    red = limit.diagonal.values[np.abs(angles - RED_ORDER) <= 0.006].max()
    assert blue / red >= 5.0


def test_pipeline_reaches_uncorrelated_limit(grid256, amp_spot100_256):
    limit = uncorrelated_profiles(amp_spot100_256, grid256, WAVELENGTH)
    diag, singles = _pipeline_profiles(amp_spot100_256, grid256, 1e4)
    assert matched_deviation(diag.values, limit.diagonal.values) <= 1e-6
    # the singles marginal converges like 1/sigma**2 with a larger
    # coefficient; it needs a few times more width for the same bound
    assert matched_deviation(singles.values, limit.singles.values) <= 5e-6
    _, singles_3e4 = _pipeline_profiles(amp_spot100_256, grid256, 3e4)
    assert matched_deviation(singles_3e4.values, limit.singles.values) <= 1e-6


def test_uncorrelated_convergence_is_monotone(grid256, amp_spot100_256):
    limit = uncorrelated_profiles(amp_spot100_256, grid256, WAVELENGTH)
    errors = []
    for sigma in (1e2, 1e3, 1e4):
        diag, _ = _pipeline_profiles(amp_spot100_256, grid256, sigma)
        errors.append(matched_deviation(diag.values, limit.diagonal.values))
    assert errors[0] > errors[1] > errors[2]


def test_pipeline_reaches_delta_limit(grid512, amp_spot100):
    # Compared over the physical scan range: beyond |theta| ~ window/2 the
    # doubled frequencies of a lattice-diagonal amplitude wrap around while
    # the closed form treats them as energy outside the window.
    limit = delta_correlated_profiles(amp_spot100, grid512, WAVELENGTH)
    diag, singles = _pipeline_profiles(amp_spot100, grid512, 0.01 * grid512.dx)
    scan = np.abs(diag.angles) <= 0.150
    assert matched_deviation(diag.values, limit.diagonal.values, mask=scan) <= 1e-3
    from pairgrating import visibility
    assert visibility(singles, (-0.05, 0.05)) < 0.05


def test_delta_convergence_is_monotone(grid512, amp_spot100):
    limit = delta_correlated_profiles(amp_spot100, grid512, WAVELENGTH)
    scan = np.abs(limit.diagonal.angles) <= 0.150
    errors = []
    for factor in (1.0, 0.1, 0.01):
        diag, _ = _pipeline_profiles(amp_spot100, grid512, factor * grid512.dx)
        errors.append(matched_deviation(diag.values, limit.diagonal.values, mask=scan))
    assert errors[1] <= errors[0] + 1e-12
    assert errors[2] <= errors[1] + 1e-12


def test_transform_of_product_is_the_convergent_form(grid512, amp_spot100):
    # Two candidate closed forms exist for the delta limit: the transform of
    # the squared amplitude (implemented) and the fourth power of the
    # amplitude's own transform at doubled frequency.  For a blazed (phase)
    # amplitude they differ; the pipeline converges to the implemented one.
    limit = delta_correlated_profiles(amp_spot100, grid512, WAVELENGTH)
    n = grid512.n
    power4 = np.abs(fourier_1d(amp_spot100, grid512)) ** 4
    doubled = 2 * np.arange(n) - n // 2
    in_range = (doubled >= 0) & (doubled < n)
    alt = np.zeros(n)
    alt[in_range] = power4[doubled[in_range]]
    diag, _ = _pipeline_profiles(amp_spot100, grid512, 0.01 * grid512.dx)
    scan = np.abs(limit.diagonal.angles) <= 0.150
    implemented_err = matched_deviation(diag.values, limit.diagonal.values, mask=scan)
    alternative_err = matched_deviation(diag.values, alt, mask=scan)
    print(f"implemented-form deviation: {implemented_err:.3e}, "
          f"fourth-power-form deviation: {alternative_err:.3e}")
    assert implemented_err <= 1e-3
    assert alternative_err > 0.05
