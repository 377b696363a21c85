from concurrent.futures import ThreadPoolExecutor
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from pairgrating import ScenarioConfig, profiles_for, rate_map_for
from pairgrating.biphoton import (pair_exponent_line, pair_matrix, pair_weight,
                                  two_photon_amplitude)
from pairgrating.lattice import angles_of, make_grid
from pairgrating.propagation import (RateMap, RateProfile, SupportPlan, _box_kernel, blur,
                                     coincidence_map, diagonal_profile, fourier_1d,
                                     singles_profile, support_of, to_far_field)
from pairgrating.errors import BinSnapWarning, ParameterError, SamplingWarning
from pairgrating import propagation, scenario
from pairgrating.inference import COARSE_POINTS, SIGMA_RANGE

from conftest import WAVELENGTH, matched_deviation


def _normalized(values, grid):
    return values / np.sqrt(np.sum(np.abs(values) ** 2) * grid.dx ** 2)


def _plan_on_hull(grid, support, amplitude, mode, width, separation, span=None):
    """SupportPlan for amplitude on the scattered indices support, zero elsewhere, whose
    support is the hull of those indices."""
    lattice = np.zeros(grid.n, dtype=complex)
    lattice[support] = amplitude
    plan = SupportPlan(lattice, mode, grid, 1.0, width, separation, span, None)
    assert plan.support == slice(support.min(), support.max() + 1)
    return plan


def _line_on_hull(support, mode, rng):
    """A random signed line of 2h - 1 pair weights on the hull of the scattered indices
    support, h of them, and the m x m weight it puts on the m indices of support."""
    first, last = support.min(), support.max()
    line = rng.standard_normal(2 * (last - first) + 1)
    return line, pair_matrix(line, mode)[np.ix_(support - first, support - first)]


@pytest.fixture(scope="module")
def far_map(grid512, amp_spot100):
    f = two_photon_amplitude(amp_spot100, 9.0, "near", grid512)
    return coincidence_map(to_far_field(f, grid512), grid512, WAVELENGTH)


def test_fourier_1d_parseval():
    rng = np.random.default_rng(11)
    grid = make_grid(64, 50.0)
    values = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    out = fourier_1d(values, grid)
    assert np.sum(np.abs(out) ** 2) * grid.dk == pytest.approx(
        np.sum(np.abs(values) ** 2) * grid.dx, rel=1e-12)


def test_far_field_matches_direct_double_sum():
    rng = np.random.default_rng(7)
    grid = make_grid(64, 64.0)
    raw = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    raw = _normalized(raw + raw.T, grid)
    transformed = to_far_field(raw, grid)
    kernel = np.exp(-1j * np.outer(grid.k, grid.x))
    direct = (grid.dx ** 2 / (2.0 * np.pi)) * kernel @ raw @ kernel.T
    assert np.max(np.abs(transformed - direct)) <= 1e-8


@pytest.mark.parametrize("dtype", [complex, float])
def test_far_field_is_the_scaled_centered_fft(dtype):
    # the result is the plain expression's, bit for bit, and the input is left alone
    rng = np.random.default_rng(11)
    grid = make_grid(64, 64.0)
    values = rng.standard_normal((64, 64)).astype(dtype)
    if dtype is complex:
        values += 1j * rng.standard_normal((64, 64))
    before = values.copy()
    expected = (np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(values)))
                * (grid.dx ** 2 / (2.0 * np.pi)))
    assert np.array_equal(to_far_field(values, grid), expected)
    assert np.array_equal(values, before)


def test_far_field_at_full_size_is_the_scaled_centered_fft():
    # a random input has no symmetry to hide a shift that goes wrong, and a
    # read-only one stays
    rng = np.random.default_rng(12)
    grid = make_grid(512, 600.0)
    values = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
    values.setflags(write=False)
    before = values.copy()
    expected = (np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(values)))
                * (grid.dx ** 2 / (2.0 * np.pi)))
    assert np.array_equal(to_far_field(values, grid), expected)
    assert np.array_equal(values, before)


def test_double_sum_oracle_against_literal_loops():
    # sanity-check the kernel-matrix oracle itself with explicit loops
    rng = np.random.default_rng(3)
    grid = make_grid(8, 8.0)
    raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    kernel = np.exp(-1j * np.outer(grid.k, grid.x))
    oracle = (grid.dx ** 2 / (2.0 * np.pi)) * kernel @ raw @ kernel.T
    literal = np.zeros((8, 8), dtype=complex)
    for m in range(8):
        for p in range(8):
            total = 0.0 + 0.0j
            for j in range(8):
                for l in range(8):
                    total += raw[j, l] * np.exp(-1j * (grid.k[m] * grid.x[j]
                                                       + grid.k[p] * grid.x[l]))
            literal[m, p] = total * grid.dx ** 2 / (2.0 * np.pi)
    np.testing.assert_allclose(oracle, literal, atol=1e-12)


def test_point_source_transforms_to_flat_magnitude():
    grid = make_grid(8, 8.0)
    values = np.zeros((8, 8), dtype=complex)
    values[4, 4] = 1.0
    magnitudes = np.abs(to_far_field(_normalized(values, grid), grid))
    assert magnitudes.std() <= 1e-15 * magnitudes.mean()


def test_far_field_parseval_large_grid(grid512, amp_spot100):
    f = two_photon_amplitude(amp_spot100, 9.0, "near", grid512)
    far = to_far_field(f, grid512)
    assert np.sum(np.abs(far) ** 2) * grid512.dk ** 2 == pytest.approx(1.0, abs=1e-12)


def test_coincidence_map_mass_and_symmetry(grid512, far_map):
    assert np.all(far_map.values >= 0.0)
    assert np.sum(far_map.values) * grid512.dk ** 2 == pytest.approx(1.0, abs=1e-12)
    asymmetry = np.max(np.abs(far_map.values - far_map.values.T))
    assert asymmetry <= 1e-12 * far_map.values.max()


def _toy_map(n=16):
    grid = make_grid(n, float(n))
    base = np.arange(1.0, n + 1.0)
    values = np.outer(base, base)
    return RateMap(grid=grid, angles=angles_of(grid, 1.0), values=values)


def test_diagonal_profile_extracts_diagonal():
    rate_map = _toy_map()
    profile = diagonal_profile(rate_map, 0.0)
    np.testing.assert_array_equal(profile.values, np.diagonal(rate_map.values))
    np.testing.assert_array_equal(profile.angles, rate_map.angles)


def test_diagonal_profile_one_bin_separation():
    rate_map = _toy_map()
    bin_width = rate_map.angles[1] - rate_map.angles[0]
    profile = diagonal_profile(rate_map, bin_width)
    assert profile.values.size == rate_map.grid.n - 1
    np.testing.assert_array_equal(profile.values, np.diagonal(rate_map.values, offset=1))
    np.testing.assert_array_equal(profile.angles, rate_map.angles[:-1])


def test_diagonal_profile_snaps_with_notice():
    rate_map = _toy_map()
    bin_width = rate_map.angles[1] - rate_map.angles[0]
    with pytest.warns(BinSnapWarning):
        profile = diagonal_profile(rate_map, 1.4 * bin_width)
    np.testing.assert_array_equal(profile.values, np.diagonal(rate_map.values, offset=1))


def test_opposite_separations_mirror_each_other(far_map):
    bin_width = far_map.angles[1] - far_map.angles[0]
    plus = diagonal_profile(far_map, 3.0 * bin_width)
    minus = diagonal_profile(far_map, -3.0 * bin_width)
    np.testing.assert_allclose(minus.values, plus.values,
                               atol=1e-12 * plus.values.max())
    assert minus.angles[0] - plus.angles[0] == pytest.approx(3.0 * bin_width, rel=1e-9)


def test_singles_profile_of_uniform_map():
    grid = make_grid(16, 16.0)
    rate_map = RateMap(grid=grid, angles=angles_of(grid, 1.0),
                       values=np.full((16, 16), 2.5))
    profile = singles_profile(rate_map)
    np.testing.assert_allclose(profile.values, profile.values[0], rtol=1e-15)


def test_singles_profile_marginal_consistency(grid512, far_map):
    profile = singles_profile(far_map)
    assert profile.values.sum() * grid512.dk == pytest.approx(
        np.sum(far_map.values) * grid512.dk ** 2, abs=1e-12)


def test_blur_zero_width_is_identity(far_map):
    out = blur(far_map, 0.0)
    np.testing.assert_array_equal(out.values, far_map.values)


def test_blur_below_one_bin_is_identity(far_map):
    bin_width = far_map.angles[1] - far_map.angles[0]
    out = blur(far_map, 0.9 * bin_width)
    np.testing.assert_array_equal(out.values, far_map.values)


def test_blur_preserves_constant_profiles():
    angles = np.linspace(-0.1, 0.1, 101)
    profile = RateProfile(angles=angles, values=np.full(101, 3.0))
    out = blur(profile, 0.01)
    np.testing.assert_allclose(out.values, 3.0, rtol=1e-14)


def test_blur_preserves_mass(far_map):
    out = blur(far_map, 0.010)
    assert out.values.sum() == pytest.approx(far_map.values.sum(), rel=1e-12)
    profile = singles_profile(far_map)
    blurred = blur(profile, 0.010)
    assert blurred.values.sum() == pytest.approx(profile.values.sum(), rel=1e-12)


def test_blur_keeps_map_symmetric(far_map):
    out = blur(far_map, 0.010)
    assert np.max(np.abs(out.values - out.values.T)) <= 1e-12 * out.values.max()
    assert np.all(out.values >= 0.0)


def test_blur_never_increases_contrast():
    from pairgrating import visibility
    rng = np.random.default_rng(3)
    angles = np.linspace(-0.1, 0.1, 101)
    window = (-0.08, 0.08)
    for _ in range(20):
        profile = RateProfile(angles=angles, values=rng.random(101))
        reference = visibility(profile, window)
        for width in (0.001, 0.004, 0.013, 0.05):
            assert visibility(blur(profile, width), window) <= reference + 1e-12


@pytest.mark.parametrize("width_bins,taps,n", [
    pytest.param(0.5, 1, 512, id="0.5-1"),
    pytest.param(4.2, 5, 512, id="4.2-5"),
    pytest.param(8.4, 9, 512, id="8.4-9"),
    # blur works through a map in blocks of 32 rows: a last block cut short, one
    # block shorter than a full one, more taps than a block has rows (their rows
    # wrap past both ends of the map), and a reach longer than a block
    pytest.param(8.4, 9, 100, id="8.4-9-n100"),
    pytest.param(4.2, 5, 20, id="4.2-5-n20"),
    pytest.param(40.6, 41, 48, id="40.6-41-n48"),
    pytest.param(80.6, 81, 160, id="80.6-81-n160"),
])
@pytest.mark.parametrize("ndim", [1, 2])
def test_blur_is_bitwise_the_roll_sum(width_bins, taps, n, ndim):
    # the circular convolution written as a sum of np.roll terms in kernel
    # order, one axis after the other
    grid = make_grid(n, float(n))
    angles = angles_of(grid, 1.0)
    values = np.random.default_rng(taps + ndim).random((n,) * ndim)
    obj = (RateMap(grid=grid, angles=angles, values=values) if ndim == 2
           else RateProfile(angles=angles, values=values))
    width = width_bins * (angles[1] - angles[0])
    kernel = _box_kernel(width, angles[1] - angles[0])
    assert kernel.size == taps
    expected = values
    for axis in range(ndim):
        rolled = np.zeros_like(expected)
        for i, weight in enumerate(kernel):
            rolled += weight * np.roll(expected, i - taps // 2, axis=axis)
        expected = rolled
    assert np.array_equal(blur(obj, width).values, expected)


@pytest.mark.parametrize("width_bins", [0.0, 0.9, 1.0, 2.6, 7.7])
@pytest.mark.parametrize("shift", [-5, -1, 0, 1, 3, 31])
def test_blurred_diagonal_matches_cut_of_blurred_map(width_bins, shift):
    # a random amplitude on scattered indices, zero elsewhere, and a random signed
    # line of pair weights in either layout: no symmetry or smoothness to lean on,
    # and every wrapped term of the band counts
    rng = np.random.default_rng(shift + 5)
    grid = make_grid(32, 32.0)
    support = np.sort(rng.choice(32, size=12, replace=False))
    amplitude = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    bin_width = np.diff(angles_of(grid, 1.0))[0]
    width, separation = width_bins * bin_width, shift * bin_width
    for mode in ("near", "far"):
        plan = _plan_on_hull(grid, support, amplitude, mode, width, separation)
        line, weight = _line_on_hull(support, mode, rng)
        padded = np.zeros((32, 32), dtype=complex)
        padded[np.ix_(support, support)] = amplitude[:, None] * weight * amplitude
        rate_map = coincidence_map(to_far_field(_normalized(padded, grid), grid), grid, 1.0)
        expected = (diagonal_profile(blur(rate_map, width), separation),
                    blur(singles_profile(rate_map), width))
        for got_cut, want in zip(plan(line), expected):
            np.testing.assert_array_equal(got_cut.angles, want.angles)
            np.testing.assert_allclose(got_cut.values, want.values, rtol=1e-12, atol=0.0)


def test_blurred_diagonal_checks_like_blur_and_cut():
    # the snap warning names the calling line, as diagonal_profile's does
    config = ScenarioConfig(grid_n=256, window_um=300.0)
    bin_width = config.wavelength_um / config.window_um * 1e3   # mrad
    with pytest.warns(BinSnapWarning) as caught:
        profiles_for(replace(config, detector_separation_mrad=1.4 * bin_width))
    assert [w.filename for w in caught] == [__file__]


# top-hats written out by hand: full widths of 0, 2.6 and 7.7 bins
HAND_KERNELS = {0.0: [1.0],
                2.6: [0.8, 1.0, 0.8],
                7.7: [0.35, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.35]}


@pytest.mark.parametrize("width_bins", sorted(HAND_KERNELS))
@pytest.mark.parametrize("n,shifts", [(32, [0, -3, 29]), (64, [0, 5, -61])])
def test_support_profiles_match_extended_precision_sums(n, shifts, width_bins):
    # each R[p, q] as the direct double sum W_S B W_S^T in np.clongdouble with
    # the centred DFT matrix, for B = a_j*g[j, l]*a_l scaled to a unit square
    # sum, g a random signed line of pair weights in either layout, then blurred
    # by hand: nothing here goes through an FFT or the plan's factored forms.
    # The last shift of each n makes the band of the blur wrap.  The amplitude is
    # zero off the scattered support, so the plan's support is its hull.  Each
    # shift runs over the whole lattice and over a span that reaches past the
    # lattice's first row, or its last for a negative shift, where the diagonal
    # is: near plans take both bands at the two narrower blurs, and only
    # |E Phi^T|**2 at 7.7 bins; far plans take |E Phi^T|**2 (propagation's
    # docstring)
    rng = np.random.default_rng(n)
    grid = make_grid(n, float(n))
    m = n // 3
    support = rng.choice(n, size=m, replace=False)     # scattered and unsorted
    amplitude = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    exponents = np.outer(np.arange(n) - n // 2, support - n // 2) % n
    pi = 4 * np.arctan(np.longdouble(1))
    dft = np.exp(exponents * (-2j * pi / n))
    kernel = np.array(HAND_KERNELS[width_bins], dtype=np.longdouble)
    kernel /= kernel.sum()
    offsets = np.arange(kernel.size) - kernel.size // 2
    rows = np.arange(n)
    angles = angles_of(grid, 1.0)
    bin_width = np.diff(angles)[0]
    bands = {"near": set(), "far": set()}
    for mode in ("near", "far"):
        line, weight = _line_on_hull(support, mode, rng)
        pair = amplitude.astype(np.clongdouble)[:, None] * weight * amplitude
        pair /= np.sqrt(np.sum(np.abs(pair) ** 2) * grid.dx ** 2)
        far = dft @ pair @ dft.T * (grid.dx ** 2 / (2 * pi))
        rates = np.abs(far) ** 2
        assert rates.dtype == np.longdouble
        row_sums = rates.sum(axis=1) * grid.dk
        singles = sum(wa * row_sums[(rows + a) % n] for a, wa in zip(offsets, kernel))
        for shift in shifts:
            diagonal = sum(wa * wb * rates[(rows + a) % n, (rows + shift + b) % n]
                           for a, wa in zip(offsets, kernel) for b, wb in zip(offsets, kernel))
            cut = slice(max(0, -shift), n - max(0, shift))
            for span in (None, (-1.0, -0.2) if shift >= 0 else (0.2, 1.0)):
                plan = _plan_on_hull(grid, support, amplitude, mode, width_bins * bin_width,
                                     shift * bin_width, span)
                bands[mode].add(plan.lag_band)
                for profile, want, want_angles in zip(plan(line), (diagonal[cut], singles),
                                                      (angles[cut], angles)):
                    start = int(np.searchsorted(want_angles, profile.angles[0]))
                    part = slice(start, start + profile.angles.size)
                    np.testing.assert_array_equal(profile.angles, want_angles[part])
                    np.testing.assert_allclose(profile.values, want[part].astype(float),
                                               rtol=1e-12, atol=0.0)
    assert bands == {"near": {False, True} if width_bins < 7 else {False}, "far": {False}}


@pytest.mark.parametrize("span", [(0.1, -0.1), (float("nan"), 0.1), (0.0, float("nan"))])
def test_support_plan_rejects_a_reversed_span(span, monkeypatch):
    # SupportPlan takes its spans as given: profiles_for rejects a reversed
    # or NaN span or diagonal_span before any plan is built
    def no_plan(*args):
        raise AssertionError("a SupportPlan was built for a reversed span")

    monkeypatch.setattr(scenario, "SupportPlan", no_plan)
    scenario._support_plan.cache_clear()
    for name in ("span", "diagonal_span"):
        with pytest.raises(ParameterError, match=f"^{name} must be two angles lo <= hi in rad"):
            profiles_for(ScenarioConfig(grid_n=256, window_um=300.0), **{name: span})


PROFILE_CONFIGS = [
    (dict(), 0),
    (dict(illumination="far"), 0),
    (dict(detector_separation_mrad=13.0), 0),    # bins are 1.3 mrad wide
    (dict(detector_separation_mrad=-7.8), 0),
    (dict(detector_separation_mrad=4.0), 1),
    (dict(resolution_mrad=0.0), 0),
    (dict(grid_n=1024, window_um=1200.0), 0),
    (dict(illumination="far", grid_n=2048, window_um=2400.0), 0),
    (dict(spot_diameter_um=250.0), 0),           # the support is the whole grid
    (dict(sigma_corr_um=0.1), 0),
    (dict(sigma_corr_um=1e4), 0),
    (dict(detector_separation_mrad=-390.0), 0),  # 300 of 512 bins: the band wraps
    (dict(window_um=600.3), 0),                  # a spacing with no short binary form
    (dict(window_um=600.3, illumination="far"), 0),
]


@pytest.mark.parametrize("keys,snaps", PROFILE_CONFIGS)
def test_profiles_for_matches_cuts_of_rate_map_for(keys, snaps):
    config = ScenarioConfig(**keys)
    separation = config.detector_separation_mrad * 1e-3
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        diagonal, singles = profiles_for(config)
    assert sum(issubclass(w.category, BinSnapWarning) for w in caught) == snaps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BinSnapWarning)
        warnings.simplefilter("ignore", SamplingWarning)
        rate_map = rate_map_for(config)
        expected = (diagonal_profile(rate_map, separation), singles_profile(rate_map))
    for got, want in zip((diagonal, singles), expected):
        np.testing.assert_array_equal(got.angles, want.angles)
        np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=0.0)
        assert np.all(got.values >= 0.0)


@pytest.mark.parametrize("keys", [keys for keys, _ in PROFILE_CONFIGS])
def test_rate_map_for_matches_the_reference_chain(keys):
    # the map from the m x m pair on the support against the n x n chain it no
    # longer shares, the whole-grid support (spot_diameter_um=250) and the unblurred
    # map (resolution_mrad=0) among the configs
    config = ScenarioConfig(**keys)
    grid = scenario.grid_for(config)
    amp = scenario.transmission_for(config, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SamplingWarning)
        got = rate_map_for(config)
        pair = two_photon_amplitude(amp, config.sigma_corr_um, config.illumination, grid)
    want = blur(coincidence_map(to_far_field(pair, grid), grid, config.wavelength_um),
                config.resolution_mrad * 1e-3)
    np.testing.assert_array_equal(got.angles, want.angles)
    peak = want.values.max()
    assert np.max(np.abs(got.values - want.values)) <= 1e-14 * peak
    large = want.values > 1e-6 * peak
    np.testing.assert_allclose(got.values[large], want.values[large], rtol=1e-12, atol=0.0)
    assert np.all(got.values >= 0.0) and not got.values.flags.writeable


FIT_SPAN = (-0.060, 0.060)   # the angles of a fit's scan, in rad

# n = 256 over 300 um: 2.6 mrad bins, first-detector angles -332.8 to 330.2 mrad
SPAN_CASES = [
    (dict(), FIT_SPAN),
    (dict(illumination="far"), FIT_SPAN),
    (dict(), (-1.0, -0.3)),                                  # reaches past the first row
    (dict(), (0.3, 1.0)),                                    # and past the last
    (dict(resolution_mrad=0.0), (0.0131, 0.0131)),           # one angle
    (dict(detector_separation_mrad=13.0), (0.3, 1.0)),       # the diagonal drops 5 rows
    (dict(detector_separation_mrad=-4.0), (-1.0, -0.3)),     # snapped to 2 bins, drops 2
    (dict(illumination="far", detector_separation_mrad=4.0), (0.31, 0.5)),
    (dict(detector_separation_mrad=-390.0), (0.3, 0.4)),    # 150 bins: the band wraps
    (dict(resolution_mrad=0.0), FIT_SPAN),                   # t = 0: one even shift
    (dict(resolution_mrad=0.0, detector_separation_mrad=-4.0), (-1.0, -0.3)),  # one odd shift
]


@pytest.mark.parametrize("keys,span", SPAN_CASES)
def test_profiles_for_span_rows_equal_the_whole_lattice(keys, span):
    config = ScenarioConfig(grid_n=256, window_um=300.0, **keys)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BinSnapWarning)
        whole = profiles_for(config)
        part = profiles_for(config, span=span)
        narrowed = profiles_for(config, diagonal_span=span)
    # the whole lattice's singles, bit for bit, and the diagonal on span's rows
    np.testing.assert_array_equal(narrowed[1].values, whole[1].values)
    np.testing.assert_array_equal(narrowed[0].angles, part[0].angles)
    assert np.max(np.abs(narrowed[0].values - part[0].values)) <= 1e-14 * whole[0].values.max()
    for got, want in zip(part, whole):
        assert got.angles.size > 0
        start = int(np.searchsorted(want.angles, got.angles[0]))
        rows = slice(start, start + got.angles.size)
        np.testing.assert_array_equal(got.angles, want.angles[rows])
        assert np.max(np.abs(got.values - want.values[rows])) <= 1e-14 * want.values.max()
        # one bin past the span on each side, or the lattice's edge
        assert got.angles[0] < span[0] or start == 0
        assert got.angles[-1] > span[1] or start + got.angles.size == want.angles.size


# n = 512: bins are 1.3 mrad wide, first-detector angles -332.8 to 331.5 mrad; near
# mode, the only one with a lag band
LAG_CONFIGS = [dict(),
               dict(detector_separation_mrad=13.0),
               dict(detector_separation_mrad=4.0),                     # snapped to 3 bins
               dict(detector_separation_mrad=-390.0),                  # 300 bins: wraps
               dict(resolution_mrad=0.0),                              # t = 0: one parity
               dict(resolution_mrad=0.0, detector_separation_mrad=4.0)]


@pytest.mark.parametrize("keys", LAG_CONFIGS)
def test_lag_band_matches_the_product_band(keys, monkeypatch):
    # one plan geometry with each band forced: the blurred diagonals agree to
    # 1e-13 relative on every row, and the singles bit for bit, over a fit's span
    # and spans past the lattice's first and last rows
    config = ScenarioConfig(**keys)
    grid = scenario.grid_for(config)
    amplitude = scenario.transmission_for(config, grid)
    compared = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BinSnapWarning)
        warnings.simplefilter("ignore", SamplingWarning)
        for span in (FIT_SPAN, (-1.0, -0.55), (0.55, 1.0)):
            plans = []
            for lag in (True, False):
                monkeypatch.setattr(propagation, "_takes_lag_band", lambda *args, lag=lag: lag)
                plans.append(SupportPlan(amplitude, config.illumination, grid,
                                         config.wavelength_um, config.resolution_mrad * 1e-3,
                                         config.detector_separation_mrad * 1e-3, span, None))
            assert [plan.lag_band for plan in plans] == [True, False]
            support = plans[0].support
            line = pair_exponent_line(config.illumination, support.start - grid.n // 2,
                                      support.stop - support.start, grid.dx)
            for sigma in np.geomspace(0.5, 1e4, 7):
                weights = pair_weight(line, sigma, grid.dx)
                (lag_diagonal, lag_singles), (diagonal, singles) = (plan(weights) for plan in plans)
                np.testing.assert_array_equal(lag_diagonal.angles, diagonal.angles)
                np.testing.assert_allclose(lag_diagonal.values, diagonal.values, rtol=1e-13,
                                           atol=0.0)
                assert np.array_equal(lag_singles.values, singles.values)
                compared += diagonal.values.size
    assert compared > 0


def test_plans_pick_their_band_from_their_geometry():
    # the rules of propagation's docstring: near mode, (4t + 1)(2m - 1) < m**2/2,
    # at most m band rows, and the plan with its tables kept
    fit = ScenarioConfig()                                  # m = 155, t = 4
    large = ScenarioConfig(grid_n=2048, window_um=2400.0)   # m = 155, t = 15
    orders = (large.wavelength_um / (2.0 * large.grating_period_um),
              large.wavelength_um / large.grating_period_um)
    covered = replace(large, spot_diameter_um=1e5)          # m = n = 2048
    for config, spans, lag in (
            (fit, (FIT_SPAN, None), True),            # 17*309 = 5,253 < 12,012; 105 rows
            (replace(fit, illumination="far"), (FIT_SPAN, None), False),
            (large, ((-0.06, 0.06), orders), False),  # a sweep's: 61*309 = 18,849 > 12,012
            (fit, (None, None), False),               # 512 + 8 band rows > 155
            (covered, (FIT_SPAN, None), True)):       # 403 rows; 43 MiB with U^T
        plan = scenario._support_plan(scenario._plan_key(config), *spans)
        assert plan.lag_band == lag
        assert plan.kept
    # m = n = 4096 over a fit's span passes rules 1 and 2, but U^T and the tables
    # come to 174 MiB; counted, not built
    n, window = 4096, 4800.0
    config = replace(covered, grid_n=n, window_um=window)
    step = config.wavelength_um / window
    first, last = propagation._span_rows(FIT_SPAN, step, n, 0, n - 1)
    reach = propagation._box_kernel(config.resolution_mrad * 1e-3, step).size // 2
    columns = last - first + 1 + 2 * reach
    rows_bytes = 16 * n * columns
    assert 2 * (4 * reach + 1) * (2 * n - 1) < n * n and columns <= n
    tables = propagation._lag_table_bytes(n, columns, reach)
    assert rows_bytes + tables > 170 * 2 ** 20 > propagation.MAX_KEPT_PLAN_BYTES
    assert not propagation._takes_lag_band("near", n, columns, reach, rows_bytes)
    scenario._support_plan.cache_clear()


def test_lag_band_counts_the_plan_as_profiles_for_keeps_it(monkeypatch):
    # rule 3 and profiles_for's cache read the same sum, SupportPlan.kept: a cap
    # one byte under the lag plan leaves the plan on |E Phi^T|**2, and that plan
    # is kept
    config = ScenarioConfig()
    scenario._support_plan.cache_clear()
    profiles_for(config, span=FIT_SPAN)
    plan = _kept_plan(config, FIT_SPAN)
    assert plan.lag_band
    for cap, lag in ((plan.nbytes, True), (plan.nbytes - 1, False)):
        monkeypatch.setattr(propagation, "MAX_KEPT_PLAN_BYTES", cap)
        scenario._support_plan.cache_clear()
        profiles_for(config, span=FIT_SPAN)
        assert scenario._support_plan.cache_info().currsize == 1
        assert _kept_plan(config, FIT_SPAN).lag_band == lag
    scenario._support_plan.cache_clear()


@pytest.mark.parametrize("mode", ["near", "far"])
def test_profiles_for_singles_match_extended_precision_sums(mode):
    # unblurred singles that dip to 3.5e-8 of their peak between the orders (a
    # 200 um spot fills the n = 256 grid, sigma = 200 um), against every
    # |F[p, q]|**2 of the direct double sum in np.clongdouble, summed over q
    config = ScenarioConfig(grid_n=256, window_um=300.0, spot_diameter_um=200.0,
                            resolution_mrad=0.0, illumination=mode)
    singles = profiles_for(config, sigma_um=200.0, channel="singles")[1]
    assert singles.values.min() < 1e-6 * singles.values.max()
    grid = scenario.grid_for(config)
    n = grid.n
    amplitude = scenario.transmission_for(config, grid)
    support = support_of(amplitude)
    line = pair_exponent_line(mode, support.start - n // 2, support.stop - support.start, grid.dx)
    a = (amplitude[support] * np.sqrt(grid.dx)).astype(np.clongdouble)
    pair = a[:, None] * pair_matrix(pair_weight(line, 200.0, grid.dx), mode) * a
    pi = 4 * np.arctan(np.longdouble(1))
    exponents = np.outer(np.arange(n) - n // 2, np.arange(support.start, support.stop) - n // 2)
    dft = np.exp(exponents % n * (-2j * pi / n))
    rates = np.abs(dft @ pair @ dft.T) ** 2 * (grid.dx / (2 * pi)) ** 2 / np.sum(np.abs(pair) ** 2)
    assert rates.dtype == np.longdouble
    want = rates.sum(axis=1) * grid.dk
    np.testing.assert_allclose(singles.values, want.astype(float), rtol=1e-12, atol=0.0)


def test_profiles_for_span_past_the_diagonal_gives_no_rows():
    # a 5-bin separation ends the diagonal at 317.2 mrad; the singles keep
    # the lattice's last rows, from one bin below the span
    config = ScenarioConfig(grid_n=256, window_um=300.0, detector_separation_mrad=13.0)
    diagonal, singles = profiles_for(config, span=(0.326, 0.4))
    assert diagonal.angles.size == diagonal.values.size == 0
    np.testing.assert_allclose(singles.angles, [0.3224, 0.325, 0.3276, 0.3302], rtol=1e-12)
    # a -299 mrad separation (230 bins) starts the diagonal far past the rows
    # of (-330, -320) mrad, alone or with the singles
    config = ScenarioConfig(detector_separation_mrad=-299.0)
    for channel in (None, "coincidences"):
        diagonal = profiles_for(config, span=(-0.33, -0.32), channel=channel)[0]
        assert diagonal.angles.size == diagonal.values.size == 0


@pytest.mark.parametrize("span", [(0.1, -0.1), (float("nan"), 0.1), (0.01,), 0.01,
                                  (0.01, 0.02, 0.03), (0.0, float("nan"))])
def test_profiles_for_rejects_a_reversed_span(span):
    for name in ("span", "diagonal_span"):
        with pytest.raises(ParameterError, match=f"^{name} must be two angles lo <= hi in rad"):
            profiles_for(ScenarioConfig(grid_n=256, window_um=300.0), **{name: span})


def test_profiles_for_at_extreme_lengths_stays_finite():
    # the plan folds sqrt(dx) into U and dx into the outputs' scale, so nothing
    # overflows on the way.  At lengths of 1e-300 the diagonal's factor
    # (dx/(2*pi))**2/T would underflow to 0, and the config names the grid
    # spacing rather than let the plan return an all-zero diagonal
    extreme = dict(grid_n=256, wavelength_nm=1e-300, grating_period_um=1e-299,
                   window_um=1e-298, resolution_mrad=0.0)
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(ParameterError, match=r"window_um is too small for grid_n = 256: "
                                                 r"the grid spacing window_um/grid_n is below"):
            ScenarioConfig(**extreme)
        small = dict(extreme, wavelength_nm=1e-100, grating_period_um=1e-99, window_um=1e-98)
        diagonal, singles = profiles_for(ScenarioConfig(**small))
    for profile in (diagonal, singles):
        assert np.all(np.isfinite(profile.values)) and np.all(profile.values >= 0.0)
    assert diagonal.values.max() > 0.0


@pytest.mark.parametrize("keys,snaps", PROFILE_CONFIGS)
def test_profiles_for_cold_and_warm_plans_agree(keys, snaps):
    # a plan built for this call and one reused after another width
    # give the same arrays, bit for bit
    config = ScenarioConfig(**keys)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BinSnapWarning)
        warnings.simplefilter("ignore", SamplingWarning)
        scenario._support_plan.cache_clear()
        cold = profiles_for(config)
        profiles_for(config, sigma_um=31.0)
        warm = profiles_for(config)
    assert scenario._support_plan.cache_info().misses == 1
    for got, want in zip(warm, cold):
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.angles, want.angles)


def test_profiles_for_plans_once_per_optics_configuration():
    base = ScenarioConfig(grid_n=256, window_um=300.0)     # bins are 2.6 mrad wide
    unplanned = dict(sigma_corr_um=3.0, angle_offset_mrad=1.5, output_prefix="other")
    optics = dict(wavelength_nm=800.0, grating_period_um=30.0, blaze_wavelength_nm=600.0,
                  spot_diameter_um=40.0, illumination="far", resolution_mrad=5.0,
                  detector_separation_mrad=5.2, grid_n=128, window_um=290.0)
    assert sorted({**unplanned, **optics}) == sorted(f.name for f in fields(ScenarioConfig))
    scenario._support_plan.cache_clear()
    profiles_for(base)
    for name, value in unplanned.items():
        profiles_for(replace(base, **{name: value}))
        assert scenario._support_plan.cache_info().misses == 1, name
    for misses, (name, value) in enumerate(optics.items(), start=2):
        profiles_for(replace(base, **{name: value}))
        assert scenario._support_plan.cache_info().misses == misses, name


ONE_CHANNEL_CONFIGS = [dict(), dict(illumination="far"), dict(detector_separation_mrad=4.0),
                       dict(resolution_mrad=0.0), dict(grid_n=2048, window_um=2400.0)]


@pytest.mark.parametrize("span", [None, FIT_SPAN])
@pytest.mark.parametrize("keys", ONE_CHANNEL_CONFIGS)
def test_profiles_for_one_channel_is_that_cut_of_both(keys, span):
    # a fit asks for its scan's channel alone; the cut is the one a call for
    # both returns, bit for bit, and the other is None
    config = ScenarioConfig(**keys)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BinSnapWarning)
        warnings.simplefilter("ignore", SamplingWarning)
        for sigma in np.geomspace(*SIGMA_RANGE, COARSE_POINTS):
            both = profiles_for(config, sigma_um=float(sigma), span=span)
            for index, channel in enumerate(("coincidences", "singles")):
                alone = profiles_for(config, sigma_um=float(sigma), span=span, channel=channel)
                assert alone[1 - index] is None
                assert np.array_equal(alone[index].values, both[index].values), (channel, sigma)
                assert np.array_equal(alone[index].angles, both[index].angles)


def test_profiles_for_rejects_an_unknown_channel():
    with pytest.raises(ParameterError, match="channel must be one of"):
        profiles_for(ScenarioConfig(grid_n=256, window_um=300.0), channel="coincidence")


def test_profiles_for_returns_read_only_arrays():
    for profile in profiles_for(ScenarioConfig(grid_n=256, window_um=300.0)):
        for array in (profile.values, profile.angles):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


def test_profiles_for_warns_and_raises_on_every_call():
    config = ScenarioConfig(grid_n=256, window_um=300.0)
    snapping = replace(config, detector_separation_mrad=4.0)   # 1.54 bins
    profiles_for(config)
    for forward, category in ((lambda: profiles_for(snapping), BinSnapWarning),
                              (lambda: profiles_for(config, sigma_um=0.5), SamplingWarning)):
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                forward()
            assert [(w.category, w.filename) for w in caught] == [(category, __file__)]
    with pytest.raises(ParameterError, match="sigma_um must be positive"):
        profiles_for(config, sigma_um=-1.0)


def _kept_plan(config, span=None):
    """The plan profiles_for kept for config and span, read from its cache without building one."""
    misses = scenario._support_plan.cache_info().misses
    plan = scenario._support_plan(scenario._plan_key(config),
                                  None if span is None else tuple(map(float, span)), None)
    assert scenario._support_plan.cache_info().misses == misses
    return plan


def _plan_bytes(config, span=None):
    """What SupportPlan.kept counts against MAX_KEPT_PLAN_BYTES for config and span."""
    return _kept_plan(config, span).nbytes


@pytest.mark.parametrize("keys", [dict(), dict(illumination="far"),
                                  dict(grid_n=2048, window_um=2400.0)])
def test_profiles_for_equals_the_plan_on_the_unzeroed_weight(keys):
    # pair_weight's zeroed weights, below about 1e-200, change no output bit
    # at any width of a fit's coarse grid
    config = ScenarioConfig(**keys)
    profiles_for(config)
    cuts = _kept_plan(config)
    line = cuts.exponents
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SamplingWarning)
        for sigma in np.geomspace(*SIGMA_RANGE, COARSE_POINTS):
            got = profiles_for(config, sigma_um=float(sigma))
            want = cuts(np.exp(line / (2.0 * sigma ** 2)))
            for got_cut, want_cut in zip(got, want):
                assert np.array_equal(got_cut.values, want_cut.values), sigma


def test_profiles_for_plan_holds_under_two_mib():
    # over a fit's rows at n = 2048 the plan keeps the 2m - 1 pair exponents
    # (8*(2m - 1) bytes, m = 155), the m x |K| array U^T and Phi
    # (16*m*(|K| + 4t + 1) bytes, |K| = 403 rows with t = 15), the
    # (2t + 1) x (4t + 1) shifted kernels, the angles and the kernel
    config = ScenarioConfig(grid_n=2048, window_um=2400.0)
    scenario._support_plan.cache_clear()
    tracemalloc.start()
    try:
        profiles_for(config, span=FIT_SPAN)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    cuts = _kept_plan(config, FIT_SPAN)
    line = cuts.exponents
    rows, reach = cuts._singles_angles.size, cuts._kernel.size // 2
    m = cuts.support.stop - cuts.support.start
    assert line.size == 2 * m - 1
    arrays = (8 * line.size + 16 * m * (rows + 2 * reach + 4 * reach + 1)
              + 8 * (2 * reach + 1) * (4 * reach + 1))
    assert arrays <= _plan_bytes(config, FIT_SPAN) < arrays + 16 * 2 ** 10
    assert held < 2 * 2 ** 20


def test_profiles_for_drops_a_plan_over_the_byte_cap(monkeypatch):
    # one byte over the cap, and the plan serves only the call that built it
    config = ScenarioConfig(grid_n=256, window_um=300.0)
    scenario._support_plan.cache_clear()
    profiles_for(config)
    monkeypatch.setattr(propagation, "MAX_KEPT_PLAN_BYTES", _plan_bytes(config) - 1)
    scenario._support_plan.cache_clear()
    tracemalloc.start()
    try:
        profiles_for(config)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 64 * 2 ** 10
    assert scenario._support_plan.cache_info().currsize == 0


def test_profiles_for_keeps_a_plan_at_the_byte_cap(monkeypatch):
    config = ScenarioConfig(grid_n=256, window_um=300.0)
    scenario._support_plan.cache_clear()
    profiles_for(config)
    monkeypatch.setattr(propagation, "MAX_KEPT_PLAN_BYTES", _plan_bytes(config))
    scenario._support_plan.cache_clear()
    profiles_for(config)
    assert scenario._support_plan.cache_info().currsize == 1


def test_profiles_for_counts_the_row_stack_against_the_byte_cap(monkeypatch):
    # the exponent is the same for every span, and U^T grows with the rows:
    # a cap between a fit's plan and the whole lattice's keeps only the first
    config = ScenarioConfig(grid_n=256, window_um=300.0)
    scenario._support_plan.cache_clear()
    profiles_for(config, span=FIT_SPAN)
    narrow = _plan_bytes(config, FIT_SPAN)
    profiles_for(config)
    assert narrow < _plan_bytes(config)
    monkeypatch.setattr(propagation, "MAX_KEPT_PLAN_BYTES", narrow)
    profiles_for(config, span=FIT_SPAN)
    assert scenario._support_plan.cache_info().currsize == 1
    profiles_for(config)
    assert scenario._support_plan.cache_info().currsize == 0


def _rate_map_peak(config):
    tracemalloc.start()
    try:
        rate_map_for(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rate_map_for_peaks_below_one_and_three_quarter_full_arrays():
    # at the default spot (m = 155 of n = 512) the map peaks at the n x n far field
    # and its magnitudes, 1.5 n x n complex128 arrays (6.0 MiB measured)
    config = ScenarioConfig()
    assert _rate_map_peak(config) < 1.75 * 16 * config.grid_n ** 2


def test_rate_map_for_peaks_below_two_and_a_half_full_arrays():
    # a support that covers the grid (m = n) peaks at the m x n row transforms and
    # the n x n far field, two n x n complex128 arrays (8.0 MiB measured)
    config = ScenarioConfig(spot_diameter_um=250.0)
    amp = scenario.transmission_for(config, scenario.grid_for(config))
    assert support_of(amp) == slice(0, config.grid_n)
    assert _rate_map_peak(config) < 2.5 * 16 * config.grid_n ** 2


def test_profiles_for_whole_grid_support_peaks_below_three_full_arrays():
    # a spot far wider than the window puts the whole grid in the support
    # (m = n = 2048); over a fit's rows one cold call peaks below three n x n
    # complex128 arrays (192 MiB), where rate_map_for peaks at 128 MiB
    config = ScenarioConfig(grid_n=2048, window_um=2400.0, spot_diameter_um=1e5)
    scenario._support_plan.cache_clear()
    tracemalloc.start()
    try:
        profiles_for(config, span=FIT_SPAN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _kept_plan(config, FIT_SPAN).support == slice(0, config.grid_n)
    assert peak < 3 * 16 * config.grid_n ** 2


def test_profiles_for_warm_call_allocates_no_m_by_n_array():
    # a warm call over a fit's rows allocates the weight, its square, V^T and
    # the band, but no m x n array: its peak stays under one complex m x n
    # array (4.84 MiB at m = 155)
    config = ScenarioConfig(grid_n=2048, window_um=2400.0, resolution_mrad=0.0)
    profiles_for(config, span=FIT_SPAN)
    support = _kept_plan(config, FIT_SPAN).support
    m = support.stop - support.start
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        profiles_for(config, sigma_um=31.0, span=FIT_SPAN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 16 * m * config.grid_n


def test_profiles_for_results_outlive_later_calls():
    # every call returns new arrays: a later call at another width leaves an
    # earlier result as it was
    config = ScenarioConfig(grid_n=256, window_um=300.0)
    scenario._support_plan.cache_clear()
    first = profiles_for(config)
    copies = [profile.values.copy() for profile in first]
    later = profiles_for(config, sigma_um=31.0)
    for profile, values, other in zip(first, copies, later):
        assert np.array_equal(profile.values, values)
        assert not np.shares_memory(profile.values, other.values)


def test_profiles_for_plan_after_many_widths_equals_a_fresh_plan():
    config = ScenarioConfig(grid_n=256, window_um=300.0, detector_separation_mrad=7.8,
                            illumination="far")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BinSnapWarning)
        warnings.simplefilter("ignore", SamplingWarning)
        scenario._support_plan.cache_clear()
        for sigma in np.geomspace(0.5, 200.0, 9):
            profiles_for(config, sigma_um=float(sigma))
        warm = profiles_for(config)
        scenario._support_plan.cache_clear()
        fresh = profiles_for(config)
    for got, want in zip(warm, fresh):
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.angles, want.angles)


def test_profiles_for_shares_one_plan_across_threads():
    # threads share one cached plan, whose arrays are read-only: each thread
    # gets what a call on its own would give
    config = ScenarioConfig(grid_n=512, window_um=600.0)
    sigmas = [float(s) for s in np.geomspace(2.0, 120.0, 8)]
    scenario._support_plan.cache_clear()
    serial = [profiles_for(config, sigma_um=s) for s in sigmas]
    with ThreadPoolExecutor(max_workers=4) as pool:
        for _ in range(3):
            threaded = list(pool.map(lambda s: profiles_for(config, sigma_um=s), sigmas))
            for got, want in zip(threaded, serial):
                for got_cut, want_cut in zip(got, want):
                    assert np.array_equal(got_cut.values, want_cut.values)


def test_profiles_for_builds_no_full_grid_array():
    # one n x n complex128 array at n = 2048 is 64 MiB; rate_map_for peaks at
    # 1.5 of them at this spot
    config = ScenarioConfig(grid_n=2048, window_um=2400.0)
    tracemalloc.start()
    try:
        profiles_for(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * config.grid_n ** 2


def test_profiles_for_peak_memory_is_below_four_support_arrays():
    # four n x m complex128 arrays, m the support size (155 at the default spot)
    config = ScenarioConfig(grid_n=2048, window_um=2400.0)
    tracemalloc.start()
    try:
        profiles_for(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    support = _kept_plan(config).support
    assert peak < 4 * config.grid_n * (support.stop - support.start) * 16


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf"), "abc", True])
@pytest.mark.parametrize("forward", [profiles_for])
def test_forward_chain_rejects_bad_sigma_override(forward, sigma):
    # checked before the pair amplitude is built, so no SamplingWarning comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error", SamplingWarning)
        with pytest.raises(ParameterError, match="^sigma_um must be"):
            forward(ScenarioConfig(grid_n=256, window_um=300.0), sigma_um=sigma)


def test_separable_limit_diagonal_is_squared_singles(grid256, amp_spot100_256):
    # weak correlation: the coincidence cut is the squared singles profile
    # up to one global scale; the residual falls off like 1/sigma**2
    deviations = []
    for sigma in (1e4, 1e5):
        f = two_photon_amplitude(amp_spot100_256, sigma, "near", grid256)
        rate_map = coincidence_map(to_far_field(f, grid256), grid256, WAVELENGTH)
        diag = diagonal_profile(rate_map)
        singles = singles_profile(rate_map)
        deviations.append(matched_deviation(singles.values ** 2, diag.values))
    assert deviations[1] <= 1e-6
    assert deviations[0] <= 5e-6
    assert deviations[1] < deviations[0]
