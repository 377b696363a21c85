import numpy as np
import pytest

from pairgrating.lattice import angles_of, make_grid


def test_small_grid_positions():
    grid = make_grid(4, 4.0)
    assert grid.dx == 1.0
    np.testing.assert_array_equal(grid.x, [-2.0, -1.0, 0.0, 1.0])


def test_reference_grid_spacings():
    grid = make_grid(512, 600.0)
    assert grid.dx == 1.171875
    assert grid.dk == 2.0 * np.pi / 600.0


@pytest.mark.parametrize("n,window", [(4, 4.0), (64, 100.0), (512, 600.0)])
def test_grid_invariants(n, window):
    grid = make_grid(n, window)
    assert grid.dx * grid.n == window
    assert grid.x.shape == (n,) and grid.k.shape == (n,)
    assert np.all(np.diff(grid.x) > 0) and np.all(np.diff(grid.k) > 0)
    assert grid.x[n // 2] == 0.0 and grid.k[n // 2] == 0.0
    np.testing.assert_allclose(np.diff(grid.k), 2.0 * np.pi / window, rtol=1e-12)


def test_grid_arrays_read_only():
    grid = make_grid(8, 8.0)
    with pytest.raises(ValueError):
        grid.x[0] = 5.0
    with pytest.raises(ValueError):
        grid.k[0] = 5.0


def test_angle_zero_at_zero_wavevector():
    grid = make_grid(16, 32.0)
    theta = angles_of(grid, 0.78)
    assert theta[8] == 0.0


def test_angle_range_covers_scan():
    grid = make_grid(512, 600.0)
    theta = angles_of(grid, 0.78)
    assert np.abs(theta).max() == pytest.approx(0.78 / (2.0 * grid.dx), rel=1e-12)
    assert np.abs(theta).max() == pytest.approx(0.3328, abs=1e-4)


def test_angle_of_first_grating_order():
    # k = 2*pi/25 rad/um sits exactly on the lattice for a 600 um window
    grid = make_grid(512, 600.0)
    j = 256 + 24
    assert grid.k[j] == pytest.approx(2.0 * np.pi / 25.0, rel=1e-12)
    theta = angles_of(grid, 0.78)
    assert theta[j] == pytest.approx(0.0312, rel=1e-12)


def test_angles_are_odd_in_k():
    grid = make_grid(64, 50.0)
    theta = angles_of(grid, 1.3)
    # theta(-k) = -theta(k) exactly; index 0 has no positive partner on an even grid
    np.testing.assert_array_equal(theta[1:][::-1], -theta[1:])


@pytest.mark.parametrize("n", [4, 16, 64, 512])
def test_index_maps_are_bijective(n):
    grid = make_grid(n, float(n))
    assert np.unique(grid.x).size == n
    assert np.unique(grid.k).size == n
