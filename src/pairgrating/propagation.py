"""Far-field transform of the joint amplitude and rate extraction.

Observation is deep in the Fraunhofer regime, so propagation is a pure
centered unitary Fourier transform (no quadratic phase; only magnitudes
are consumed downstream): F = W P W^T * dx**2/(2*pi) with the centered
DFT matrix W[p, j] = exp(-2*pi*i*(p - n/2)*(j - n/2)/n).  Detector
resolution is a top-hat angular window, the response of a slit
aperture.  Each detector integrates independently over its own
acceptance, so the blur is a circular convolution of the 2D rate map
R = |F|**2 along each detector axis with the unit-sum, symmetric
kernel w of reach t.  The blurred diagonal at a shift of s bins is
D[i] = sum_a sum_b w_a w_b R[(i+a) mod n, (i+s+b) mod n], and the
blurred singles are the 1D blur of the row sums of R.

When P vanishes outside S x S for a set S of m distinct grid samples
(the spot's support), SupportPlan takes both cuts from m x n arrays in
place of n x n ones.  With B the m x m block of P on S,
S'_l = S_l - n/2, p' = p - n/2 and omega = exp(-2*pi*i/n):

- skew: T[l, (S_j + S_l) mod n] = B[j, l] fills an m x n array, each
  row without collisions since S has no repeats;
- one row FFT: G = fft(T, axis=1) gives
  G[l, p' mod n] = C[p, l] * omega**(p'*S'_l), where C = W_S B is the
  first-axis transform (W_S the m columns of W on S) and the phase is
  the one that row p of W puts on column l in the second-axis transform;
- band: shifting that row by c bins adds the phase omega**(c*S'_l), so
  R[p, (p+c) mod n] = |(Phi G)[c, p' mod n]|**2 with
  Phi[c, l] = omega**(c*S'_l), one (4t+1) x m by m x n product for the
  shifts c = s-2t..s+2t that D reads;
- singles: Parseval along the second axis, with |G[l, k]| = |C[p, l]|,
  gives sum_q R[p, q] = n * sum_l |G[l, p' mod n]|**2.

An fftshift of the two small results maps p' mod n back to p, and the
factor (dx**2/(2*pi))**2 is applied once to them.  Every phase of Phi
is taken at its integer exponent reduced mod n, so no precision is lost
to large arguments.

SupportPlan splits this into the part that depends only on S, the grid
and the detectors (the checks, the angles, the kernel, the snapped
shift, the skew index, Phi, the scale factors, a gather table that
stands in for np.roll in both blurs, as it does in blur, and the m x n
work arrays of T and |G|**2) and the part that depends on the pair
block (the skew, the row FFT in place, the band, the cuts and the
blurs).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import BinSnapWarning, ParameterError, warn_caller
from .lattice import TWO_PI, SpatialGrid, angles_of


def fourier_1d(values, grid: SpatialGrid) -> np.ndarray:
    """Unitary centered 1D transform: out_m = dx/sqrt(2*pi) * sum_j v_j exp(-i*k_m*x_j).

    Centered ordering in and out; Parseval holds as
    sum(|out|**2)*dk = sum(|v|**2)*dx.
    """
    v = np.asarray(values)
    if v.shape != (grid.n,):
        raise ParameterError(f"values must have shape ({grid.n},), got {v.shape}")
    return np.fft.fftshift(np.fft.fft(np.fft.ifftshift(v))) * (grid.dx / np.sqrt(TWO_PI))


def to_far_field(values, grid: SpatialGrid) -> np.ndarray:
    """Transform both coordinates of an n x n joint amplitude over (x_j, x_l).

    Entry (m, p) of the result is the amplitude over (k_m, k_p).  The
    transform is unitary (factor dx**2/(2*pi) on a centered FFT), so
    sum(|out|**2)*dk**2 equals the input's sum(|F|**2)*dx**2; exchange
    symmetry is preserved.
    """
    v = np.asarray(values)
    if v.shape != (grid.n, grid.n):
        raise ParameterError(f"values must have shape ({grid.n}, {grid.n}), got {v.shape}")
    # fft2 runs in place on ifftshift's copy, in the dtype fft2 would return
    ft = np.fft.ifftshift(v).astype(np.result_type(v, 1j), copy=False)
    np.fft.fft2(ft, out=ft)
    ft = np.fft.fftshift(ft)
    ft *= grid.dx ** 2 / TWO_PI
    ft.setflags(write=False)
    return ft


@dataclass(frozen=True)
class RateMap:
    """Coincidence rate over detection-angle pairs, symmetric and nonnegative."""

    grid: SpatialGrid
    angles: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class RateProfile:
    """1D rate versus detection angle."""

    angles: np.ndarray
    values: np.ndarray


def coincidence_map(far, grid: SpatialGrid, wavelength: float) -> RateMap:
    """Two-photon count rate |F(k1, k2)|**2 of a far-field amplitude, labeled by angles.

    The wavelength fixes the angle lattice theta = k*wavelength/(2*pi)
    used by cuts and blurring.
    """
    values = np.abs(far) ** 2
    values.setflags(write=False)
    return RateMap(grid=grid, angles=angles_of(grid, wavelength), values=values)


def _snap_shift(angles: np.ndarray, separation: float) -> tuple[int, str]:
    """Detector separation in whole angle bins, and the BinSnapWarning text if it had to round.

    The text is empty when the separation is already a whole number of bins.
    """
    bin_width = angles[1] - angles[0]
    shift_exact = separation / bin_width
    shift = int(round(shift_exact))
    if abs(shift) >= angles.size:
        raise ParameterError(
            f"detector separation {separation:.6g} rad exceeds the angular window")
    if abs(shift_exact - shift) <= 1e-9:
        return shift, ""
    return shift, (f"detector separation {separation:.6g} rad is not a multiple of the "
                   f"{bin_width:.6g} rad angular bin; snapped to {shift} bins")


def _cut_angles(angles: np.ndarray, shift: int) -> np.ndarray:
    """First-detector angles of a cut at `shift` bins; |shift| edge entries drop."""
    n = angles.size
    return (angles[: n - shift] if shift >= 0 else angles[-shift:]).copy()


def diagonal_profile(rate_map: RateMap, separation: float = 0.0) -> RateProfile:
    """Cut with both detectors co-scanned at a fixed angular separation.

    separation snaps to the nearest angle bin (a BinSnapWarning is
    emitted when it is not already a multiple); 0 gives the exact
    diagonal.  The profile is labeled by the first detector's angle, so
    a shift of s bins drops |s| edge entries.
    """
    shift, notice = _snap_shift(rate_map.angles, separation)
    if notice:
        warn_caller(notice, BinSnapWarning)
    values = np.diagonal(rate_map.values, offset=shift).copy()
    return RateProfile(angles=_cut_angles(rate_map.angles, shift), values=values)


def singles_profile(rate_map: RateMap) -> RateProfile:
    """Single-detector rate: marginal over the undetected photon, sum times dk."""
    values = rate_map.values.sum(axis=1) * rate_map.grid.dk
    return RateProfile(angles=rate_map.angles.copy(), values=values)


def _box_kernel(width: float, bin_width: float) -> np.ndarray:
    """Unit-sum top-hat over [-width/2, width/2] with fractional end bins.

    Symmetric for any width, so blurring never shifts peaks; widths at or
    below one bin reduce to the identity kernel.
    """
    half = width / (2.0 * bin_width)
    if half <= 0.5:
        return np.array([1.0])
    reach = int(np.ceil(half - 0.5))
    offsets = np.arange(-reach, reach + 1)
    weights = np.minimum(offsets + 0.5, half) - np.maximum(offsets - 0.5, -half)
    weights = np.clip(weights, 0.0, None)
    return weights / weights.sum()


def _gather_table(reach: int, n: int) -> np.ndarray:
    """Row a lists (i - reach + a) mod n, so v[table[2*reach - a]] is np.roll(v, a - reach)."""
    return (np.arange(n) + np.arange(-reach, reach + 1)[:, None]) % n


def _circular_blur(values: np.ndarray, kernel: np.ndarray, table: np.ndarray,
                   axis: int = 0) -> np.ndarray:
    """Sum of kernel[i]*np.roll(values, i - reach, axis) in kernel order, as a new array."""
    # Circular convolution: the discrete far field is periodic, and wrapping
    # conserves total mass exactly for a unit-sum kernel.
    return sum(weight * np.take(values, table[kernel.size - 1 - i], axis)
               for i, weight in enumerate(kernel))


def _blur_kernel(width: float, angles: np.ndarray) -> np.ndarray:
    """Top-hat kernel for `width` rad on the angle lattice, after checking the width."""
    if not (width >= 0.0) or not np.isfinite(width):
        raise ParameterError(f"blur width must be a nonnegative finite angle, got {width!r}")
    if angles.size < 2:
        raise ParameterError("profile too short to blur")
    if width > (angles[-1] - angles[0]) / 2.0:
        raise ParameterError(
            f"blur width {width:.6g} rad exceeds half the angular window")
    return _box_kernel(width, angles[1] - angles[0])


def blur(obj, width: float):
    """Convolve a RateMap or RateProfile with a unit-sum top-hat of full width `width` rad.

    The values are smoothed separably along every axis, so a map is
    smoothed along both detector axes (each physical detector integrates
    independently).  Total mass is conserved and contrast can only
    decrease.  Returns the same type as the input.
    """
    kernel = _blur_kernel(width, obj.angles)
    table = _gather_table(kernel.size // 2, obj.angles.size)
    values = obj.values
    for axis in range(values.ndim):
        values = _circular_blur(values, kernel, table, axis)
    values.setflags(write=False)
    return replace(obj, values=values)


class SupportPlan:
    """Blurred diagonal and singles cuts of far-field pair amplitudes on one support.

    The support S must be distinct integer grid indices in [0, n), in
    any order; width and separation are checked as by blur and
    diagonal_profile.  Called with the m x m block on S of an n x n pair
    P that vanishes elsewhere, the plan returns diagonal_profile(blur(R,
    width), separation) and blur(singles_profile(R), width) for R =
    coincidence_map(to_far_field(P, grid), grid, wavelength), up to
    rounding, in O(n*m*(log(n) + taps)) time, raising the snap warning,
    if any, on every call.  Construction keeps what every pair on S
    reuses, all read-only: the angles, the kernel, the snapped shift,
    the skew index, Phi, the scale factors and one gather table that
    serves both blurs.  It also allocates two writable m x n work arrays
    (24*m*n bytes) that every call overwrites under a lock the plan
    holds, so calls from several threads are safe but take turns over
    the skew, the row FFT and the band; the returned values are new
    arrays each call.
    """

    def __init__(self, support, grid: SpatialGrid, wavelength: float, width: float,
                 separation: float = 0.0):
        support = np.asarray(support)
        n = grid.n
        if (support.ndim != 1 or support.dtype.kind not in "iu" or not np.all(support >= 0)
                or not np.all(support < n) or np.any(np.diff(np.sort(support)) == 0)):
            raise ParameterError(
                f"support must be distinct integer grid indices in [0, {n}), got {support!r}")
        angles = angles_of(grid, wavelength)
        kernel = _blur_kernel(width, angles)
        shift, self._notice = _snap_shift(angles, separation)
        reach = kernel.size // 2
        m = support.size

        # T[l, (S_j + S_l) mod n] = B[j, l], as one flat index into the m x n array
        skew = np.arange(m) * n + np.add.outer(support, support) % n
        shifts = np.arange(shift - 2 * reach, shift + 2 * reach + 1)
        phases = np.exp(np.outer(shifts, support - n // 2) % n * (-1j * TWO_PI / n))
        table = _gather_table(reach, n)
        cut_angles = _cut_angles(angles, shift)
        for array in (angles, kernel, skew, phases, table, cut_angles):
            array.setflags(write=False)
        self._m, self._reach = m, reach
        self._angles, self._kernel, self._cut_angles = angles, kernel, cut_angles
        self._skew, self._phases, self._table = skew, phases, table
        # the table's columns for the rows of the diagonal that the shift keeps
        self._kept_table = table[:, max(0, -shift):min(n, n - shift)]
        self._scale = (grid.dx ** 2 / TWO_PI) ** 2
        self._singles_scale = n * grid.dk * self._scale
        # work arrays that every call overwrites (24*m*n bytes): the skewed
        # block, transformed in place along its rows, and |rows|**2; the lock
        # lets one call at a time use them
        self._rows = np.empty((m, n), dtype=complex)
        self._magnitude = np.empty((m, n))
        self._lock = threading.Lock()

    def __call__(self, pair) -> tuple[RateProfile, RateProfile]:
        """Blurred diagonal and singles cuts for the m x m pair block on the plan's support."""
        m, reach, kernel = self._m, self._reach, self._kernel
        if np.shape(pair) != (m, m):
            raise ParameterError(
                f"pair must have shape ({m}, {m}) to match the support, got {np.shape(pair)}")
        if self._notice:
            warn_caller(self._notice, BinSnapWarning)

        with self._lock:
            rows = self._rows
            rows.fill(0)
            rows.reshape(-1)[self._skew] = pair
            np.fft.fft(rows, axis=1, out=rows)
            # band[c, p] = R[p, (p + shifts[c]) mod n] / scale
            band = np.fft.fftshift(np.abs(self._phases @ rows) ** 2, axes=1)
            magnitude = np.square(np.abs(rows, out=self._magnitude), out=self._magnitude)
            singles = np.fft.fftshift(np.sum(magnitude, axis=0)) * self._singles_scale

        # first-detector offset a - reach reads second-detector offsets b - reach
        # at band row b - a + 2*reach, rolled by reach - a
        kept = self._kept_table
        diagonal = sum(weight * (kernel @ band[2 * reach - a:4 * reach - a + 1])[kept[a]]
                       for a, weight in enumerate(kernel)) * self._scale
        singles = _circular_blur(singles, kernel, self._table)
        diagonal.setflags(write=False)
        singles.setflags(write=False)
        return (RateProfile(angles=self._cut_angles, values=diagonal),
                RateProfile(angles=self._angles, values=singles))
