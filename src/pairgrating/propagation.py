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

SupportPlan takes both cuts when P[S_j, S_l] = A_j*g[j, l]*A_l on S x S,
for S the spot's support, m consecutive samples (SupportPlan), and a
real m x m weight g, and P vanishes elsewhere.  It works on the set K of
first-detector rows that cover a caller's angle span, widened by t each
side, with no FFT and no m x n array.  With S'_l = S_l - n/2,
p' = p - n/2, omega = exp(-2*pi*i/n) and a = A*sqrt(dx) on S:

- U[p, l] = W[p, S_l]*a_l for p in K, gathered from the n roots of
  unity at p'*S'_l mod n, so rows past the lattice's ends wrap;
- V = U g, one real product on the interleaved parts of U; row p of
  W P is V[p, l]*a_l, and E = V o U adds the phase W[p, S_l] that row p
  of the second-axis transform puts on column l;
- band: row p + c of W is row p times Phi[c, l] = omega**(c*S'_l), so
  R[p, (p+c) mod n] = |(E Phi^T)[p, c]|**2 for c = s-2t..s+2t, taken
  as re**2 + im**2, on the diagonal's rows widened by t, which may be
  fewer than K (a sweep reads two order positions);
- blurred diagonal: with first-detector offset a - t and second b - t,
  D[i] = sum_a w_a sum_b w_b band[b - a + 2t, i + a].  Row a of one
  (2t+1) x (4t+1) matrix holds w_a*w at columns 2t - a .. 4t - a, so
  one product with the band takes every inner sum, and D adds up the
  product along its skewed diagonals, read as one strided view;
- singles: Parseval along the second axis (S has no repeats) gives
  sum_q R[p, q] = n * sum_l |E[p, l]|**2;
- scale: (dx/(2*pi))**2/T with T = b^T (g o g) b, b = |a|**2, gives P a
  unit square sum; sqrt(dx) in a keeps every product inside the doubles,
  and ScenarioConfig's smallest grid spacing keeps the factor normal.

This is the matrix Fourier transform (Soummer et al., Opt. Express 15,
15935 (2007)) on the rows read, O(|K|*m**2) work in one small product.
Both cuts read E; a caller that needs one cut asks for it alone, and
the plan skips the band and the diagonal, or the Parseval sum and the
singles blur, of the other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BinSnapWarning, warn_caller
from .lattice import TWO_PI, SpatialGrid, angles_of

# SupportPlan leaves out samples where |A| is at most this fraction of its peak: their
# terms sit far below rounding, and its cuts agree with the full map's to ~3e-14 relative.
SUPPORT_FLOOR = 1e-17

# The two cuts a scan or profiles_for may name: the diagonal and the singles.
CHANNELS = ("coincidences", "singles")

# Rows per block of a map's blur: the work of a block is bounded by the block and
# its 2t wrapped rows, which at the default n = 512 fit in a core's L2 cache.
_BLOCK_ROWS = 32


def fourier_1d(values, grid: SpatialGrid) -> np.ndarray:
    """Unitary centered 1D transform: out_m = dx/sqrt(2*pi) * sum_j v_j exp(-i*k_m*x_j).

    Centered ordering in and out, shape (n,) (the oracles check it);
    Parseval holds as sum(|out|**2)*dk = sum(|v|**2)*dx.
    """
    return np.fft.fftshift(np.fft.fft(np.fft.ifftshift(values))) * (grid.dx / np.sqrt(TWO_PI))


def to_far_field(values, grid: SpatialGrid) -> np.ndarray:
    """Transform both coordinates of an n x n joint amplitude over (x_j, x_l).

    Entry (m, p) of the result is the amplitude over (k_m, k_p).  The
    transform is unitary (factor dx**2/(2*pi) on a centered FFT), so
    sum(|out|**2)*dk**2 equals the input's sum(|F|**2)*dx**2; exchange
    symmetry is preserved.
    """
    ft = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(values))) * (grid.dx ** 2 / TWO_PI)
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


def support_of(amplitude) -> slice:
    """The spot's support S of A on the lattice: the first to the last sample where |A|
    exceeds SUPPORT_FLOOR times its peak."""
    magnitude = np.abs(amplitude)
    inside = np.flatnonzero(magnitude > SUPPORT_FLOOR * magnitude.max())
    return slice(int(inside[0]), int(inside[-1]) + 1)


def support_map(amplitude, support: slice, weight, grid: SpatialGrid,
                wavelength: float) -> RateMap:
    """Rate map of the pair A_j*g[j, l]*A_l on support x support, with a unit square sum.

    amplitude is A on the whole lattice, shape (n,), support its
    support_of, and weight the float m x m g on it.  W[p, S_l] is
    omega**(p*l)*(-1)**l, l counted from the start of S, times a unit
    phase of row p, so with Q[j, l] = (-1)**(j + l)*a_j*g[j, l]*a_l the
    map is coincidence_map's R = |fft2(Q, s=(n, n))|**2*(dx/(2*pi))**2/T
    up to rounding (module docstring), with no shift and no n x n pair.
    """
    n = grid.n
    signed = amplitude[support] * np.sqrt(grid.dx)
    power = np.abs(signed) ** 2
    norm = power @ np.square(weight) @ power
    signed[1::2] *= -1
    pair = signed[:, None] * weight
    pair *= signed
    # the m row transforms, then the n column transforms, as fft2(pair, s=(n, n))
    # runs them; each pass's input is dropped when it returns
    pair = np.fft.fft(pair, n, axis=1)
    pair = np.fft.fft(pair, n, axis=0)
    values = np.abs(pair)
    del pair
    np.square(values, out=values)
    values *= (grid.dx / TWO_PI) ** 2 / norm
    values.setflags(write=False)
    return RateMap(grid=grid, angles=angles_of(grid, wavelength), values=values)


def _snap_shift(angles: np.ndarray, separation: float) -> tuple[int, str]:
    """Detector separation in whole angle bins, and the BinSnapWarning text if it had to round.

    The text is empty when the separation is already a whole number of bins.
    """
    bin_width = angles[1] - angles[0]
    # under n - 1/2 bins (ScenarioConfig), which rounds to under n
    shift_exact = float(separation) / float(bin_width)
    shift = round(shift_exact)
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


def blur(obj, width: float):
    """Convolve a RateMap or RateProfile with a unit-sum top-hat of full width `width` rad.

    The values are smoothed separably along every axis, so a map is
    smoothed along both detector axes (each physical detector integrates
    independently).  Total mass is conserved and contrast can only
    decrease.  Returns the same type as the input.
    """
    kernel = _box_kernel(width, obj.angles[1] - obj.angles[0])
    n, reach = obj.angles.size, kernel.size // 2
    # Circular convolution: the discrete far field is periodic, and wrapping
    # conserves total mass exactly for a unit-sum kernel.  With the values
    # wrapped by reach each side, entries 2*reach - i .. 2*reach - i + n - 1
    # along an axis are np.roll(values, i - reach), and sum() adds the taps
    # in kernel order from 0.  A map goes in blocks of rows: a block reads
    # its rows and reach more each side, wrapped, and takes the first axis's
    # taps; then a block, or a profile as one row, wraps its columns and
    # takes the last axis's taps.
    values = obj.values
    rows = values.reshape(-1, n)
    columns = np.arange(-reach, n + reach) % n
    out = np.empty(values.shape, np.result_type(kernel, values))
    out_rows = out.reshape(-1, n)
    for start in range(0, rows.shape[0], _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, rows.shape[0])
        block = rows
        if values.ndim == 2:
            source = rows.take(np.arange(start - reach, stop + reach), axis=0, mode="wrap")
            block = sum(weight * source[2 * reach - i:2 * reach - i + stop - start]
                        for i, weight in enumerate(kernel))
        wrapped = block[:, columns]
        out_rows[start:stop] = sum(weight * wrapped[:, 2 * reach - i:2 * reach - i + n]
                                   for i, weight in enumerate(kernel))
    out.setflags(write=False)
    return replace(obj, values=out)


def _span_rows(span: tuple[float, float] | None, step: float, n: int, low: int,
               high: int) -> tuple[int, int]:
    """First and last lattice rows of the angles span = (lo, hi) in rad at an angular step
    of step, one bin wider each side, clipped to low .. high; all of them for None."""
    lo, hi = (-np.inf, np.inf) if span is None else span
    first = int(np.clip(np.floor(lo / step) + (n // 2 - 1), low, high))
    return first, int(np.clip(np.ceil(hi / step) + (n // 2 + 1), first, high))


class SupportPlan:
    """Blurred diagonal and singles cuts, over a span, of pairs A_j*g[j, l]*A_l on one support.

    amplitude is A on the whole lattice, complex, shape (n,); the support
    S is the slice support, m samples from the first to the last where |A|
    exceeds SUPPORT_FLOOR times its peak.  width is at most half the
    angular window and separation under n - 1/2 bins (ScenarioConfig's
    rules).  The first-detector rows run over span = (lo, hi) in rad with
    lo <= hi (profiles_for's rule), or None for the whole lattice, one
    bin wider each side, clipped.  The diagonal's rows run over
    diagonal_span by the same rule, clipped to span's rows, or over
    span's rows for None: the band and its blur run on those rows alone.
    Called with a float m x m weight g on S, the plan returns those rows
    of diagonal_profile(blur(R, width), separation) and
    blur(singles_profile(R), width), up to rounding, for R the rate map
    of P = A_j*g[j, l]*A_l on S x S with a unit square sum, or the one of
    them that channel, in CHANNELS, names.  The diagonal drops rows whose
    partner leaves the lattice, so it may hold none.  The snap warning,
    if any, is raised on every call.  The plan's arrays (nbytes) are
    read-only, so threads may share a plan.
    """

    def __init__(self, amplitude, grid: SpatialGrid, wavelength: float, width: float,
                 separation: float, span: tuple[float, float] | None,
                 diagonal_span: tuple[float, float] | None = None):
        n = grid.n
        self.support = support_of(amplitude)
        angles = angles_of(grid, wavelength)
        step = wavelength / grid.window
        first, last = _span_rows(span, step, n, 0, n - 1)
        kernel = _box_kernel(width, angles[1] - angles[0])
        shift, self._notice = _snap_shift(angles, separation)
        reach = kernel.size // 2
        # the diagonal keeps the rows of diagonal_span whose partner row + shift is on
        # the lattice
        cut_first, cut_last = _span_rows(diagonal_span, step, n, first, last)
        cut_first = max(cut_first, -shift)
        cut_last = max(min(cut_last, n - 1 - shift), cut_first - 1)

        # U^T[l, p] = W[p, S_l]*a_l for p = first - t .. last + t, and Phi, from
        # the n roots of unity at integer exponents reduced mod n; |p'*S'_l| is
        # below 3*n**2/8 (t < n/4), so int32 holds it up to MAX_GRID_N
        roots = np.exp(np.arange(n) * (-1j * TWO_PI / n))
        columns = np.arange(self.support.start, self.support.stop, dtype=np.int32) - n // 2
        band_rows = np.arange(first - reach, last + reach + 1, dtype=np.int32) - n // 2
        tilde = amplitude[self.support] * np.sqrt(grid.dx)
        exponents = np.outer(columns, band_rows)
        exponents %= n
        rows_t = roots[exponents]
        rows_t *= tilde[:, None]
        shifts = np.arange(shift - 2 * reach, shift + 2 * reach + 1)
        phases = roots[np.outer(shifts, columns) % n]
        # row a holds w_a times the kernel at band rows 2t - a .. 4t - a (__call__)
        blur_rows = kernel[:, None] * sliding_window_view(np.pad(kernel, 2 * reach), 4 * reach + 1)
        power = np.abs(tilde) ** 2
        singles_angles = angles[first:last + 1].copy()
        cut_angles = angles[cut_first:cut_last + 1].copy()
        kept = (kernel, rows_t, phases, blur_rows, power, singles_angles, cut_angles)
        for array in kept:
            array.setflags(write=False)
        self.nbytes = sum(array.nbytes for array in kept)
        self._kernel, self._rows_t, self._phases = kernel, rows_t, phases
        self._blur_rows, self._power = blur_rows, power
        self._singles_angles, self._cut_angles = singles_angles, cut_angles
        # the columns of E^T the band reads: the diagonal's rows, reach more each side
        start = cut_first - first
        self._band_columns = slice(start, start + cut_angles.size + 2 * reach)
        self._dx = grid.dx

    def __call__(self, weight,
                 channel: str | None = None) -> tuple[RateProfile | None, RateProfile | None]:
        """Blurred diagonal and singles rows for the float m x m weight g on the plan's support.

        channel "coincidences" or "singles" computes that cut alone and
        puts None in place of the other; None computes both.  A cut is the
        same, bit for bit, whichever channel asked for it.
        """
        kernel = self._kernel
        if self._notice:
            warn_caller(self._notice, BinSnapWarning)
        power = self._power
        norm = power @ np.square(weight) @ power
        scale = self._dx / TWO_PI

        # V^T = g^T U^T as one real product on the interleaved real and
        # imaginary parts, then E^T = V^T o U^T in place
        v_t = weight.T @ self._rows_t.view(float)
        e_t = v_t.view(complex)
        e_t *= self._rows_t
        diagonal_cut = singles_cut = None
        if channel != "singles":
            # band[c, p] = R[p, p + shifts[c]]/scale as re**2 + im**2 on the diagonal's
            # rows, in blocks: no (4t+1) x |K| complex array
            rows = e_t[:, self._band_columns]
            band = np.empty((self._phases.shape[0], rows.shape[1]))
            for lo in range(0, band.shape[1], 256):
                parts = (self._phases @ rows[:, lo:lo + 256]).view(float)
                np.square(parts, out=parts)
                np.add(parts[:, 0::2], parts[:, 1::2], out=band[:, lo:lo + 256])
            # first-detector offset a - t reads second-detector offsets b - t at
            # band row b - a + 2t: row a of blur_rows @ band is w_a*sum_b w_b*band[...],
            # and the cut sums row a at columns a + i, one skewed read
            blurred = self._blur_rows @ band
            step, cols = blurred.itemsize, blurred.shape[1]
            skewed = np.ndarray((kernel.size, self._cut_angles.size), float, buffer=blurred,
                                strides=(step * (cols + 1), step))
            values = skewed.sum(axis=0)
            values *= scale ** 2 / norm
            values.setflags(write=False)
            diagonal_cut = RateProfile(angles=self._cut_angles, values=values)
        if channel != "coincidences":
            # Parseval along the second detector: row p of R sums to n*sum_l |E[p, l]|**2
            squares = np.square(v_t, out=v_t).sum(axis=0)
            values = np.convolve(squares[0::2] + squares[1::2], kernel, "valid")  # symmetric kernel
            values *= scale / norm
            values.setflags(write=False)
            singles_cut = RateProfile(angles=self._singles_angles, values=values)
        return diagonal_cut, singles_cut
