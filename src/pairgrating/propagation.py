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
for S the spot's support, m consecutive samples (SupportPlan), and the
pair weight g[j, l] = w[m - 1 - j + l] (near) or w[j + l] (far) of 2m - 1
real weights w (biphoton.pair_matrix), and P vanishes elsewhere.  It
works on the set K of first-detector rows that cover a caller's angle
span, widened by t each side, and the band's rows Kd+: the diagonal's
rows Kd, widened by t, which may be fewer than K (a sweep reads two
order positions).  With S'_l = S_l - n/2, p' = p - n/2,
omega = exp(-2*pi*i/n) and a = A*sqrt(dx) on S:

- U[p, l] = W[p, S_l]*a_l for p in K, gathered from the n roots of
  unity at p'*S'_l mod n, so rows past the lattice's ends wrap;
- V = U g, one real product on the interleaved parts of U; row p of
  W P is V[p, l]*a_l, and E = V o U adds the phase W[p, S_l] that row p
  of the second-axis transform puts on column l;
- product band: row p + c of W is row p times Phi[c, l] =
  omega**(c*S'_l), so R[p, (p+c) mod n] = |(E Phi^T)[p, c]|**2 for
  c = s-2t..s+2t, taken as re**2 + im**2, on the rows Kd+;
- lag band (near mode): F[p, p+c] =
  sum_jl omega**(p'*S'_j + (p'+c)*S'_l)*a_j*g[j, l]*a_l is linear in w.
  With d = l - j, F[p, p+c] = sum_d w_d*omega**((p'+c)*d)*C[d, 2p'+c],
  where C[d, f] = sum_j omega**(f*S'_j)*a_j*a_(j+d) and C[-d, f] =
  omega**(f*d)*C[d, f].  Split c = 2*c2 + r and set u = p' + c2 and
  T_r[d, u] = omega**(u*d)*C[d, 2u + r] for d = 0 .. m - 1; then
  F[p, p+c] = sum_d (w_d*omega**((c2+r)*d) + w_(-d)*omega**(-c2*d))*T_r[d, u],
  the w_(-d) term for d > 0 only: one complex product per parity r of
  the weighted row phases with T_r, whose entry [c2, u] is read at
  u = p' + c2, a row shifted by one column per c2, as one strided view.
  C[d, .] is the n-point FFT of a_j*a_(j+d), built lag by lag in
  blocks.  The tables T_r and their row phases do not depend on w and
  are built once per plan; a call for the coincidences alone skips U,
  V and E.  Far mode (k = j + l) is linear in w too,
  F[p, p+c] = sum_k w_k*omega**(p'*(2*S'_0 + k))*Q[k, c] with
  Q[k, c] = sum_(j+l=k) omega**(c*S'_l)*a_j*a_l, but far plans keep the
  product band: no far workload measures that form, and on a support
  that covers the grid its error measured ten times the product band's;
- blurred diagonal: with first-detector offset a - t and second b - t,
  D[i] = sum_a w_a sum_b w_b band[b - a + 2t, i + a].  Row a of one
  (2t+1) x (4t+1) matrix holds w_a*w at columns 2t - a .. 4t - a, so
  one product with the band takes every inner sum, and D adds up the
  product along its skewed diagonals, read as one strided view;
- singles: Parseval along the second axis (S has no repeats) gives
  sum_q R[p, q] = n * sum_l |E[p, l]|**2;
- scale: (dx/(2*pi))**2/T with T = b^T (g o g) b = sum_k w_k**2*c_k,
  b = |a|**2, gives P a unit square sum, where c is b's autocorrelation
  (near) or self-convolution (far), built once per plan or map: every
  plan and support_map compute T this one way, so the singles of either
  band are the same bits.  sqrt(dx) in a keeps every product inside the
  doubles, and ScenarioConfig's smallest grid spacing keeps the factor
  normal.

This is the matrix Fourier transform (Soummer et al., Opt. Express 15,
15935 (2007)) on the rows read, O(|K|*m**2) work in one small product
for V, and O((4t+1)*m*|Kd+|) for the lag band.  A near plan takes the
lag band when its geometry, never the channel, meets three rules, so a
cut is the same bits whichever channel asks for it:

1. (4t+1)*(2m-1) < m**2/2.  A band over all 2m - 1 lags costs
   (4t+1)*(2m-1) complex products per band row, 4 real ones each, which
   this keeps under the 2*m**2 real products of V's row.  Folding
   w_(-d) onto w_d halves the lag band, a margin of two.  A plan that
   pays V for its singles anyway (a sweep at n = 2048, t = 15) stays on
   the product band, where the lag band measured slower;
2. |Kd+| = |Kd| + 2t <= m: the tables stay the size of the support, and
   a whole-lattice plan at the default spot keeps U alone;
3. the plan with its tables would be kept: its nbytes with them is at
   most MAX_KEPT_PLAN_BYTES, the one sum kept reads, because a plan that
   is not kept would rebuild its tables on every call.  The tables hold
   16*m*(2*(|Kd+| - 1) + 3*(4t+1)) bytes (one parity at t = 0:
   16*m*(|Kd+| + 2)).

Both cuts read E on the product band; a caller that needs one cut asks
for it alone, and the plan skips the band and the diagonal, or the
Parseval sum and the singles blur, of the other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .biphoton import pair_exponent_line, pair_matrix, pair_weight
from .errors import BinSnapWarning, warn_caller
from .lattice import TWO_PI, SpatialGrid, angles_of

# SupportPlan leaves out samples where |A| is at most this fraction of its peak: their
# terms sit far below rounding, and its cuts agree with the full map's to ~3e-14 relative.
SUPPORT_FLOOR = 1e-17

# The two cuts a scan or profiles_for may name: the diagonal and the singles.
CHANNELS = ("coincidences", "singles")

# A SupportPlan is kept while its nbytes (the 2m - 1 pair exponents, U^T, the band's
# tables, the shifted kernels and O(m + |K|)) fit in this; a plan takes the lag band
# only while that same sum with the lag tables does (rule 3 above).
MAX_KEPT_PLAN_BYTES = 64 * 2 ** 20

# Complex entries per block of a lag table's build: 256 KiB work arrays, which keep a fit's
# peak resident memory within 0.4 MB of the product band's at n = 512.
_LAG_BLOCK_ELEMENTS = 2 ** 14

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


def support_map(amplitude, sigma_corr: float, mode: str, grid: SpatialGrid,
                wavelength: float) -> RateMap:
    """Rate map of the pair A_j*g[j, l]*A_l on S x S, with a unit square sum.

    amplitude is A on the whole lattice, shape (n,), and S its support_of;
    g is biphoton.pair_weight at sigma_corr on S's 2m - 1 pair exponents,
    laid out for mode as SupportPlan's.  W[p, S_l] is omega**(p*l)*(-1)**l,
    l counted from the start of S, times a unit phase of row p, so with
    Q[j, l] = (-1)**(j + l)*a_j*g[j, l]*a_l the map is coincidence_map's
    R = |fft2(Q, s=(n, n))|**2*(dx/(2*pi))**2/T up to rounding (module
    docstring), with no shift and no n x n pair.
    """
    n, support = grid.n, support_of(amplitude)
    line = pair_exponent_line(mode, support.start - n // 2, support.stop - support.start, grid.dx)
    weights = pair_weight(line, sigma_corr, grid.dx)
    signed = amplitude[support] * np.sqrt(grid.dx)
    norm = np.square(weights) @ _norm_lags(np.abs(signed) ** 2, mode)
    weight = pair_matrix(weights, mode)
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


def _norm_lags(power: np.ndarray, mode: str) -> np.ndarray:
    """c of the norm T = sum_k w_k**2*c_k over the 2m - 1 pair weights w, laid out as
    pair_exponent_line's: b's autocorrelation (near) or self-convolution (far), for
    b = power, as direct sums."""
    return np.correlate(power, power, "full") if mode == "near" else np.convolve(power, power)


def _lag_table_bytes(m: int, columns: int, reach: int) -> int:
    """Bytes of the lag tables on m support samples for a band of columns rows and a
    blur of reach t: each parity's T_r and its two row phases."""
    shifts = 4 * reach + 1
    return 16 * m * (min(2, shifts) * (columns - 1) + 3 * shifts)


def _takes_lag_band(mode: str, m: int, columns: int, reach: int, other_bytes: int) -> bool:
    """Whether a plan on m support samples takes its band of columns rows from the lag
    tables, other_bytes being what it keeps besides them: near mode and the three
    rules of the module docstring, the third on the sum SupportPlan.kept reads."""
    shifts = 4 * reach + 1
    kept = other_bytes + _lag_table_bytes(m, columns, reach)
    return (mode == "near" and 2 * shifts * (2 * m - 1) < m * m and columns <= m
            and kept <= MAX_KEPT_PLAN_BYTES)


def _lag_parts(tilde, start: int, shifts, band_start: int, columns: int, roots) -> list:
    """The lag band's parts (band rows, row phases, T_r), one per parity r of the shifts.

    tilde is a on S, start is S'_0, shifts the 4t + 1 band shifts c and
    band_start the first band row's p'.  T_r[d, u] = omega**(u*d)*C[d, 2u + r]
    for the lags d = 0 .. m - 1, with C[d, f] = sum_j omega**(f*S'_j)*a_j*a_(j+d)
    taken as the n-point FFT of a_j*a_(j+d), lag by lag in blocks, times the
    phase of S'_0.  The row phases are omega**((c2 + r)*d) for w_d and
    omega**(-c2*d) for w_(-d), 0 at d = 0.
    """
    m, n = tilde.size, roots.size
    lags = np.arange(m)
    parts, reads = [], []
    for offset in range(min(2, shifts.size)):
        parity = int(shifts[offset]) % 2
        halves = (shifts[offset::2] - parity) // 2
        u = np.arange(band_start + halves[0], band_start + columns + halves[-1])
        phases = roots[np.stack((halves + parity, -halves))[:, :, None] * lags % n]
        phases[1, :, 0] = 0.0
        parts.append((slice(offset, None, 2), phases, np.empty((m, u.size), complex)))
        reads.append((u, 2 * u + parity))
    # windows[d][j] = a_(j+d), 0 past the support
    windows = sliding_window_view(np.concatenate((tilde, np.zeros(m, complex))), m)
    block = max(1, _LAG_BLOCK_ELEMENTS // n)
    for lo in range(0, m, block):
        d = lags[lo:lo + block]
        spectra = np.fft.fft(windows[d] * tilde, n, axis=1)
        for (_, _, table), (u, f) in zip(parts, reads):
            table[d] = spectra[:, f % n] * roots[(np.outer(d, u) + f * start) % n]
    return parts


class SupportPlan:
    """Blurred diagonal and singles cuts, over a span, of pairs A_j*g[j, l]*A_l on one support.

    amplitude is A on the whole lattice, complex, shape (n,); the support
    S is the slice support, m samples from the first to the last where |A|
    exceeds SUPPORT_FLOOR times its peak.  mode, "near" or "far", lays
    out the 2m - 1 pair exponents on S (exponents) as
    biphoton.pair_exponent_line does, and weights(sigma_corr) is
    biphoton.pair_weight on them.  width is at
    most half the angular window and separation under n - 1/2 bins
    (ScenarioConfig's rules).  The first-detector rows run over span =
    (lo, hi) in rad with lo <= hi (profiles_for's rule), or None for the
    whole lattice, one bin wider each side, clipped.  The diagonal's rows
    run over diagonal_span by the same rule, clipped to span's rows, or
    over span's rows for None: the band and its blur run on those rows
    alone.  Called with the 2m - 1 float pair weights w on S, the plan
    returns those rows of diagonal_profile(blur(R, width), separation)
    and blur(singles_profile(R), width), up to rounding, for R the rate
    map of P = A_j*biphoton.pair_matrix(w, mode)[j, l]*A_l on S x S with a
    unit square sum, or the one of them that channel, in CHANNELS, names.
    The diagonal drops rows whose partner leaves the lattice, so it may
    hold none.  The plan takes the band from the lag tables or from
    E Phi^T by its mode and geometry alone (lag_band, module docstring).
    The snap warning, if any, is raised on every call.  The plan's arrays
    (nbytes) are read-only, so threads may share a plan; kept says whether
    they fit in MAX_KEPT_PLAN_BYTES.
    """

    def __init__(self, amplitude, mode: str, grid: SpatialGrid, wavelength: float, width: float,
                 separation: float, span: tuple[float, float] | None,
                 diagonal_span: tuple[float, float] | None):
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

        # U^T[l, p] = W[p, S_l]*a_l for p = first - t .. last + t, and the phases,
        # from the n roots of unity at integer exponents reduced mod n; |p'*S'_l| is
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
        # row a holds w_a times the kernel at band rows 2t - a .. 4t - a (__call__)
        blur_rows = kernel[:, None] * sliding_window_view(np.pad(kernel, 2 * reach), 4 * reach + 1)
        norm_lags = _norm_lags(np.abs(tilde) ** 2, mode)
        self.exponents = pair_exponent_line(mode, int(columns[0]), columns.size, grid.dx)
        singles_angles = angles[first:last + 1].copy()
        cut_angles = angles[cut_first:cut_last + 1].copy()
        # the band's columns: the diagonal's rows, reach more each side
        band_width = cut_angles.size + 2 * reach
        kept = [self.exponents, kernel, rows_t, blur_rows, norm_lags, singles_angles, cut_angles]
        self.lag_band = _takes_lag_band(mode, tilde.size, band_width, reach,
                                        sum(array.nbytes for array in kept))
        if self.lag_band:
            self._lag_parts = _lag_parts(tilde, int(columns[0]), shifts,
                                         cut_first - reach - n // 2, band_width, roots)
            kept += [array for part in self._lag_parts for array in part[1:]]
        else:
            self._phases = roots[np.outer(shifts, columns) % n]
            kept.append(self._phases)
        for array in kept:
            array.setflags(write=False)
        self.nbytes = sum(array.nbytes for array in kept)
        self.kept = self.nbytes <= MAX_KEPT_PLAN_BYTES
        self._mode, self._kernel, self._rows_t = mode, kernel, rows_t
        self._blur_rows, self._norm_lags = blur_rows, norm_lags
        self._singles_angles, self._cut_angles = singles_angles, cut_angles
        start = cut_first - first
        self._band_width, self._band_columns = band_width, slice(start, start + band_width)
        self._dx = grid.dx

    def weights(self, sigma_corr: float) -> np.ndarray:
        """The 2m - 1 pair weights at sigma_corr: biphoton.pair_weight on exponents."""
        return pair_weight(self.exponents, sigma_corr, self._dx)

    def __call__(self, weights,
                 channel: str | None = None) -> tuple[RateProfile | None, RateProfile | None]:
        """Blurred diagonal and singles rows for the 2m - 1 float pair weights on the support.

        channel "coincidences" or "singles" computes that cut alone and
        puts None in place of the other; None computes both.  A cut is the
        same, bit for bit, whichever channel asked for it.
        """
        kernel = self._kernel
        if self._notice:
            warn_caller(self._notice, BinSnapWarning)
        norm = np.square(weights) @ self._norm_lags
        scale = self._dx / TWO_PI

        diagonal_cut = singles_cut = None
        if channel != "coincidences" or not self.lag_band:
            # V^T = g^T U^T as one real product on the interleaved real and
            # imaginary parts, then E^T = V^T o U^T in place
            v_t = pair_matrix(weights, self._mode).T @ self._rows_t.view(float)
            e_t = v_t.view(complex)
            e_t *= self._rows_t
        if channel != "singles":
            band = self._lag_band(weights) if self.lag_band else self._product_band(e_t)
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

    def _product_band(self, e_t) -> np.ndarray:
        """band[c, p] = R[p, p + shifts[c]]/scale**2 as |E Phi^T|**2 on the band's rows."""
        # re**2 + im**2 in blocks: no (4t+1) x |K| complex array
        rows = e_t[:, self._band_columns]
        band = np.empty((self._phases.shape[0], rows.shape[1]))
        for lo in range(0, band.shape[1], 256):
            parts = (self._phases @ rows[:, lo:lo + 256]).view(float)
            np.square(parts, out=parts)
            np.add(parts[:, 0::2], parts[:, 1::2], out=band[:, lo:lo + 256])
        return band

    def _lag_band(self, weights) -> np.ndarray:
        """The same band from the lag tables: one complex product per parity, read along
        its rows shifted by one column each (module docstring)."""
        band = np.empty((self._blur_rows.shape[1], self._band_width))
        m = self._rows_t.shape[0]
        for rows, phases, table in self._lag_parts:
            # w_d and w_(-d) on the lags d = 0 .. m - 1
            left = phases[0] * weights[m - 1:]
            left += phases[1] * weights[m - 1::-1]
            parts = (left @ table).view(float)
            np.square(parts, out=parts)
            squares = parts[:, 0::2] + parts[:, 1::2]
            step = squares.itemsize
            band[rows] = np.ndarray((squares.shape[0], band.shape[1]), float, buffer=squares,
                                    strides=(step * (squares.shape[1] + 1), step))
        return band
