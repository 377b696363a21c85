"""Independent reference for the uncorrelated end of a sweep.

Uncorrelated pairs give a separable rate map s(i)*s(j), where s is the
closed-form singles profile.  A separable top-hat blur K of that map is
(K*s)(i)*(K*s)(j), so the blurred diagonal is (K*s)**2 and the blurred
singles are proportional to K*s.  The blur here is this benchmark's own:
a circular convolution done as a product of discrete Fourier transforms,
not the library's shifted sums over the 2D map.
"""

from __future__ import annotations

import numpy as np


def top_hat(width: float, bin_width: float) -> np.ndarray:
    """Unit-sum top-hat of full width `width`, centred, with fractional end bins."""
    half = width / (2.0 * bin_width)
    if half <= 0.5:
        return np.ones(1)
    reach = int(np.ceil(half - 0.5))
    offsets = np.arange(-reach, reach + 1)
    weights = np.clip(np.minimum(offsets + 0.5, half) - np.maximum(offsets - 0.5, -half),
                      0.0, None)
    return weights / weights.sum()


def circular_blur(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """out[i] = sum_a kernel[a] * values[(i + a - reach) mod n], with reach = len(kernel)//2."""
    n = values.size
    reach = kernel.size // 2
    taps = np.zeros(n)
    for a, w in enumerate(kernel):
        taps[(reach - a) % n] += w
    return np.fft.irfft(np.fft.rfft(values) * np.fft.rfft(taps), n)


def _sample_near(angles, values, center, half_bin) -> float:
    mask = np.abs(angles - center) <= half_bin
    return float(values[mask].max())


def uncorrelated_summary(angles, singles, width, wavelength, period, window):
    """(blue/red order ratio, singles visibility) of the blurred uncorrelated profiles.

    angles in rad on a uniform lattice, singles the unblurred closed-form
    singles profile, width the top-hat full width in rad, window the
    (low, high) visibility range in rad.
    """
    bin_width = float(angles[1] - angles[0])
    blurred = circular_blur(np.asarray(singles, dtype=float), top_hat(width, bin_width))
    diagonal = blurred ** 2
    blue = _sample_near(angles, diagonal, wavelength / (2.0 * period), 0.5 * bin_width)
    red = _sample_near(angles, diagonal, wavelength / period, 0.5 * bin_width)
    inside = blurred[(angles >= window[0]) & (angles <= window[1])]
    visibility = (inside.max() - inside.min()) / (inside.max() + inside.min())
    return blue / red, float(visibility)
