"""Two-photon amplitude at the grating plane.

Both photons traverse the same grating, so the joint amplitude is the
product of identical single-photon amplitudes weighted by a Gaussian
factor tying their transverse positions together.  two_photon_amplitude
symmetrizes the product under exchange explicitly: for identical scalar
amplitudes that changes only rounding, and it makes F equal F.T bitwise.

Both evaluators and their n x n reference build the weight
G = exp(-(x_j -+ x_l)**2/(2*sigma**2)) one way.  On m consecutive
lattice positions the exponent depends only on x_j - x_l (near) or
x_j + x_l (far), so it takes 2m - 1 distinct values, each at its exact
lattice offset (pair_exponent_line: the spot's support for propagation's
support_map and SupportPlan, the whole grid for two_photon_amplitude,
the reference the tests check them against).  pair_weight applies one
width (the sampling warning and the exponential, with weights below
about 1e-200 set to 0), and pair_matrix reads the m x m weight as a
strided view of the 2m - 1 weights.  The callers check the width and
the grid spacing (scenario).
"""

from __future__ import annotations

import numpy as np

from .errors import SamplingWarning, warn_caller
from .lattice import SpatialGrid

# pair_weight sets weights below exp(WEIGHT_LOG_FLOOR) ~ 1e-200 to exactly 0.  No
# output can tell: a weight under 1e-154 squares to 0 in the norm sum(|F|**2), and
# its products with amplitudes at least 1e-17 of their peak sit more than 150 orders
# below the terms they are added to.  Left in, they reach subnormal doubles in the
# exponential and the matrix products, which run several times slower there.
WEIGHT_LOG_FLOOR = -460.0


def pair_exponent_line(mode: str, first: int, m: int, dx: float) -> np.ndarray:
    """Read-only 2m - 1 exponent numerators -(x_j -+ x_l)**2 on the positions x_j = (first + j)*dx.

    Entry k is the exponent of the pairs with l - j = k - (m - 1) (near)
    or j + l = k (far): -((k - m + 1)*dx)**2 or -((2*first + k)*dx)**2,
    with x_j -+ x_l taken at its exact lattice offset.  pair_matrix
    spreads the values, or any function of them, over the m x m pairs.
    """
    offsets = np.arange(2 * m - 1) + (1 - m if mode == "near" else 2 * first)
    line = -(offsets * dx) ** 2
    line.setflags(write=False)
    return line


def pair_matrix(line, mode: str) -> np.ndarray:
    """Read-only m x m view of 2m - 1 per-pair values laid out as pair_exponent_line's.

    Entry [j, l] is line[m - 1 - j + l] (near) or line[j + l] (far): the
    sliding windows of line, with the rows reversed for near.  No
    m x m array is allocated.
    """
    line = np.ascontiguousarray(line, dtype=float)
    m = (line.size + 1) // 2
    # one strided view over line's buffer, which numpy checks it stays inside;
    # sliding_window_view builds the same view in about ten times as long
    step = line.itemsize
    near = mode == "near"
    view = np.ndarray((m, m), float, buffer=line, offset=step * (m - 1) if near else 0,
                      strides=(-step if near else step, step))
    view.flags.writeable = False
    return view


def pair_weight(exponent, sigma_corr: float, dx: float) -> np.ndarray:
    """New array exp(exponent/(2*sigma_corr**2)), 0 where that is below exp(WEIGHT_LOG_FLOOR).

    2*sigma_corr**2 must be a positive finite double (the callers check
    it); a width below half the grid spacing dx warns as
    two_photon_amplitude does.
    """
    with np.errstate(over="ignore"):  # a subnormal 2*sigma**2 sends far pairs to -inf: weight 0
        scaled = exponent / (2.0 * sigma_corr ** 2)
    scaled[scaled < WEIGHT_LOG_FLOOR] = -np.inf
    weight = np.exp(scaled, out=scaled)
    if sigma_corr < dx / 2.0:
        warn_caller(
            f"correlation width {sigma_corr:.4g} um is below half the grid "
            f"spacing {dx:.4g} um; the pair weight is under-resolved and "
            f"degenerates to its diagonal",
            SamplingWarning)
    return weight


def two_photon_amplitude(amplitude, sigma_corr: float, mode: str,
                         grid: SpatialGrid) -> np.ndarray:
    """Joint amplitude F(x_j, x_l) = A(x_j)*A(x_l)*G(x_j, x_l) on the grid, unit square sum.

    G = exp(-(x_j -+ x_l)**2/(2*sigma_corr**2)) correlates the positions
    in mode "near" (minus: the source plane is imaged onto the grating)
    and anti-correlates them in mode "far" (plus: the source's momentum
    plane sits on the grating); 2*sigma_corr**2 must be a positive finite
    double and dx at least scenario.MIN_GRID_SPACING_UM.  amplitude is A
    on the n points of grid, and F is n x n.  Normalization happens here
    (sum(|F|**2)*dx**2 = 1) so downstream rates stay comparable across
    correlation-width sweeps.  Widths below half the grid spacing dx leave
    the weight matrix effectively diagonal, which is the perfect-correlation
    limit; that is acceptable but flagged with a SamplingWarning.
    """
    n, dx = grid.n, grid.dx
    a = np.asarray(amplitude, dtype=complex)
    product = a[:, None] * a[None, :]
    joint = product + product.T        # exchange symmetrization (module docstring)
    joint *= 0.5
    line = pair_exponent_line(mode, -(n // 2), n, dx)
    joint *= pair_matrix(pair_weight(line, sigma_corr, dx), mode)
    joint /= np.sqrt(np.sum(np.abs(joint) ** 2) * dx ** 2)
    joint.setflags(write=False)
    return joint
