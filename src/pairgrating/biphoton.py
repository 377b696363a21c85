"""Two-photon amplitude at the grating plane.

Both photons traverse the same grating, so the joint amplitude is the
product of identical single-photon amplitudes weighted by a Gaussian
factor tying their transverse positions together.  Exchange symmetry of
the pair is automatic for the product of identical scalar amplitudes; a
future extension with two distinct amplitudes would have to symmetrize
explicitly.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, ParameterError, SamplingWarning, warn_caller


def correlation_factor(x1, x2, sigma_corr: float, mode: str):
    """Gaussian pair weight in (0, 1]; broadcasts over array inputs.

    mode "near": exp(-(x1 - x2)**2/(2*sigma_corr**2)), positions
    correlated (the pair source plane is imaged onto the grating).
    mode "far": exp(-(x1 + x2)**2/(2*sigma_corr**2)), positions
    anti-correlated (the source's momentum plane sits on the grating).
    sigma_corr must be positive and finite; the uncorrelated and
    perfectly correlated limits are reached asymptotically, not by
    special values.
    """
    if not np.isfinite(sigma_corr) or not (sigma_corr > 0.0):
        raise ParameterError(
            f"correlation width must be positive and finite, got {sigma_corr!r}")
    if mode not in ("near", "far"):
        raise ParameterError(f"correlation mode must be 'near' or 'far', got {mode!r}")
    s = np.asarray(x1, dtype=float) - x2 if mode == "near" else np.asarray(x1, dtype=float) + x2
    return np.exp(-np.square(s) / (2.0 * sigma_corr ** 2))


def two_photon_amplitude(amplitude, sigma_corr: float, mode: str, x,
                         dx: float) -> np.ndarray:
    """Joint amplitude F(x_j, x_l) = A(x_j)*A(x_l)*G(x_j, x_l) at positions x, unit square sum.

    G is correlation_factor(x_j, x_l, sigma_corr, mode).  x is the whole
    grid or any subset of it outside which A vanishes (the spot's
    support); F is then len(x) x len(x).  Normalization happens here
    (sum(|F|**2)*dx**2 = 1) so downstream rates stay comparable across
    correlation-width sweeps.  Widths below half the grid spacing dx
    leave the weight matrix effectively diagonal, which is the
    perfect-correlation limit; that is acceptable but flagged with a
    SamplingWarning.
    """
    a = np.asarray(amplitude, dtype=complex)
    x = np.asarray(x, dtype=float)
    if a.ndim != 1 or a.shape != x.shape:
        raise ParameterError(
            f"amplitude must have shape {x.shape} to match the positions, got {a.shape}")
    product = a[:, None] * a[None, :]
    # explicit exchange symmetrization: a rounding-level no-op for identical
    # amplitudes, but it pins F == F.T bitwise
    joint = 0.5 * (product + product.T)
    joint *= correlation_factor(x[:, None], x[None, :], sigma_corr, mode)
    # after the weight, which checks sigma_corr, so a bad width raises unwarned
    if sigma_corr < dx / 2.0:
        warn_caller(
            f"correlation width {sigma_corr:.4g} um is below half the grid "
            f"spacing {dx:.4g} um; the pair weight is under-resolved and "
            f"degenerates to its diagonal",
            SamplingWarning)
    total = np.sum(np.abs(joint) ** 2) * dx ** 2
    if total == 0.0:
        raise DegenerateInputError("joint amplitude is identically zero")
    joint /= np.sqrt(total)
    joint.setflags(write=False)
    return joint
