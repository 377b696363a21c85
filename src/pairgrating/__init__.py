"""Far-field diffraction of spatially correlated photon pairs at a blazed grating.

Simulates single- and two-photon count-rate distributions behind a
blazed phase grating for photon pairs with a Gaussian position
correlation, provides closed-form limiting cases as oracles, and fits
the correlation width to measured angular scans.
"""

from . import errors
from .biphoton import two_photon_amplitude
from .inference import (FitResult, Measurement, fit_sigma, forward_on_angles,
                        load_measurement, od_ratio, visibility)
from .lattice import SpatialGrid, angles_of, make_grid
from .limits import LimitProfiles, delta_correlated_profiles, uncorrelated_profiles
from .optics import blaze_phase, order_efficiency, transmission
from .propagation import (RateMap, RateProfile, blur, coincidence_map,
                          diagonal_profile, fourier_1d, singles_profile,
                          to_far_field)
from .scenario import ScenarioConfig, parse_config, profiles_for, rate_map_for

__version__ = "0.1.0"

__all__ = [
    "FitResult",
    "LimitProfiles",
    "Measurement",
    "RateMap",
    "RateProfile",
    "ScenarioConfig",
    "SpatialGrid",
    "angles_of",
    "blaze_phase",
    "blur",
    "coincidence_map",
    "delta_correlated_profiles",
    "diagonal_profile",
    "errors",
    "fit_sigma",
    "forward_on_angles",
    "fourier_1d",
    "load_measurement",
    "make_grid",
    "od_ratio",
    "order_efficiency",
    "parse_config",
    "profiles_for",
    "rate_map_for",
    "singles_profile",
    "to_far_field",
    "transmission",
    "two_photon_amplitude",
    "uncorrelated_profiles",
    "visibility",
]
