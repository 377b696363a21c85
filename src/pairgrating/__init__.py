"""Far-field diffraction of spatially correlated photon pairs at a blazed grating.

Simulates single- and two-photon count-rate distributions behind a
blazed phase grating for photon pairs with a Gaussian position
correlation, provides closed-form limiting cases as oracles, and fits
the correlation width to measured angular scans.

__all__ is the input boundary, which checks every input.  The stage modules
(lattice, optics, biphoton, propagation) trust their package callers.
"""

from . import errors
from .inference import (FitResult, Measurement, fit_sigma, forward_on_angles,
                        load_measurement, od_ratio, visibility)
from .limits import LimitProfiles, delta_correlated_profiles, uncorrelated_profiles
from .optics import order_efficiency
from .propagation import RateMap, RateProfile
from .scenario import ScenarioConfig, parse_config, profiles_for, rate_map_for

__version__ = "0.1.0"

__all__ = [
    "FitResult",
    "LimitProfiles",
    "Measurement",
    "RateMap",
    "RateProfile",
    "ScenarioConfig",
    "delta_correlated_profiles",
    "errors",
    "fit_sigma",
    "forward_on_angles",
    "load_measurement",
    "od_ratio",
    "order_efficiency",
    "parse_config",
    "profiles_for",
    "rate_map_for",
    "uncorrelated_profiles",
    "visibility",
]
