"""Command-line surface: simulate, fit, and sweep workflows.

A thin adapter over the library: every number emitted here is
reproducible by calling the modules directly with the same
configuration.  Emitted rates are normalized to unit peak for plotting
comparability, angles are written in mrad.

Exit codes: 0 success, 2 config or parse error, 3 I/O error, 4 fit did
not converge.  Each distinct warning a command raises is printed once to
stderr as `warning: <message>`.
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from .biphoton import correlation_factor
from .errors import ConfigError, MeasurementFormatError, ParameterError
from .inference import (VISIBILITY_WINDOW, FitResult, fit_sigma, forward_on_angles,
                        load_measurement, od_ratio, visibility)
from .propagation import diagonal_profile, singles_profile
from .scenario import ScenarioConfig, parse_config, profiles_for, rate_map_for

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NOT_CONVERGED = 4


def _unit_peak(values: np.ndarray) -> np.ndarray:
    peak = values.max()
    return values / peak if peak > 0.0 else values


def _write_csv(path: str, header: str, columns) -> None:
    """Comma-separated columns under a one-line header, 10 significant digits."""
    np.savetxt(path, np.column_stack(columns), delimiter=",", header=header, comments="",
               fmt="%.10g")


def run_simulate(config: ScenarioConfig) -> list[str]:
    """Run the forward model and write diagonal, singles, and map CSV files."""
    rmap = rate_map_for(config)
    diagonal = diagonal_profile(rmap, config.detector_separation_mrad * 1e-3)
    singles = singles_profile(rmap)

    prefix = config.output_prefix
    diagonal_path = f"{prefix}_diagonal.csv"
    singles_path = f"{prefix}_singles.csv"
    map_path = f"{prefix}_map.csv"

    for path, profile in ((diagonal_path, diagonal), (singles_path, singles)):
        _write_csv(path, "angle_mrad,rate", [profile.angles * 1e3, _unit_peak(profile.values)])

    angles_mrad = rmap.angles * 1e3
    _write_csv(map_path, "angle1_mrad,angle2_mrad,rate",
               [np.repeat(angles_mrad, angles_mrad.size), np.tile(angles_mrad, angles_mrad.size),
                _unit_peak(rmap.values).ravel()])

    for path in (diagonal_path, singles_path, map_path):
        print(f"wrote {path}")
    return [diagonal_path, singles_path, map_path]


def run_fit(config: ScenarioConfig, data_path: str) -> FitResult:
    """Fit the correlation width to a measured scan and report the result."""
    measurement = load_measurement(data_path)
    result = fit_sigma(measurement, config)
    print(f"converged        = {result.converged}")
    print(f"sigma_corr_um    = {result.sigma_corr:.6g}")
    print(f"scale            = {result.scale:.6g}")
    print(f"background       = {result.background:.6g}")
    print(f"residual_sse     = {result.residual_sse:.6g}")
    print(f"n_evaluations    = {result.n_evaluations}")
    if not result.converged:
        print(f"diagnostics      = {result.message}")
        return result
    model = forward_on_angles(config, result.sigma_corr, measurement.angles,
                              channel=measurement.channel)
    curve = result.scale * model + result.background
    path = f"{config.output_prefix}_fitcurve.csv"
    _write_csv(path, "angle_mrad,rate", [measurement.angles * 1e3, curve])
    print(f"wrote {path}")
    return result


def run_sweep(config: ScenarioConfig, sigmas: list[float]) -> list[tuple[float, float, float]]:
    """Tabulate order ratio and singles visibility over correlation widths."""
    if not sigmas:
        raise ParameterError("no correlation widths given")
    for sigma in sigmas:  # reject a bad width before the first row is computed
        correlation_factor(0.0, 0.0, sigma, config.illumination)
    rows = []
    for sigma in sigmas:
        diagonal, singles = profiles_for(config, sigma_um=sigma)
        ratio = od_ratio(diagonal, config.wavelength_um, config.grating_period_um)
        vis = visibility(singles, VISIBILITY_WINDOW)
        rows.append((sigma, ratio, vis))
        print(f"sigma = {sigma:10.4g} um   od_ratio = {ratio:10.4g}   "
              f"singles_visibility = {vis:8.4g}")
    path = f"{config.output_prefix}_sweep.csv"
    _write_csv(path, "sigma_um,od_ratio,singles_visibility", np.transpose(rows))
    print(f"wrote {path}")
    return rows


def _parse_sigma_list(text: str) -> list[float]:
    try:
        return [float(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise ParameterError(f"could not parse width list {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairgrating",
        description="Simulate photon-pair diffraction at a blazed grating and fit "
                    "correlation widths to measured angular scans.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the forward model and write rate CSV files")
    p_sim.add_argument("config", help="key=value scenario config file")

    p_fit = sub.add_parser("fit", help="fit the correlation width to a measured scan")
    p_fit.add_argument("config", help="key=value scenario config file")
    p_fit.add_argument("data", help="measurement CSV (angle_mrad,rate[,rate_err])")

    p_sweep = sub.add_parser("sweep", help="tabulate order ratio and visibility over widths")
    p_sweep.add_argument("config", help="key=value scenario config file")
    p_sweep.add_argument("sigmas", help="comma-separated correlation widths in um")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    shown: set[str] = set()

    def show_once(message, *_) -> None:
        # one command may raise the same warning in every forward evaluation,
        # and the line it names is no use to a command-line user
        if str(message) not in shown:
            shown.add(str(message))
            print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show_once
        try:
            config = parse_config(args.config)
            if args.command == "simulate":
                run_simulate(config)
                return EXIT_OK
            if args.command == "fit":
                result = run_fit(config, args.data)
                return EXIT_OK if result.converged else EXIT_NOT_CONVERGED
            if args.command == "sweep":
                run_sweep(config, _parse_sigma_list(args.sigmas))
                return EXIT_OK
        except (ConfigError, MeasurementFormatError, ParameterError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
