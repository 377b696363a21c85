"""Command-line surface: simulate, fit, and sweep workflows.

A thin adapter over the library: every number emitted here is
reproducible by calling the modules directly with the same
configuration.  Emitted rates are normalized to unit peak for plotting
comparability, angles are written in mrad.

Exit codes: 0 success, 2 bad input (a ParameterError), 3 I/O error, 4 fit
did not converge.  Each distinct warning a command raises is printed once to
stderr as `warning: <message>`.
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from .errors import ParameterError, read_number
from .inference import (VISIBILITY_WINDOW, FitResult, fit_sigma, forward_on_angles,
                        load_measurement, od_ratio, unit_peak, visibility)
from .propagation import diagonal_profile, singles_profile
from .scenario import ScenarioConfig, parse_config, profiles_for, rate_map_for

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NOT_CONVERGED = 4


# Every number in the CSV files, 10 significant digits.
_NUMBER = "%.10g"


def _write_csv(path: str, header: str, columns) -> None:
    """Comma-separated columns under a one-line header, 10 significant digits."""
    values = np.column_stack(columns)
    row = ",".join([_NUMBER] * values.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as out:
        out.write(header + "\n")
        out.write(row * values.shape[0] % tuple(values.ravel().tolist()))


def _write_map_csv(path: str, angles_mrad: np.ndarray, rates: np.ndarray) -> None:
    """The n x n map as angle1,angle2,rate rows, angle1 outer, in _write_csv's format.

    Each angle is formatted once, into the labels of a one-map-row
    template, so each map row costs one format call on its n rates and
    no n**2-row array is built.
    """
    labels = [_NUMBER % angle for angle in angles_mrad.tolist()]
    template = "".join(f"%s,{label},{_NUMBER}\n" for label in labels)
    pairs = [None] * (2 * len(labels))
    with open(path, "w", encoding="utf-8") as out:
        out.write("angle1_mrad,angle2_mrad,rate\n")
        for label, row in zip(labels, rates):
            pairs[0::2] = [label] * len(labels)
            pairs[1::2] = row.tolist()
            out.write(template % tuple(pairs))


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
        _write_csv(path, "angle_mrad,rate", [profile.angles * 1e3, unit_peak(profile.values)])

    _write_map_csv(map_path, rmap.angles * 1e3, unit_peak(rmap.values))

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
    # what od_ratio and visibility read; the plan's one-bin margin covers od_ratio's half bin
    span = (min(VISIBILITY_WINDOW[0], config.wavelength_um / (2.0 * config.grating_period_um)),
            max(VISIBILITY_WINDOW[1], config.wavelength_um / config.grating_period_um))
    rows = []
    for sigma in sigmas:  # every row before the first is printed: a bad width prints none
        diagonal, singles = profiles_for(config, sigma_um=sigma, span=span)
        rows.append((sigma, od_ratio(diagonal, config.wavelength_um, config.grating_period_um),
                     visibility(singles, VISIBILITY_WINDOW)))
    for sigma, ratio, vis in rows:
        print(f"sigma = {sigma:10.4g} um   od_ratio = {ratio:10.4g}   "
              f"singles_visibility = {vis:8.4g}")
    path = f"{config.output_prefix}_sweep.csv"
    _write_csv(path, "sigma_um,od_ratio,singles_visibility", np.transpose(rows))
    print(f"wrote {path}")
    return rows


def _parse_sigma_list(text: str) -> list[float]:
    try:
        return [read_number(token) for token in text.split(",") if token.strip()]
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
        except ParameterError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
