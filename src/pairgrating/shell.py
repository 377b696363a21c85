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
from .scenario import ScenarioConfig, _check_width, parse_config, profiles_for, rate_map_for

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


# A value v in (0, 1) whose decimal exponent e, after rounding to 10 digits, is -99 .. -1 is
# written by _format_rates from those digits, D = round(v * 10**(9 - e)), as five
# little-endian uint32 words, with nulls where %.10g has no character:
#   word 0 and byte 0 of word 1: "0." and -e - 1 zeros (e >= -4 only);
#   the rest of word 1: D's first digit, "." (e <= -5, when a digit follows), D's second;
#   words 2 and 3: D's last eight digits;
#   word 4: "e-XX" (e <= -5 only).
# D's digits after the first end at the last that is not 0: _GROUPS[g] is "%04d" % g, and
# _GROUPS[10000 + g] the same with its trailing zeros as nulls.  _PREFIXES, _POINTS (two
# entries each, without and with the point) and _EXPONENTS are indexed by k = -e.
# _POWERS[k] is 10**k correctly rounded, as float's parse is and numpy.power need not be.
_RATE_WIDTH = 20


def _words(texts) -> np.ndarray:
    """ASCII strings of up to 4 characters as little-endian uint32, padded with nulls."""
    return np.frombuffer(b"".join(text.encode().ljust(4, b"\0") for text in texts), dtype="<u4")


def _digit_groups() -> np.ndarray:
    """_GROUPS, built in numpy: 20,000 Python strings would cost 20 ms and 4 MB at import."""
    places = np.array([1000, 100, 10, 1], dtype=np.int16)
    chars = (np.arange(10000, dtype=np.int16)[:, None] // places % 10 + ord("0")).astype(np.uint8)
    kept = np.logical_or.accumulate(chars[:, ::-1] != ord("0"), axis=1)[:, ::-1]
    return np.concatenate([chars, chars * kept]).view("<u4").ravel()


_GROUPS = _digit_groups()
_PREFIXES = _words([("0." + "0" * (k - 1))[:4] if 0 < k < 5 else "" for k in range(101)])
_POINTS = _words([("0" if k == 4 else "\0") + ("\0." if k > 4 and point else "")
                  for k in range(101) for point in (False, True)])
_EXPONENTS = _words([f"e-{k:02d}" if 4 < k < 100 else "" for k in range(101)])
_POWERS = np.array([float(f"1e{k}") for k in range(111)])

# Map rows formatted and written at once by _write_map_csv.
_MAP_BLOCK_ROWS = 8


def _format_rates(values: np.ndarray, fields: np.ndarray) -> int:
    """Write _NUMBER % v of each value into its row of fields, a (size, _RATE_WIDTH) uint8 array.

    The characters are in order with nulls between them.  A value in (0,
    1) with a decimal exponent e from -99 to -1 is formatted in numpy,
    unless v * 10**(9 - e) lies within 1e-5 of a half: that product is off
    by at most 2.3e-6 (two roundings below 1e10), so elsewhere it rounds
    to the digits that %-formatting, correctly rounded, gives.  Every other
    value, near-ties included, is formatted by _NUMBER %, and the count of
    those is returned.
    """
    fast = (values >= 1e-99) & (values < 1.0)       # no 0, negative, nan or inf
    v = np.where(fast, values, 0.5)
    k = -np.floor(np.log10(v)).astype(np.intp)
    # log10 is not correctly rounded: move e until the product has 10 integer digits, or
    # is 1e10, which rounds and carries as the 10 digits one e up would
    m = v * _POWERS[9 + k]
    k += m < 1e9
    m = v * _POWERS[9 + k]
    k -= m > 1e10
    m = v * _POWERS[9 + k]
    digits = np.floor(m + 0.5)                      # m + 0.5 is exact below 2**34
    fast &= (m >= 1e9) & (m <= 1e10) & (np.abs(m - digits) < 0.5 - 1e-5)
    carry = digits == 1e10
    digits[carry] = 1e9
    k -= carry
    fast &= (k >= 1) & (k <= 99)

    hi, rest = np.divmod(digits.astype(np.int64), 10 ** 8)
    mid, lo = np.divmod(rest, 10 ** 4)
    words = np.empty((values.size, 5), dtype="<u4")
    words[:, 0] = _PREFIXES[k]
    # bytes "0", "0", D's first digit, its second or a null: the first moves to byte 1
    high = _GROUPS[hi + 10000 * (rest == 0)]
    words[:, 1] = _POINTS[2 * k + (high >= 1 << 24)] | (high >> 8 & 0xFF00) | (high & 0xFF000000)
    words[:, 2] = _GROUPS[mid + 10000 * (lo == 0)]
    words[:, 3] = _GROUPS[lo + 10000]
    words[:, 4] = _EXPONENTS[k]
    fields[:] = words.view(np.uint8)

    slow = np.flatnonzero(~fast)
    if slow.size:
        fields[slow] = np.array([_NUMBER % x for x in values[slow].tolist()],
                                dtype=f"S{_RATE_WIDTH}").view(np.uint8).reshape(-1, _RATE_WIDTH)
    return slow.size


def _write_map_csv(path: str, angles_mrad: np.ndarray, rates: np.ndarray) -> None:
    """The n x n map as angle1,angle2,rate rows, angle1 outer, in _write_csv's format.

    Each angle is formatted once, as "label,"; a block of map rows is
    laid out as lines of fixed-width fields with null padding, the rates
    formatted by _format_rates, and written with the nulls removed, so
    no n**2-row array is built.
    """
    n = angles_mrad.size
    labels = np.array([_NUMBER % angle + "," for angle in angles_mrad.tolist()], dtype=bytes)
    width = labels.itemsize
    labels = labels.view(np.uint8).reshape(n, width)
    lines = np.zeros((min(_MAP_BLOCK_ROWS, n), n, 2 * width + _RATE_WIDTH + 1), dtype=np.uint8)
    lines[:, :, width:2 * width] = labels
    lines[:, :, -1] = ord("\n")
    fields = lines.reshape(-1, lines.shape[2])[:, 2 * width:-1]     # a view: lines is contiguous
    with open(path, "w", encoding="utf-8") as out:
        out.write("angle1_mrad,angle2_mrad,rate\n")
        for start in range(0, n, _MAP_BLOCK_ROWS):
            block = lines[:min(_MAP_BLOCK_ROWS, n - start)]
            block[:, :, :width] = labels[start:start + len(block), None, :]
            _format_rates(rates[start:start + len(block)].ravel(), fields[:len(block) * n])
            out.write(block.tobytes().translate(None, b"\0").decode("ascii"))


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
    sigmas = [_check_width(sigma, "sigma_um") for sigma in sigmas]  # a bad width runs none
    # the orders od_ratio reads, within what it and visibility read; the plan's one-bin
    # margin covers od_ratio's half bin
    orders = (config.wavelength_um / (2.0 * config.grating_period_um),
              config.wavelength_um / config.grating_period_um)
    span = (min(VISIBILITY_WINDOW[0], orders[0]), max(VISIBILITY_WINDOW[1], orders[1]))
    rows = []
    for sigma in sigmas:  # every row is printed after the last: a failure prints none
        diagonal, singles = profiles_for(config, sigma_um=sigma, span=span, diagonal_span=orders)
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
