"""The benchmark's workloads: generated inputs, one round of commands, checks.

Each workload writes its inputs into the current directory from a seeded
generator, lists one round of CLI commands, and judges every command from
its exit code, its printed output and the files it wrote.  The checks test
properties of the outputs and compare with independent computations; no
stored copy of an earlier output is used.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

from pairgrating import limits, scenario
from pairgrating.inference import VISIBILITY_WINDOW, forward_on_angles

import oracle

SCAN_ANGLES_MRAD = np.linspace(-60.0, 60.0, 121)
FIT_WIDTHS_UM = (9.0, 13.0, 31.0)
README_WIDTHS_UM = (0.1, 1.0, 3.0, 9.0, 13.0, 31.0, 100.0)
ORACLE_WIDTH_UM = 1e4
SWEEP_WIDTHS_UM = README_WIDTHS_UM + (ORACLE_WIDTH_UM,)


@dataclass
class Op:
    """One CLI command; `outputs` are the files it writes on success.

    An untimed command counts in attempted and failed but stays out of the
    timing metrics.
    """

    argv: list
    outputs: list
    truth: dict = field(default_factory=dict)
    timed: bool = True


@dataclass
class Verdict:
    success: bool
    evaluations: int = 0  # forward evaluations the command ran
    problems: list = field(default_factory=list)  # failed correctness checks


def _write_config(path, **keys):
    with open(path, "w", encoding="utf-8") as out:
        for key, value in keys.items():
            out.write(f"{key} = {value}\n")


def _printed(stdout, key):
    match = re.search(rf"^{key}\s*=\s*(\S+)", stdout, re.MULTILINE)
    return match.group(1) if match else None


def _rel(value, target):
    return abs(value - target) / abs(target)


def _data_rows(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class FitScan:
    """`fit` at the reference config on generated 121-point angular scans.

    A round holds, for each of a noiseless and a Poisson-noisy set, one
    coincidence scan at each of 9, 13 and 31 um plus one singles scan at a
    width drawn from those three (one scan in four is singles), and one
    scan with a `nan` rate.  The `nan` scan does not depend on the seed; it
    succeeds only when `fit` rejects it with exit 2 naming its line.
    """

    name = "fit-scan"
    config = "fit.cfg"

    def __init__(self, rng):
        _write_config(self.config, output_prefix="out")
        cfg = scenario.parse_config(self.config)
        angles = SCAN_ANGLES_MRAD * 1e-3
        self.round = []
        for noisy in (False, True):
            singles_width = FIT_WIDTHS_UM[rng.integers(len(FIT_WIDTHS_UM))]
            for width, channel in [(w, "coincidences") for w in FIT_WIDTHS_UM] + \
                                  [(singles_width, "singles")]:
                scale = rng.uniform(2e3, 2e4)
                background = scale * rng.uniform(0.01, 0.05)
                mean = scale * forward_on_angles(cfg, width, angles, channel) + background
                path = f"scan{len(self.round)}.csv"
                header = ["# channel: singles"] if channel == "singles" else []
                if noisy:
                    counts = rng.poisson(mean).astype(float)
                    rows = [f"{a:.10g},{c:.10g},{np.sqrt(max(c, 1.0)):.10g}"
                            for a, c in zip(SCAN_ANGLES_MRAD, counts)]
                    header.append("angle_mrad,rate,rate_err")
                else:
                    rows = [f"{a:.10g},{r:.12g}" for a, r in zip(SCAN_ANGLES_MRAD, mean)]
                    header.append("angle_mrad,rate")
                with open(path, "w", encoding="utf-8") as out:
                    out.write("\n".join(header + rows) + "\n")
                self.round.append(Op(["fit", self.config, path], ["out_fitcurve.csv"],
                                     dict(sigma=width, scale=scale, background=background,
                                          noisy=noisy)))
        # Fixed input: a noiseless 13 um coincidence scan whose centre sample is nan.
        mean = 1e3 * forward_on_angles(cfg, 13.0, angles) + 20.0
        rows = [f"{a:.10g},{'nan' if i == 60 else format(r, '.12g')}"
                for i, (a, r) in enumerate(zip(SCAN_ANGLES_MRAD, mean))]
        with open("scan_nan.csv", "w", encoding="utf-8") as out:
            out.write("\n".join(["angle_mrad,rate"] + rows) + "\n")
        self.round.append(Op(["fit", self.config, "scan_nan.csv"], ["out_fitcurve.csv"],
                             dict(nan_line=62), timed=False))

    def judge(self, op, code, stdout, stderr):
        truth = op.truth
        if "nan_line" in truth:
            return Verdict(code == 2 and f"line {truth['nan_line']}" in stderr)
        converged = _printed(stdout, "converged") == "True"
        if code != 0 or not converged:
            return Verdict(False, problems=[f"{op.argv[2]}: exit {code}, converged={converged}"])
        verdict = Verdict(True, int(_printed(stdout, "n_evaluations")) + 1)
        sigma = float(_printed(stdout, "sigma_corr_um"))
        limit = 0.10 if truth["noisy"] else 0.02
        if _rel(sigma, truth["sigma"]) > limit:
            verdict.problems.append(f"{op.argv[2]}: sigma {sigma} vs {truth['sigma']}")
        if not truth["noisy"]:
            for key in ("scale", "background"):
                value = float(_printed(stdout, key))
                if _rel(value, truth[key]) > 0.01:
                    verdict.problems.append(f"{op.argv[2]}: {key} {value} vs {truth[key]}")
        rows = _data_rows("out_fitcurve.csv")
        if rows.shape != (SCAN_ANGLES_MRAD.size, 2):
            verdict.problems.append(f"{op.argv[2]}: fit curve has shape {rows.shape}")
        return verdict


class SweepLargeGrid:
    """`sweep` at n = 2048 over a 2400 um window (dx = 1.17 um, as at the reference).

    A round is two sweeps over the README's seven widths plus 1e4 um, each
    in an order drawn from the seed; two, because one sweep lasts about 20 s
    and a single sample of it spreads too much on a shared host.  The 1e4 um
    row is checked against the blurred closed-form uncorrelated profiles of
    `oracle`.
    """

    name = "sweep-large-grid"
    config = "sweep.cfg"

    def __init__(self, rng):
        _write_config(self.config, grid_n=2048, window_um=2400, output_prefix="out")
        cfg = scenario.parse_config(self.config)
        grid = scenario.grid_for(cfg)
        closed = limits.uncorrelated_profiles(scenario.transmission_for(cfg, grid), grid,
                                              cfg.wavelength_um)
        self.expected = oracle.uncorrelated_summary(
            closed.singles.angles, closed.singles.values, cfg.resolution_mrad * 1e-3,
            cfg.wavelength_um, cfg.grating_period_um, VISIBILITY_WINDOW)
        self.round = []
        for _ in range(2):
            order = ",".join(f"{w:g}" for w in rng.permutation(SWEEP_WIDTHS_UM))
            self.round.append(Op(["sweep", self.config, order], ["out_sweep.csv"]))

    def judge(self, op, code, stdout, stderr):
        if code != 0:
            return Verdict(False, problems=[f"sweep exit {code}: {stderr.strip()}"])
        rows = _data_rows("out_sweep.csv")
        verdict = Verdict(True, len(rows))
        by_width = {float(r[0]): (r[1], r[2]) for r in rows}
        if sorted(by_width) != sorted(SWEEP_WIDTHS_UM):
            verdict.problems.append(f"sweep widths {sorted(by_width)}")
            return verdict
        ratios = np.array([by_width[w][0] for w in README_WIDTHS_UM])
        contrast = np.array([by_width[w][1] for w in README_WIDTHS_UM])
        if not np.all(np.diff(ratios) < 0.0):
            verdict.problems.append(f"od_ratio not decreasing: {ratios}")
        if not np.all(np.diff(contrast) > 0.0):
            verdict.problems.append(f"singles_visibility not increasing: {contrast}")
        for got, want, label in zip(by_width[ORACLE_WIDTH_UM], self.expected,
                                    ("od_ratio", "singles_visibility")):
            if _rel(got, want) > 1e-5:
                verdict.problems.append(f"{label} at 1e4 um: {got} vs oracle {want}")
        return verdict


class SimulateMap:
    """`simulate` at the reference config, with a correlation width drawn from the seed.

    The first command's three files are checked in full; every later
    command must write the same bytes.
    """

    name = "simulate-map"
    config = "simulate.cfg"
    files = ["out_diagonal.csv", "out_singles.csv", "out_map.csv"]

    def __init__(self, rng):
        _write_config(self.config, sigma_corr_um=f"{rng.uniform(3.0, 40.0):.6g}",
                      output_prefix="out")
        self.cfg = scenario.parse_config(self.config)
        self.round = [Op(["simulate", self.config], self.files)]
        self.digest = None

    def judge(self, op, code, stdout, stderr):
        if code != 0:
            return Verdict(False, problems=[f"simulate exit {code}: {stderr.strip()}"])
        verdict = Verdict(True, 1)
        digest = hashlib.sha256()
        for path in self.files:
            with open(path, "rb") as data:
                digest.update(data.read())
        if self.digest is None:
            self.digest = digest.digest()
            verdict.problems = self._check_files()
        elif digest.digest() != self.digest:
            verdict.problems.append("simulate wrote different bytes than its first run")
        return verdict

    def _check_files(self):
        n = self.cfg.grid_n
        diagonal, singles, rmap = (_data_rows(path) for path in self.files)
        if diagonal.shape != (n, 2) or singles.shape != (n, 2) or rmap.shape != (n * n, 3):
            return [f"row counts {len(diagonal)}, {len(singles)}, {len(rmap)}"]
        problems = []
        angles = diagonal[:, 0]
        step = self.cfg.wavelength_um / self.cfg.window_um * 1e3
        if np.max(np.abs(np.diff(angles) - step)) > 1e-6 or angles[n // 2] != 0.0:
            problems.append("angle lattice is not lambda/window with zero at n/2")
        if not (np.array_equal(singles[:, 0], angles)
                and np.array_equal(rmap[:, 0], np.repeat(angles, n))
                and np.array_equal(rmap[:, 1], np.tile(angles, n))):
            problems.append("the three files disagree on the angles")
        values = rmap[:, 2].reshape(n, n)
        if np.max(np.abs(values - values.T)) > 1e-9 * values.max():
            problems.append("map is not symmetric")
        cut = np.diagonal(values)
        if np.max(np.abs(diagonal[:, 1] - cut / cut.max())) > 1e-9:
            problems.append("diagonal file differs from the map's diagonal")
        sums = values.sum(axis=1)
        if np.max(np.abs(singles[:, 1] - sums / sums.max())) > 1e-8:
            problems.append("singles file is not proportional to the map's row sums")
        for label, column in (("diagonal", diagonal[:, 1]), ("singles", singles[:, 1]),
                              ("map", values)):
            if column.max() != 1.0:
                problems.append(f"{label} file peak is {column.max()}, not 1")
        return problems


WORKLOADS = {w.name: w for w in (FitScan, SweepLargeGrid, SimulateMap)}
