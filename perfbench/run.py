#!/usr/bin/env python3
"""Benchmark of the pairgrating command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload fit-scan --seed 1 --seconds 15 --trace 0

Every operation is one CLI command run in this process through
`pairgrating.shell.main`; its exit code is its outcome.  The inputs are
generated from --seed into .perfbench_run/ and the commands run there.
Whole rounds of the workload's commands run until --seconds have passed.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every command
twice, untraced and then traced, and reports per-layer call counts and
self times per traced command plus the tracing overhead.  The last line
of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREADS = len(os.sched_getaffinity(0))
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = (3, 15)  # fewest and most fresh interpreters timed per run
SETUP_PROBE_BUDGET_S = 3.0
SETUP_TIMEOUT_S = 120

# Public functions traced in --trace 1, by module.
LAYERS = {
    "scenario": ("parse_config", "profiles_for", "rate_map_for"),
    "lattice": ("make_grid",),
    "optics": ("transmission",),
    "biphoton": ("two_photon_amplitude",),
    "propagation": ("to_far_field", "coincidence_map", "blur", "diagonal_profile",
                    "singles_profile"),
    "inference": ("load_measurement", "fit_sigma", "forward_on_angles", "od_ratio",
                  "visibility"),
    "shell": ("run_fit", "run_sweep", "run_simulate"),
}


def cap_threads() -> None:
    """Limit BLAS and OpenMP pools to the usable cores; must precede importing numpy."""
    for variable in THREAD_VARIABLES:
        current = os.environ.get(variable, "")
        if not current.isdigit() or not 0 < int(current) <= THREADS:
            os.environ[variable] = str(THREADS)


def machine_facts(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "usable_cores": THREADS, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def setup_seconds(config: str) -> float:
    """Median over fresh interpreters of import, parse_config and one forward evaluation.

    Probes run until SETUP_PROBE_BUDGET_S have passed, within SETUP_PROBES.
    """
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_PROBES[0] or (
            len(times) < SETUP_PROBES[1]
            and time.perf_counter() - start < SETUP_PROBE_BUDGET_S):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC), config],
                              capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_op(main, op):
    """Run one command; returns (exit code or None, seconds, stdout, stderr)."""
    for path in op.outputs:
        if os.path.exists(path):
            os.remove(path)
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(op.argv)
        except Exception:  # a crash is this operation's outcome, not the run's
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return code, seconds, out.getvalue(), err.getvalue()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times = []  # seconds of each successful timed command
        self.evaluations = 0  # forward evaluations of the successful timed commands
        self.bytes_written = 0
        self.problems = []

    def add(self, workload, op, main):
        """Run and judge one command; returns its seconds if timed and successful."""
        code, seconds, stdout, stderr = run_op(main, op)
        self.attempted += 1
        if code is None:
            self.failed += 1
            self.problems.append(f"{op.argv} raised:\n{stderr}")
            return None
        verdict = workload.judge(op, code, stdout, stderr)
        self.problems += verdict.problems
        self.bytes_written += sum(os.path.getsize(p) for p in op.outputs if os.path.exists(p))
        if not verdict.success:
            self.failed += 1
        elif op.timed:
            self.times.append(seconds)
            self.evaluations += verdict.evaluations
            return seconds
        return None


def run_rounds(workload, seconds, step) -> None:
    """Call step(op) on every command of whole rounds until `seconds` have passed."""
    deadline = time.perf_counter() + seconds
    while True:
        for op in workload.round:
            step(op)
        if time.perf_counter() >= deadline:
            return


def end_to_end(tally, setup) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup, "s"),
        "command_s": (statistics.median(tally.times), "s"),
        "forward_evals_per_s": (tally.evaluations / sum(tally.times), "1/s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def per_layer(workload, tally, tracer, ratios) -> tuple[dict, list]:
    """Per-op layer metrics of the traced commands; ratios are traced/untraced times."""
    ops = tally.attempted
    totals = spans.per_name(tracer.spans)
    metrics = {}
    for module, names in LAYERS.items():
        for name in names:
            calls, seconds = totals.get(f"{module}.{name}", (0, 0.0))
            metrics[f"{module}.{name}.calls"] = (calls / ops, "count")
            metrics[f"{module}.{name}.self_ms"] = (seconds * 1e3 / ops, "ms")
    fits = tracer.results.get("inference.fit_sigma", [])
    evaluations = sum(fit.n_evaluations for fit in fits)
    metrics["inference.fit_sigma.evaluations"] = (evaluations / ops, "count")
    metrics["shell.bytes_written"] = (tally.bytes_written / ops, "bytes")
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
    problems = []
    if workload.name == "fit-scan":
        profiles = totals.get("scenario.profiles_for", (0, 0.0))[0]
        converged = sum(fit.converged for fit in fits)
        if profiles != evaluations + converged:
            problems.append(f"profiles_for ran {profiles} times, fits report "
                            f"{evaluations} evaluations and {converged} curves")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit-scan", "sweep-large-grid", "simulate-map"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pairgrating" / "__init__.py").is_file():
        print(f"perfbench: no pairgrating sources at {SRC}", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import pairgrating
    import pairgrating.shell
    import workloads

    if Path(pairgrating.__file__).resolve().parent != SRC / "pairgrating":
        print(f"perfbench: imported pairgrating from {pairgrating.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    workload = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed))
    main_fn = pairgrating.shell.main

    setup = setup_seconds(workload.config) if args.trace == 0 else None
    config = pairgrating.scenario.parse_config(workload.config)
    pairgrating.scenario.profiles_for(config)  # warm-up, untimed

    tally = Tally()
    if args.trace == 0:
        run_rounds(workload, args.seconds, lambda op: tally.add(workload, op, main_fn))
        if not tally.times:
            print("perfbench: no command succeeded", file=sys.stderr)
            return 1
        metrics = end_to_end(tally, setup)
        problems = tally.problems
    else:
        # Each command runs untraced, then traced, so that the overhead is
        # read from neighbouring runs of the same command.
        untraced, tracer, ratios = Tally(), spans.Tracer(), []
        modules = [m for name, m in sys.modules.items()
                   if name == "pairgrating" or name.startswith("pairgrating.")]
        targets = {f"{module}.{name}": getattr(getattr(pairgrating, module), name)
                   for module, names in LAYERS.items() for name in names}

        def paired(op):
            plain = untraced.add(workload, op, main_fn)
            with tracer.patch(modules, targets, keep_results=("inference.fit_sigma",)):
                traced = tally.add(workload, op, main_fn)
            if plain and traced:
                ratios.append(traced / plain)

        run_rounds(workload, args.seconds, paired)
        tracer.write(work / "spans.jsonl")
        if not ratios:
            print("perfbench: no command succeeded", file=sys.stderr)
            return 1
        metrics, problems = per_layer(workload, tally, tracer, ratios)
        problems = untraced.problems + tally.problems + problems
        tally.attempted += untraced.attempted
        tally.failed += untraced.failed

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    facts = machine_facts(np)
    result = {"correct": not problems, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(work / "result.json", "w", encoding="utf-8") as out:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": facts, **result,
                   "command_seconds": tally.times}, out, indent=1)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print("machine " + json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
