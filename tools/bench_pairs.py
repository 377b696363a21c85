#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarized into BENCH_<label>.json.

Usage:

    python3 tools/bench_pairs.py --parent DIR --change DIR --label L \
        --seeds 101-110 --seconds 15 [--traced-seed 111]

Both directories are source checkouts holding perfbench/run.py.  Make
each one a git checkout with its commit made (`git worktree add DIR
COMMIT`, or `git clone` and `git checkout COMMIT`): the record takes
`parent_commit` from the parent's HEAD and `change` from the subject of
the change's HEAD, and leaves them empty for a plain file export.  For
every workload the change's BENCHMARK.json lists, pair k runs
`python3 perfbench/run.py --workload W --seed N --seconds S --trace 0`
on the k-th seed in each checkout, the parent first in odd pairs and
the change first in even pairs, one run at a time.  Each run's record
is the final JSON line the command prints.  --traced-seed adds one
traced pair per workload (--trace 1, parent first).  The record also
holds `source_lines`, the lines of src/pairgrating/*.py in each
checkout as `wc -l` counts them.  The file is written to the current
directory; the standard library is all it uses.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

COMMAND = "python3 perfbench/run.py --workload W --seed N --seconds {seconds} --trace 0"


def quartiles(values) -> dict:
    """Median and the inclusive-method first and third quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(parent, change, better: str) -> dict:
    """Summary of one metric over pairs: parent[k] and change[k] ran as pair k.

    A pair counts for the change when its value is better in the
    direction `better` ("lower" or "higher"); ties count for neither.
    The median of the pairs' change/parent ratios reads each change
    against the parent run beside it, so a drift of the machine within
    a batch blurs it less than the ratio of the two sides' medians.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if len(parent) != len(change):
        raise ValueError("parent and change need one value per pair")
    sign = 1.0 if better == "lower" else -1.0
    parent_stats, change_stats = quartiles(parent), quartiles(change)
    return {"parent": parent_stats, "change": change_stats, "pairs": len(parent),
            "change_wins": sum(sign * (p - c) > 0.0 for p, c in zip(parent, change)),
            "parent_iqr": parent_stats["q3"] - parent_stats["q1"],
            "median_ratio_change_over_parent": change_stats["median"] / parent_stats["median"],
            "median_pair_ratio_change_over_parent": statistics.median(
                c / p for p, c in zip(parent, change))}


def directions(benchmark: dict) -> dict:
    """Metric name -> "lower" or "higher" for the end-to-end metrics of a BENCHMARK.json."""
    return {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"need a range of at least two seeds, got {text!r}")
    return seeds


def git(checkout: Path, *args) -> str | None:
    done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def source_lines(checkout: Path) -> int:
    """Newlines in the checkout's src/pairgrating/*.py, the total `wc -l` prints."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "pairgrating").glob("*.py"))


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int):
    """One benchmark run; returns (result record, machine facts)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} in {checkout} exited {done.returncode}:\n"
                         f"{done.stderr}")
    lines = done.stdout.splitlines()
    machine = next(json.loads(line[len("machine "):]) for line in lines
                   if line.startswith("machine "))
    return json.loads(lines[-1]), machine


def workload_record(runs: list[dict], better: dict) -> dict:
    sides = {side: [r["result"] for r in sorted(runs, key=lambda r: r["pair"])
                    if r["side"] == side] for side in ("parent", "change")}
    summary = {name: summarize([r["metrics"][name]["value"] for r in sides["parent"]],
                               [r["metrics"][name]["value"] for r in sides["change"]], direction)
               for name, direction in better.items()}
    return {"summary": summary,
            "all_correct": all(r["correct"] for r in sides["parent"] + sides["change"]),
            "failed_ops": {side: sum(r["failed"] for r in results)
                           for side, results in sides.items()},
            "attempted_ops": {side: sum(r["attempted"] for r in results)
                              for side, results in sides.items()},
            "runs": runs}


def traced_record(runs: list[dict], workload: str, seed: int, seconds: float) -> dict:
    parent, change = (next(r["result"]["metrics"] for r in runs if r["side"] == side)
                      for side in ("parent", "change"))
    return {"command": f"python3 perfbench/run.py --workload {workload} --seed {seed} "
                       f"--seconds {seconds:g} --trace 1",
            "note": "one traced pair, parent first; per-layer values are per traced command",
            "correct": {r["side"]: r["result"]["correct"] for r in runs},
            "nonzero_layers": {name: {"parent": parent[name]["value"],
                                      "change": change[name]["value"]}
                               for name in parent
                               if parent[name]["value"] or change[name]["value"]},
            "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="first-last, inclusive")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced-seed", type=int)
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = directions(benchmark)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    machine = None
    workloads = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = []
        for pair, seed in enumerate(args.seeds, start=1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                result, machine = run(checkouts[side], workload, seed, args.seconds, 0)
                runs.append({"side": side, "pair": pair, "seed": seed, "result": result})
                print(f"{workload} pair {pair} {side}: command_s "
                      f"{result['metrics']['command_s']['value']:.4g}", file=sys.stderr)
        workloads[workload] = workload_record(runs, better)
        if args.traced_seed is not None:
            traced = [{"side": side, "pair": 1, "seed": args.traced_seed,
                       "result": run(checkouts[side], workload, args.traced_seed,
                                     args.seconds, 1)[0]}
                      for side in ("parent", "change")]
            workloads[workload]["traced"] = traced_record(traced, workload, args.traced_seed,
                                                          args.seconds)

    seeds = f"{args.seeds[0]}-{args.seeds[-1]}"
    method = (f"For each workload, {len(args.seeds)} pairs of runs of the parent and the "
              f"change, pair k on the k-th seed of {seeds}, the parent first in odd pairs and "
              f"the change first in even pairs. Each run's record is the final JSON line the "
              f"command prints. Medians and quartiles (q1, q3; inclusive method) are over the "
              f"runs of each side; change_wins counts pairs in which the change is better, "
              f"ties for neither; median_pair_ratio_change_over_parent is the median over "
              f"pairs of the change's value over the parent's.")
    if args.traced_seed is not None:
        method += (f" Each workload also holds one traced pair (--trace 1, seed "
                   f"{args.traced_seed}).")
    record = {"label": args.label,
              "change": git(checkouts["change"], "log", "-1", "--format=%s"),
              "parent_commit": git(checkouts["parent"], "rev-parse", "HEAD"),
              "source_lines": {side: source_lines(path) for side, path in checkouts.items()},
              "command": COMMAND.format(seconds=f"{args.seconds:g}"),
              "method": method,
              "machine": {**machine, "note": "the runs were sequential, one at a time"},
              "workloads": workloads}
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
