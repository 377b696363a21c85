import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_quartiles_use_the_inclusive_method():
    # inclusive: positions (len - 1)/4 and 3*(len - 1)/4, interpolated
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0,
                                                                 "q3": 4.0}


def test_summary_counts_ties_for_neither_side():
    parent = [1.0, 2.0, 3.0, 5.0]
    change = [1.0, 1.0, 4.0, 2.0]    # a tie, a drop, a rise, a drop
    lower = bench_pairs.summarize(parent, change, "lower")
    higher = bench_pairs.summarize(parent, change, "higher")
    assert (lower["change_wins"], higher["change_wins"]) == (2, 1)
    assert lower["pairs"] == 4
    assert lower["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.5}
    assert lower["parent_iqr"] == 1.75
    assert lower["median_ratio_change_over_parent"] == pytest.approx(1.5 / 2.5)
    with pytest.raises(ValueError):
        bench_pairs.summarize(parent, change, "faster")
    with pytest.raises(ValueError):
        bench_pairs.summarize(parent, change[:3], "lower")


def test_summary_reports_the_median_of_the_pair_ratios():
    # the machine slows between pairs: each pair's ratio shows the change faster,
    # the ratio of the sides' medians does not
    parent = [2.0, 4.0, 10.0]
    change = [1.0, 4.0, 9.0]     # ratios 0.5, 1.0, 0.9
    summary = bench_pairs.summarize(parent, change, "lower")
    assert summary["median_ratio_change_over_parent"] == 1.0
    assert summary["median_pair_ratio_change_over_parent"] == pytest.approx(0.9)


def test_direction_comes_from_the_benchmark_declaration():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = bench_pairs.directions(benchmark)
    assert better == {"setup_s": "lower", "command_s": "lower",
                      "forward_evals_per_s": "higher", "peak_rss_mb": "lower"}
    runs = [{"side": side, "pair": pair, "seed": pair,
             "result": {"correct": True, "attempted": 10, "failed": failed,
                        "metrics": {name: {"value": value} for name in better}}}
            for pair, (side, value, failed) in enumerate(
                [("parent", 2.0, 0), ("change", 3.0, 1)], start=1)]
    runs += [{**run, "pair": 2, "seed": 2} for run in runs]
    record = bench_pairs.workload_record(runs, better)
    wins = {name: summary["change_wins"] for name, summary in record["summary"].items()}
    assert wins == {"setup_s": 0, "command_s": 0, "forward_evals_per_s": 2, "peak_rss_mb": 0}
    assert record["failed_ops"] == {"parent": 0, "change": 2}
    assert record["attempted_ops"] == {"parent": 20, "change": 20}


@pytest.mark.parametrize("text,seeds", [("101-104", [101, 102, 103, 104]), ("7-8", [7, 8])])
def test_seed_ranges_are_inclusive(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


_STUB_RUN = """import json
print("machine " + json.dumps({"cpus": 1}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"command_s": {"value": 1.0}}}))
"""


def test_record_counts_the_package_lines_of_each_checkout(tmp_path, monkeypatch):
    # two trees with a stub benchmark: the parent's package has 3 + 2 lines (the
    # last without a newline, which wc -l does not count), the change's 1; files
    # outside src/pairgrating/*.py do not count
    benchmark = {"workloads": [{"name": "only"}],
                 "end_to_end": [{"name": "command_s", "better": "lower"}]}
    modules = {"parent": {"a.py": "1\n2\n3\n", "b.py": "1\n2\nlast"}, "change": {"a.py": "1\n"}}
    for side, files in modules.items():
        package = tmp_path / side / "src" / "pairgrating"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text, encoding="utf-8")
        (package / "notes.txt").write_text("x\n" * 50, encoding="utf-8")
        (tmp_path / side / "tools.py").write_text("x\n" * 50, encoding="utf-8")
        (tmp_path / side / "perfbench").mkdir()
        (tmp_path / side / "perfbench" / "run.py").write_text(_STUB_RUN, encoding="utf-8")
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(benchmark), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["--parent", "parent", "--change", "change", "--label", "lines",
                             "--seeds", "1-2", "--seconds", "1"]) == 0
    record = json.loads((tmp_path / "BENCH_lines.json").read_text(encoding="utf-8"))
    assert record["source_lines"] == {"parent": 5, "change": 1}
    assert record["workloads"]["only"]["summary"]["command_s"]["pairs"] == 2
