"""The library names that perfbench/run.py and perfbench/workloads.py rely on."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np

from pairgrating import forward_on_angles, inference, limits, scenario, shell

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_spans",
                                               ROOT / "perfbench" / "spans.py")
spans = sys.modules["perfbench_spans"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)   # its dataclasses look their module up by name


def _traced_layers() -> dict:
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        targets = [getattr(target, "id", None) for target in getattr(node, "targets", ())]
        if targets == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no LAYERS")


def test_every_traced_layer_is_a_library_function():
    # --trace 1 patches each of these names on its module; a name that is
    # gone would leave that layer unmeasured or stop the run
    layers = _traced_layers()
    assert layers
    for module, names in layers.items():
        namespace = importlib.import_module(f"pairgrating.{module}")
        for name in names:
            assert callable(getattr(namespace, name, None)), f"{module}.{name}"


def test_uncorrelated_profiles_carry_the_singles_the_sweep_check_reads():
    # perfbench/workloads.py judges sweep-large-grid against closed.singles
    config = scenario.ScenarioConfig(grid_n=256, window_um=300.0)
    grid = scenario.grid_for(config)
    closed = limits.uncorrelated_profiles(scenario.transmission_for(config, grid), grid,
                                          config.wavelength_um)
    assert closed.singles.angles.shape == closed.singles.values.shape == (grid.n,)
    assert np.all(np.isfinite(closed.singles.values))


def test_every_fit_evaluation_enters_through_forward_on_angles(tmp_path, monkeypatch, capsys):
    # --trace 1 books a fit's evaluations and its curve on both layers, one
    # forward_on_angles call per profiles_for call
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fit.cfg").write_text("grid_n=256\nwindow_um=300\n", encoding="utf-8")
    angles = np.arange(-60.0, 60.5, 1.0)
    rates = 900.0 * forward_on_angles(scenario.ScenarioConfig(grid_n=256, window_um=300.0),
                                      13.0, angles * 1e-3) + 20.0
    lines = ["angle_mrad,rate"] + [f"{a:.17g},{r:.17g}" for a, r in zip(angles, rates)]
    (tmp_path / "scan.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    modules = [module for name, module in sys.modules.items()
               if name == "pairgrating" or name.startswith("pairgrating.")]
    targets = {"inference.forward_on_angles": inference.forward_on_angles,
               "scenario.profiles_for": scenario.profiles_for}
    tracer = spans.Tracer()
    with tracer.patch(modules, targets):
        assert shell.main(["fit", "fit.cfg", "scan.csv"]) == 0
    out = capsys.readouterr().out
    assert "converged        = True" in out
    evaluations = int(re.search(r"^n_evaluations += (\d+)$", out, re.MULTILINE).group(1))
    calls = {name: count for name, (count, _) in spans.per_name(tracer.spans).items()}
    assert calls == {name: evaluations + 1 for name in targets}
