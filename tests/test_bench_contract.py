"""The library names that perfbench/run.py and perfbench/workloads.py rely on."""

import ast
import importlib
from pathlib import Path

import numpy as np

from pairgrating import limits, scenario

ROOT = Path(__file__).resolve().parent.parent


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
