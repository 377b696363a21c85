"""The package's public names, and a lint of its modules' imports (stdlib ast only)."""

import ast
from pathlib import Path

import pairgrating

SOURCE_DIR = Path(__file__).resolve().parents[1] / "src" / "pairgrating"

# The boundary: the config, the evaluators, the scan reader and fit, the summary
# metrics and the closed-form oracles.  The stage modules (lattice, optics,
# biphoton, propagation) trust their callers and are imported by module.
PUBLIC = ["FitResult", "LimitProfiles", "Measurement", "RateMap", "RateProfile",
          "ScenarioConfig", "delta_correlated_profiles", "errors", "fit_sigma",
          "forward_on_angles", "load_measurement", "od_ratio", "order_efficiency",
          "parse_config", "profiles_for", "rate_map_for", "uncorrelated_profiles",
          "visibility"]


def test_all_is_the_boundary_and_each_name_resolves():
    assert sorted(pairgrating.__all__) == PUBLIC
    namespace: dict = {}
    exec("from pairgrating import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC


def unused_imports(source: str) -> list[str]:
    """'line N: name' for each name the source imports and never reads, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in sorted(imported) if name not in used]


def test_modules_import_no_unused_name():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE_DIR.glob("*.py")) if path.name != "__init__.py"}
    assert len(found) >= 9
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_unused_import_lint_finds_dead_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .errors import ParameterError, warn_caller\n\n"
              "def f(x: np.ndarray):\n    warn_caller(x)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: ParameterError"]
