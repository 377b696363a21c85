"""The package's public names, a lint of its modules' imports and a check of the
README's signatures (stdlib ast, inspect and re only)."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pairgrating

SOURCE_DIR = Path(__file__).resolve().parents[1] / "src" / "pairgrating"
README = Path(__file__).resolve().parents[1] / "README.md"

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


def imported_names(source: str) -> list[str]:
    """'module.name' for each name the source imports, module as written after `from`,
    in source order."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    return names


def test_scenario_leaves_the_pair_and_the_plan_cap_to_propagation():
    # propagation alone lays out the pair weights on the support and decides which
    # plans are kept; scenario turns a config into its calls
    def crossings(source):
        return [name for name in imported_names(source)
                if "biphoton" in name.split(".")
                or name.rsplit(".", 1)[-1] in ("MAX_KEPT_PLAN_BYTES", "support_of")]

    assert crossings((SOURCE_DIR / "scenario.py").read_text(encoding="utf-8")) == []
    assert crossings("from . import biphoton\nfrom .biphoton import pair_weight\n"
                     "from .propagation import MAX_KEPT_PLAN_BYTES, blur\n") == [
        ".biphoton", "biphoton.pair_weight", "propagation.MAX_KEPT_PLAN_BYTES"]


def parameter_error_sites(source: str) -> list[str]:
    """The enclosing function, dotted through its classes, of each `raise ParameterError`,
    in source order; '<module>' for one outside every function and class."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                error = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(error, "id", getattr(error, "attr", None)) == "ParameterError":
                    sites.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sites


def test_stage_modules_raise_parameter_error_only_in_order_efficiency():
    # the config, profiles_for, the scan readers and the oracles check input; the
    # stage modules trust them, but for the public order_efficiency
    found = [f"{module}.{site}" for module in ("lattice", "optics", "biphoton", "propagation")
             for site in parameter_error_sites((SOURCE_DIR / f"{module}.py").read_text(
                 encoding="utf-8"))]
    assert found == ["optics.order_efficiency"]


def test_parameter_error_lint_finds_every_raise():
    source = ("from . import errors\nfrom .errors import ParameterError\n\n"
              "if False:\n    raise ParameterError\n\n"
              "class Plan:\n    def __call__(self, x):\n        if x:\n"
              "            raise ParameterError(f'{x}')\n        raise ValueError(x)\n\n"
              "def f(x):\n    def g():\n        raise errors.ParameterError('g')\n"
              "    try:\n        g()\n    except ParameterError:\n        raise\n")
    assert parameter_error_sites(source) == ["<module>", "Plan.__call__", "f.g"]


def layout_signatures(readme: str) -> list[tuple[str, str, list[str]]]:
    """(module, name, parameters) for each `name(args)` code span in the library-layout table.

    A span may go on past the call, as `SupportPlan(...)(weight, channel)`
    does; a dotted name, such as `dataclasses.replace(...)`, is not one of
    the row's module.
    """
    table = readme.split("## Library layout", 1)[1].split("\n\n| module")[1].split("\n\n")[0]
    calls = []
    for row in table.splitlines()[2:]:
        module = re.match(r"\| `(\w+)`", row).group(1)
        for name, args in re.findall(r"`(\w+)\(([\w, ]*)\)", row):
            calls.append((module, name, [arg.strip() for arg in args.split(",") if arg.strip()]))
    return calls


def stale_signatures(readme: str) -> list[str]:
    """'module.name: README [...], code [...]' for each layout signature the code does not have.

    The code is None where the module defines no such function (it may import one).
    """
    stale = []
    for module, name, params in layout_signatures(readme):
        function = getattr(importlib.import_module(f"pairgrating.{module}"), name, None)
        defined = getattr(function, "__module__", None) == f"pairgrating.{module}"
        actual = list(inspect.signature(function).parameters) if defined else None
        if actual != params:
            stale.append(f"{module}.{name}: README {params}, code {actual}")
    return stale


def test_readme_layout_signatures_are_the_functions():
    readme = README.read_text(encoding="utf-8")
    assert len(layout_signatures(readme)) >= 15
    assert stale_signatures(readme) == []


def test_readme_layout_check_finds_stale_signatures():
    readme = ("## Library layout\n\n| module | contents |\n|---|---|\n"
              "| `lattice` (internal) | `make_grid(n, window)`, `angles_of(grid)` |\n"
              "| `scenario` | `rate_map_for(config)`, `dataclasses.replace(config, x=1)`, "
              "`pair_weight(exponent)` |\n\nMore text, `angles_of(x)`.\n")
    assert len(layout_signatures(readme)) == 4
    assert stale_signatures(readme) == [
        "lattice.angles_of: README ['grid'], code ['grid', 'wavelength']",
        "scenario.pair_weight: README ['exponent'], code None"]
