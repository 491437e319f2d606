"""The public surface: ``lmfsim.__all__`` and the imports the docs rely on."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import lmfsim

ROOT = Path(__file__).resolve().parent.parent

# What README.md, demos/, bench/ and tests/test_acceptance.py use, plus the
# error roots and the version.
DOCUMENTED = {
    "__version__",
    "LmfsimError", "ConfigError", "DomainError",
    "Degenerate", "Exponential", "DiscretePareto", "Tabulated",
    "TraderSpec", "Population", "simulate",
    "binomial_pmf", "exact_acf_trader", "exact_acf_market",
    "homogeneous_market_acf", "heuristic_acf", "exponential_acf_closed_form",
    "powerlaw_acf_asymptote", "hetero_acf_asymptote", "prefactor_hetero",
    "prefactor_homogeneous", "prefactor_bounds", "min_splitter_count",
    "oracle_acf_small_chain",
    "acf_estimate", "average_curves", "fit_acf_powerlaw",
    "replica_seed", "run_simulate", "run_experiment", "calibrate_curve",
}


def _sources():
    """(label, source) of every README python block and demo/bench/acceptance file."""
    readme = (ROOT / "README.md").read_text()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        yield f"README.md block {i}", block
    files = [*sorted((ROOT / "demos").glob("*.py")),
             *sorted((ROOT / "bench").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py"]
    for path in files:
        yield str(path.relative_to(ROOT)), path.read_text()


def _lmfsim_imports():
    """(label, module, name) of every ``from lmfsim[.x] import name``, parsed, not run."""
    for label, source in _sources():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "lmfsim"):
                for alias in node.names:
                    yield label, node.module, alias.name


def test_all_is_the_documented_set():
    assert len(lmfsim.__all__) == len(set(lmfsim.__all__))
    assert set(lmfsim.__all__) == DOCUMENTED
    for name in lmfsim.__all__:
        assert hasattr(lmfsim, name), name


def test_documented_imports_resolve():
    imports = list(_lmfsim_imports())
    assert any(label.startswith("README.md") for label, _, _ in imports)
    assert any(label.startswith("demos/") for label, _, _ in imports)
    for label, module, name in imports:
        if module == "lmfsim":
            assert name in lmfsim.__all__, f"{label}: {name} is not exported"
        else:
            assert hasattr(importlib.import_module(module), name), (
                f"{label}: {module}.{name} does not exist")


def test_submodule_all_lists_name_existing_objects():
    modules = [importlib.import_module(f"lmfsim.{path.stem}")
               for path in sorted(Path(lmfsim.__file__).parent.glob("*.py"))
               if path.stem != "__init__"]
    checked = [m for m in modules if hasattr(m, "__all__")]
    assert len(checked) >= 5
    for module in checked:
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name}"


def test_runner_keeps_the_names_the_benchmark_swaps():
    # bench/worker.py --trace 1 wraps these `lmfsim.runner` globals by name
    # and calls run_simulate with a prebuilt population
    import inspect

    from lmfsim import runner

    tree = ast.parse((ROOT / "bench" / "worker.py").read_text())
    calls = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["LAYER_CALLS"])
    assert len(calls) >= 6
    for name in calls:
        assert callable(getattr(runner, name, None)), name
    assert "population" in inspect.signature(runner.run_simulate).parameters


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demos_run(path, monkeypatch, capsys):
    # each demo's main() on a short run: a demo that breaks at run time fails here
    spec = importlib.util.spec_from_file_location(path.stem, path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    for name, value in (("STEPS", 200_000), ("REPLICAS", 1)):
        if hasattr(demo, name):
            monkeypatch.setattr(demo, name, value)
    demo.main()
    assert capsys.readouterr().out
