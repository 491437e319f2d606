"""Start-up cost: which SciPy modules a run loads, and what it does per trader.

numpy is lmfsim's only runtime dependency: no module under ``lmfsim``
imports SciPy, and import, population building, ``run_simulate``, the
``theory`` and ``calibrate`` commands and the enumerated-chain oracle load
none of it, whatever the laws.  A run's population-wide work (digest,
theory, splitter ids) reads the law columns, not one law per trader.  Each
run-time check runs in a fresh interpreter, as a run does, so no other
test's imports or caches leak into it.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lmfsim

SRC = Path(lmfsim.__file__).resolve().parent.parent

PRELUDE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {}
"""


def _stages(code: str, tmp_path) -> dict:
    """Run ``code`` in a fresh interpreter; returns the ``seen`` dict it fills."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    script = PRELUDE + textwrap.dedent(code) + "\nprint(json.dumps(seen))\n"
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _config(tmp_path, groups, **extra) -> str:
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"steps": 20_000, "seed": 3, "max_lag": 50,
                                "groups": groups, **extra}))
    return str(path)


def _group(count, mass, law):
    return {"count": count, "intensity": {"rule": "equal", "mass": mass}, "law": law}


RUN = """
import lmfsim
seen["import"] = scipy_modules()
from lmfsim.config import load_config
cfg = load_config({config!r})
pop = cfg.build_population()
seen["build"] = scipy_modules()
lmfsim.run_simulate(cfg, "out", population=pop)
seen["run"] = scipy_modules()
"""


def test_exponential_and_degenerate_runs_load_no_scipy(tmp_path):
    config = _config(tmp_path, [
        _group(5, 0.8, {"kind": "exponential", "decay_length": 4.0}),
        _group(1, 0.2, {"kind": "degenerate"}),
    ], theory_grid="dense", save_signs=True)
    seen = _stages(RUN.format(config=config), tmp_path)
    assert seen == {"import": [], "build": [], "run": []}


def test_cli_simulate_loads_no_scipy(tmp_path):
    config = _config(tmp_path, [
        _group(10, 1.0, {"kind": "exponential", "decay_length": 5.0})])
    seen = _stages(f"""
        import runpy
        sys.argv = ["lmfsim", "simulate", {config!r}, "-o", "out"]
        try:
            runpy.run_module("lmfsim.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            seen["exit"] = exc.code
        seen["run"] = scipy_modules()
        """, tmp_path)
    assert seen == {"exit": 0, "run": []}
    assert (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("groups", [
    [_group(3, 0.85, {"kind": "pareto", "alpha": 1.5}),
     _group(1, 0.15, {"kind": "degenerate"})],
    [_group(2, 0.6, {"kind": "tabulated", "pmf": [[1, 0.3], [4, 0.5], [9, 0.2]]}),
     _group(1, 0.4, {"kind": "pareto", "alpha": 1.8})],
], ids=["pareto-degenerate", "tabulated"])
def test_pareto_and_tabulated_runs_load_no_scipy(tmp_path, groups):
    # stationary Pareto draws, zeta means and the dense binomial theory
    config = _config(tmp_path, groups, theory_grid="dense")
    seen = _stages(RUN.format(config=config), tmp_path)
    assert seen == {"import": [], "build": [], "run": []}
    assert (tmp_path / "out" / "theory.csv").exists()


def test_cli_theory_and_calibrate_on_a_pareto_config_load_no_scipy(tmp_path):
    config = _config(tmp_path, [
        _group(4, 0.9, {"kind": "pareto", "alpha": 1.5}),
        _group(1, 0.1, {"kind": "degenerate"})], theory_grid="dense")
    seen = _stages(f"""
        import runpy

        def cli(*argv):
            sys.argv = ["lmfsim", *argv]
            try:
                runpy.run_module("lmfsim.cli", run_name="__main__", alter_sys=True)
            except SystemExit as exc:
                return exc.code

        seen["theory"] = [cli("theory", {config!r}, "-o", "theory.csv"), scipy_modules()]
        seen["simulate"] = [cli("simulate", {config!r}, "-o", "out"), scipy_modules()]
        seen["calibrate"] = [cli("calibrate", "out/acf.csv", "--mu", "0.9",
                                 "--alpha", "1.5", "--window", "5", "50"),
                             scipy_modules()]
        """, tmp_path)
    assert seen == {"theory": [0, []], "simulate": [0, []], "calibrate": [0, []]}
    assert (tmp_path / "theory.csv").stat().st_size > 0


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_lmfsim_needs_no_scipy(tmp_path):
    # no import statement anywhere in the package, top level or nested
    files = sorted((SRC / "lmfsim").rglob("*.py"))
    assert files
    offenders = {f"{path.name}: {name}" for path in files
                 for name in _imported_modules(path)
                 if name.split(".")[0] == "scipy"}
    assert not offenders
    # and an oracle build, the last user of scipy.sparse, loads none of it
    seen = _stages("""
        from lmfsim import Population, Tabulated, TraderSpec
        from lmfsim.chain_oracle import build_oracle
        pop = Population([TraderSpec(0.5, Tabulated(support=[1, 3], probs=[0.4, 0.6]))])
        build_oracle(pop).acf([1, 2, 3])
        seen["oracle"] = scipy_modules()
        """, tmp_path)
    assert seen == {"oracle": []}


def test_run_describes_no_law_per_trader(tmp_path):
    # 3e4 exponential splitters with spread decay lengths: rebuilding one
    # law per trader (``with_param``) would show as 3e4 calls
    config = _config(tmp_path, [_group(30_000, 1.0, {
        "kind": "exponential", "decay_length": {"rule": "pareto", "theta": 1.5}})],
        collect_lengths="splitters")
    seen = _stages(f"""
        import lmfsim
        from lmfsim.config import load_config
        from lmfsim.laws import MetaorderLaw
        cfg = load_config({config!r})
        pop = cfg.build_population()
        calls = [0]
        for law in [MetaorderLaw, *MetaorderLaw.__subclasses__()]:
            if "with_param" in vars(law):
                def counted(self, param, _rebuild=law.with_param):
                    calls[0] += 1
                    return _rebuild(self, param)
                law.with_param = counted
        lmfsim.run_simulate(cfg, "out", population=pop)
        seen["traders"] = pop.size
        seen["with_param"] = calls[0]
        """, tmp_path)
    assert seen["traders"] == 30_000
    assert seen["with_param"] == 0
