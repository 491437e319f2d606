"""Self-test of the benchmark's correctness checks, at tiny sizes.

    python3 bench/selftest.py

Runs `run_simulate` once on a small exponential market, confirms that the
checks in bench/checks.py pass on its output, then breaks the output in one
way per check and confirms that each check reports it, including an ACF
check that carries the Pareto stuck-run allowance.  Exits 0 only if the
good run passes and every broken copy fails.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import (  # noqa: E402
    check_acf, check_artifacts, check_run, check_selections, read_simulated_acf,
    stuck_run_allowance,
)
from lmfsim import (  # noqa: E402
    Degenerate, DiscretePareto, Exponential, Population, TraderSpec,
    exact_acf_market, run_simulate,
)
from lmfsim.theory import default_lags  # noqa: E402

STEPS = 500_000
CONFIG = {
    "steps": STEPS, "seed": 7, "max_lag": 200, "replicas": 1,
    "groups": [{"count": 10, "intensity": {"rule": "equal", "mass": 1.0},
                "law": {"kind": "exponential", "decay_length": 5.0}}],
}


def main() -> int:
    work = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    good = work / "good"
    try:
        run_simulate(CONFIG, good)
        manifest = json.loads((good / "manifest.json").read_text())
        acf_file = good / manifest["artifacts"]["acf"]["path"]
        cases = {"correct output passes": (check_run(good), False)}

        # the same simulated ACF against the exact curve of decay length 20
        other = Population.homogeneous(10, Exponential(decay_length=20.0))
        lags = default_lags(CONFIG["max_lag"])
        cases["ACF against another decay length"] = (check_acf(
            *read_simulated_acf(acf_file), lags,
            exact_acf_market(other, lags).values), True)

        # a flat zero ACF against pareto-dense's market, stuck-run allowance on
        pareto = Population([TraderSpec(0.085, DiscretePareto(1.5))] * 10
                            + [TraderSpec(0.15, Degenerate())])
        sim_lags, _, sim_stderr = read_simulated_acf(acf_file)
        cases["zero ACF against a Pareto market"] = (check_acf(
            sim_lags, np.zeros(sim_lags.size), sim_stderr, lags,
            exact_acf_market(pareto, lags).values, stuck_run_allowance(pareto)), True)

        corrupt = shutil.copytree(good, work / "corrupt")
        data = bytearray((corrupt / acf_file.name).read_bytes())
        data[-3] = ord("9") if data[-3] != ord("9") else ord("8")
        (corrupt / acf_file.name).write_bytes(bytes(data))
        cases["corrupted artifact"] = (check_artifacts(corrupt, manifest), True)

        missing = shutil.copytree(good, work / "missing")
        (missing / manifest["artifacts"]["theory"]["path"]).unlink()
        cases["missing artifact"] = (check_artifacts(missing, manifest), True)

        short = json.loads(json.dumps(manifest))
        short["summary"]["total_selections"] -= 1
        cases["selection count off by one"] = (check_selections(short), True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = True
    for name, (problems, should_fail) in cases.items():
        passed = bool(problems) == should_fail
        ok &= passed
        detail = "; ".join(problems) or "no problems"
        print(f"{'ok  ' if passed else 'FAIL'} {name}: {detail}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
