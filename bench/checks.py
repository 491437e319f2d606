"""Correctness checks on one `run_simulate` output directory.

Each check returns a list of violation messages; an empty list means the
check passed.  They read only the files the run wrote, so the self-test can
point them at deliberately broken copies.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

# The simulated ACF must lie within ACF_Z reported standard errors of the
# exact value at every lag of the theory grid, which includes the region
# exact >= 10 / sqrt(T - tau) used by the acceptance criteria.  The reported
# error is the independent-product value 1/sqrt(R (T - tau)); over 20 seeds
# of the light-tailed workloads the worst lag reached 5.2 of them.  It is a
# statistical tolerance, not a fixed seed's residual, so a deliberate
# random-stream change still passes.
ACF_Z = 10.0


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_selections(manifest: dict) -> list[str]:
    summary = manifest["summary"]
    expected = int(summary["replicas"]) * int(summary["steps_per_replica"])
    got = int(summary["total_selections"])
    if got != expected:
        return [f"total_selections {got} != replicas x steps {expected}"]
    return []


def check_artifacts(out_dir, manifest: dict) -> list[str]:
    out_dir = Path(out_dir)
    problems = []
    for name, entry in manifest["artifacts"].items():
        path = out_dir / entry["path"]
        if not path.is_file():
            problems.append(f"artifact {name}: {entry['path']} missing")
        elif sha256_file(path) != entry["sha256"]:
            problems.append(f"artifact {name}: sha256 differs from the manifest")
    return problems


def read_simulated_acf(path):
    """(lags, values, stderr) from an acf.csv written with standard errors."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["lag", "value", "stderr"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    data = np.array(rows[1:], dtype=np.float64)
    return data[:, 0].astype(np.int64), data[:, 1], data[:, 2]


def read_exact_acf(path):
    """(lags, values) of the rows of kind 'exact' in a theory.csv."""
    lags, values = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["lag", "value", "kind"]:
            raise ValueError(f"{path}: unexpected header")
        for lag, value, kind in reader:
            if kind == "exact":
                lags.append(int(lag))
                values.append(float(value))
    return np.asarray(lags, dtype=np.int64), np.asarray(values)


def stuck_run_allowance(population) -> float:
    """Extra ACF tolerance for traders that can hold one metaorder for a whole run.

    A Pareto law with tail exponent <= 2 has a stationary remaining count of
    infinite mean, so a stationary start sometimes hands a trader a
    metaorder longer than the run (about 1 seed in 40 for the pareto-dense
    workload).  That trader then adds up to intensity**2 to the sample ACF at
    every lag.  The allowance covers two such traders.
    """
    shifts = sorted(
        float(lam) ** 2
        for lam, trader in zip(population.intensities, population.traders)
        if trader.law.kind == "pareto" and trader.law.tail_exponent <= 2.0
    )
    return sum(shifts[-2:])


def check_acf(sim_lags, sim_values, sim_stderr, exact_lags, exact_values,
              allowance: float = 0.0) -> list[str]:
    """Simulated against exact ACF on the exact curve's lag grid."""
    if not len(exact_lags):
        return ["theory.csv has no exact curve"]
    pos = {int(lag): k for k, lag in enumerate(sim_lags)}
    missing = [int(lag) for lag in exact_lags if int(lag) not in pos]
    if missing:
        return [f"simulated ACF lacks theory lags, e.g. {missing[:3]}"]
    idx = np.array([pos[int(lag)] for lag in exact_lags], dtype=np.int64)
    excess = np.abs(sim_values[idx] - exact_values) - allowance
    z = excess / sim_stderr[idx]
    worst = int(np.argmax(z))
    if z[worst] > ACF_Z:
        return [f"ACF off by {z[worst]:.1f} standard errors beyond the allowance "
                f"{allowance:.3g} at lag {int(exact_lags[worst])} (limit {ACF_Z})"]
    return []


def check_run(out_dir, allowance: float = 0.0) -> list[str]:
    """All checks on one run directory, reading its manifest from disk."""
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    problems = check_selections(manifest) + check_artifacts(out_dir, manifest)
    sim = read_simulated_acf(out_dir / manifest["artifacts"]["acf"]["path"])
    exact = read_exact_acf(out_dir / manifest["artifacts"]["theory"]["path"])
    return problems + check_acf(*sim, *exact, allowance)
