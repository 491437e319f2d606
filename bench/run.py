"""End-to-end benchmark of `lmfsim.runner.run_simulate`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each operation is one fresh worker
process (bench/worker.py) that imports lmfsim from ./src, loads the
workload's config, builds the population, runs `run_simulate` and checks the
artifacts it wrote.  Workers run strictly one after another, with BLAS and
OpenMP pools pinned to one thread, until the next one would end after
--seconds.  The last line of standard output is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.  A
fuller record (versions, seed, acf.csv digest, every sample, the last
worker's spans) goes to .bench_work/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_OPERATIONS = 3
WORKER_TIMEOUT_S = 150


def _group(count, mass, law):
    return {"count": count, "intensity": {"rule": "equal", "mass": mass}, "law": law}


# Each workload puts most of one layer's work in front of the clock and keeps
# another layer small; bench/README.md gives the reasons and the layer map.
WORKLOADS = {
    # The README config at one replica: simulate, FFT ACF and the per-row
    # metaorders.csv writer each take about a third.
    "readme-exp10": lambda seed: {
        "steps": 10_000_000, "seed": seed, "max_lag": 600, "replicas": 1,
        "groups": [_group(10, 1.0, {"kind": "exponential", "decay_length": 5.0})],
        "label": "readme-exp10",
    },
    # The fig5 population at 30x the traders: the per-trader emit loop in
    # simulate dominates, theory takes its one-group-per-trader closed-form
    # path.  8e6 steps is one engine chunk; 1e5 traders would need two chunks
    # to keep runner self time under 5 %, about 15 s per operation on a
    # 2-vCPU Xeon VM, which leaves too few operations per run.
    "many-splitters": lambda seed: {
        "steps": 8_000_000, "seed": seed, "max_lag": 2000, "replicas": 1,
        "groups": [_group(30_000, 1.0, {
            "kind": "exponential",
            "decay_length": {"rule": "pareto", "theta": 1.5}})],
        "collect_lengths": "none", "save_lengths": False,
        "label": "many-splitters",
    },
    # The fig4 quantitative cell at mu=0.85 on the dense theory grid: the
    # O(max_lag^2) binomial sweep of exact_acf_market dominates.
    "pareto-dense": lambda seed: {
        "steps": 4_000_000, "seed": seed, "max_lag": 10_000, "replicas": 1,
        "groups": [_group(10, 0.85, {"kind": "pareto", "alpha": 1.5}),
                   _group(1, 0.15, {"kind": "degenerate"})],
        "theory_grid": "dense", "collect_lengths": "none",
        "label": "pareto-dense",
    },
}

END_TO_END = {"setup_s": "s", "run_s": "s", "msteps_per_s": "Msteps/s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "config.build_population_s": "s",
    "numerics.alias_build_s": "s",
    "engine.init_state_s": "s",
    "engine.simulate_s": "s",
    "engine.msteps_per_s": "Msteps/s",
    "stats.acf_estimate_s": "s",
    "stats.aggregate_lengths_s": "s",
    "theory.exact_acf_market_s": "s",
    "theory.hetero_acf_asymptote_s": "s",
    "runner.write_s": "s",
    "runner.artifact_bytes": "bytes",
    "engine.metaorders_logged": "count",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(config_path: Path, out_dir: Path, trace: bool, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), str(config_path),
         str(out_dir), "1" if trace else "0"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end_metrics(samples) -> dict:
    return {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "run_s": statistics.median(s["run_s"] for s in samples),
        "msteps_per_s": statistics.median(s["steps"] / 1e6 / s["run_s"]
                                          for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def per_layer_metrics(traced, untraced) -> dict:
    out = {name: statistics.median(s["layers"][name] for s in traced)
           for name in PER_LAYER if name in traced[0]["layers"]}
    out["engine.msteps_per_s"] = statistics.median(
        s["steps"] / 1e6 / s["layers"]["engine.simulate_s"] for s in traced)
    out["runner.artifact_bytes"] = traced[0]["artifact_bytes"]
    out["engine.metaorders_logged"] = traced[0]["metaorders_logged"]
    out["trace.run_s"] = statistics.median(s["run_s"] for s in traced)
    out["trace.overhead_s"] = (out["trace.run_s"]
                               - statistics.median(s["run_s"] for s in untraced))
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    """Run workers until the next would end after ``seconds``; returns samples."""
    config_path = work / "config.json"
    config_path.write_text(json.dumps(WORKLOADS[workload](seed)))
    env = worker_env()
    warm = subprocess.run([sys.executable, "-c", "import lmfsim"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if warm.returncode != 0:
        raise RuntimeError(f"cannot import lmfsim from {SRC}:\n{warm.stderr}")
    samples, durations = [], []
    start = time.perf_counter()
    while len(samples) < MIN_OPERATIONS or (
            time.perf_counter() - start + statistics.median(durations) <= seconds):
        out_dir = work / f"op{len(samples)}"
        # with tracing, every second operation runs untraced for the overhead
        t = time.perf_counter()
        samples.append(run_worker(config_path, out_dir,
                                  trace and len(samples) % 2 == 0, env))
        durations.append(time.perf_counter() - t)
        shutil.rmtree(out_dir)
    return samples


def count_failures(samples) -> int:
    """Operations whose own checks failed or whose outputs differ from the first's."""
    first = samples[0]
    failed = 0
    for s in samples:
        same = all(s[k] == first[k] for k in
                   ("acf_sha256", "metaorders_logged", "artifact_bytes"))
        if s["problems"] or not same:
            failed += 1
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "lmfsim" / "__init__.py").is_file():
        print(f"no lmfsim sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        samples = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = count_failures(samples)
    if args.trace:
        traced = [s for s in samples if s["traced"]]
        values = per_layer_metrics(traced, [s for s in samples if not s["traced"]])
        units = PER_LAYER
    else:
        values = end_to_end_metrics(samples)
        units = END_TO_END
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_rev": git_rev(),
        "nproc": len(os.sched_getaffinity(0)),
        "versions": samples[0]["versions"],
        "acf_sha256": samples[0]["acf_sha256"],
        "config": WORKLOADS[args.workload](args.seed),
        "samples": [{k: v for k, v in s.items() if k != "spans"} for s in samples],
        "last_spans": next((s["spans"] for s in reversed(samples) if "spans" in s), None),
        "metrics": values,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({k: record[k] for k in
                      ("workload", "seed", "git_rev", "nproc", "versions", "acf_sha256")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
