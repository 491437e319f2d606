"""One benchmark operation, run in a fresh process by bench/run.py.

    python3 bench/worker.py CONFIG_JSON OUT_DIR TRACE

Times set-up (import, config load, population build) and one
`run_simulate`, then checks what the run wrote.  With TRACE=1 it also times
standalone calls into the config, numerics and engine layers and records a
span around every call `lmfsim.runner` makes into the engine, stats and
theory layers and into its own writers.  Prints one JSON object.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import lmfsim.runner  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from lmfsim.config import load_config  # noqa: E402
from lmfsim.engine import init_state  # noqa: E402
from lmfsim.numerics import AliasTable  # noqa: E402

# Names `lmfsim.runner` calls into the engine, stats and theory layers.  Its
# writers (`write_*`, `_write_*`) are spanned too but count as runner time.
LAYER_CALLS = (
    "simulate",
    "acf_estimate",
    "aggregate_metaorder_distribution",
    "average_curves",
    "exact_acf_market",
    "hetero_acf_asymptote",
)


class Spans:
    """In-memory spans: name, start, end and the index of the enclosing span."""

    def __init__(self):
        self.records = []
        self._stack = []

    def wrap(self, name, fn):
        def spanned(*args, **kwargs):
            record = [name, time.perf_counter(), None,
                      self._stack[-1] if self._stack else None]
            self._stack.append(len(self.records))
            self.records.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[2] = time.perf_counter()
        return spanned

    def total(self, name) -> float:
        return sum(end - start for n, start, end, _ in self.records if n == name)


@contextlib.contextmanager
def spanned_runner(spans):
    """Swap the names `lmfsim.runner` calls for span-recording wrappers.

    Yields `run_simulate` wrapped in the root span; restores the names on exit.
    """
    runner = lmfsim.runner
    writers = [n for n in vars(runner)
               if n.startswith(("write_", "_write_")) and callable(getattr(runner, n))]
    originals = {n: getattr(runner, n) for n in (*LAYER_CALLS, *writers)}
    for name, fn in originals.items():
        setattr(runner, name, spans.wrap(name, fn))
    try:
        yield spans.wrap("run_simulate", runner.run_simulate)
    finally:
        for name, fn in originals.items():
            setattr(runner, name, fn)


def standalone_layer_times(cfg) -> dict:
    """Layer calls timed on their own, on a second, separately built population."""
    t = time.perf_counter()
    pop = cfg.build_population()
    build_s = time.perf_counter() - t
    t = time.perf_counter()
    AliasTable.from_weights(pop.intensities)
    alias_s = time.perf_counter() - t
    t = time.perf_counter()
    init_state(pop, np.random.default_rng(cfg.seed), cfg.init_mode)
    init_s = time.perf_counter() - t
    return {"config.build_population_s": build_s,
            "numerics.alias_build_s": alias_s,
            "engine.init_state_s": init_s}


def main(config_path, out_dir, trace):
    cfg = load_config(config_path)
    pop = cfg.build_population()
    setup_s = time.perf_counter() - _T0

    result = {"setup_s": setup_s, "traced": trace}
    if trace:
        result["layers"] = standalone_layer_times(cfg)
        spans = Spans()
    with (spanned_runner(spans) if trace
          else contextlib.nullcontext(lmfsim.runner.run_simulate)) as run:
        t = time.perf_counter()
        manifest = run(cfg, out_dir, population=pop)
        run_s = time.perf_counter() - t
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from checks import check_run, stuck_run_allowance

    result.update({
        "run_s": run_s,
        "steps": cfg.replicas * cfg.steps,
        "peak_rss_mb": peak_rss_mb,
        "metaorders_logged": manifest["summary"]["metaorders_logged"],
        "artifact_bytes": sum(a["bytes"] for a in manifest["artifacts"].values()),
        "acf_sha256": manifest["artifacts"]["acf"]["sha256"],
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "lmfsim": manifest["version"]},
        "problems": check_run(out_dir, stuck_run_allowance(pop)),
    })
    if trace:
        result["layers"].update({
            "engine.simulate_s": spans.total("simulate"),
            "stats.acf_estimate_s": spans.total("acf_estimate"),
            "stats.aggregate_lengths_s": spans.total("aggregate_metaorder_distribution"),
            "theory.exact_acf_market_s": spans.total("exact_acf_market"),
            "theory.hetero_acf_asymptote_s": spans.total("hetero_acf_asymptote"),
            "runner.write_s": run_s - sum(spans.total(n) for n in LAYER_CALLS),
        })
        result["spans"] = [[n, s - t, e - t, p] for n, s, e, p in spans.records]
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1")
