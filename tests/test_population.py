"""Columns-first populations: a config builds its law columns with whole-array
operations, and they agree with the per-trader construction."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from lmfsim import (
    ConfigError,
    Degenerate,
    DiscretePareto,
    Exponential,
    Population,
    Tabulated,
    TraderSpec,
    run_simulate,
    simulate,
)
from lmfsim.config import load_config
from lmfsim.errors import DomainError
from lmfsim.laws import allocate_decay_lengths, law_from_config
from lmfsim.theory import default_lags, exact_acf_market

ROOT = Path(__file__).resolve().parent.parent


def _group(count, law, mass=None, values=None):
    intensity = ({"rule": "explicit", "values": values} if values is not None
                 else {"rule": "equal", "mass": mass})
    return {"count": count, "intensity": intensity, "law": law}


DECAY_RULE = {"kind": "exponential", "decay_length": {"rule": "pareto", "theta": 1.5}}
TABLE = {"kind": "tabulated", "pmf": [[1, 0.3], [4, 0.5], [9, 0.2]]}

CASES = {
    "exponential-decay-rule": [_group(500, DECAY_RULE, mass=1.0)],
    "pareto-degenerate": [_group(10, {"kind": "pareto", "alpha": 1.5}, mass=0.85),
                          _group(1, {"kind": "degenerate"}, mass=0.15)],
    "tabulated": [_group(3, TABLE, values=[0.2, 0.3, 0.1]),
                  _group(2, {"kind": "tabulated", "pmf": [[2, 1.0]]}, mass=0.4)],
    # equal batch keys across groups share one law group; the rule group
    # sits between two fixed exponential groups
    "mixed": [_group(2, {"kind": "exponential", "decay_length": 3.0}, mass=0.2),
              _group(50, DECAY_RULE, mass=0.2),
              _group(3, {"kind": "pareto", "alpha": 1.8}, mass=0.15),
              _group(2, TABLE, mass=0.1),
              _group(2, {"kind": "degenerate"}, values=[0.05, 0.05]),
              _group(1, {"kind": "exponential", "decay_length": 7.0}, mass=0.1),
              _group(2, TABLE, mass=0.1),
              _group(1, {"kind": "pareto", "alpha": 1.5}, mass=0.05)],
}


def per_trader_population(cfg) -> Population:
    """The per-trader construction: one TraderSpec and one law object per
    trader (a fresh one for every fixed law), then ``Population(traders)``."""
    traders = []
    for g in cfg.groups:
        rule = g.law.get("decay_length")
        if isinstance(rule, dict):
            laws = [Exponential(float(d))
                    for d in allocate_decay_lengths(g.count, rule["theta"])]
        else:
            laws = [law_from_config(g.law) for _ in range(g.count)]
        traders += [TraderSpec(float(lam), law) for lam, law in zip(g.intensities(), laws)]
    return Population(traders)


def _config(groups, **extra):
    return load_config({"steps": 200_000, "seed": 5, "max_lag": 100,
                        "groups": groups, **extra})


@pytest.mark.parametrize("name", sorted(CASES))
def test_columns_match_the_per_trader_construction(name):
    cfg = _config(CASES[name])
    columns, traders = cfg.build_population(), per_trader_population(cfg)
    assert columns.digest() == traders.digest()
    for attr in ("intensities", "group", "param", "mean"):
        assert np.array_equal(getattr(columns, attr), getattr(traders, attr)), attr
    a = simulate(columns, 50_000, 9)
    b = simulate(traders, 50_000, 9)
    assert a.signs.tobytes() == b.signs.tobytes()
    for attr in ("lengths", "offsets", "selection_counts"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr
    assert np.array_equal(a.final_state.remaining, b.final_state.remaining)
    lags = default_lags(2000)
    assert np.array_equal(exact_acf_market(columns, lags).values,
                          exact_acf_market(traders, lags).values)
    # the derived view lists the same traders, with normalised intensities
    view = [(t.intensity, t.law.batch_key(), t.law.param) for t in columns.traders]
    assert view == [(float(lam), t.law.batch_key(), t.law.param)
                    for lam, t in zip(traders.intensities, traders.traders)]


def test_view_round_trips_and_is_built_once():
    pop = _config(CASES["mixed"]).build_population()
    assert "traders" not in vars(pop)
    assert pop.traders is pop.traders
    assert len(pop.traders) == pop.size
    assert Population(pop.traders).digest() == pop.digest()


def _workload_configs():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return {name: make(1) for name, make in bench.WORKLOADS.items()}


@pytest.mark.parametrize("name", ["readme-exp10", "many-splitters", "pareto-dense"])
def test_workload_runs_never_build_the_trader_view(name, tmp_path, monkeypatch):
    # the benchmark's populations at a short run length: no step of a run
    # (theory, simulate, digest, writers) may need one object per trader
    def no_view(self):
        raise AssertionError("a run built Population.traders")

    monkeypatch.setattr(Population, "traders", property(no_view))
    cfg = load_config({**_workload_configs()[name], "steps": 200_000})
    pop = cfg.build_population()
    manifest = run_simulate(cfg, tmp_path / "run", population=pop)
    assert manifest["population_digest"] == pop.digest()


class _Counted:
    """Counts the calls of one class's ``__post_init__``."""

    def __init__(self, monkeypatch, cls):
        self.calls = 0
        original = cls.__post_init__

        def counted(obj):
            self.calls += 1
            original(obj)

        monkeypatch.setattr(cls, "__post_init__", counted)


def test_decay_rule_group_builds_one_law_and_little_memory(monkeypatch, traced_peak):
    cfg = _config([_group(100_000, DECAY_RULE, mass=1.0)])
    counts = {cls: _Counted(monkeypatch, cls)
              for cls in (TraderSpec, Exponential, DiscretePareto, Tabulated)}
    pop, peak = traced_peak(cfg.build_population)
    assert pop.size == 100_000
    assert {cls.__name__: c.calls for cls, c in counts.items()} == {
        "TraderSpec": 0, "Exponential": 1, "DiscretePareto": 0, "Tabulated": 0}
    assert len(pop.laws) == 1
    # a handful of 0.8 MB columns; a TraderSpec and a law per trader took tens of MB
    assert peak < 8 * 2**20, peak / 2**20
    assert np.array_equal(pop.param, allocate_decay_lengths(100_000, 1.5))


@pytest.mark.parametrize("group", [
    _group(3, {"kind": "exponential", "decay_length": {"rule": "pareto", "theta": 1.0}},
           mass=1.0),
    _group(3, {"kind": "exponential", "decay_length": {"rule": "pareto", "theta": math.nan}},
           mass=1.0),
    # the largest decay length, 3**1000, overflows
    _group(3, {"kind": "exponential",
               "decay_length": {"rule": "pareto", "theta": 1.001}}, mass=1.0),
    _group(2, {"kind": "exponential", "decay_length": -1.0}, mass=1.0),
    _group(2, {"kind": "degenerate"}, values=[1.5, 0.1]),
    _group(2, {"kind": "degenerate"}, values=[-0.1, 0.5]),
    _group(2, {"kind": "degenerate"}, values=[math.nan, 0.5]),
    _group(2, DECAY_RULE, values=[math.inf, 0.5]),
    _group(2, {"kind": "degenerate"}, values=[0.0, 0.0]),
], ids=["theta-one", "theta-nan", "decay-overflow", "decay-negative",
        "intensity-above-one", "intensity-negative", "intensity-nan",
        "intensity-infinite", "intensity-total-zero"])
def test_bad_columns_are_config_errors(group):
    cfg = _config([group])
    with pytest.raises(ConfigError):
        cfg.build_population()


@pytest.mark.parametrize("count, law, mass", [
    (2, Degenerate(), 3.0),
    (2, Exponential(2.0), math.nan),
    (1, DiscretePareto(1.5), -1.0),
])
def test_bad_homogeneous_intensity_is_a_domain_error(count, law, mass):
    # equal intensities mass / count: outside an experiment config, the
    # whole-column check raises TraderSpec's DomainError
    with pytest.raises(DomainError):
        Population._from_columns(np.full(count, mass / count), [law],
                                 np.zeros(count, dtype=np.int32),
                                 np.full(count, law.param))
