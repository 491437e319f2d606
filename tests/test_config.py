"""Config ingestion: validation, expansion into populations, digests."""

import json

import numpy as np
import pytest

from lmfsim.config import ExperimentConfig, GroupConfig, load_config, splitter_ids
from lmfsim.engine import Population, TraderSpec
from lmfsim.errors import ConfigError
from lmfsim.laws import Degenerate, Exponential


def base_dict(**overrides):
    d = {
        "label": "unit",
        "steps": 100_000,
        "seed": 7,
        "max_lag": 100,
        "groups": [
            {
                "count": 10,
                "intensity": {"rule": "equal", "mass": 1.0},
                "law": {"kind": "exponential", "decay_length": 5.0},
            }
        ],
    }
    d.update(overrides)
    return d


class TestGroupConfig:
    def test_equal_rule(self):
        g = GroupConfig.from_dict(
            {"count": 4, "intensity": {"rule": "equal", "mass": 0.8},
             "law": {"kind": "degenerate"}})
        assert np.allclose(g.intensities(), 0.2)
        assert g.mass() == pytest.approx(0.8)

    def test_explicit_rule(self):
        g = GroupConfig.from_dict(
            {"count": 2, "intensity": {"rule": "explicit", "values": [0.3, 0.7]},
             "law": {"kind": "degenerate"}})
        assert g.intensities().tolist() == [0.3, 0.7]
        assert g.mass() == pytest.approx(1.0)

    def test_pareto_rule(self):
        g = GroupConfig.from_dict(
            {"count": 100,
             "intensity": {"rule": "pareto", "mass": 1.0, "beta": 0.5,
                           "lambda_cut": 1e-4},
             "law": {"kind": "degenerate"}})
        lams = g.intensities()
        assert lams.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(lams) >= 0)

    def test_decay_length_allocation(self):
        g = GroupConfig.from_dict(
            {"count": 4, "intensity": {"rule": "equal", "mass": 1.0},
             "law": {"kind": "exponential",
                     "decay_length": {"rule": "pareto", "theta": 1.5}}})
        lengths = [law.decay_length for law in g.laws()]
        assert lengths == pytest.approx([1.0, 16 / 9, 4.0, 16.0], rel=1e-12)

    def test_rejections(self):
        good = {"count": 2, "intensity": {"rule": "equal", "mass": 1.0},
                "law": {"kind": "degenerate"}}
        with pytest.raises(ConfigError):
            GroupConfig.from_dict({**good, "count": 0})
        with pytest.raises(ConfigError):
            GroupConfig.from_dict({**good, "intensity": {"rule": "bogus"}})
        with pytest.raises(ConfigError):
            GroupConfig.from_dict(
                {**good, "intensity": {"rule": "explicit", "values": [0.5]}})
        with pytest.raises(ConfigError):
            GroupConfig.from_dict({**good, "surprise": 1})
        with pytest.raises(ConfigError):
            GroupConfig.from_dict(
                {"count": 2, "intensity": {"rule": "equal", "mass": 1.0}})


class TestExperimentConfig:
    def test_round_trip_preserves_digest(self):
        cfg = ExperimentConfig.from_dict(base_dict())
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert cfg.digest() == again.digest()
        assert cfg == again

    def test_digest_of_a_known_config(self):
        # the digest names every run directory; a change of field order,
        # names or types would silently orphan the runs already written
        cfg = ExperimentConfig.from_dict(base_dict())
        assert cfg.digest() == (
            "8a4b37c821a71be7acec1ebad6b6ebab7f2c6aeb16fa0137828bfba8719c1145")

    def test_integral_floats_are_integers(self):
        cfg = ExperimentConfig.from_dict(base_dict(steps=1e5, max_lag=100.0))
        assert (cfg.steps, cfg.max_lag) == (100_000, 100)
        assert type(cfg.steps) is int and type(cfg.max_lag) is int
        assert cfg.digest() == ExperimentConfig.from_dict(base_dict()).digest()

    def test_numpy_scalars_are_numbers(self):
        # a Python caller may pass numpy scalars; JSON strings are refused
        d = base_dict(steps=np.int64(100_000), seed=np.int64(7))
        d["groups"][0].update(
            count=np.int64(2),
            intensity={"rule": "explicit", "values": [np.float64(0.5)] * 2},
            law={"kind": "exponential", "decay_length": np.float64(5.0)})
        cfg = ExperimentConfig.from_dict(d)
        assert type(cfg.steps) is int and cfg.build_population().size == 2

    def test_digest_is_order_insensitive_but_content_sensitive(self):
        d = base_dict()
        shuffled = dict(reversed(list(d.items())))
        assert (ExperimentConfig.from_dict(d).digest()
                == ExperimentConfig.from_dict(shuffled).digest())
        other = ExperimentConfig.from_dict(base_dict(seed=8))
        assert other.digest() != ExperimentConfig.from_dict(d).digest()

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_dict(steps=999))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_dict(steps=5000, max_lag=500))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_dict(replicas=0))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_dict(init_mode="warm"))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_dict(collect_lengths="some"))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_dict(typo_key=1))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_dict(groups=[]))

    def test_off_unit_mass_warns_and_rescales(self, caplog):
        d = base_dict()
        d["groups"][0]["intensity"]["mass"] = 0.5
        with caplog.at_level("WARNING"):
            cfg = ExperimentConfig.from_dict(d)
        assert any("rescal" in r.message for r in caplog.records)
        pop = cfg.build_population()
        assert pop.intensities.sum() == pytest.approx(1.0, abs=1e-12)
        assert pop.intensities == pytest.approx([0.1] * 10, rel=1e-15)

    def test_build_population_expands_groups(self):
        d = base_dict(groups=[
            {"count": 3, "intensity": {"rule": "equal", "mass": 0.6},
             "law": {"kind": "exponential", "decay_length": 2.0}},
            {"count": 2, "intensity": {"rule": "explicit", "values": [0.1, 0.3]},
             "law": {"kind": "degenerate"}},
        ])
        pop = ExperimentConfig.from_dict(d).build_population()
        assert pop.size == 5
        assert np.allclose(pop.intensities[:3], 0.2)
        assert pop.intensities[4] == pytest.approx(0.3)
        assert pop.traders[0].law.kind == "exponential"
        assert pop.traders[3].law.kind == "degenerate"

    def test_bad_group_parameters_become_config_errors(self):
        d = base_dict()
        d["groups"][0]["law"] = {"kind": "exponential",
                                 "decay_length": {"rule": "pareto", "theta": 1.0}}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d).build_population()

    def test_collect_mask_modes(self):
        pop = Population([
            TraderSpec(0.5, Exponential(decay_length=2.0)),
            TraderSpec(0.5, Degenerate()),
        ])
        assert ExperimentConfig.from_dict(
            base_dict(collect_lengths="all")).collect_mask(pop) is True
        assert ExperimentConfig.from_dict(
            base_dict(collect_lengths="none")).collect_mask(pop) is False
        assert ExperimentConfig.from_dict(
            base_dict(collect_lengths="splitters")).collect_mask(pop) == [0]


class TestSplitterIds:
    def test_degenerate_traders_are_not_splitters(self):
        pop = Population([
            TraderSpec(0.3, Degenerate()),
            TraderSpec(0.3, Exponential(decay_length=5.0)),
            TraderSpec(0.4, Degenerate()),
        ])
        assert splitter_ids(pop) == [1]


class TestLoadConfig:
    def test_from_dict_and_passthrough(self):
        cfg = load_config(base_dict())
        assert isinstance(cfg, ExperimentConfig)
        assert load_config(cfg) is cfg

    def test_from_path(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(base_dict()))
        assert load_config(path).digest() == load_config(base_dict()).digest()
        assert load_config(str(path)).digest() == load_config(base_dict()).digest()

    def test_missing_and_malformed_files(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)
