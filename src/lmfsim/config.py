"""Run configuration: JSON schema, validation, population assembly.

A config describes a population as trader groups.  Each group carries a
trader count, an intensity rule and a length-law description:

    {
      "steps": 10000000, "seed": 11001, "replicas": 8, "max_lag": 10000,
      "groups": [
        {"count": 10, "intensity": {"rule": "equal", "mass": 0.7},
         "law": {"kind": "pareto", "alpha": 1.5}},
        {"count": 1, "intensity": {"rule": "equal", "mass": 0.3},
         "law": {"kind": "degenerate"}}
      ]
    }

Intensity rules: "equal" (mass split evenly), "explicit" (per-trader
values), "pareto" (truncated power-law profile, see allocate_intensities).
An exponential law may set "decay_length" to a number or to
{"rule": "pareto", "theta": ...} to spread decay lengths across the group
via allocate_decay_lengths.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .engine import INIT_MODES, Population, TraderSpec
from .errors import ConfigError, LmfsimError
from .laws import (
    Degenerate,
    Exponential,
    allocate_decay_lengths,
    allocate_intensities,
    law_from_config,
)

__all__ = ["GroupConfig", "ExperimentConfig", "load_config", "splitter_ids"]

log = logging.getLogger(__name__)

_INTENSITY_RULES = ("equal", "explicit", "pareto")
_COLLECT_MODES = ("splitters", "all", "none")
_GRID_KINDS = ("geometric", "dense")


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _number(kind, value, what: str):
    """``kind(value)``, with a malformed value reported as a ConfigError.

    No field takes a boolean or a string, even a numeric one.  An integer
    field takes an integral float (JSON ``1e7``) but no fraction or
    non-finite value.
    """
    noun = "an integer" if kind is int else "a number"
    try:
        if isinstance(value, (bool, str)) or (kind is int and isinstance(value, float)
                                              and not value.is_integer()):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be {noun}, got {value!r}") from exc


def _flag(d: dict, key: str, default: bool) -> bool:
    value = d.get(key, default)
    _require(isinstance(value, bool), f"{key} must be true or false, got {value!r}")
    return value


def _known_keys(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    _require(not unknown, f"unknown {where} keys: {sorted(unknown)}")


@dataclass(frozen=True)
class GroupConfig:
    """One homogeneous-rule trader group."""

    count: int
    intensity: dict
    law: dict

    @classmethod
    def from_dict(cls, d: dict) -> "GroupConfig":
        _require(isinstance(d, dict), "group must be an object")
        _known_keys(d, {"count", "intensity", "law"}, "group")
        for key in ("count", "intensity", "law"):
            _require(key in d, f"group is missing {key!r}")
        count = _number(int, d["count"], "group count")
        _require(count >= 1, f"group count must be >= 1, got {count}")
        _require(isinstance(d["intensity"], dict), "intensity must be an object")
        intensity = dict(d["intensity"])
        rule = intensity.get("rule")
        _require(
            rule in _INTENSITY_RULES,
            f"intensity rule must be one of {_INTENSITY_RULES}, got {rule!r}",
        )
        if rule == "equal":
            _known_keys(intensity, {"rule", "mass"}, "intensity")
            _require("mass" in intensity, "'equal' intensity needs a mass")
            numbers = [intensity["mass"]]
        elif rule == "explicit":
            _known_keys(intensity, {"rule", "values"}, "intensity")
            numbers = intensity.get("values")
            _require(
                isinstance(numbers, (list, tuple)) and len(numbers) == count,
                "'explicit' intensity needs one value per trader",
            )
        else:
            _known_keys(
                intensity, {"rule", "mass", "beta", "lambda_cut"}, "intensity"
            )
            for key in ("mass", "beta", "lambda_cut"):
                _require(key in intensity, f"'pareto' intensity needs {key!r}")
            numbers = [intensity[k] for k in ("mass", "beta", "lambda_cut")]
        for x in numbers:
            _number(float, x, f"{rule!r} intensity value")
        _require(isinstance(d["law"], dict), "law must be an object")
        return cls(count=count, intensity=intensity, law=dict(d["law"]))

    def mass(self) -> float:
        if self.intensity["rule"] == "explicit":
            return float(self.intensities().sum())
        return float(self.intensity["mass"])

    def intensities(self) -> np.ndarray:
        rule = self.intensity["rule"]
        if rule == "equal":
            return np.full(self.count, float(self.intensity["mass"]) / self.count)
        if rule == "explicit":
            return np.asarray(self.intensity["values"], dtype=np.float64)
        return allocate_intensities(
            self.count,
            float(self.intensity["beta"]),
            float(self.intensity["lambda_cut"]),
            float(self.intensity["mass"]),
        )

    def laws(self) -> list:
        law_cfg = self.law
        if law_cfg.get("kind") == "exponential" and isinstance(
            law_cfg.get("decay_length"), dict
        ):
            rule = law_cfg["decay_length"]
            _require(
                rule.get("rule") == "pareto" and "theta" in rule,
                "decay_length rule must be {'rule': 'pareto', 'theta': ...}",
            )
            theta = _number(float, rule["theta"], "decay_length theta")
            lengths = allocate_decay_lengths(self.count, theta)
            return [Exponential(decay_length=float(x)) for x in lengths]
        law = law_from_config(law_cfg)
        return [law] * self.count


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one simulation run (possibly replicated)."""

    steps: int
    seed: int
    max_lag: int
    groups: tuple
    replicas: int = 1
    init_mode: str = "stationary"
    collect_lengths: str = "splitters"
    save_signs: bool = False
    save_lengths: bool = True
    theory_grid: str = "geometric"
    label: str = ""

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _require(isinstance(d, dict), "config must be a JSON object")
        _known_keys(d, {f.name for f in fields(cls)}, "config")
        for key in ("steps", "seed", "max_lag", "groups"):
            _require(key in d, f"config is missing {key!r}")
        _require(isinstance(d["groups"], (list, tuple)), "groups must be a list")
        cfg = cls(
            steps=_number(int, d["steps"], "steps"),
            seed=_number(int, d["seed"], "seed"),
            max_lag=_number(int, d["max_lag"], "max_lag"),
            groups=tuple(GroupConfig.from_dict(g) for g in d["groups"]),
            replicas=_number(int, d.get("replicas", 1), "replicas"),
            init_mode=str(d.get("init_mode", "stationary")),
            collect_lengths=str(d.get("collect_lengths", "splitters")),
            save_signs=_flag(d, "save_signs", False),
            save_lengths=_flag(d, "save_lengths", True),
            theory_grid=str(d.get("theory_grid", "geometric")),
            label=d.get("label", ""),
        )
        cfg.validate()
        return cfg

    def validate(self):
        _require(self.steps >= 1000, f"steps must be >= 1000, got {self.steps}")
        _require(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        _require(self.replicas >= 1, f"replicas must be >= 1, got {self.replicas}")
        _require(self.max_lag >= 1, "max_lag must be >= 1")
        _require(isinstance(self.label, str), f"label must be a string, got {self.label!r}")
        _require(
            self.steps > 10 * self.max_lag,
            f"steps must exceed 10 * max_lag; got {self.steps} vs {self.max_lag}",
        )
        _require(len(self.groups) >= 1, "config needs at least one group")
        _require(
            self.init_mode in INIT_MODES,
            f"init_mode must be one of {INIT_MODES}, got {self.init_mode!r}",
        )
        _require(
            self.collect_lengths in _COLLECT_MODES,
            f"collect_lengths must be one of {_COLLECT_MODES}",
        )
        _require(
            self.theory_grid in _GRID_KINDS,
            f"theory_grid must be one of {_GRID_KINDS}",
        )
        total = sum(g.mass() for g in self.groups)
        if abs(total - 1.0) > 1e-9:
            log.warning(
                "group masses sum to %.12g, rescaling intensities to unit total",
                total,
            )

    def to_dict(self) -> dict:
        return asdict(self)

    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def build_population(self) -> Population:
        traders = []
        try:
            for g in self.groups:
                lams = g.intensities()
                laws = g.laws()
                traders.extend(
                    TraderSpec(float(lam), law) for lam, law in zip(lams, laws)
                )
        except ConfigError:
            raise
        except LmfsimError as exc:
            raise ConfigError(f"invalid group parameters: {exc}") from exc
        return Population(traders)

    def collect_mask(self, population: Population):
        if self.collect_lengths == "all":
            return True
        if self.collect_lengths == "none":
            return False
        return splitter_ids(population)


def splitter_ids(population: Population) -> list[int]:
    """Indices of traders that actually split (non-unit-length laws)."""
    return np.flatnonzero(~population._law_columns.has_law(Degenerate)).tolist()


def load_config(source) -> ExperimentConfig:
    """Load a config from a dict, JSON string or file path."""
    if isinstance(source, ExperimentConfig):
        return source
    if isinstance(source, dict):
        return ExperimentConfig.from_dict(source)
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return ExperimentConfig.from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
