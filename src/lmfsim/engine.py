"""Order-splitting market simulator.

A population of M traders shares the step clock: each step one trader is
selected with probability equal to its intensity, emits the sign of its
current metaorder, and then either decrements its remaining count or, on
completion, logs the metaorder, redraws a fresh length from its law and a
fresh symmetric sign.

``simulate`` is the production path.  It never iterates step by step;
instead it draws a chunk of trader selections, groups them per trader
(stable sort), and lays each trader's signs down as repeated runs.  This is
exactly the serial dynamics because a trader's state only changes at its own
selections.  ``step`` exposes the single-transition version for reference
and unit tests.

Bookkeeping convention: the first completion of a trader logs only the
executions that happened inside the simulated window (the initial remaining
count), so that per trader

    sum(logged lengths) + final progress == selection count

holds exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError, NonconvergentMean
from .laws import MetaorderLaw
from .numerics import AliasTable

__all__ = [
    "TraderSpec",
    "Population",
    "MarketState",
    "SimulationOutput",
    "init_state",
    "step",
    "simulate",
]

INIT_MODES = ("stationary", "fresh_draw")


@dataclass(frozen=True)
class TraderSpec:
    """One trader: a selection intensity and a metaorder length law."""

    intensity: float
    law: MetaorderLaw

    def __post_init__(self):
        # zero intensity is legal: the trader holds its state forever
        if not (0.0 <= self.intensity <= 1.0) or not math.isfinite(self.intensity):
            raise DomainError(f"intensity must lie in [0, 1], got {self.intensity}")


class Population:
    """Immutable collection of traders with intensities normalised to 1.

    Construction rescales the intensities to an exact unit total and records
    the multiplicative adjustment that was applied.
    """

    def __init__(self, traders: Sequence[TraderSpec]):
        if len(traders) == 0:
            raise ConfigError("population must contain at least one trader")
        self.traders = tuple(traders)
        raw = np.array([t.intensity for t in self.traders], dtype=np.float64)
        total = raw.sum()
        if not np.isfinite(total) or total <= 0.0:
            raise ConfigError(f"total intensity must be positive, got {total}")
        self.intensity_adjustment = float(total - 1.0)
        self.intensities = raw / total
        self.intensities.setflags(write=False)

    @classmethod
    def homogeneous(cls, count: int, law: MetaorderLaw, total_mass: float = 1.0):
        if count < 1:
            raise ConfigError(f"count must be >= 1, got {count}")
        return cls([TraderSpec(total_mass / count, law) for _ in range(count)])

    @property
    def size(self) -> int:
        return len(self.traders)

    @property
    def laws(self) -> list[MetaorderLaw]:
        return [t.law for t in self.traders]

    def describe(self) -> dict:
        return {
            "traders": [
                {"intensity": float(lam), "law": t.law.as_config()}
                for lam, t in zip(self.intensities, self.traders)
            ]
        }

    def digest(self) -> str:
        payload = json.dumps(self.describe(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class MarketState:
    """Phase-space point: last market sign plus per-trader metaorder state."""

    market_sign: int
    signs: np.ndarray      # int8, current metaorder sign per trader
    remaining: np.ndarray  # int64, executions left in the current metaorder
    progress: np.ndarray   # int64, executions already absorbed by it

    def copy(self) -> "MarketState":
        return MarketState(
            self.market_sign,
            self.signs.copy(),
            self.remaining.copy(),
            self.progress.copy(),
        )


@dataclass
class SimulationOutput:
    """Everything a run produces besides file artifacts."""

    signs: np.ndarray | None
    metaorder_log: list[np.ndarray]
    selection_counts: np.ndarray
    final_progress: np.ndarray
    final_state: MarketState
    steps: int
    seed: int | None
    config_digest: str
    burn_in: int = 0
    lengths_collected: np.ndarray = field(default_factory=lambda: np.array([], bool))


def init_state(
    population: Population, rng: np.random.Generator, mode: str = "stationary"
) -> MarketState:
    """Draw an initial phase-space point.

    ``stationary`` samples each remaining count from the size-biased law
    P_st(R) = ccdf(R)/mean (the model's exact stationary marginal);
    ``fresh_draw`` starts every trader on a brand-new metaorder.
    """
    if mode not in INIT_MODES:
        raise ConfigError(f"init mode must be one of {INIT_MODES}, got {mode!r}")
    m = population.size
    if mode == "stationary":
        remaining = np.array(
            [t.law.sample_stationary_remaining(rng) for t in population.traders],
            dtype=np.int64,
        )
    else:
        remaining = np.array(
            [t.law.sample_length(rng) for t in population.traders], dtype=np.int64
        )
    signs = (rng.integers(0, 2, size=m, dtype=np.int8) * 2 - 1).astype(np.int8)
    market_sign = int(rng.integers(0, 2)) * 2 - 1
    return MarketState(
        market_sign=market_sign,
        signs=signs,
        remaining=remaining,
        progress=np.zeros(m, dtype=np.int64),
    )


def step(
    state: MarketState,
    population: Population,
    sampler: AliasTable,
    rng: np.random.Generator,
):
    """Advance one step in place; returns (trader, emitted sign, completed length or None)."""
    i = int(sampler.draw(rng))
    s = int(state.signs[i])
    state.market_sign = s
    completed = None
    if state.remaining[i] > 1:
        state.remaining[i] -= 1
        state.progress[i] += 1
    else:
        completed = int(state.progress[i]) + 1
        state.remaining[i] = int(population.traders[i].law.sample_length(rng))
        state.progress[i] = 0
        state.signs[i] = int(rng.integers(0, 2)) * 2 - 1
    return i, s, completed


class _TraderRuntime:
    """Mutable per-trader run state used by the chunked fast path."""

    __slots__ = ("law", "sign", "remaining", "progress", "mean", "log", "collect")

    def __init__(self, law: MetaorderLaw, sign: int, remaining: int, progress: int,
                 collect: bool):
        self.law = law
        self.sign = int(sign)
        self.remaining = int(remaining)
        self.progress = int(progress)
        try:
            self.mean = law.mean_length()
        except NonconvergentMean:
            self.mean = None
        self.log: list[np.ndarray] = []
        self.collect = collect

    def emit(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Produce this trader's next n signs and update run bookkeeping."""
        if n < self.remaining:
            self.remaining -= n
            self.progress += n
            return np.full(n, self.sign, dtype=np.int8)
        head = np.full(self.remaining, self.sign, dtype=np.int8)
        if self.collect:
            self.log.append(
                np.array([self.progress + self.remaining], dtype=np.int64)
            )
        m = n - self.remaining
        if m == 0:
            self._redraw(rng)
            return head
        lengths = self._draw_runs(m, rng)
        cs = np.cumsum(lengths.astype(np.float64))
        j = int(np.searchsorted(cs, float(m), side="left"))
        run_signs = (rng.integers(0, 2, size=j + 1, dtype=np.int8) * 2 - 1)
        emitted_last = m - (int(cs[j - 1]) if j > 0 else 0)
        reps = np.empty(j + 1, dtype=np.int64)
        reps[:j] = lengths[:j]
        reps[j] = emitted_last
        body = np.repeat(run_signs, reps)
        if self.collect and j > 0:
            self.log.append(lengths[:j].copy())
        if emitted_last == lengths[j]:
            if self.collect:
                self.log.append(lengths[j : j + 1].copy())
            self._redraw(rng)
        else:
            self.sign = int(run_signs[j])
            self.remaining = int(lengths[j]) - emitted_last
            self.progress = emitted_last
        return np.concatenate((head, body))

    def _redraw(self, rng):
        self.remaining = int(self.law.sample_length(rng))
        self.progress = 0
        self.sign = int(rng.integers(0, 2)) * 2 - 1

    def _draw_runs(self, m: int, rng) -> np.ndarray:
        if self.mean is not None:
            batch = max(8, int(m / self.mean * 1.15) + 4)
        else:
            batch = 8
        parts = []
        total = 0
        while total < m:
            draw = self.law.sample_length(rng, size=batch)
            parts.append(draw)
            total += int(draw.sum(dtype=np.float64))
            batch *= 4
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def reset_collection(self):
        self.log = []
        self.progress = 0


def _normalise_collect(collect_lengths, size: int) -> np.ndarray:
    if collect_lengths is True:
        return np.ones(size, dtype=bool)
    if collect_lengths is False or collect_lengths is None:
        return np.zeros(size, dtype=bool)
    mask = np.zeros(size, dtype=bool)
    idx = np.asarray(list(collect_lengths), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise ConfigError("collect_lengths indices out of range")
    mask[idx] = True
    return mask


def simulate(
    population: Population,
    steps: int,
    seed,
    *,
    init_mode: str = "stationary",
    burn_in: int | None = None,
    collect_lengths=True,
    keep_signs: bool = True,
    chunk_size: int = 1 << 23,
) -> SimulationOutput:
    """Run the market for ``steps`` steps and return signs plus bookkeeping.

    Parameters
    ----------
    population : Population
    steps : int
        Number of recorded steps (after any burn-in).
    seed : int, SeedSequence or Generator
        Source of randomness; the same seed always reproduces the output
        byte for byte.
    init_mode : {"stationary", "fresh_draw"}
    burn_in : int, optional
        Discarded warm-up steps.  Defaults to 0 for stationary starts and to
        ``ceil(10 / min intensity)`` for fresh draws.
    collect_lengths : bool or iterable of trader indices
        Which traders append completed metaorders to the log.
    keep_signs : bool
        Store the emitted sign series (int8, one byte per step).
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if chunk_size < 1:
        raise ConfigError("chunk_size must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    seed_repr = seed if isinstance(seed, (int, np.integer)) else None

    m = population.size
    state0 = init_state(population, rng, init_mode)
    if burn_in is None:
        burn_in = (
            0
            if init_mode == "stationary"
            else int(math.ceil(10.0 / float(population.intensities.min())))
        )
    if burn_in < 0:
        raise ConfigError(f"burn_in must be >= 0, got {burn_in}")

    collect_mask = _normalise_collect(collect_lengths, m)
    runtimes = [
        _TraderRuntime(
            t.law,
            state0.signs[i],
            state0.remaining[i],
            state0.progress[i],
            bool(collect_mask[i]),
        )
        for i, t in enumerate(population.traders)
    ]
    sampler = AliasTable.from_weights(population.intensities)
    prob = sampler.prob
    alias = sampler.alias

    signs_out = np.empty(steps, dtype=np.int8) if keep_signs else None
    selection_counts = np.zeros(m, dtype=np.int64)
    market_sign = state0.market_sign

    def run_span(total: int, recording: bool, offset: int = 0):
        nonlocal market_sign, selection_counts
        done = 0
        while done < total:
            n = min(chunk_size, total - done)
            idx = rng.integers(0, m, size=n)
            u = rng.random(n)
            sel = np.where(u < prob[idx], idx, alias[idx]).astype(np.int32)
            del idx, u
            counts = np.bincount(sel, minlength=m)
            order = np.argsort(sel, kind="stable")
            chunk_signs = np.empty(n, dtype=np.int8)
            start = 0
            for i in np.nonzero(counts)[0]:
                c = int(counts[i])
                chunk_signs[order[start : start + c]] = runtimes[i].emit(c, rng)
                start += c
            market_sign = int(chunk_signs[-1])
            if recording:
                selection_counts += counts
                if signs_out is not None:
                    signs_out[offset + done : offset + done + n] = chunk_signs
            done += n

    if burn_in:
        run_span(burn_in, recording=False)
        for rt in runtimes:
            rt.reset_collection()
    if steps:
        run_span(steps, recording=True)

    final_state = MarketState(
        market_sign=market_sign,
        signs=np.array([rt.sign for rt in runtimes], dtype=np.int8),
        remaining=np.array([rt.remaining for rt in runtimes], dtype=np.int64),
        progress=np.array([rt.progress for rt in runtimes], dtype=np.int64),
    )
    log = [
        np.concatenate(rt.log) if rt.log else np.array([], dtype=np.int64)
        for rt in runtimes
    ]
    digest_payload = {
        "population": population.describe(),
        "steps": steps,
        "init_mode": init_mode,
        "burn_in": burn_in,
    }
    digest = hashlib.sha256(
        json.dumps(digest_payload, sort_keys=True).encode()
    ).hexdigest()
    return SimulationOutput(
        signs=signs_out,
        metaorder_log=log,
        selection_counts=selection_counts,
        final_progress=final_state.progress.copy(),
        final_state=final_state,
        steps=steps,
        seed=int(seed_repr) if seed_repr is not None else None,
        config_digest=digest,
        burn_in=burn_in,
        lengths_collected=collect_mask,
    )
