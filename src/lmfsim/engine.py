"""Order-splitting market simulator.

A population of M traders shares the step clock: each step one trader is
selected with probability equal to its intensity, emits the sign of its
current metaorder, and then either decrements its remaining count or, on
completion, logs the metaorder, redraws a fresh length from its law and a
fresh symmetric sign.

``simulate`` is the production path.  It iterates neither step by step nor
trader by trader.  Each chunk of steps draws its trader selections, counts
them per trader and lays every active trader's signs down as runs: the rest
of its current metaorder, then fresh metaorders up to the one its next
selection falls into, all traders in one batch.  ``np.repeat`` of the run
table gives the chunk's signs grouped by trader, and one scatter through the
stable sort of the selections puts them back in market order.  This is
exactly the serial dynamics because a trader's state only changes at its own
selections.  Every draw reads the population's columns (``Population``): one
batched inverse CDF per law group over the traders' params, and no Python
object per trader.  Chunks are ``_chunk_length(M)`` steps long, so a small
population's run table stays cache-sized.  Each chunk's completed metaorders
come out in trader order and are placed into the flat log by per-trader
counts at the end, without a sort of the whole log.

Random streams.  The seed (an int, a ``SeedSequence``, or a ``Generator``
from which four 64-bit words are drawn) gives a ``SeedSequence`` with three
children, derived by spawn key:

- child 0, PCG64: trader selection, one double u per step.  The alias-table
  column is floor(u M) and the fractional part u M - floor(u M) is the alias
  coin;
- child 1, PCG64: the initial state (``init_state``);
- child 2, one 64-bit key.  Trader i's q-th metaorder (q = 1, 2, ...; the
  initial state is inside metaorder 0) takes its length and sign from the
  splitmix64 output z = mix(b_i + q G), with b_i = mix(key + (i + 1) G) and G
  the golden-ratio increment (a counter-based draw in the sense of Salmon et
  al., SC'11).  The top 53 bits of z are the uniform the law's inverse CDF
  turns into the length, the lowest bit is the sign.

No draw therefore depends on the chunk length, on how the fresh metaorders
are batched or on how many were drawn ahead: the same seed gives the same
bytes for every chunking.

Bookkeeping convention: the first completion of a trader logs only the
executions that happened inside the simulated window (the initial remaining
count), so that per trader

    sum(logged lengths) + final progress == selection count

holds exactly.  The log is flat: trader i's logged lengths are
``lengths[offsets[i]:offsets[i + 1]]``, and ``np.diff(offsets)`` gives the
per-trader counts.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .laws import MetaorderLaw
from .numerics import AliasTable

__all__ = [
    "TraderSpec",
    "Population",
    "MarketState",
    "SimulationOutput",
    "init_state",
    "simulate",
]

INIT_MODES = ("stationary", "fresh_draw")

# Cap on the steps per chunk of ``simulate`` (see ``_chunk_length``); the
# chunk length bounds the temporaries and changes no output.
_CHUNK = 1 << 20

# First bytes hashed by ``Population.digest``; a new digest definition gets a new tag.
_DIGEST_TAG = b"lmfsim population v2\n"


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
    """Immutable trader population, held as columns.

    ``intensities`` are normalised to an exact unit total.  The laws are
    grouped by ``batch_key()``: ``laws[g]`` runs the kernels of group g,
    ``group[i]`` is trader i's group, ``param[i]`` its law parameter and
    ``mean[i]`` its mean length (inf where it diverges; it only sizes the
    engine's batched draws).  ``Population(traders)`` converts hand-built
    ``TraderSpec`` objects to these columns once; ``homogeneous`` and
    ``ExperimentConfig.build_population`` fill them directly, so no run
    holds one Python object per trader.  ``traders`` is a derived view,
    built on first use.
    """

    def __init__(self, traders: Sequence[TraderSpec]):
        if len(traders) == 0:
            raise ConfigError("population must contain at least one trader")
        self._set_columns([t.intensity for t in traders], [t.law for t in traders],
                          np.arange(len(traders)), [t.law.param for t in traders])

    @classmethod
    def _from_columns(cls, intensities, laws, group, param) -> "Population":
        """A population from its columns: raw intensities (normalised here),
        laws, ``group[i]`` indexing trader i's law in ``laws``, and params."""
        population = cls.__new__(cls)
        population._set_columns(intensities, laws, group, param)
        return population

    def _set_columns(self, intensities, laws, group, param):
        # laws with equal batch keys form one group, numbered in order of
        # first appearance and run by the first law of the key
        keys = {}
        merged = np.array([keys.setdefault(law.batch_key(), (len(keys), law))[0]
                           for law in laws], dtype=np.int32)
        raw = np.asarray(intensities, dtype=np.float64)
        # TraderSpec's check, over the whole column; NaN fails both bounds
        bad = ~((raw >= 0.0) & (raw <= 1.0))
        if bad.any():
            raise DomainError(f"intensity must lie in [0, 1], got {raw[bad][0]}")
        total = raw.sum()
        if not np.isfinite(total) or total <= 0.0:
            raise ConfigError(f"total intensity must be positive, got {total}")
        self.intensities = raw / total
        self.laws = tuple(law for _, law in keys.values())
        self.group = merged[group]
        self.param = np.asarray(param, dtype=np.float64)
        self.mean = np.empty(raw.size)
        for g, law in enumerate(self.laws):
            hit = self.group == g
            self.mean[hit] = law.mean_lengths(self.param[hit])
        for column in (self.intensities, self.group, self.param, self.mean):
            column.setflags(write=False)

    @classmethod
    def homogeneous(cls, count: int, law: MetaorderLaw):
        """``count`` traders of equal intensity under one ``law``."""
        if count < 1:
            raise ConfigError(f"count must be >= 1, got {count}")
        return cls._from_columns(np.full(count, 1.0 / count), [law],
                                np.zeros(count, dtype=np.int32),
                                np.full(count, law.param))

    @property
    def size(self) -> int:
        return self.intensities.size

    @cached_property
    def traders(self) -> tuple:
        """One ``TraderSpec`` per trader, with its normalised intensity and
        the law of its group at its param; built on first use."""
        return tuple(
            TraderSpec(lam, self.laws[g].with_param(p)) for lam, g, p in
            zip(self.intensities.tolist(), self.group.tolist(), self.param.tolist())
        )

    def digest(self) -> str:
        """sha256 of the population, built from its columns.

        Hashes, in order: ``_DIGEST_TAG``; one JSON line listing each law
        group's ``batch_key()`` (bytes as hex); then the normalised
        intensities (``<f8``), the group ids (``<i4``) and the params
        (``<f8``), trader by trader.  A law is its batch key plus its param,
        so equal digests mean equal traders in the same order.
        """
        keys = json.dumps([law.batch_key() for law in self.laws], default=bytes.hex)
        h = hashlib.sha256(_DIGEST_TAG)
        h.update(keys.encode() + b"\n")
        for column, dtype in ((self.intensities, "<f8"), (self.group, "<i4"),
                              (self.param, "<f8")):
            h.update(column.astype(dtype, copy=False).tobytes())
        return h.hexdigest()

    def has_law(self, kinds) -> np.ndarray:
        """Mask of the traders whose law is an instance of ``kinds``, one test per group."""
        return np.array([isinstance(law, kinds) for law in self.laws])[self.group]

    def _invert(self, u: np.ndarray, trader: np.ndarray, stationary: bool = False):
        """Lengths (or stationary remaining counts) of ``trader`` at uniforms ``u``."""
        kernel = "remaining_from_uniform" if stationary else "lengths_from_uniform"
        param = self.param[trader]
        if len(self.laws) == 1:
            return getattr(self.laws[0], kernel)(u, param)
        out = np.empty(u.shape, dtype=np.int64)
        group = self.group[trader]
        for g, law in enumerate(self.laws):
            hit = np.flatnonzero(group == g)
            if hit.size:
                out[hit] = getattr(law, kernel)(u[hit], param[hit])
        return out


@dataclass
class MarketState:
    """Phase-space point: every trader's metaorder state.  The market sign at
    a step is the sign of the trader selected there, so it is no state."""

    signs: np.ndarray      # int8, current metaorder sign per trader
    remaining: np.ndarray  # int64, executions left in the current metaorder
    progress: np.ndarray   # int64, executions already absorbed by it


@dataclass
class SimulationOutput:
    """Everything a run produces besides file artifacts.

    The metaorder log is flat: ``lengths`` (int64) holds the logged lengths
    grouped by trader, each trader's in completion order, and ``offsets``
    (int64, M + 1 entries) bounds them, so trader i's log is
    ``lengths[offsets[i]:offsets[i + 1]]`` and ``np.diff(offsets)`` counts
    each trader's logged metaorders.
    """

    signs: np.ndarray | None
    lengths: np.ndarray
    offsets: np.ndarray
    selection_counts: np.ndarray
    final_state: MarketState
    steps: int
    burn_in: int


def init_state(
    population: Population, rng: np.random.Generator, mode: str = "stationary"
) -> MarketState:
    """Draw an initial phase-space point.

    ``stationary`` samples each remaining count from the size-biased law
    P_st(R) = ccdf(R)/mean (the model's exact stationary marginal);
    ``fresh_draw`` starts every trader on a brand-new metaorder.  Either way
    one uniform per trader goes through one batched inverse CDF per law kind,
    then one coin per trader gives its sign.
    """
    if mode not in INIT_MODES:
        raise ConfigError(f"init mode must be one of {INIT_MODES}, got {mode!r}")
    m = population.size
    remaining = population._invert(
        rng.random(m), np.arange(m), stationary=mode == "stationary"
    )
    signs = (rng.integers(0, 2, size=m, dtype=np.int8) * 2 - 1).astype(np.int8)
    return MarketState(signs=signs, remaining=remaining,
                       progress=np.zeros(m, dtype=np.int64))


def _normalise_collect(collect_lengths, size: int) -> np.ndarray:
    if collect_lengths is True:
        return np.ones(size, dtype=bool)
    if collect_lengths is False or collect_lengths is None:
        return np.zeros(size, dtype=bool)
    mask = np.zeros(size, dtype=bool)
    idx = np.asarray(list(collect_lengths))
    # a boolean or float array is not read as indices; [] collects nothing
    if idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= size):
        raise ConfigError(f"collect_lengths must be integer trader indices in [0, {size})")
    mask[idx.astype(np.int64)] = True
    return mask


def _ragged(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges ``start[j]``, ..., ``start[j] + count[j] - 1`` concatenated
    over j, as int64; a zero ``count[j]`` contributes nothing."""
    shift = (start - np.cumsum(count) + count).astype(np.int64, copy=False)
    out = np.repeat(shift, count)
    out += np.arange(out.size)
    return out


# splitmix64 constants: the golden-ratio increment and the two output multipliers
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 output function, in place on a uint64 array."""
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


def _streams(seed):
    """Selection generator, initial-state generator and metaorder key of a seed."""
    if isinstance(seed, np.random.Generator):
        root = np.random.SeedSequence(
            seed.integers(0, 1 << 64, size=4, dtype=np.uint64).tolist()
        )
    elif isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    # children by spawn key, so a caller's SeedSequence is not advanced
    select, start, keyed = (
        np.random.SeedSequence(
            root.entropy, spawn_key=(*root.spawn_key, k), pool_size=root.pool_size
        )
        for k in range(3)
    )
    return (
        np.random.Generator(np.random.PCG64(select)),
        np.random.Generator(np.random.PCG64(start)),
        keyed.generate_state(1, np.uint64)[0],
    )


class _Traders:
    """Every trader's metaorder state, advanced a chunk of selections at a time.

    ``serial`` is the index q of each trader's current metaorder: 0 for the
    one the initial state is inside, then 1, 2, ...  Fresh metaorders take
    their length and sign from ``draw``, keyed on (trader, q).
    """

    def __init__(self, population: Population, state: MarketState, key: np.uint64):
        m = population.size
        self.population = population
        self.sign = state.signs.copy()
        self.remaining = state.remaining.copy()
        self.progress = state.progress.copy()
        self.serial = np.zeros(m, dtype=np.int64)
        self.base = _mix64(np.arange(1, m + 1, dtype=np.uint64) * _GAMMA + key)

    def draw(self, trader: np.ndarray, first: np.ndarray, count: np.ndarray):
        """Lengths (int64) and signs (int8) of metaorders ``first[j]``, ...,
        ``first[j] + count[j] - 1`` of ``trader[j]``, concatenated over j."""
        z = _ragged(first, count).view(np.uint64)
        z *= _GAMMA
        z += np.repeat(self.base[trader], count)
        _mix64(z)
        sign = (z & 1).astype(np.int8)
        sign += sign - 1
        u = (z >> 11) * 2.0**-53
        return self.population._invert(u, np.repeat(trader, count)), sign

    def fresh_runs(self, trader: np.ndarray, need: np.ndarray, cap: int):
        """The fresh metaorders of ``trader[j]`` when it serves ``need[j] >= 0``
        steps after its current metaorder ends, up to the one the step after
        those falls into: its new current metaorder, 0 to length - 1 served.

        Each round draws every pending trader a batch sized from its mean
        length, at least 4**round (for laws without a mean) but never more
        than ``need + 1`` (every length is >= 1, so that always suffices).
        A trader whose batch falls short keeps it whole and continues in the
        next round from the metaorder after it; keyed draws make the result
        independent of the batch sizes.  Returns the number of runs touched
        and the steps served from the last one, per trader, and the lengths
        and signs of the touched runs in trader order.
        """
        first = self.serial[trader] + 1
        mean = self.population.mean[trader]
        touched = np.zeros(need.size, dtype=np.int64)
        served = np.empty(need.size, dtype=np.int64)
        left = need.copy()  # steps the runs drawn so far leave unserved
        pieces = []
        pending = np.arange(need.size)
        least = 1
        while pending.size:
            k = left[pending] / mean[pending]  # expected runs to serve `left`
            b = np.maximum((k + np.sqrt(k)).astype(np.int64) + 1, least)
            b = np.minimum(left[pending] + 1, b)
            least *= 4
            start = np.cumsum(b) - b
            lengths, signs = self.draw(
                trader[pending], first[pending] + touched[pending], b
            )
            # `left` is below the chunk length, so clipping at it leaves the
            # first run that reaches past `left` in place
            clipped = np.minimum(lengths, cap)
            reach = np.cumsum(clipped)
            before = reach[start] - clipped[start]
            cross = np.searchsorted(reach, before + left[pending], side="right")
            found = cross < start + b
            # a short trader keeps its whole batch, a found one up to the crossing
            stop = np.where(found, cross + 1, start + b)
            keep = _ragged(start, stop - start)
            pieces.append(
                (pending, touched[pending], stop - start, lengths[keep], signs[keep])
            )
            j, cross = pending[found], cross[found]
            served[j] = left[j] - (reach[cross] - clipped[cross] - before[found])
            touched[pending] += stop - start
            left[pending] -= reach[start + b - 1] - before
            pending = pending[~found]
        if len(pieces) == 1:
            return touched, served, pieces[0][3], pieces[0][4]
        slot = np.cumsum(touched) - touched
        lengths = np.empty(int(touched.sum()), dtype=np.int64)
        signs = np.empty(lengths.size, dtype=np.int8)
        for j, done, kept, piece_lengths, piece_signs in pieces:
            # trader j's runs of this round follow the `done` it kept before
            dest = _ragged(slot[j] + done, kept)
            lengths[dest] = piece_lengths
            signs[dest] = piece_signs
        return touched, served, lengths, signs

    def advance(self, counts: np.ndarray, cap: int, collect: np.ndarray | None):
        """Serve one chunk in which trader i is selected ``counts[i]`` times.

        A trader whose current metaorder outlasts its selections stays in it;
        every other active trader goes through ``fresh_runs`` to the
        metaorder its next selection falls into.  Returns the chunk's run
        table in trader order (signs, lengths; their ``np.repeat`` is the
        chunk's signs grouped by trader, and a trader's last run may have
        length 0) and, when ``collect`` is given, the completed metaorders
        of collected traders as (trader, logged length) in trader order.
        """
        act = np.flatnonzero(counts)
        c = counts[act]
        rem = self.remaining[act]
        need = c - rem  # steps served after the current metaorder ends
        fresh = np.flatnonzero(need >= 0)
        touched, served, lengths, signs = self.fresh_runs(
            act[fresh], need[fresh], cap
        )

        n_runs = np.ones(act.size, dtype=np.int64)
        n_runs[fresh] += touched
        head = np.cumsum(n_runs) - n_runs
        end = head + n_runs - 1
        run_len = np.empty(int(end[-1]) + 1, dtype=np.int64)
        run_sign = np.empty(run_len.size, dtype=np.int8)
        run_len[head] = np.minimum(c, rem)
        run_sign[head] = self.sign[act]
        # a fresh trader's touched runs follow its head run
        fresh_slot = _ragged(head[fresh] + 1, touched)
        run_len[fresh_slot] = lengths
        run_sign[fresh_slot] = signs
        last = end[fresh]  # each fresh trader's new current metaorder
        new_len = run_len[last]
        run_len[last] = served

        log = None
        if collect is not None:
            # every run but a trader's last one completed in this chunk
            owner = np.repeat(act, n_runs)
            logged = run_len.copy()
            logged[head] += self.progress[act]
            keep = collect[owner]
            keep[end] = False
            log = owner[keep], logged[keep]

        t = act[fresh]
        self.serial[t] += touched
        self.sign[t] = run_sign[last]
        self.remaining[t] = new_len
        self.progress[t] = 0
        self.remaining[act] -= run_len[end]
        self.progress[act] += run_len[end]
        return run_sign, run_len, log


# the 32-bit word of a little- or big-endian uint64 that holds its high bits
_HIGH_WORD = int(sys.byteorder == "little")


def _stable_order(ids: np.ndarray) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` of non-negative integer ids below 2**32.

    Sorts the uint64 keys (id << 32) | position in place: the keys are
    unique, so any sort is stable, and clearing their id words leaves the
    int64 permutation in the same buffer.  The ids go straight into the
    high words of a fresh ``np.arange``, so nothing is allocated beside the
    result (fewer than 2**32 ids).
    """
    keys = np.arange(ids.size, dtype=np.uint64)
    high = keys.view(np.uint32)[_HIGH_WORD::2]
    high[:] = ids
    keys.sort()
    high[:] = 0
    return keys.view(np.int64)


def _chunk_length(m: int) -> int:
    """Steps per chunk for ``m`` traders: the power of two at or above 32 m
    selections, at least 2**18 and at most ``_CHUNK``.  The floor keeps the
    per-chunk work over the active traders amortised; small populations get
    short chunks, so the run table and its temporaries stay cache-sized."""
    return min(_CHUNK, max(1 << 18, 1 << (32 * m - 1).bit_length()))


def simulate(
    population: Population,
    steps: int,
    seed,
    *,
    init_mode: str = "stationary",
    collect_lengths=True,
    keep_signs: bool = True,
    on_chunk=None,
) -> SimulationOutput:
    """Run the market for ``steps`` steps and return signs plus bookkeeping.

    Parameters
    ----------
    population : Population
    steps : int
        Number of recorded steps (after the burn-in).
    seed : int, SeedSequence or Generator
        Source of randomness; the same seed always reproduces the output
        byte for byte, however the steps are chunked.  A Generator is
        advanced by the four words of entropy drawn from it.
    init_mode : {"stationary", "fresh_draw"}
        A stationary start records from the first step; a fresh draw first
        discards ``ceil(10 / min positive intensity)`` warm-up steps.
    collect_lengths : bool or iterable of integer trader indices
        Which traders append completed metaorders to the log.
    keep_signs : bool
        Store the emitted sign series (int8, one byte per step).
    on_chunk : callable, optional
        Called once per recorded chunk, in order, with that chunk's signs
        (int8, market order).  A chunk has ``_chunk_length(M)`` steps (2**18
        up to 8192 traders, never more than ``_CHUNK``), the last one the
        rest.  With ``keep_signs`` the chunk is a view into the stored
        series, otherwise a fresh buffer that the caller may keep; either way
        the simulator never writes to it again.  The chunks concatenate to
        the stored series, so a caller can consume the signs while the run
        goes on without holding all of them.

    The returned ``final_state`` is every trader's metaorder state after the
    last step.  It holds no market sign: the market sign at a step is the
    sign of the trader selected there, so the last one is ``signs[-1]``.
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    select_rng, init_rng, key = _streams(seed)

    m = population.size
    state0 = init_state(population, init_rng, init_mode)
    # a zero-intensity trader is frozen and needs no warm-up
    lam = population.intensities
    burn_in = (
        0
        if init_mode == "stationary"
        else int(math.ceil(10.0 / float(lam[lam > 0.0].min())))
    )

    collect = _normalise_collect(collect_lengths, m)
    collect = collect if collect.any() else None
    traders = _Traders(population, state0, key)
    sampler = AliasTable.from_weights(population.intensities)
    id_type = np.uint16 if m <= 1 << 16 else np.int32
    prob = sampler.prob
    alias = sampler.alias.astype(id_type)

    signs_out = np.empty(steps, dtype=np.int8) if keep_signs else None
    selection_counts = np.zeros(m, dtype=np.int64)
    # (trader, length) per chunk, each in trader order
    logged = []
    chunk_steps = _chunk_length(m)

    def run_span(total: int, recording: bool):
        done = 0
        while done < total:
            n = min(chunk_steps, total - done)
            # one double per step: column floor(u m), alias coin its fraction
            x = select_rng.random(n)
            x *= m
            column = x.astype(id_type)
            x -= column
            sel = np.where(x < prob[column], column, alias[column])
            del x, column
            counts = np.bincount(sel, minlength=m)
            run_sign, run_len, completed = traders.advance(
                counts, n, collect if recording else None
            )
            if recording:
                selection_counts[:] += counts
                if completed is not None:
                    logged.append((completed[0].astype(id_type), completed[1]))
                if signs_out is not None or on_chunk is not None:
                    chunk = (np.empty(n, dtype=np.int8) if signs_out is None
                             else signs_out[done : done + n])
                    chunk[_stable_order(sel)] = np.repeat(run_sign, run_len)
                    if on_chunk is not None:
                        on_chunk(chunk)
            done += n

    if burn_in:
        run_span(burn_in, recording=False)
        traders.progress[:] = 0
    run_span(steps, recording=True)

    final_state = MarketState(signs=traders.sign, remaining=traders.remaining,
                              progress=traders.progress)
    # counting placement: every piece is in trader order, so each one's
    # entries go to their trader's next free slots, piece after piece
    offsets = np.zeros(m + 1, dtype=np.int64)
    for owner, _ in logged:
        offsets[1:] += np.bincount(owner, minlength=m)
    np.cumsum(offsets, out=offsets)
    lengths = np.empty(int(offsets[-1]), dtype=np.int64)
    fill = offsets[:-1].copy()
    logged.reverse()
    while logged:
        owner, piece = logged.pop()
        count = np.bincount(owner, minlength=m)
        dest = _ragged(fill, count)  # trader i's entries go to fill[i], ...
        lengths[dest] = piece
        fill += count
        del owner, piece, dest
    return SimulationOutput(
        signs=signs_out,
        lengths=lengths,
        offsets=offsets,
        selection_counts=selection_counts,
        final_state=final_state,
        steps=steps,
        burn_in=burn_in,
    )
