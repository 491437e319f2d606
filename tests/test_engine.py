"""Market dynamics: selection, metaorder bookkeeping, determinism."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lmfsim import (
    ConfigError,
    Degenerate,
    DiscretePareto,
    Exponential,
    Population,
    Tabulated,
    TraderSpec,
    acf_estimate,
    simulate,
)
from lmfsim import engine, stats
from lmfsim.engine import init_state
from lmfsim.errors import DomainError, NonconvergentMean
from lmfsim.numerics import AliasTable

EXP2_PMF1 = 0.3934693402873666
FRESH_PARETO15_PMF1 = 0.6464466094067263  # 1 - 2^{-1.5}


def tab(d):
    items = sorted(d.items())
    return Tabulated(support=[k for k, _ in items], probs=[v for _, v in items])


def mixed_population():
    return Population([
        TraderSpec(0.25, Exponential(decay_length=4.0)),
        TraderSpec(0.2, DiscretePareto(tail_exponent=1.5)),
        TraderSpec(0.15, tab({1: 0.3, 4: 0.3, 9: 0.4})),
        TraderSpec(0.1, Degenerate()),
        TraderSpec(0.2, Exponential(decay_length=30.0)),
        TraderSpec(0.1, DiscretePareto(tail_exponent=2.5)),
    ])


def assert_same_run(a, b):
    assert a.signs.tobytes() == b.signs.tobytes()
    assert np.array_equal(a.lengths, b.lengths)
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.selection_counts, b.selection_counts)
    assert a.final_state.market_sign == b.final_state.market_sign
    for name in ("signs", "remaining", "progress"):
        assert np.array_equal(getattr(a.final_state, name),
                              getattr(b.final_state, name)), name


def trader_log(out, i):
    """Trader i's logged metaorder lengths from the flat log."""
    return out.lengths[out.offsets[i]:out.offsets[i + 1]]


def per_trader_logs(out):
    """The flat log as one list of lengths per trader, the referee's form."""
    return [x.tolist() for x in np.split(out.lengths, out.offsets[1:-1])]


def simulate_in_chunks(monkeypatch, chunk, *args, **kwargs):
    """``simulate`` with its chunk length set to ``chunk`` steps."""
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    return simulate(*args, **kwargs)


def serial_reference(pop, steps, seed, init_mode, burn_in):
    """Step-by-step market on simulate's streams: one trader, one step at a time."""
    select_rng, init_rng, key = engine._streams(seed)
    state = init_state(pop, init_rng, init_mode)
    keyed = engine._Traders(pop, state, key)
    table = AliasTable.from_weights(pop.intensities)
    m = pop.size
    sign, rem = state.signs.tolist(), state.remaining.tolist()
    serial, prog, log, signs = [0] * m, [0] * m, [[] for _ in range(m)], []
    for t, u in enumerate(select_rng.random(burn_in + steps).tolist()):
        if t == burn_in:  # burn-in progress and completions are not recorded
            prog, log, signs = [0] * m, [[] for _ in range(m)], []
        x = u * m
        i = int(x)
        if not x - i < table.prob[i]:
            i = int(table.alias[i])
        signs.append(sign[i])
        if rem[i] > 1:
            rem[i] -= 1
            prog[i] += 1
        else:
            log[i].append(prog[i] + 1)
            serial[i] += 1
            length, new_sign = keyed.draw(np.array([i]), np.array([serial[i]]),
                                          np.array([1]))
            rem[i], sign[i], prog[i] = int(length[0]), int(new_sign[0]), 0
    return np.array(signs, dtype=np.int8), log, rem, prog


class TestPopulation:
    def test_intensities_normalised(self):
        pop = Population([TraderSpec(0.25, Degenerate()),
                          TraderSpec(0.25, Degenerate())])
        assert pop.intensities.sum() == pytest.approx(1.0, abs=1e-15)
        assert pop.intensities == pytest.approx([0.5, 0.5], rel=1e-15)

    def test_homogeneous_constructor(self):
        pop = Population.homogeneous(10, Exponential(decay_length=5.0))
        assert pop.size == 10
        assert np.allclose(pop.intensities, 0.1)

    def test_digest_depends_on_parameters(self):
        a = Population.homogeneous(3, Degenerate())
        b = Population.homogeneous(4, Degenerate())
        assert a.digest() != b.digest()
        assert a.digest() == Population.homogeneous(3, Degenerate()).digest()

    def test_digest_is_pinned_to_the_column_definition(self):
        pop = mixed_population()
        # laws in order of first appearance: exponential, pareto, tabulated,
        # degenerate; each trader is (intensity, group id, param)
        table = pop.traders[2].law
        keys = [["exponential"], ["pareto"],
                ["tabulated", table.support.tobytes().hex(), table.probs.tobytes().hex()],
                ["degenerate"]]
        payload = (b"lmfsim population v2\n" + json.dumps(keys).encode() + b"\n"
                   + np.asarray(pop.intensities, dtype="<f8").tobytes()
                   + np.array([0, 1, 2, 3, 0, 1], dtype="<i4").tobytes()
                   + np.array([4.0, 1.5, 0.0, 0.0, 30.0, 2.5], dtype="<f8").tobytes())
        assert pop.digest() == hashlib.sha256(payload).hexdigest()
        assert pop.digest() == (
            "cc8e786986c31e97034120489ae5ecd372df6b7b058fa7a4b06b3f7c17a252c6")

    @pytest.mark.parametrize("change", [
        "intensity", "param", "kind", "atom_length", "atom_mass", "order"])
    def test_digest_sees_one_trader_change(self, change):
        traders = list(mixed_population().traders)
        exp, pareto = traders[0], traders[1]
        edits = {
            "intensity": (0, TraderSpec(0.26, exp.law)),
            "param": (0, TraderSpec(exp.intensity, Exponential(decay_length=4.5))),
            "kind": (1, TraderSpec(pareto.intensity, Exponential(decay_length=1.5))),
            "atom_length": (2, TraderSpec(0.15, tab({1: 0.3, 4: 0.3, 8: 0.4}))),
            "atom_mass": (2, TraderSpec(0.15, tab({1: 0.3, 4: 0.25, 9: 0.45}))),
        }
        if change == "order":
            traders[0], traders[4] = traders[4], traders[0]
        else:
            i, trader = edits[change]
            traders[i] = trader
        assert Population(traders).digest() != mixed_population().digest()

    def test_digest_of_equal_populations_built_apart(self):
        # every Tabulated is a distinct object, compared by its atoms
        a, b = mixed_population(), mixed_population()
        assert a.traders[2].law is not b.traders[2].law
        assert a.digest() == b.digest()
        decay = [2.0, 5.0, 2.0]
        c = Population([TraderSpec(0.3, Exponential(d)) for d in decay])
        d = Population([TraderSpec(0.3, Exponential(d)) for d in decay])
        assert c.digest() == d.digest()

    def test_errors(self):
        with pytest.raises(ConfigError):
            Population([])
        with pytest.raises(DomainError):
            TraderSpec(1.5, Degenerate())
        with pytest.raises(DomainError):
            TraderSpec(-0.1, Degenerate())


class TestInitState:
    def test_degenerate_population(self):
        rng = np.random.default_rng(3)
        state = init_state(Population.homogeneous(5, Degenerate()), rng)
        assert np.all(state.remaining == 1)
        assert np.all(np.isin(state.signs, (-1, 1)))
        assert state.market_sign in (-1, 1)
        assert np.all(state.progress == 0)

    def test_stationary_exponential_fraction(self):
        rng = np.random.default_rng(4)
        pop = Population.homogeneous(1, Exponential(decay_length=2.0))
        hits = sum(init_state(pop, rng).remaining[0] == 1 for _ in range(100_000))
        p = EXP2_PMF1
        se = math.sqrt(p * (1 - p) / 100_000)
        assert abs(hits / 100_000 - p) < 3 * se

    def test_fresh_draw_pareto_fraction(self):
        rng = np.random.default_rng(5)
        pop = Population.homogeneous(1, DiscretePareto(tail_exponent=1.5))
        hits = sum(
            init_state(pop, rng, mode="fresh_draw").remaining[0] == 1
            for _ in range(100_000)
        )
        p = FRESH_PARETO15_PMF1
        se = math.sqrt(p * (1 - p) / 100_000)
        assert abs(hits / 100_000 - p) < 3 * se

    def test_stationary_infinite_mean_raises(self):
        rng = np.random.default_rng(6)
        pop = Population.homogeneous(1, DiscretePareto(tail_exponent=1.0))
        with pytest.raises(NonconvergentMean):
            init_state(pop, rng)
        # fresh draws only need the raw law, which always samples
        state = init_state(pop, rng, mode="fresh_draw")
        assert state.remaining[0] >= 1

    def test_batched_draws_match_each_law(self):
        # one batched inverse CDF per law kind, with per-trader parameters,
        # gives what each trader's own law gives at the same uniform
        pop = mixed_population()
        for mode, kernel in (("stationary", "remaining_from_uniform"),
                             ("fresh_draw", "lengths_from_uniform")):
            state = init_state(pop, np.random.default_rng(24), mode)
            u = np.random.default_rng(24).random(pop.size)
            for i, t in enumerate(pop.traders):
                assert state.remaining[i] == getattr(t.law, kernel)(u[i : i + 1])[0]

    def test_equal_pareto_laws_share_one_table(self, traced_peak):
        # stationary draws keep no per-law state: an 8 MB head table per law
        # instance once cost 816 MB for these 100 instances
        pop = Population([TraderSpec(0.01, DiscretePareto(tail_exponent=1.5))
                          for _ in range(100)])
        _, peak = traced_peak(lambda: init_state(pop, np.random.default_rng(33)))
        assert peak < 64 * 2**20, peak

    def test_unknown_mode(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ConfigError):
            init_state(Population.homogeneous(1, Degenerate()), rng, mode="warm")


class TestSimulate:
    def test_deterministic_repeat(self):
        pop = Population.homogeneous(1, Degenerate())
        a = simulate(pop, 10, seed=42)
        b = simulate(pop, 10, seed=42)
        assert np.array_equal(a.signs, b.signs)
        assert a.signs.tobytes() == b.signs.tobytes()
        c = simulate(pop, 10, seed=43)
        assert not np.array_equal(a.signs, c.signs)

    def test_degenerate_signs_iid(self):
        pop = Population.homogeneous(1, Degenerate())
        out = simulate(pop, 1_000_000, seed=12)
        assert np.all(np.isin(out.signs, (-1, 1)))
        curve = acf_estimate(out.signs, 1)
        assert abs(curve.values[0]) < 4.0 / math.sqrt(out.steps)

    def test_fixed_length_runs(self):
        pop = Population.homogeneous(1, tab({3: 1.0}))
        out = simulate(pop, 30_000, seed=13)
        lengths = trader_log(out, 0)
        assert lengths.size > 0
        # the first completion logs only the in-window part of the initial
        # metaorder: the lone trader runs its stationary remaining count out
        start = init_state(pop, engine._streams(13)[1])
        assert lengths[0] == start.remaining[0]
        assert np.all(lengths[1:] == 3)
        # sign changes can only occur at multiples of 3 from the first boundary
        flips = np.nonzero(np.diff(out.signs))[0]
        if flips.size > 1:
            assert np.all(np.diff(flips) % 3 == 0)

    def test_selection_frequencies(self):
        pop = Population([TraderSpec(0.9, Degenerate()), TraderSpec(0.1, Degenerate())])
        out = simulate(pop, 1_000_000, seed=14)
        assert out.selection_counts.sum() == out.steps
        se = math.sqrt(0.9 * 0.1 / out.steps)
        assert abs(out.selection_counts[0] / out.steps - 0.9) < 4 * se

    def test_bookkeeping_closes_exactly(self):
        pop = Population([
            TraderSpec(0.3, Exponential(decay_length=4.0)),
            TraderSpec(0.5, DiscretePareto(tail_exponent=1.5)),
            TraderSpec(0.2, tab({1: 0.5, 5: 0.5})),
        ])
        out = simulate(pop, 200_000, seed=15)
        for i in range(pop.size):
            logged = int(trader_log(out, i).sum())
            assert logged + int(out.final_state.progress[i]) == int(out.selection_counts[i])

    def test_metaorder_lengths_match_law(self):
        pop = Population.homogeneous(1, DiscretePareto(tail_exponent=1.5))
        out = simulate(pop, 1_000_000, seed=16)
        lengths = trader_log(out, 0)
        p = 10.0 ** -1.5
        se = math.sqrt(p * (1 - p) / lengths.size)
        assert abs(np.mean(lengths >= 10) - p) < 4 * se

    def test_collect_lengths_mask(self):
        pop = Population([TraderSpec(0.5, tab({2: 1.0})), TraderSpec(0.5, tab({2: 1.0}))])
        out = simulate(pop, 10_000, seed=17, collect_lengths=[1])
        assert trader_log(out, 0).size == 0
        assert trader_log(out, 1).size > 0

    def test_keep_signs_off(self):
        pop = Population.homogeneous(2, Degenerate())
        out = simulate(pop, 5_000, seed=18, keep_signs=False)
        assert out.signs is None
        assert out.selection_counts.sum() == 5_000

    def test_burn_in_excluded_from_output(self):
        # fresh_draw warms up for ceil(10 / min intensity) = 500 steps
        pop = Population([TraderSpec(0.98, tab({2: 1.0})),
                          TraderSpec(0.02, tab({2: 1.0}))])
        out = simulate(pop, 4_000, seed=19, init_mode="fresh_draw")
        assert out.signs.size == 4_000
        assert out.burn_in == 500
        assert out.selection_counts.sum() == 4_000

    def test_fresh_draw_default_burn_in(self):
        pop = Population([TraderSpec(0.95, tab({2: 1.0})),
                          TraderSpec(0.05, tab({2: 1.0}))])
        out = simulate(pop, 2_000, seed=20, init_mode="fresh_draw")
        assert out.burn_in == math.ceil(10 / 0.05)

    def test_fresh_draw_burn_in_skips_zero_intensity_traders(self):
        # the default burn-in comes from the positive intensities only
        pop = Population([TraderSpec(0.8, tab({2: 1.0})),
                          TraderSpec(0.2, Exponential(decay_length=3.0)),
                          TraderSpec(0.0, tab({2: 1.0}))])
        out = simulate(pop, 2_000, seed=34, init_mode="fresh_draw")
        assert out.burn_in == math.ceil(10 / 0.2)
        assert out.selection_counts[2] == 0

    def test_zero_intensity_trader_frozen(self):
        rng = np.random.default_rng(9)
        pop = Population([TraderSpec(1.0, tab({3: 1.0})),
                          TraderSpec(0.0, tab({2: 1.0}))])
        out = simulate(pop, 5_000, seed=10)
        assert out.selection_counts[1] == 0
        assert len(trader_log(out, 1)) == 0

    def test_fresh_draw_infinite_mean_law(self):
        # tail exponent 0.8 has no mean length; fresh draws still simulate it
        pop = Population([TraderSpec(0.5, DiscretePareto(tail_exponent=0.8)),
                          TraderSpec(0.5, Exponential(decay_length=3.0))])
        out = simulate(pop, 20_000, seed=23, init_mode="fresh_draw")
        assert out.signs.size == 20_000
        for i in range(pop.size):
            logged = int(trader_log(out, i).sum())
            assert logged + int(out.final_state.progress[i]) == int(out.selection_counts[i])

    def test_tiny_chunks_preserve_the_process_law(self, monkeypatch):
        # a prime chunk size forces metaorders to straddle many chunk
        # boundaries; the bookkeeping and the sign law must both survive
        pop = Population.homogeneous(4, Exponential(decay_length=5.0))
        out = simulate_in_chunks(monkeypatch, 17, pop, 200_000, seed=22)
        assert out.signs.size == 200_000
        assert out.selection_counts.sum() == 200_000
        for i in range(pop.size):
            logged = int(trader_log(out, i).sum())
            assert logged + int(out.final_state.progress[i]) == int(out.selection_counts[i])
        curve = acf_estimate(out.signs, 1)
        expected = 4 * 0.25 ** 2 * math.exp(-0.2)
        assert abs(curve.values[0] - expected) < 4.0 / math.sqrt(out.steps)
        lengths = out.lengths
        law = Exponential(decay_length=5.0)
        for probe in (2, 5, 15):
            p = law.ccdf(probe)
            se = math.sqrt(p * (1 - p) / lengths.size)
            assert abs(np.mean(lengths >= probe) - p) < 4 * se

    def test_bookkeeping_across_many_chunk_boundaries(self, monkeypatch):
        # tabulated and infinite-mean traders drawing fresh metaorders across
        # some 800 chunk boundaries, against one chunk
        pop = Population([TraderSpec(0.4, tab({1: 0.3, 4: 0.3, 9: 0.4})),
                          TraderSpec(0.3, DiscretePareto(tail_exponent=0.8)),
                          TraderSpec(0.3, Degenerate())])
        runs = [simulate_in_chunks(monkeypatch, c, pop, 50_000, seed=25,
                                   init_mode="fresh_draw")
                for c in (61, 1 << 20)]
        for out in runs:
            for i in range(pop.size):
                logged = int(trader_log(out, i).sum())
                assert (logged + int(out.final_state.progress[i])
                        == int(out.selection_counts[i]))
        assert np.all(np.isin(trader_log(runs[0], 0)[1:], (1, 4, 9)))
        assert_same_run(*runs)

    def test_lag1_matches_homogeneous_theory(self):
        # market of 10 exponential splitters: C_1 = M lam^2 e^{-1/L*}
        pop = Population.homogeneous(10, Exponential(decay_length=5.0))
        out = simulate(pop, 1_000_000, seed=21)
        curve = acf_estimate(out.signs, 1)
        expected = 10 * 0.01 * math.exp(-0.2)
        se = 1.0 / math.sqrt(out.steps)
        assert abs(curve.values[0] - expected) < 3 * se

    def test_memory_is_chunk_bounded(self, traced_peak):
        # 10 MB of signs and about 15 MB of metaorder log are output; the
        # temporaries stay at chunk size (an 8 Mi-step chunk peaks at 270 MB)
        pop = Population.homogeneous(10, Exponential(decay_length=5.0))
        out, peak = traced_peak(lambda: simulate(pop, 10_000_000, seed=26))
        assert out.selection_counts.sum() == 10_000_000
        assert peak < 96 * 2**20, peak

    def test_pareto_working_set_is_chunk_sized(self, traced_peak):
        # the pareto-dense population (10 Pareto splitters at mass 0.85 and
        # a noise trader) with neither log nor series: the peak is one
        # chunk's run table, 44 MiB at 2**20-step chunks, 12 MiB at 2**18
        pop = Population([TraderSpec(0.085, DiscretePareto(tail_exponent=1.5))
                          for _ in range(10)] + [TraderSpec(0.15, Degenerate())])
        out, peak = traced_peak(lambda: simulate(
            pop, 1 << 21, seed=1, collect_lengths=False, keep_signs=False))
        assert out.selection_counts.sum() == 1 << 21
        assert peak < 20 * 2**20, peak

    def test_log_assembly_holds_one_copy_of_the_log(self, traced_peak):
        # 10 MB of signs and about 15 MB of log are output; regrouping the
        # log by concatenation and a full sort held two more copies (54 MiB)
        pop = Population.homogeneous(10, Exponential(decay_length=5.0))
        out, peak = traced_peak(lambda: simulate(pop, 10_000_000, seed=35))
        assert out.offsets[-1] > 1_500_000
        assert peak < 48 * 2**20, peak

    def test_streamed_run_does_not_hold_the_series(self, traced_peak):
        # the same 1e7 steps fed chunk by chunk to the ACF sums: without
        # keep_signs the 10 MB series is never held, only one chunk's buffer
        # (256 KiB at M = 10)
        pop = Population.homogeneous(10, Exponential(decay_length=5.0))
        peaks, curves = {}, {}
        for keep in (True, False):
            sums = stats._AcfSums(600)
            _, peaks[keep] = traced_peak(lambda: simulate(
                pop, 10_000_000, seed=26, collect_lengths=False,
                keep_signs=keep, on_chunk=sums.feed))
            curves[keep] = sums.curve().values
        assert peaks[True] - peaks[False] >= 8e6, peaks
        assert np.array_equal(curves[True], curves[False])

    @pytest.mark.parametrize("keep_signs", [True, False])
    def test_on_chunk_sees_the_series_in_order(self, keep_signs, monkeypatch):
        monkeypatch.setattr(engine, "_CHUNK", 4099)
        pop = mixed_population()
        whole = simulate(pop, 30_000, seed=28, init_mode="fresh_draw").signs
        chunks = []
        out = simulate(pop, 30_000, seed=28, init_mode="fresh_draw",
                       keep_signs=keep_signs, on_chunk=chunks.append)
        assert [c.size for c in chunks] == [4099] * 7 + [30_000 - 7 * 4099]
        assert all(c.dtype == np.int8 for c in chunks)
        assert np.array_equal(np.concatenate(chunks), whole)
        if keep_signs:
            assert np.array_equal(out.signs, whole)
            assert all(np.shares_memory(c, out.signs) for c in chunks)
        else:
            assert out.signs is None

    def test_errors(self):
        pop = Population.homogeneous(1, Degenerate())
        with pytest.raises(DomainError):
            simulate(pop, 0, seed=1)
        with pytest.raises(ConfigError):
            simulate(pop, 100, seed=1, collect_lengths=[5])
        # a boolean mask or a float is not an index list; [] collects nothing
        three = Population.homogeneous(3, Exponential(5.0))
        for bad in (np.array([False, False, True]), [1.7]):
            with pytest.raises(ConfigError):
                simulate(three, 10_000, seed=1, collect_lengths=bad)
        assert simulate(three, 10_000, seed=1, collect_lengths=[]).lengths.size == 0


class TestStableOrder:
    """``_stable_order`` is ``np.argsort(kind="stable")`` for trader ids."""

    @settings(max_examples=40, deadline=None)
    @given(size=st.sampled_from([1, 2, 7, 1001, 65537, 1 << 20]),
           traders=st.sampled_from([1, 2, 10, 65535, 65536, 65537, 100_000]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_stable_argsort(self, size, traders, seed):
        # simulate's id types: uint16 up to 65536 traders, int32 above
        id_type = np.uint16 if traders <= 1 << 16 else np.int32
        ids = np.random.default_rng(seed).integers(0, traders, size).astype(id_type)
        got = engine._stable_order(ids)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.argsort(ids, kind="stable"))

    @settings(max_examples=60, deadline=None)
    @given(ids=hnp.arrays(st.sampled_from([np.uint16, np.int32]),
                          st.integers(0, 300),
                          elements=st.integers(0, 40)))
    def test_small_arrays_with_repeats(self, ids):
        assert np.array_equal(engine._stable_order(ids), np.argsort(ids, kind="stable"))

    def test_extreme_ids(self):
        ids = np.array([2**31 - 1, 0, 2**31 - 1, 5, 0], dtype=np.int32)
        assert np.array_equal(engine._stable_order(ids), [1, 4, 3, 0, 2])
        assert engine._stable_order(np.empty(0, np.uint16)).size == 0

    def test_peak_memory_no_larger_than_argsort(self, traced_peak):
        ids = np.random.default_rng(5).integers(0, 30_000, 1 << 20).astype(np.uint16)
        peaks = [traced_peak(order)[1]
                 for order in (lambda: np.argsort(ids, kind="stable"),
                               lambda: engine._stable_order(ids))]
        assert peaks[1] <= peaks[0], peaks


class TestDeterminism:
    @pytest.mark.parametrize("init_mode", ["stationary", "fresh_draw"])
    def test_chunk_size_does_not_change_output(self, init_mode, monkeypatch):
        pop = mixed_population()
        runs = [simulate_in_chunks(monkeypatch, c, pop, 30_000, seed=27,
                                   init_mode=init_mode)
                for c in (17, 4096, engine._CHUNK)]
        assert runs[0].burn_in == (0 if init_mode == "stationary" else 100)
        for other in runs[1:]:
            assert_same_run(runs[0], other)

    def test_chunk_size_does_not_change_output_past_16_bit_ids(self, monkeypatch):
        # M > 65536 takes int32 trader ids in selection, sort and log regrouping
        m, law = 70_000, tab({1: 0.5, 4: 0.5})
        pop = Population([TraderSpec(0.1 * (1 + i % 3), law)
                          for i in range(m)])
        runs = [simulate_in_chunks(monkeypatch, c, pop, 20_000, seed=28)
                for c in (17, 4096, engine._CHUNK)]
        assert runs[0].selection_counts[1 << 16 :].sum() > 0
        assert runs[0].offsets[-1] - runs[0].offsets[1 << 16] > 0
        for other in runs[1:]:
            assert_same_run(runs[0], other)
        signs, log, rem, prog = serial_reference(pop, 20_000, 28, "stationary", 0)
        assert runs[0].signs.tobytes() == signs.tobytes()
        assert per_trader_logs(runs[0]) == log
        assert runs[0].final_state.remaining.tolist() == rem
        assert runs[0].final_state.progress.tolist() == prog

    def test_chunk_length_rule(self, monkeypatch):
        # 32 selections per trader, rounded up to a power of two, in [2**18, _CHUNK]
        lengths = {m: engine._chunk_length(m)
                   for m in (1, 10, 8192, 8193, 30_000, 70_000)}
        assert lengths == {1: 1 << 18, 10: 1 << 18, 8192: 1 << 18,
                           8193: 1 << 19, 30_000: 1 << 20, 70_000: 1 << 20}
        monkeypatch.setattr(engine, "_CHUNK", 1 << 23)
        assert engine._chunk_length(70_000) == 1 << 22
        monkeypatch.setattr(engine, "_CHUNK", 17)
        assert engine._chunk_length(10) == 17

    @pytest.mark.parametrize("m, steps", [(10, 600_000), (30_000, 1_500_000),
                                          (70_000, 1_200_000)])
    def test_computed_chunk_length_does_not_change_output(self, m, steps,
                                                          monkeypatch):
        # the default chunk length (2**18 steps at M = 10, 2**20 at M = 3e4
        # and past 65536 ids), over several chunks, against other chunkings
        laws = [tab({1: 0.5, 4: 0.5}), Exponential(decay_length=3.0),
                DiscretePareto(tail_exponent=1.5)]
        pop = Population([TraderSpec(0.1 * (1 + i % 3), laws[i % 3])
                          for i in range(m)])
        assert steps > engine._chunk_length(m)  # two chunks at least
        default = simulate(pop, steps, seed=37)
        assert default.offsets[-1] > 0
        for c in (4096, 100_003):
            assert_same_run(default, simulate_in_chunks(monkeypatch, c, pop,
                                                        steps, seed=37))

    def test_log_assembly_matches_a_stable_sort(self, monkeypatch):
        # the counting placement against the concatenation plus stable
        # argsort of the chunks' log pieces, over some 500 chunks: a
        # collected subset, a collected trader that never completes and many
        # chunks in which no collected trader completes
        pop = Population([TraderSpec(0.4, Exponential(decay_length=3.0)),
                          TraderSpec(0.3, tab({300: 1.0})),
                          TraderSpec(0.2, DiscretePareto(tail_exponent=1.5)),
                          TraderSpec(0.1, tab({50: 0.5, 80: 0.5})),
                          TraderSpec(0.0, Degenerate())])
        collect = [1, 3, 4]
        pieces, advance = [], engine._Traders.advance

        def spy(traders, counts, cap, collected):
            result = advance(traders, counts, cap, collected)
            pieces.append(result[-1])
            return result

        monkeypatch.setattr(engine._Traders, "advance", spy)
        out = simulate_in_chunks(monkeypatch, 101, pop, 50_000, seed=36,
                                 collect_lengths=collect)
        assert len(pieces) == 496
        assert sum(owner.size == 0 for owner, _ in pieces) > 300
        owner = np.concatenate([owner for owner, _ in pieces])
        lengths = np.concatenate([lengths for _, lengths in pieces])
        assert np.array_equal(out.lengths, lengths[np.argsort(owner, kind="stable")])
        assert np.array_equal(out.offsets[1:],
                              np.cumsum(np.bincount(owner, minlength=pop.size)))
        assert out.offsets[0] == 0
        logged = np.diff(out.offsets)
        assert logged[[0, 2, 4]].tolist() == [0, 0, 0]
        assert logged[[1, 3]].min() > 10
        _, log, _, _ = serial_reference(pop, 50_000, 36, "stationary", 0)
        assert per_trader_logs(out) == [log[i] if i in collect else []
                                        for i in range(pop.size)]

    @pytest.mark.parametrize("init_mode", ["stationary", "fresh_draw"])
    def test_matches_the_step_by_step_reference(self, init_mode, monkeypatch):
        pop = mixed_population()
        out = simulate_in_chunks(monkeypatch, 4096, pop, 20_000, seed=31,
                                 init_mode=init_mode)
        signs, log, rem, prog = serial_reference(pop, 20_000, 31, init_mode,
                                                 out.burn_in)
        assert out.signs.tobytes() == signs.tobytes()
        assert per_trader_logs(out) == log
        assert out.final_state.remaining.tolist() == rem
        assert out.final_state.progress.tolist() == prog
        assert out.final_state.market_sign == signs[-1]

    def test_lengths_at_the_int64_cap(self, monkeypatch):
        # tail exponent 0.05 draws about one length in eight at the 2**62 cap,
        # so the running sum over a batch would overflow int64 unclipped
        pop = Population.homogeneous(50, DiscretePareto(tail_exponent=0.05))
        out = simulate_in_chunks(monkeypatch, 4096, pop, 20_000, seed=32,
                                 init_mode="fresh_draw")
        signs, log, rem, prog = serial_reference(pop, 20_000, 32, "fresh_draw",
                                                 out.burn_in)
        assert out.signs.tobytes() == signs.tobytes()
        assert per_trader_logs(out) == log
        assert out.final_state.remaining.tolist() == rem
        assert max(rem) > 1 << 61  # a trader is stuck in a capped metaorder

    def test_each_seed_form_repeats_its_output(self):
        pop = mixed_population()
        seq = np.random.SeedSequence(28)
        by_int = [simulate(pop, 5_000, seed=28) for _ in range(2)]
        by_seq = [simulate(pop, 5_000, seed=seq) for _ in range(2)]
        by_gen = [simulate(pop, 5_000, seed=np.random.default_rng(28))
                  for _ in range(2)]
        for a, b in (by_int, by_seq, by_gen):
            assert_same_run(a, b)
        # an int seed is the SeedSequence it names
        assert_same_run(by_int[0], by_seq[0])
        assert by_gen[0].signs.tobytes() != by_int[0].signs.tobytes()
        other = simulate(pop, 5_000, seed=29)
        assert other.signs.tobytes() != by_int[0].signs.tobytes()

    def test_a_generator_advances(self):
        rng = np.random.default_rng(30)
        pop = mixed_population()
        first = simulate(pop, 2_000, seed=rng)
        second = simulate(pop, 2_000, seed=rng)
        assert first.signs.tobytes() != second.signs.tobytes()
