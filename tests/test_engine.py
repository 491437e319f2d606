"""Market dynamics: selection, metaorder bookkeeping, determinism."""

import math

import numpy as np
import pytest

from lmfsim import (
    AliasTable,
    ConfigError,
    Degenerate,
    DiscretePareto,
    Exponential,
    MarketState,
    NonconvergentMean,
    Population,
    Tabulated,
    TraderSpec,
    acf_estimate,
    init_state,
    simulate,
    step,
)
from lmfsim.errors import DomainError

EXP2_PMF1 = 0.3934693402873666
FRESH_PARETO15_PMF1 = 0.6464466094067263  # 1 - 2^{-1.5}


def tab(d):
    items = sorted(d.items())
    return Tabulated(support=[k for k, _ in items], probs=[v for _, v in items])


class TestPopulation:
    def test_intensities_normalised(self):
        pop = Population([TraderSpec(0.25, Degenerate()),
                          TraderSpec(0.25, Degenerate())])
        assert pop.intensities.sum() == pytest.approx(1.0, abs=1e-15)
        assert pop.intensity_adjustment == pytest.approx(-0.5)

    def test_homogeneous_constructor(self):
        pop = Population.homogeneous(10, Exponential(decay_length=5.0))
        assert pop.size == 10
        assert np.allclose(pop.intensities, 0.1)

    def test_digest_depends_on_parameters(self):
        a = Population.homogeneous(3, Degenerate())
        b = Population.homogeneous(4, Degenerate())
        assert a.digest() != b.digest()
        assert a.digest() == Population.homogeneous(3, Degenerate()).digest()

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

    def test_unknown_mode(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ConfigError):
            init_state(Population.homogeneous(1, Degenerate()), rng, mode="warm")


class TestStep:
    def test_emits_current_sign_then_updates(self):
        rng = np.random.default_rng(8)
        pop = Population([TraderSpec(1.0, tab({2: 1.0}))])
        sampler = AliasTable.from_weights(pop.intensities)
        state = MarketState(
            market_sign=1,
            signs=np.array([-1], dtype=np.int8),
            remaining=np.array([2], dtype=np.int64),
            progress=np.array([0], dtype=np.int64),
        )
        trader, sign, completed = step(state, pop, sampler, rng)
        assert (trader, sign, completed) == (0, -1, None)
        assert state.remaining[0] == 1 and state.progress[0] == 1
        trader, sign, completed = step(state, pop, sampler, rng)
        # second execution completes the metaorder and redraws
        assert sign == -1 and completed == 2
        assert state.remaining[0] == 2 and state.progress[0] == 0

    def test_zero_intensity_trader_frozen(self):
        rng = np.random.default_rng(9)
        pop = Population([TraderSpec(1.0, tab({3: 1.0})),
                          TraderSpec(0.0, tab({2: 1.0}))])
        out = simulate(pop, 5_000, seed=10)
        assert out.selection_counts[1] == 0
        assert len(out.metaorder_log[1]) == 0

    def test_only_one_trader_changes_per_step(self):
        rng = np.random.default_rng(11)
        pop = Population([TraderSpec(0.5, tab({2: 1.0})),
                          TraderSpec(0.5, tab({3: 1.0}))])
        sampler = AliasTable.from_weights(pop.intensities)
        state = init_state(pop, rng)
        for _ in range(200):
            before_r = state.remaining.copy()
            before_s = state.signs.copy()
            trader, _, _ = step(state, pop, sampler, rng)
            untouched = np.arange(2) != trader
            assert np.all(state.remaining[untouched] == before_r[untouched])
            assert np.all(state.signs[untouched] == before_s[untouched])
            assert np.all(state.remaining >= 1)


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
        lengths = out.metaorder_log[0]
        assert lengths.size > 0
        assert np.all(lengths == 3)
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
            logged = int(out.metaorder_log[i].sum())
            assert logged + int(out.final_progress[i]) == int(out.selection_counts[i])

    def test_metaorder_lengths_match_law(self):
        pop = Population.homogeneous(1, DiscretePareto(tail_exponent=1.5))
        out = simulate(pop, 1_000_000, seed=16)
        lengths = out.metaorder_log[0]
        p = 10.0 ** -1.5
        se = math.sqrt(p * (1 - p) / lengths.size)
        assert abs(np.mean(lengths >= 10) - p) < 4 * se

    def test_collect_lengths_mask(self):
        pop = Population([TraderSpec(0.5, tab({2: 1.0})), TraderSpec(0.5, tab({2: 1.0}))])
        out = simulate(pop, 10_000, seed=17, collect_lengths=[1])
        assert out.metaorder_log[0].size == 0
        assert out.metaorder_log[1].size > 0
        assert list(out.lengths_collected) == [False, True]

    def test_keep_signs_off(self):
        pop = Population.homogeneous(2, Degenerate())
        out = simulate(pop, 5_000, seed=18, keep_signs=False)
        assert out.signs is None
        assert out.selection_counts.sum() == 5_000

    def test_burn_in_excluded_from_output(self):
        pop = Population.homogeneous(1, tab({2: 1.0}))
        out = simulate(pop, 4_000, seed=19, burn_in=500)
        assert out.signs.size == 4_000
        assert out.burn_in == 500
        assert out.selection_counts.sum() == 4_000

    def test_fresh_draw_default_burn_in(self):
        pop = Population([TraderSpec(0.95, tab({2: 1.0})),
                          TraderSpec(0.05, tab({2: 1.0}))])
        out = simulate(pop, 2_000, seed=20, init_mode="fresh_draw")
        assert out.burn_in == math.ceil(10 / 0.05)

    def test_fresh_draw_infinite_mean_law(self):
        # tail exponent 0.8 has no mean length; fresh draws still simulate it
        pop = Population([TraderSpec(0.5, DiscretePareto(tail_exponent=0.8)),
                          TraderSpec(0.5, Exponential(decay_length=3.0))])
        out = simulate(pop, 20_000, seed=23, init_mode="fresh_draw")
        assert out.signs.size == 20_000
        for i in range(pop.size):
            logged = int(out.metaorder_log[i].sum())
            assert logged + int(out.final_progress[i]) == int(out.selection_counts[i])

    def test_tiny_chunks_preserve_the_process_law(self):
        # a prime chunk size forces metaorders to straddle many chunk
        # boundaries; the bookkeeping and the sign law must both survive
        pop = Population.homogeneous(4, Exponential(decay_length=5.0))
        out = simulate(pop, 200_000, seed=22, chunk_size=17)
        assert out.signs.size == 200_000
        assert out.selection_counts.sum() == 200_000
        for i in range(pop.size):
            logged = int(out.metaorder_log[i].sum())
            assert logged + int(out.final_progress[i]) == int(out.selection_counts[i])
        curve = acf_estimate(out.signs, 1)
        expected = 4 * 0.25 ** 2 * math.exp(-0.2)
        assert abs(curve.values[0] - expected) < 4.0 / math.sqrt(out.steps)
        lengths = np.concatenate(out.metaorder_log)
        law = Exponential(decay_length=5.0)
        for probe in (2, 5, 15):
            p = law.ccdf(probe)
            se = math.sqrt(p * (1 - p) / lengths.size)
            assert abs(np.mean(lengths >= probe) - p) < 4 * se

    def test_lag1_matches_homogeneous_theory(self):
        # market of 10 exponential splitters: C_1 = M lam^2 e^{-1/L*}
        pop = Population.homogeneous(10, Exponential(decay_length=5.0))
        out = simulate(pop, 1_000_000, seed=21)
        curve = acf_estimate(out.signs, 1)
        expected = 10 * 0.01 * math.exp(-0.2)
        se = 1.0 / math.sqrt(out.steps)
        assert abs(curve.values[0] - expected) < 3 * se

    def test_errors(self):
        pop = Population.homogeneous(1, Degenerate())
        with pytest.raises(DomainError):
            simulate(pop, 0, seed=1)
        with pytest.raises(ConfigError):
            simulate(pop, 100, seed=1, collect_lengths=[5])
