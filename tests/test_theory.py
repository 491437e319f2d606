"""Exact ACF formulas, closed forms, asymptotes, prefactor inequalities."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from lmfsim import (
    Degenerate,
    DiscretePareto,
    Exponential,
    Population,
    Tabulated,
    TraderSpec,
    binomial_pmf,
    exact_acf_market,
    exact_acf_trader,
    exponential_acf_closed_form,
    heuristic_acf,
    hetero_acf_asymptote,
    homogeneous_market_acf,
    min_splitter_count,
    powerlaw_acf_asymptote,
    prefactor_bounds,
    prefactor_hetero,
    prefactor_homogeneous,
)
from lmfsim.laws import allocate_decay_lengths
from lmfsim.stats import fit_powerlaw
from lmfsim.theory import (
    AcfCurve,
    ValidityWarning,
    default_lags,
    superposition_prefactor,
)
from lmfsim.errors import DegenerateExponent, DomainError, NonconvergentMean

# frozen values, cross-checked against mpmath at 40 digits
EXACT_EXP_TAU1 = 0.006065306597126334   # 0.01 * e^{-1/2}
EXACT_EXP_TAU2 = 0.005826655378585143   # above * (1 - 0.1(1 - e^{-1/2}))
ASYM_100 = 0.0021081851067789197        # (0.1^{1.5}/1.5) * 100^{-0.5}
PREF_SK_9_1 = 0.5902918298980975        # (0.9^{1.5} + 0.1^{1.5})/1.5
PREF_LMF_10 = 0.21081851067789195       # 1/(1.5 sqrt(10))
PREF_LMF_08_10 = 0.15084944665313016    # 0.8^{1.5}/(1.5 sqrt(10))
GAMMA_15 = 0.8862269254527580           # Gamma(3/2) = sqrt(pi)/2
MIN_COUNT_EXAMPLE = 2275.5555555555557  # (0.8^{1.5}/0.015)^2


def tab(d):
    items = sorted(d.items())
    return Tabulated(support=[k for k, _ in items], probs=[v for _, v in items])


def _reference_market_sum(lam, law, tau, r0_min):
    """sum_{R0 >= r0_min} ccdf(R0) * survival, one lag at a time: a finite
    binomial-CDF sweep plus the law's tail mass (the original per-lag sum)."""
    if tau >= r0_min:
        r0 = np.arange(r0_min, tau + 1, dtype=np.int64)
        cdf_prefix = scipy.special.bdtr(np.arange(tau - 1), tau - 1, lam)
        finite = float(np.dot(law.ccdf(r0), cdf_prefix[r0 - 2]))
    else:
        finite = 0.0
    return finite + law.ccdf_tail(max(tau + 1, r0_min))


class TestBinomialPmf:
    def test_frozen_values(self):
        assert binomial_pmf(0, 0.3, 0) == 1.0
        assert binomial_pmf(2, 0.5, 1) == pytest.approx(0.5, abs=1e-15)
        assert binomial_pmf(10, 0.1, 0) == pytest.approx(0.9**10, rel=1e-13, abs=0.0)

    def test_vectorised(self):
        out = binomial_pmf(4, 0.5, np.arange(5))
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert out[2] == pytest.approx(0.375, abs=1e-15)

    def test_errors(self):
        with pytest.raises(DomainError):
            binomial_pmf(4, 0.5, 5)
        with pytest.raises(DomainError):
            binomial_pmf(4, 0.5, -1)
        with pytest.raises(DomainError):
            binomial_pmf(-1, 0.5, 0)

    @given(st.integers(1, 1000), st.floats(0.001, 0.999))
    @settings(max_examples=50, deadline=None)
    def test_pascal_recursion(self, t, lam):
        # P_{t+1}(n) = P_t(n) + lam (P_t(n-1) - P_t(n))
        n = np.arange(0, t + 1)
        now = binomial_pmf(t, lam, n)
        nxt = binomial_pmf(t + 1, lam, np.arange(0, t + 2))
        shifted = np.concatenate(([0.0], now))
        resid = nxt - (np.concatenate((now, [0.0])) * (1 - lam) + lam * shifted)
        assert np.max(np.abs(resid)) < 1e-12


class TestExactAcf:
    def test_degenerate_trader_is_zero(self):
        curve = exact_acf_trader(TraderSpec(0.5, Degenerate()), [1, 5, 50])
        assert np.all(curve.values == 0.0)

    def test_exponential_frozen_values(self):
        curve = exact_acf_trader(
            TraderSpec(0.1, Exponential(decay_length=2.0)), [1, 2])
        assert curve.values[0] == pytest.approx(EXACT_EXP_TAU1, rel=1e-10, abs=0.0)
        assert curve.values[1] == pytest.approx(EXACT_EXP_TAU2, rel=1e-10, abs=0.0)

    def test_market_additivity(self):
        pop = Population([
            TraderSpec(0.5, Exponential(decay_length=3.0)),
            TraderSpec(0.3, tab({1: 0.5, 4: 0.5})),
            TraderSpec(0.2, DiscretePareto(tail_exponent=1.7)),
        ])
        lags = np.arange(1, 30)
        total = exact_acf_market(pop, lags)
        parts = sum(exact_acf_trader(t, lags).values for t in pop.traders)
        assert np.allclose(total.values, parts, atol=1e-14)

    def test_market_scale_relation(self):
        # a homogeneous market of 1/lam traders gives market = trader / lam
        lam, law = 0.1, Exponential(decay_length=5.0)
        lags = np.arange(1, 50)
        market = homogeneous_market_acf(lam, law, lags)
        trader = exact_acf_trader(TraderSpec(lam, law), lags)
        assert np.allclose(market.values, trader.values / lam, rtol=1e-12)

    @given(st.floats(0.01, 1.0), st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative_and_bounded(self, lam, tau):
        law = tab({1: 0.3, 2: 0.4, 5: 0.3})
        value = exact_acf_trader(TraderSpec(lam, law), [tau]).values[0]
        assert 0.0 <= value <= lam * lam + 1e-15

    def test_lag1_upper_bound(self):
        # C_1 <= sum lam_i^2: perfect correlation only if every selection
        # continues a metaorder
        pop = Population([
            TraderSpec(0.6, tab({2: 1.0})),
            TraderSpec(0.4, tab({3: 1.0})),
        ])
        c1 = exact_acf_market(pop, [1]).values[0]
        assert c1 <= float(np.sum(pop.intensities**2)) + 1e-15

    def test_infinite_mean_raises(self):
        with pytest.raises(NonconvergentMean):
            exact_acf_trader(TraderSpec(0.5, DiscretePareto(tail_exponent=1.0)), [1])


class TestBinomialExpectation:
    """The windowed binomial expectation behind every exact curve."""

    LAWS = (
        Exponential(decay_length=3.0),
        tab({1: 0.3, 4: 0.3, 9: 0.4}),
        DiscretePareto(tail_exponent=1.2),
        DiscretePareto(tail_exponent=1.5),
        DiscretePareto(tail_exponent=1.7),
    )

    @pytest.mark.parametrize("law", LAWS, ids=lambda law: law.kind)
    def test_matches_per_lag_reference(self, law):
        lags = np.arange(1, 301)
        for lam in (1e-6, 0.01, 0.5, 0.99, 1.0):
            scale = lam * (1.0 / law.mean_length())
            for r0_min, curve in ((2, homogeneous_market_acf), (3, heuristic_acf)):
                ref = np.array([scale * _reference_market_sum(lam, law, int(t), r0_min)
                                for t in lags])
                got = curve(lam, law, lags).values
                assert np.max(np.abs(got - ref)) < 1e-13, (lam, r0_min)
            trader = exact_acf_trader(TraderSpec(lam, law), lags).values
            ref = np.array([(1.0 / law.mean_length()) * lam * lam
                            * _reference_market_sum(lam, law, int(t), 2) for t in lags])
            assert np.max(np.abs(trader - ref)) < 1e-13, lam

    def test_endpoints(self):
        law = DiscretePareto(tail_exponent=1.5)
        scale = 1.0 / law.mean_length()
        lags = np.array([1, 2, 10, 1000])
        # lam = 1: N = tau - 1 surely, so C_tau = c_R * T(tau + 1)
        point = exact_acf_trader(TraderSpec(1.0, law), lags).values
        tails = np.array([scale * law.ccdf_tail(int(t) + 1) for t in lags])
        assert np.all(np.isfinite(point))
        assert np.allclose(point, tails, rtol=1e-13, atol=0.0)
        # tau = 1 is T(2) whatever lam, even when the window is clipped to [0, 0]
        for lam in (1e-6, 0.3, 1.0):
            first = exact_acf_trader(TraderSpec(lam, law), [1]).values[0]
            assert first == pytest.approx(scale * lam * lam * law.ccdf_tail(2),
                                           rel=1e-13, abs=0.0)
        # lam = 0 is zero, even for an infinite-mean law
        zero = TraderSpec(0.0, DiscretePareto(tail_exponent=0.8))
        assert np.all(exact_acf_trader(zero, lags).values == 0.0)
        # a finite support leaves T = 0 beyond it
        short = tab({2: 0.5, 4: 0.5})
        assert np.all(homogeneous_market_acf(1.0, short, [4, 5, 100]).values == 0.0)
        assert homogeneous_market_acf(1.0, short, [3]).values[0] > 0.0

    def test_accuracy_against_mpmath(self):
        # C_tau / (c_R lam^2) = sum_n binom(tau - 1, n) lam^n (1 - lam)^(tau-1-n)
        # * zeta(alpha, n + 2), summed at 30 digits
        lam, alpha = 0.085, 1.5
        law = DiscretePareto(tail_exponent=alpha)
        lags = np.array([1, 10, 1000, 9580])
        got = exact_acf_trader(TraderSpec(lam, law), lags).values
        scale = (1.0 / law.mean_length()) * lam * lam
        with mpmath.workdps(30):
            p, a = mpmath.mpf(lam), mpmath.mpf(alpha)
            for tau, value in zip(lags, got):
                t = int(tau) - 1
                zeta, total = mpmath.zeta(a, t + 3), mpmath.mpf(0)
                for n in range(t, -1, -1):
                    zeta += mpmath.mpf(n + 2) ** -a  # now zeta(a, n + 2)
                    total += mpmath.binomial(t, n) * p**n * (1 - p) ** (t - n) * zeta
                expected = scale * float(total)
                assert value == pytest.approx(expected, rel=1e-13, abs=0.0), tau

    def test_dense_and_geometric_grids_agree(self):
        trader = TraderSpec(0.085, DiscretePareto(tail_exponent=1.5))
        dense = exact_acf_trader(trader, np.arange(1, 10_001)).values
        geometric = exact_acf_trader(trader, default_lags(10_000))
        shared = dense[geometric.lags - 1]
        assert np.allclose(geometric.values, shared, rtol=1e-14, atol=0.0)

    def test_dense_grid_memory_is_blocked(self, traced_peak):
        trader = TraderSpec(0.5, DiscretePareto(tail_exponent=1.5))
        lags = np.arange(1, 10_001)
        _, peak = traced_peak(lambda: exact_acf_trader(trader, lags))
        assert peak < 64 * 2**20


class TestExponentialSum:
    """Exponential traders are summed as arrays instead of one call per trader."""

    def test_matches_per_trader_loop(self):
        # distinct decay lengths, as in a large splitter census
        decay = allocate_decay_lengths(3000, 1.5)
        pop = Population([TraderSpec(1.0 / decay.size, Exponential(float(d)))
                          for d in decay])
        lags = np.arange(1, 2001)
        loop = np.zeros(lags.shape)
        for lam, t in zip(pop.intensities, pop.traders):
            loop += exponential_acf_closed_form(float(lam), t.law.decay_length,
                                                lags).values
        for curve in (exact_acf_market, hetero_acf_asymptote):
            got = curve(pop, lags).values
            assert np.allclose(got, loop, rtol=1e-14, atol=0.0), curve.__name__

    def test_grouped_and_shuffled_traders(self):
        rng = np.random.default_rng(7)
        lam = rng.choice([1e-3, 2e-3, 5e-4], size=2000)
        decay = rng.choice([2.0, 7.5, 40.0, 300.0], size=2000)
        pop = Population([TraderSpec(float(a), Exponential(float(d)))
                          for a, d in zip(lam, decay)])
        lags = default_lags(5000)
        terms = np.array([exponential_acf_closed_form(float(a), t.law.decay_length,
                                                      lags).values
                          for a, t in zip(pop.intensities, pop.traders)])
        exact = np.array([math.fsum(col) for col in terms.T])
        for curve in (exact_acf_market, hetero_acf_asymptote):
            got = curve(pop, lags).values
            assert np.allclose(got, exact, rtol=1e-14, atol=0.0), curve.__name__

    def test_zero_intensity_traders_contribute_nothing(self):
        lags = default_lags(2000)
        cases = [
            ([TraderSpec(0.0, Exponential(2.0)), TraderSpec(1.0, Exponential(2.0))],
             [TraderSpec(1.0, Exponential(2.0))]),
            ([TraderSpec(0.0, DiscretePareto(1.5)), TraderSpec(0.5, Exponential(2.0)),
              TraderSpec(0.5, DiscretePareto(1.5))],
             [TraderSpec(0.5, Exponential(2.0)), TraderSpec(0.5, DiscretePareto(1.5))]),
        ]
        for with_zero, without in cases:
            for curve in (exact_acf_market, hetero_acf_asymptote):
                got = curve(Population(with_zero), lags).values
                want = curve(Population(without), lags).values
                assert np.array_equal(got, want), curve.__name__


def _reference_exponential_sum(population, lags):
    """Per-trader selection and np.unique grouping of the exponential closed forms."""
    from lmfsim.theory import _BLOCK, _check_intensity, _exponential_params

    traders = [(lam, t.law.decay_length) for lam, t in
               zip(population.intensities, population.traders)
               if isinstance(t.law, Exponential) and lam > 0.0]
    pairs, count = np.unique(np.reshape(traders, (-1, 2)), axis=0, return_counts=True)
    _check_intensity(float(pairs[:, 0].min(initial=1.0)))
    prefactor, decay_time = _exponential_params(pairs[:, :1], pairs[:, 1:])
    lags = lags.astype(np.float64)
    total = np.zeros(lags.shape)
    rows = max(1, _BLOCK // max(lags.size, 1))
    for i in range(0, count.size, rows):
        block = prefactor[i:i + rows] * np.exp(-lags / decay_time[i:i + rows])
        block *= count[i:i + rows, None]
        block[0] += total
        total = block.sum(axis=0)
    return total


def _reference_exact_market(population, lags):
    """Identical traders grouped by intensity, batch key and param, first seen first."""
    total = _reference_exponential_sum(population, lags)
    groups = {}
    for lam, t in zip(population.intensities, population.traders):
        if not isinstance(t.law, (Degenerate, Exponential)):
            key = (float(lam), t.law.batch_key(), t.law.param)
            groups.setdefault(key, [0, float(lam), t.law])[0] += 1
    for count, lam, law in groups.values():
        total += count * exact_acf_trader(TraderSpec(lam, law), lags).values
    return total


def _reference_asymptote(population, lags):
    """Exponential closed forms, then one Pareto asymptote per trader in order."""
    total = _reference_exponential_sum(population, lags)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for lam, trader in zip(population.intensities, population.traders):
            if isinstance(trader.law, DiscretePareto) and lam > 0.0:
                total += powerlaw_acf_asymptote(float(lam), trader.law.tail_exponent,
                                                lags).values
    return total


def _mixed_market(seed, size):
    """Random exponential, Pareto and unit-length traders, with zero
    intensities and repeated (intensity, law) pairs, shuffled together."""
    rng = np.random.default_rng(seed)
    laws = [lambda: Exponential(float(rng.choice([2.0, 7.5, 40.0]))),
            lambda: Exponential(float(rng.uniform(1.0, 100.0))),
            lambda: DiscretePareto(float(rng.choice([1.3, 1.5, 1.8]))),
            lambda: Degenerate()]
    kinds = rng.integers(0, len(laws), size)
    lam = rng.choice([0.0, 1e-3, 2e-3, 5e-3], size) + (rng.random(size) < 0.3) * rng.random(size) * 1e-2
    return [TraderSpec(float(a), laws[k]()) for a, k in zip(lam, kinds)]


class TestColumnPath:
    """Theory reads the law columns: bit for bit the per-trader loops."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_asymptote_and_exponential_sum(self, seed):
        pop = Population(_mixed_market(seed, 400))
        lags = default_lags(5000)
        assert (hetero_acf_asymptote(pop, lags).values.tobytes()
                == _reference_asymptote(pop, lags).tobytes())

    @pytest.mark.parametrize("seed", [4, 5])
    def test_exact_market_with_tabulated_and_pareto(self, seed):
        rng = np.random.default_rng(seed)
        traders = _mixed_market(seed, 40)
        # equal Tabulated laws built apart group together; zero-intensity
        # and repeated generic traders are kept in place
        for _ in range(6):
            table = tab({1: 0.3, 4: 0.3, 9: 0.4}) if rng.random() < 0.7 else tab({2: 1.0})
            traders.insert(int(rng.integers(0, len(traders))),
                           TraderSpec(float(rng.choice([0.0, 4e-3])), table))
        pop = Population(traders)
        lags = default_lags(2000)
        assert (exact_acf_market(pop, lags).values.tobytes()
                == _reference_exact_market(pop, lags).tobytes())

    def test_asymptote_rejects_the_first_unsupported_law(self):
        pop = Population([TraderSpec(0.5, DiscretePareto(1.5)),
                          TraderSpec(0.5, tab({1: 0.5, 3: 0.5}))])
        with pytest.raises(DomainError, match="'tabulated'"):
            hetero_acf_asymptote(pop, [10])


class TestExponentialClosedForm:
    def test_matches_exact_spot(self):
        lags = np.arange(1, 201)
        for lam in (0.01, 0.5):
            for decay in (1.0, 10.0):
                closed = exponential_acf_closed_form(lam, decay, lags)
                exact = exact_acf_trader(
                    TraderSpec(lam, Exponential(decay_length=decay)), lags)
                assert np.max(np.abs(closed.values - exact.values)) < 1e-12

    def test_lazy_curve_object(self):
        curve = exponential_acf_closed_form(0.1, 2.0, np.arange(1, 41))
        assert curve.values[0] == pytest.approx(EXACT_EXP_TAU1, rel=1e-12, abs=0.0)
        # geometric decay time: values fall by e over decay_time lags
        decay_time = -1.0 / math.log(1.0 - 0.1 * (1.0 - math.exp(-1.0 / 2.0)))
        ratio = curve.values[int(decay_time)] / curve.values[0]
        assert ratio == pytest.approx(1 / math.e, rel=0.05, abs=0.0)

    @pytest.mark.parametrize("lam, decay", [(0.0, 2.0), (1.5, 2.0),
                                            (0.1, 0.0), (0.1, -1.0)])
    def test_rejects_inputs_outside_the_domain(self, lam, decay):
        with pytest.raises(DomainError):
            exponential_acf_closed_form(lam, decay, [1, 2])


class TestPowerLawAsymptote:
    def test_frozen_values(self):
        assert powerlaw_acf_asymptote(1.0, 1.5, [1]).values[0] == pytest.approx(
            2.0 / 3.0, rel=1e-14, abs=0.0)
        assert powerlaw_acf_asymptote(0.1, 1.5, [100]).values[0] == pytest.approx(
            ASYM_100, rel=1e-13, abs=0.0)

    def test_converges_to_exact(self):
        trader = TraderSpec(0.1, DiscretePareto(tail_exponent=1.5))
        exact = exact_acf_trader(trader, [10_000]).values[0]
        asym = powerlaw_acf_asymptote(0.1, 1.5, [10_000]).values[0]
        assert abs(asym - exact) / exact < 0.15

    def test_exact_curve_has_asymptotic_slope(self):
        trader = TraderSpec(0.1, DiscretePareto(tail_exponent=1.5))
        lags = default_lags(10_000)
        curve = exact_acf_trader(trader, lags)
        fit = fit_powerlaw(curve.lags, curve.values, window=(100.0, 10_000.0))
        assert fit.exponent == pytest.approx(0.5, abs=0.05)

    def test_hetero_asymptote_mixes_groups(self):
        pop = Population([
            TraderSpec(0.5, DiscretePareto(tail_exponent=1.5)),
            TraderSpec(0.2, DiscretePareto(tail_exponent=1.5)),
            TraderSpec(0.3, Exponential(decay_length=4.0)),
        ])
        lags = np.array([10, 100, 1000])
        mixed = hetero_acf_asymptote(pop, lags)
        by_hand = (
            powerlaw_acf_asymptote(0.5, 1.5, lags).values
            + powerlaw_acf_asymptote(0.2, 1.5, lags).values
            + exponential_acf_closed_form(0.3, 4.0, lags).values
        )
        assert np.allclose(mixed.values, by_hand, rtol=1e-12)

    def test_errors_and_warnings(self):
        with pytest.warns(ValidityWarning):
            powerlaw_acf_asymptote(0.1, 2.5, [10])
        with pytest.warns(ValidityWarning):
            powerlaw_acf_asymptote(0.01, 1.5, [10])  # lag below 1/intensity
        with pytest.raises(DomainError):
            powerlaw_acf_asymptote(0.1, 1.0, [10])
        with pytest.raises(DomainError):
            powerlaw_acf_asymptote(1.5, 1.5, [10])


class TestPrefactors:
    def test_frozen_values(self):
        assert prefactor_hetero([1.0], 1.5) == pytest.approx(2 / 3, rel=1e-14, abs=0.0)
        assert prefactor_hetero([0.9, 0.1], 1.5) == pytest.approx(
            PREF_SK_9_1, rel=1e-13, abs=0.0)
        assert prefactor_homogeneous(1.0, 1, 1.5) == pytest.approx(
            2 / 3, rel=1e-14, abs=0.0)
        assert prefactor_homogeneous(1.0, 10, 1.5) == pytest.approx(
            PREF_LMF_10, rel=1e-13, abs=0.0)
        assert prefactor_homogeneous(0.8, 10, 1.5) == pytest.approx(
            PREF_LMF_08_10, rel=1e-13, abs=0.0)
        assert superposition_prefactor([1.0], 1.5) == pytest.approx(
            GAMMA_15, rel=1e-13, abs=0.0)

    def test_homogeneous_equals_hetero_on_equal_vectors(self):
        for m in (1, 2, 7, 50):
            lam = np.full(m, 0.8 / m)
            assert prefactor_hetero(lam, 1.3) == pytest.approx(
                prefactor_homogeneous(0.8, m, 1.3), rel=1e-12, abs=0.0)

    @given(
        st.integers(1, 60),
        st.floats(0.05, 1.0),
        st.sampled_from([1.1, 1.3, 1.5, 1.7, 1.9]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_two_sided_inequality(self, m, mu, alpha, seed):
        rng = np.random.default_rng(seed)
        lam = rng.dirichlet(np.ones(m)) * mu
        lam = np.maximum(lam, 1e-12)
        report = prefactor_bounds(lam, alpha)
        assert report.c0_homogeneous <= report.c0_hetero * (1 + 1e-12)
        assert report.c0_hetero <= report.c0_upper * (1 + 1e-12)
        assert report.q0_homogeneous <= report.q0_hetero * (1 + 1e-12)
        assert report.q0_hetero <= report.q0_upper * (1 + 1e-12)
        assert report.slack_lower >= -1e-15 and report.slack_upper >= -1e-15
        target = alpha * math.gamma(alpha)
        assert report.q0_over_c0 == pytest.approx(target, rel=1e-12, abs=0.0)
        assert 1.0 <= report.q0_over_c0 <= 2.0

    def test_equality_at_homogeneous(self):
        report = prefactor_bounds(np.full(10, 0.08), 1.5)
        assert report.is_homogeneous_equality
        assert report.c0_homogeneous == pytest.approx(
            report.c0_hetero, rel=1e-12, abs=0.0)
        single = prefactor_bounds(np.array([0.8]), 1.5)
        assert single.c0_hetero == pytest.approx(single.c0_upper, rel=1e-12, abs=0.0)

    @given(
        st.lists(st.floats(0.001, 1.0), min_size=1, max_size=30),
        st.floats(1.05, 2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_sum_power_inequality(self, xs, a):
        # (sum x)^a >= sum x^a for a in (1, 2]: the upper-bound lemma
        xs = np.asarray(xs)
        assert np.sum(xs) ** a >= np.sum(xs**a) * (1 - 1e-12)

    def test_superposition_variants(self):
        lam = np.full(100, 0.01)
        even = prefactor_bounds(lam, 1.5)
        assert superposition_prefactor(lam, 1.5) == pytest.approx(
            even.q0_homogeneous, rel=1e-12, abs=0.0)
        assert superposition_prefactor(lam, 1.5) <= even.q0_upper
        assert prefactor_bounds([0.3, 0.5], 1.5).c0_upper == pytest.approx(
            0.8**1.5 / 1.5, rel=1e-13, abs=0.0)

    def test_alpha_domain_errors(self):
        with pytest.raises(DomainError):
            prefactor_hetero([0.5], 2.0)
        with pytest.raises(DomainError):
            prefactor_homogeneous(0.8, 10, 1.0)
        with pytest.raises(DomainError):
            prefactor_hetero([0.5, 0.6], 1.5)  # mass above 1


class TestMinSplitterCount:
    def test_frozen_example(self):
        assert min_splitter_count(0.8, 1.5, 0.01) == pytest.approx(
            MIN_COUNT_EXAMPLE, rel=1e-12, abs=0.0)

    def test_inverse_identity(self):
        for m in (3, 50, 400):
            c0 = prefactor_homogeneous(0.8, m, 1.5)
            assert min_splitter_count(0.8, 1.5, c0) == pytest.approx(
                m, rel=1e-9, abs=0.0)

    @given(
        st.integers(1, 40),
        st.floats(0.1, 1.0),
        st.floats(1.1, 1.9),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_lower_bounds_true_count(self, m, mu, alpha, seed):
        rng = np.random.default_rng(seed)
        lam = rng.dirichlet(np.ones(m)) * mu
        lam = np.maximum(lam, 1e-12)
        c0 = prefactor_hetero(lam, alpha)
        assert min_splitter_count(mu, alpha, c0) <= m * (1 + 1e-9)

    def test_near_two_exponent_rejected(self):
        # 1/(2 - alpha) amplifies prefactor noise without bound
        with pytest.raises(DegenerateExponent):
            min_splitter_count(0.8, 1.96, 0.01)
        with pytest.raises(DomainError):
            min_splitter_count(0.8, 2.3, 0.01)


class TestHeuristicIdentity:
    @given(st.floats(0.01, 0.99), st.integers(1, 150))
    @settings(max_examples=60, deadline=None)
    def test_identity_exponential(self, lam, tau):
        law = Exponential(decay_length=5.0)
        exact = homogeneous_market_acf(lam, law, [tau]).values[0]
        heur = heuristic_acf(lam, law, [tau]).values[0]
        predicted = (lam / law.mean_length()) * law.ccdf(2) * (1 - lam) ** (tau - 1)
        assert abs((exact - heur) - predicted) < 1e-12

    def test_identity_other_laws(self):
        for law in (tab({1: 0.3, 2: 0.4, 6: 0.3}),
                    DiscretePareto(tail_exponent=1.6)):
            for tau in (1, 5, 40):
                exact = homogeneous_market_acf(0.2, law, [tau]).values[0]
                heur = heuristic_acf(0.2, law, [tau]).values[0]
                predicted = (0.2 / law.mean_length()) * law.ccdf(2) * 0.8 ** (tau - 1)
                assert abs((exact - heur) - predicted) < 1e-12

    def test_degenerate_heuristic_zero(self):
        assert np.all(heuristic_acf(0.3, Degenerate(), [1, 2, 3]).values == 0.0)


class TestAcfCurve:
    def test_lags_must_increase(self):
        with pytest.raises(DomainError):
            AcfCurve(lags=np.array([2, 1]), values=np.zeros(2), kind="exact")

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            AcfCurve(lags=np.array([1, 2]), values=np.zeros(3), kind="exact")

    def test_len(self):
        curve = AcfCurve(lags=np.array([1, 2, 3]), values=np.zeros(3), kind="exact")
        assert len(curve) == 3

    def test_default_lags_cover_range(self):
        lags = default_lags(500)
        assert lags[0] == 1 and lags[-1] == 500
        assert np.all(np.diff(lags) > 0)
