"""Log-space binomial machinery, tail sums, alias sampling, lag grids."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from lmfsim import (
    AliasTable,
    geometric_lags,
    powerlaw_tail_sum,
)
from lmfsim.errors import DomainError, NonconvergentMean
from lmfsim.numerics import binom_cdf_prefix, log_binom_pmf

ZETA2 = 1.6449340668482264
ZETA15 = 2.612375348685488      # zeta(3/2), mpmath 40 digits
TAIL15_FROM10 = 0.6486616319415704  # zeta(3/2) - sum_{k<10} k^-1.5


class TestLogBinomPmf:
    @given(st.integers(0, 400), st.floats(0.001, 0.999))
    @settings(max_examples=80, deadline=None)
    def test_matches_scipy(self, t, p):
        n = np.arange(0, t + 1)
        ours = log_binom_pmf(t, p, n)
        ref = scipy.stats.binom.logpmf(n, t, p)
        assert np.allclose(ours, ref, rtol=1e-11, atol=1e-11)

    def test_endpoint_probabilities_exact(self):
        assert log_binom_pmf(5, 0.0, 0) == 0.0
        assert log_binom_pmf(5, 0.0, 3) == -math.inf
        assert log_binom_pmf(5, 1.0, 5) == 0.0
        assert log_binom_pmf(5, 1.0, 4) == -math.inf

    def test_out_of_range_counts(self):
        assert log_binom_pmf(4, 0.5, -1) == -math.inf
        assert log_binom_pmf(4, 0.5, 5) == -math.inf

    def test_large_t_stable(self):
        # probability mass near the mode stays finite and normalised
        t, p = 1_000_000, 0.3
        n = np.arange(int(t * p) - 4000, int(t * p) + 4000)
        mass = np.exp(log_binom_pmf(t, p, n)).sum()
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_errors(self):
        with pytest.raises(DomainError):
            log_binom_pmf(-1, 0.5, 0)
        with pytest.raises(DomainError):
            log_binom_pmf(3, 1.5, 0)


class TestBinomCdfPrefix:
    @given(st.integers(1, 300), st.floats(0.001, 0.999), st.integers(0, 40))
    @settings(max_examples=80, deadline=None)
    def test_matches_scipy_cdf(self, t, p, k_max):
        k_max = min(k_max, t)
        prefix = binom_cdf_prefix(t, p, k_max)
        ref = scipy.stats.binom.cdf(np.arange(k_max + 1), t, p)
        assert prefix.shape == (k_max + 1,)
        assert np.allclose(prefix, ref, rtol=1e-10, atol=1e-12)

    def test_prefix_is_cumulative_pmf(self):
        t, p = 50, 0.2
        prefix = binom_cdf_prefix(t, p, 12)
        pmf = np.exp(log_binom_pmf(t, p, np.arange(13)))
        assert np.allclose(np.diff(prefix), pmf[1:], atol=1e-14)
        assert prefix[0] == pytest.approx(pmf[0], abs=1e-15)

    def test_monotone_in_trials_next_to_one(self):
        # an upward pmf sum gives 0.9999999999999972 at 18 trials and
        # 0.9999999999999997 at 19, although one more trial cannot raise it
        at18 = binom_cdf_prefix(18, 0.0625, 15)[15]
        at19 = binom_cdf_prefix(19, 0.0625, 15)[15]
        assert at18 >= at19
        assert at18 == pytest.approx(scipy.stats.binom.cdf(15, 18, 0.0625),
                                     rel=1e-15, abs=0.0)

    def test_prefix_past_the_trial_count_is_one(self):
        assert np.array_equal(binom_cdf_prefix(3, 0.4, 6)[3:], np.ones(4))
        assert np.array_equal(binom_cdf_prefix(0, 0.4, 2), np.ones(3))


class TestPowerlawTailSum:
    def test_zeta_values(self):
        assert powerlaw_tail_sum(2.0, 1) == pytest.approx(ZETA2, rel=1e-11)
        assert powerlaw_tail_sum(1.5, 1) == pytest.approx(ZETA15, rel=1e-11)
        assert powerlaw_tail_sum(1.5, 10) == pytest.approx(TAIL15_FROM10, rel=1e-11)

    def test_head_plus_tail_is_total(self):
        for alpha in (1.1, 1.5, 2.5):
            head = np.sum(np.arange(1, 1000, dtype=np.float64) ** -alpha)
            total = powerlaw_tail_sum(alpha, 1)
            tail = powerlaw_tail_sum(alpha, 1000)
            assert head + tail == pytest.approx(total, rel=1e-10)

    @given(st.floats(1.05, 4.0), st.integers(1, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_tail_positive_decreasing(self, alpha, start):
        a = powerlaw_tail_sum(alpha, start)
        b = powerlaw_tail_sum(alpha, start + 1)
        assert 0.0 < b < a
        assert a - b == pytest.approx(float(start) ** -alpha, rel=1e-9)

    def test_divergent_exponent(self):
        with pytest.raises(NonconvergentMean):
            powerlaw_tail_sum(1.0, 1)


class TestAliasTable:
    def test_single_weight(self):
        rng = np.random.default_rng(0)
        table = AliasTable.from_weights([3.0])
        assert np.all(table.draw(rng, size=100) == 0)

    def test_even_split(self):
        rng = np.random.default_rng(1)
        draws = AliasTable.from_weights([0.5, 0.5]).draw(rng, size=1_000_000)
        se = math.sqrt(0.25 / draws.size)
        assert abs(np.mean(draws == 0) - 0.5) < 4 * se

    def test_frequencies_match_weights(self):
        rng = np.random.default_rng(1)
        weights = np.array([0.9, 0.1])
        table = AliasTable.from_weights(weights)
        draws = table.draw(rng, size=1_000_000)
        se = math.sqrt(0.9 * 0.1 / draws.size)
        assert abs(np.mean(draws == 0) - 0.9) < 4 * se

    def test_zero_weight_never_drawn(self):
        rng = np.random.default_rng(2)
        table = AliasTable.from_weights([0.5, 0.0, 0.5])
        draws = table.draw(rng, size=100_000)
        assert not np.any(draws == 1)

    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8)
           .filter(lambda w: sum(w) > 0.1))
    @settings(max_examples=50, deadline=None)
    def test_chi_square_sane(self, weights):
        rng = np.random.default_rng(3)
        table = AliasTable.from_weights(weights)
        n = 50_000
        draws = table.draw(rng, size=n)
        probs = np.asarray(weights) / np.sum(weights)
        for k, p in enumerate(probs):
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(np.mean(draws == k) - p) < 6 * se + 1e-9

    def test_errors(self):
        with pytest.raises(DomainError):
            AliasTable.from_weights([])
        with pytest.raises(DomainError):
            AliasTable.from_weights([-1.0, 2.0])
        with pytest.raises(DomainError):
            AliasTable.from_weights([0.0, 0.0])


class TestGeometricLags:
    @given(st.integers(1, 200_000), st.floats(1.05, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_grid_contract(self, max_lag, ratio):
        lags = geometric_lags(max_lag, ratio)
        assert lags[0] == 1
        assert lags[-1] == max_lag
        assert np.all(np.diff(lags) > 0)
        assert lags.dtype == np.int64

    def test_small_grid_is_dense(self):
        assert list(geometric_lags(5)) == [1, 2, 3, 4, 5]
