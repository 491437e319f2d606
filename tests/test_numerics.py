"""Log-space binomial mass, power-law tail sums, alias sampling, lag grids."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from lmfsim import DiscretePareto
from lmfsim.errors import DomainError, NonconvergentMean
from lmfsim.numerics import AliasTable
from lmfsim.theory import binomial_pmf, default_lags

ZETA2 = 1.6449340668482264
ZETA15 = 2.612375348685488      # zeta(3/2), mpmath 40 digits
TAIL15_FROM10 = 0.6486616319415704  # zeta(3/2) - sum_{k<10} k^-1.5


class TestLogBinomPmf:
    """``theory.binomial_pmf``, which evaluates the mass in log space."""

    @given(st.integers(0, 400), st.floats(0.001, 0.999))
    @settings(max_examples=80, deadline=None)
    def test_matches_scipy(self, t, p):
        n = np.arange(0, t + 1)
        ref = scipy.stats.binom.logpmf(n, t, p)
        # compare logs where the mass is a normal double, not 0 or subnormal
        normal = ref > math.log(np.finfo(np.float64).tiny)
        ours = np.log(binomial_pmf(t, p, n[normal]))
        assert np.allclose(ours, ref[normal], rtol=1e-11, atol=1e-11)
        assert np.all(binomial_pmf(t, p, n[~normal]) < 2 * np.finfo(np.float64).tiny)

    def test_endpoint_probabilities_exact(self):
        assert binomial_pmf(5, 0.0, 0) == 1.0
        assert binomial_pmf(5, 0.0, 3) == 0.0
        assert binomial_pmf(5, 1.0, 5) == 1.0
        assert binomial_pmf(5, 1.0, 4) == 0.0

    def test_out_of_range_counts(self):
        with pytest.raises(DomainError):
            binomial_pmf(4, 0.5, -1)
        with pytest.raises(DomainError):
            binomial_pmf(4, 0.5, 5)

    def test_large_t_stable(self):
        # probability mass near the mode stays finite and normalised
        t, p = 1_000_000, 0.3
        n = np.arange(int(t * p) - 4000, int(t * p) + 4000)
        mass = binomial_pmf(t, p, n).sum()
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_errors(self):
        with pytest.raises(DomainError):
            binomial_pmf(-1, 0.5, 0)
        with pytest.raises(DomainError):
            binomial_pmf(3, 1.5, 0)


class TestPowerlawTailSum:
    """Zeta sums of ``DiscretePareto``: ``mean_length`` and ``ccdf_tail``."""

    def test_zeta_values(self):
        assert DiscretePareto(2.0).mean_length() == pytest.approx(ZETA2, rel=1e-11)
        assert DiscretePareto(1.5).mean_length() == pytest.approx(ZETA15, rel=1e-11)
        assert DiscretePareto(1.5).ccdf_tail(10) == pytest.approx(TAIL15_FROM10, rel=1e-11)

    def test_head_plus_tail_is_total(self):
        for alpha in (1.1, 1.5, 2.5):
            law = DiscretePareto(alpha)
            head = np.sum(np.arange(1, 1000, dtype=np.float64) ** -alpha)
            total = law.mean_length()
            tail = law.ccdf_tail(1000)
            assert head + tail == pytest.approx(total, rel=1e-10)

    @given(st.floats(1.05, 4.0), st.integers(1, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_tail_positive_decreasing(self, alpha, start):
        law = DiscretePareto(alpha)
        a = law.ccdf_tail(start)
        b = law.ccdf_tail(start + 1)
        assert 0.0 < b < a
        assert a - b == pytest.approx(float(start) ** -alpha, rel=1e-9)

    def test_divergent_exponent(self):
        with pytest.raises(NonconvergentMean):
            DiscretePareto(1.0).mean_length()
        with pytest.raises(NonconvergentMean):
            DiscretePareto(1.0).ccdf_tail(5)


class TestAliasTable:
    """Exact checks of the law a table encodes: column i keeps itself with
    probability prob[i] and hands the rest to alias[i], each column 1/n."""

    @staticmethod
    def implied_mass(table):
        mass = table.prob.copy()
        np.add.at(mass, table.alias, 1.0 - table.prob)
        return mass / table.prob.size

    def test_single_weight(self):
        table = AliasTable.from_weights([3.0])
        assert np.array_equal(self.implied_mass(table), [1.0])

    def test_even_split(self):
        mass = self.implied_mass(AliasTable.from_weights([0.5, 0.5]))
        assert np.allclose(mass, [0.5, 0.5], rtol=0.0, atol=1e-12)

    def test_frequencies_match_weights(self):
        mass = self.implied_mass(AliasTable.from_weights([0.9, 0.1]))
        assert np.allclose(mass, [0.9, 0.1], rtol=0.0, atol=1e-12)

    def test_zero_weight_never_drawn(self):
        table = AliasTable.from_weights([0.5, 0.0, 0.5])
        assert table.prob[1] == 0.0
        assert self.implied_mass(table)[1] == 0.0

    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8)
           .filter(lambda w: sum(w) > 0.1))
    @settings(max_examples=50, deadline=None)
    def test_chi_square_sane(self, weights):
        mass = self.implied_mass(AliasTable.from_weights(weights))
        probs = np.asarray(weights) / np.sum(weights)
        assert np.allclose(mass, probs, rtol=0.0, atol=1e-12)

    def test_errors(self):
        with pytest.raises(DomainError):
            AliasTable.from_weights([])
        with pytest.raises(DomainError):
            AliasTable.from_weights([-1.0, 2.0])
        with pytest.raises(DomainError):
            AliasTable.from_weights([0.0, 0.0])


class TestGeometricLags:
    """``theory.default_lags``, the geometric lag grid."""

    @given(st.integers(1, 200_000), st.floats(1.05, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_grid_contract(self, max_lag, ratio):
        lags = default_lags(max_lag, ratio)
        assert lags[0] == 1
        assert lags[-1] == max_lag
        assert np.all(np.diff(lags) > 0)
        assert lags.dtype == np.int64

    def test_small_grid_is_dense(self):
        assert list(default_lags(5)) == [1, 2, 3, 4, 5]
