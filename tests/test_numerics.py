"""Log-space binomial mass, power-law tail sums, alias sampling, lag grids."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from lmfsim import DiscretePareto, Exponential
from lmfsim.errors import DomainError, NonconvergentMean
from lmfsim.laws import _hurwitz_zeta
from lmfsim.numerics import AliasTable
from lmfsim.theory import _log_factorials, _stirlerr, binomial_pmf, default_lags

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

    @pytest.mark.parametrize("t", [0, 1, 7, 1000])
    def test_end_counts_at_every_probability(self, t):
        # n in {0, t}: 0 * log(0) counts as 0, silently, at lam in {0, 1}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ends = {lam: binomial_pmf(t, lam, np.array([0, t])) for lam in (0.0, 0.3, 1.0)}
        assert ends[0.0].tolist() == [1.0, 1.0 if t == 0 else 0.0]
        assert ends[1.0].tolist() == [1.0 if t == 0 else 0.0, 1.0]
        exact = [(1 - mpmath.mpf(0.3)) ** t, mpmath.mpf(0.3) ** t]
        # exp(t log(1 - lam)) carries the rounding of a log of size about t
        assert ends[0.3] == pytest.approx([float(v) for v in exact],
                                          rel=1e-15 * max(t, 10), abs=0.0)


class TestKernelsAgainstMpmath:
    """The numpy zeta and log-factorial kernels, against 40-digit mpmath."""

    X = [1.001, 1.01, 1.05, 1.2, 1.5, 1.9, 2.0, 2.5, 3.3, 4.0]
    # both sides of the q = 1e8 switch to the asymptote, up to the 2**62 cap
    Q = [1.0, 1.5, 2.0, 3.7, 10.0, 123.25, 1e4, 1e6, 99_999_999.0, 1e8,
         float(np.nextafter(1e8, 2e8)), 1e8 + 1.0, 3e8, 1e12, 2.0**40, 2.0**53,
         2.0**62]

    @staticmethod
    def reference(x, q):
        with mpmath.workdps(40):
            return float(mpmath.zeta(mpmath.mpf(x), mpmath.mpf(q)))

    @pytest.mark.parametrize("x", X)
    def test_hurwitz_zeta(self, x):
        ref = np.array([self.reference(x, q) for q in self.Q])
        vector = _hurwitz_zeta(x, np.array(self.Q))
        scalar = np.array([_hurwitz_zeta(x, q) for q in self.Q])
        for ours in (vector, scalar):
            assert np.max(np.abs(ours / ref - 1.0)) <= 2e-15

    def test_pareto_mean_is_zeta_at_one(self):
        for x in self.X:
            assert DiscretePareto(x).mean_length() == _hurwitz_zeta(x, 1.0)
            assert _hurwitz_zeta(x, 1.0) == pytest.approx(
                self.reference(x, 1.0), rel=2e-15, abs=0.0)

    def test_scalar_zeta_is_the_batched_zeta(self):
        # libm pow (Python and numpy scalars) and numpy's SIMD array pow can
        # differ in the last bit; a law's own mean must equal, bit for bit,
        # the batched mean and the normaliser of the engine's stationary draws
        alpha = np.random.default_rng(2000).uniform(1.05, 3.0, 2000)
        means = np.array([DiscretePareto(a).mean_length() for a in alpha.tolist()])
        assert np.array_equal(means, DiscretePareto(2.0).mean_lengths(alpha))
        assert np.array_equal(means, _hurwitz_zeta(alpha, 1.0))

    def test_scalar_exponential_mean_is_the_batched_mean(self):
        # math.expm1 and numpy's SIMD expm1 loop can differ in the last bit;
        # a law's own mean is the batched mean at its param
        decay = np.exp(np.random.default_rng(2001).uniform(math.log(0.1),
                                                           math.log(1e6), 200_000))
        means = np.array([Exponential(d).mean_length() for d in decay.tolist()])
        assert np.array_equal(means, Exponential(1.0).mean_lengths(decay))

    def test_log_factorials_across_the_table_switch(self):
        n = np.arange(61)
        ours = _log_factorials(61)
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.log(mpmath.factorial(k))) for k in n])
        assert ours[:2].tolist() == [0.0, 0.0]
        assert np.all(np.abs(ours - ref) <= np.spacing(np.maximum(ref, 1.0)))
        assert _log_factorials(3).tolist() == ours[:3].tolist()
        big = _log_factorials(100_001)[[1000, 100_000]]
        with mpmath.workdps(40):
            ref = [float(mpmath.loggamma(k + 1)) for k in (1000, 100_000)]
        assert big == pytest.approx(ref, rel=4e-16, abs=0.0)

    def test_stirlerr_across_the_table_switch(self):
        n = np.arange(1, 41)
        with mpmath.workdps(40):
            log_fact = [mpmath.log(mpmath.factorial(k)) for k in n]
            ref = np.array([float(lf - mpmath.log(mpmath.sqrt(2 * mpmath.pi * k)
                                                  * (k / mpmath.e) ** k))
                            for k, lf in zip(n, log_fact)])
            scale = np.array([float(lf) for lf in log_fact])
        # the table branch (n <= 15) cancels log n!, so its error is in ulps of log n!
        assert np.all(np.abs(_stirlerr(n) - ref) <= 2 * np.spacing(np.maximum(scale, 1.0)))
        assert np.all(np.abs(_stirlerr(n[15:]) / ref[15:] - 1.0) <= 1e-13)


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

    @given(st.integers(1, 200_000))
    @settings(max_examples=60, deadline=None)
    def test_grid_contract(self, max_lag):
        lags = default_lags(max_lag)
        assert lags[0] == 1
        assert lags[-1] == max_lag
        assert np.all(np.diff(lags) > 0)
        assert lags.dtype == np.int64

    def test_small_grid_is_dense(self):
        assert list(default_lags(5)) == [1, 2, 3, 4, 5]
