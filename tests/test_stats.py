"""ACF estimators, empirical distributions, power-law fitting."""

import math

import numpy as np
import pytest

from lmfsim import (
    DiscretePareto,
    Exponential,
    Population,
    Tabulated,
    TraderSpec,
    acf_estimate,
    average_curves,
    exact_acf_trader,
    fit_acf_powerlaw,
    simulate,
)
from lmfsim import stats
from lmfsim.stats import (
    EmpiricalDistribution,
    aggregate_metaorder_distribution,
    fit_distribution_tail,
    fit_powerlaw,
    log_bin_curve,
    log_bin_density,
)
from lmfsim.errors import (
    DomainError,
    EmptyLog,
    InsufficientPoints,
    SeriesTooShort,
)


def tab(d):
    items = sorted(d.items())
    return Tabulated(support=[k for k, _ in items], probs=[v for _, v in items])


def acf_direct(series, lags) -> np.ndarray:
    """Direct-sum ACF at selected lags: the referee of the FFT path."""
    x = np.asarray(series, dtype=np.float64)
    t = x.size
    return np.array([np.dot(x[: t - lag], x[lag:]) / (t - lag) for lag in lags])


class TestAcfEstimate:
    def test_constant_series(self):
        curve = acf_estimate(np.ones(5000, dtype=np.int8), max_lag=20)
        assert np.allclose(curve.values, 1.0, atol=1e-12)

    def test_alternating_series(self):
        signs = np.tile([1, -1], 2500).astype(np.int8)
        curve = acf_estimate(signs, max_lag=10)
        want = np.where(curve.lags % 2 == 0, 1.0, -1.0)
        assert np.allclose(curve.values, want, atol=1e-10)

    def test_iid_series_is_flat(self):
        rng = np.random.default_rng(42)
        signs = rng.choice([-1, 1], size=1_000_000).astype(np.int8)
        curve = acf_estimate(signs, max_lag=100)
        assert np.max(np.abs(curve.values)) < 4e-3  # 4 / sqrt(T)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        signs = rng.choice([-1, 1], size=4000).astype(np.int8)
        curve = acf_estimate(signs, max_lag=50)
        direct = acf_direct(signs, curve.lags)
        assert np.max(np.abs(curve.values - direct)) < 1e-10

    def test_stderr(self):
        curve = acf_estimate(np.ones(2000, dtype=np.int8), max_lag=10)
        assert curve.stderr is not None
        assert curve.stderr[0] == pytest.approx(1 / np.sqrt(1999))

    def test_series_too_short(self):
        with pytest.raises(SeriesTooShort):
            acf_estimate(np.ones(100, dtype=np.int8), max_lag=10)
        with pytest.raises(DomainError):
            acf_estimate(np.ones(100, dtype=np.int8), max_lag=0)

    def test_accepts_simulation_output(self):
        pop = Population([TraderSpec(1.0, tab({1: 0.5, 2: 0.5}))])
        out = simulate(pop, 5000, seed=5)
        wrapped = acf_estimate(out, max_lag=10)
        raw = acf_estimate(out.signs, max_lag=10)
        assert np.array_equal(wrapped.values, raw.values)
        silent = simulate(pop, 5000, seed=5, keep_signs=False)
        with pytest.raises(DomainError):
            acf_estimate(silent, max_lag=10)


def simulated_signs(steps, seed):
    pop = Population([TraderSpec(0.1, Exponential(decay_length=5.0))
                      for _ in range(10)])
    return simulate(pop, steps, seed=seed).signs


class TestBlockedAcf:
    """The overlap-save lag sums are exact integers: values equal acf_direct."""

    @pytest.mark.parametrize("steps, max_lag", [
        (11, 1), (6001, 600), (100_001, 10_000),
        (123_457, 50),  # not a multiple of the 16334-sample block
    ])
    def test_equals_direct_sum(self, steps, max_lag):
        signs = simulated_signs(steps, seed=steps)
        curve = acf_estimate(signs, max_lag)
        assert np.array_equal(curve.lags, np.arange(1, max_lag + 1))
        assert np.array_equal(curve.values, acf_direct(signs, curve.lags))

    @pytest.mark.parametrize("steps, max_lag", [(100_001, 10_000), (123_457, 50)])
    @pytest.mark.parametrize("group_samples", [None, 1])
    def test_fed_in_uneven_pieces(self, steps, max_lag, group_samples, monkeypatch):
        signs = simulated_signs(steps, seed=steps)
        whole = acf_estimate(signs, max_lag).values
        if group_samples is not None:  # one block per group: edges every block
            monkeypatch.setattr(stats, "_GROUP_SAMPLES", group_samples)
        sums = stats._AcfSums(max_lag)
        block, group = sums._block, sums._per_group
        sizes = [1, max_lag - 1, max_lag, block - 1, block + 1]
        done = sum(sizes)
        # the next piece runs past the first group edge after the pieces so
        # far (or to the end of the series if that edge lies beyond it)
        edge = (done // group + 1) * group
        sizes += [edge + 7 - done, 1 << 20]
        pieces = np.split(signs, np.cumsum(sizes))
        assert sum(p.size for p in pieces) == steps
        for piece in pieces:
            sums.feed(piece)
        curve = sums.curve()
        assert np.array_equal(curve.values, acf_direct(signs, curve.lags))
        assert np.array_equal(curve.values, whole)

    def test_series_ends_around_a_block_boundary(self):
        # max_lag 600 gives n_fft 16384 and blocks of 15784 samples
        signs = simulated_signs(200_000, seed=8)
        block = 15_784
        for t in (12 * block - 1, 12 * block, 12 * block + 1, 12 * block + 600):
            curve = acf_estimate(signs[:t], 600)
            assert np.array_equal(curve.values, acf_direct(signs[:t], curve.lags))

    def test_independent_of_block_sizes(self, monkeypatch):
        signs = simulated_signs(50_000, seed=9)
        default = acf_estimate(signs, 30).values
        # n_fft 128, one 98-sample block per group: over five hundred groups
        monkeypatch.setattr(stats, "_MIN_FFT", 1)
        monkeypatch.setattr(stats, "_GROUP_SAMPLES", 1)
        tiny = acf_estimate(signs, 30).values
        assert np.array_equal(tiny, default)
        assert np.array_equal(tiny, acf_direct(signs, np.arange(1, 31)))

    def test_memory_is_blocked(self, traced_peak):
        signs = np.random.default_rng(3).choice(
            np.array([-1, 1], dtype=np.int8), size=10_000_000)
        _, peak = traced_peak(lambda: acf_estimate(signs, 600))
        assert peak < 64e6  # one full-length float64 FFT takes about 240 MB

    def test_rejects_non_sign_input(self):
        rng = np.random.default_rng(4)
        # floats, and out-of-range integers whose ACF still lies in [-1, 1]
        for bad in (np.ones(500), rng.integers(-3, 4, size=5000),
                    rng.integers(-1, 3, size=5000, dtype=np.int8)):
            with pytest.raises(DomainError):
                acf_estimate(bad, max_lag=5)


class TestAverageCurves:
    def test_hand_average(self):
        a = acf_estimate(np.ones(1000, dtype=np.int8), max_lag=5)
        b = acf_estimate(np.tile([1, -1], 500).astype(np.int8), max_lag=5)
        avg = average_curves([a, b])
        assert np.allclose(avg.values, (a.values + b.values) / 2, atol=1e-14)
        # averaging k replicas shrinks the stderr by sqrt(k)
        assert np.allclose(avg.stderr, a.stderr / np.sqrt(2), rtol=1e-12)

    def test_grid_mismatch(self):
        a = acf_estimate(np.ones(1000, dtype=np.int8), max_lag=5)
        b = acf_estimate(np.ones(1000, dtype=np.int8), max_lag=6)
        with pytest.raises(DomainError):
            average_curves([a, b])
        with pytest.raises(DomainError):
            average_curves([])


class TestEmpiricalDistribution:
    def test_from_samples_counts(self):
        dist = EmpiricalDistribution.from_samples([3, 1, 3, 3, 7, 1])
        assert dist.support.tolist() == [1, 3, 7]
        assert dist.counts.tolist() == [2, 3, 1]
        assert dist.total == 6

    def test_merge_equals_concatenation(self):
        rng = np.random.default_rng(3)
        xs = rng.integers(1, 40, size=300)
        ys = rng.integers(1, 40, size=200)
        merged = EmpiricalDistribution.merge([
            EmpiricalDistribution.from_samples(xs),
            EmpiricalDistribution.from_samples(ys),
        ])
        direct = EmpiricalDistribution.from_samples(np.concatenate([xs, ys]))
        assert np.array_equal(merged.support, direct.support)
        assert np.array_equal(merged.counts, direct.counts)

    def test_validation(self):
        with pytest.raises(DomainError):
            EmpiricalDistribution(support=np.array([2, 1]), counts=np.array([1, 1]))
        with pytest.raises(DomainError):
            EmpiricalDistribution(support=np.array([1, 2]), counts=np.array([0, 0]))
        with pytest.raises(EmptyLog):
            EmpiricalDistribution.from_samples([])
        with pytest.raises(EmptyLog):
            EmpiricalDistribution.merge([])


class TestAggregation:
    def test_pooled_distribution_matches_weights(self):
        pop = Population([
            TraderSpec(0.5, tab({2: 1.0})),
            TraderSpec(0.5, tab({4: 1.0})),
        ])
        out = simulate(pop, 200_000, seed=99)
        dist = aggregate_metaorder_distribution(out)
        # each trader may log one censored first completion, nothing else odd
        stray = dist.counts[~np.isin(dist.support, [2, 4])].sum()
        assert stray <= 2
        # pooled mixture of point masses at the rate weights
        p2 = dist.counts[dist.support == 2].sum() / dist.total
        assert p2 == pytest.approx(2 / 3, abs=0.01)

    def test_empty_log_raises(self):
        pop = Population([TraderSpec(1.0, tab({2: 1.0}))])
        out = simulate(pop, 2000, seed=1, collect_lengths=False)
        with pytest.raises(EmptyLog):
            aggregate_metaorder_distribution(out)


class TestFitPowerlaw:
    def test_exact_recovery(self):
        x = np.geomspace(1, 1e4, 60)
        y = 3.7 * x**-1.25
        fit = fit_powerlaw(x, y)
        assert fit.exponent == pytest.approx(1.25, abs=1e-9)
        assert fit.prefactor == pytest.approx(3.7, rel=1e-9)
        assert fit.residual_rms < 1e-12
        assert fit.n_points == 60 and fit.n_excluded == 0

    def test_window_restricts_points(self):
        x = np.geomspace(1, 1e4, 60)
        y = 2.0 * x**-0.5
        y[:10] = 5.0  # contaminate below the window
        fit = fit_powerlaw(x, y, window=(100.0, 1e4))
        assert fit.exponent == pytest.approx(0.5, abs=1e-9)
        assert fit.window == (100.0, 1e4)

    def test_nonpositive_excluded(self):
        x = np.geomspace(1, 100, 20)
        y = x**-1.0
        y[3] = 0.0
        y[7] = -1e-3
        fit = fit_powerlaw(x, y)
        assert fit.n_excluded == 2
        assert fit.exponent == pytest.approx(1.0, abs=1e-6)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            fit_powerlaw([1, 2, 3], [1, 1, 1])
        with pytest.raises(InsufficientPoints):
            fit_powerlaw(np.geomspace(1, 100, 20), np.ones(20), window=(1e4, 1e5))

    def test_pinned_exponent_fits_only_the_intercept(self):
        x = np.geomspace(1, 1e4, 60)
        y = 3.7 * x**-1.25 * np.exp(0.1 * np.sin(x))
        y[[2, 9]] = 0.0  # excluded as in the free fit
        fit = fit_powerlaw(x, y, window=(2.0, 5e3), exponent=1.25)
        usable = (x >= 2.0) & (x <= 5e3) & (y > 0.0)
        offset = np.mean(np.log(y[usable]) + 1.25 * np.log(x[usable]))
        assert fit.exponent == 1.25
        assert fit.prefactor == math.exp(offset)
        assert fit.n_points == usable.sum() and fit.n_excluded == 1
        resid = np.log(y[usable]) + 1.25 * np.log(x[usable]) - offset
        assert fit.residual_rms == pytest.approx(np.sqrt(np.mean(resid**2)), rel=1e-12)
        with pytest.raises(InsufficientPoints):
            fit_powerlaw([1, 2, 3, 4, 5], [1, 1, 0, 1, 1], exponent=0.5)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                fit_powerlaw(x, y, exponent=bad)


class TestLogBinning:
    def test_bins_preserve_powerlaw(self):
        x = np.arange(1, 10_001, dtype=np.float64)
        y = x**-0.5
        bx, by, bn = log_bin_curve(x, y)
        assert bn.sum() == x.size
        # sorted x: each bin is one slice, reduced to its geometric-mean x and mean y
        members = np.split(np.arange(x.size), np.cumsum(bn)[:-1])
        assert np.allclose(bx, [np.exp(np.log(x[m]).mean()) for m in members], rtol=1e-12, atol=0)
        assert np.allclose(by, [y[m].mean() for m in members], rtol=1e-12, atol=0)
        fit = fit_powerlaw(bx, by)
        assert fit.exponent == pytest.approx(0.5, abs=0.01)

    def test_window_applies_before_binning(self):
        x = np.arange(1, 1001, dtype=np.float64)
        bx, _, bn = log_bin_curve(x, x, window=(10.0, 100.0))
        assert bx.min() >= 10.0 and bx.max() <= 100.0
        assert bn.sum() == 91
        # 10**log10(2000) rounds above 2000: the window's lowest point still counts
        lags = np.arange(1, 100_001, dtype=np.float64)
        _, _, bn = log_bin_curve(lags, lags, window=(2000.0, 1e5))
        assert bn.sum() == 98_001

    def test_density_matches_pmf(self):
        # geometric samples: density bins reproduce the per-integer mass
        rng = np.random.default_rng(11)
        samples = rng.geometric(0.02, size=400_000)
        dist = EmpiricalDistribution.from_samples(samples)
        xs, dens = log_bin_density(dist, window=(1, 50))
        want = 0.02 * (1 - 0.02) ** (xs - 1.0)
        assert np.allclose(dens, want, rtol=0.05)
        # a flat histogram: no bin counts an integer at its open upper edge
        flat = EmpiricalDistribution(support=np.arange(10, 1001),
                                     counts=np.ones(991, dtype=np.int64))
        _, dens = log_bin_density(flat)
        assert np.allclose(dens, 1 / 991, rtol=1e-12, atol=0)

    def test_empty_window(self):
        with pytest.raises(InsufficientPoints):
            log_bin_curve(np.arange(1.0, 10.0), np.ones(9), window=(100.0, 200.0))
        dist = EmpiricalDistribution.from_samples([1, 2, 3])
        with pytest.raises(InsufficientPoints):
            log_bin_density(dist, window=(100.0, 200.0))


class TestFitsOnModelCurves:
    def test_acf_fit_recovers_tail_slope(self):
        trader = TraderSpec(0.1, DiscretePareto(tail_exponent=1.5))
        lags = np.unique(np.geomspace(1, 10_000, 400).astype(np.int64))
        curve = exact_acf_trader(trader, lags)
        fit = fit_acf_powerlaw(curve, window=(100.0, 10_000.0))
        assert fit.exponent == pytest.approx(0.5, abs=0.05)

    def test_exponential_acf_rejects_powerlaw(self):
        # an exponential-law market is not scale free: huge residual scatter
        trader = TraderSpec(0.1, Exponential(decay_length=10.0))
        lags = np.unique(np.geomspace(1, 3000, 300).astype(np.int64))
        curve = exact_acf_trader(trader, lags)
        fit = fit_acf_powerlaw(curve, window=(10.0, 3000.0))
        assert fit.residual_rms > 1.0

    def test_distribution_tail_fit(self):
        law = DiscretePareto(tail_exponent=1.5)
        rng = np.random.default_rng(21)
        dist = EmpiricalDistribution.from_samples(law.lengths_from_uniform(rng.random(500_000)))
        fit = fit_distribution_tail(dist, window=(10.0, 1000.0))
        # PMF decays one power faster than the CCDF
        assert fit.exponent == pytest.approx(2.5, abs=0.2)
