"""Metaorder length laws: closed forms, stationary marginals, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmfsim import Degenerate, DiscretePareto, Exponential, Tabulated
from lmfsim.errors import (
    DomainError,
    InvalidExponent,
    InvalidSupport,
    NonconvergentMean,
)
from lmfsim.laws import (
    _hurwitz_zeta as zeta,
    allocate_decay_lengths,
    allocate_intensities,
    intensity_rescale_factor,
    law_from_config,
)
from lmfsim.stats import fit_powerlaw

# frozen closed-form values, cross-checked against mpmath at 40 digits
EXP2_PMF1 = 0.3934693402873666       # 1 - e^{-1/2}
EXP2_MEAN = 2.5414940825367984       # 1 / (1 - e^{-1/2})
EXP5_MEAN = 5.516655566126994        # 1 / (1 - e^{-1/5})
PARETO15_PMF2 = 0.16110330086339852  # 2^{-1.5} - 3^{-1.5}
ZETA2 = 1.6449340668482264           # pi^2 / 6


def law_strategy():
    tab = st.lists(
        st.tuples(st.integers(1, 200), st.floats(0.01, 1.0)),
        min_size=1, max_size=6,
        unique_by=lambda kv: kv[0],
    ).map(lambda kv: Tabulated(
        support=np.array([k for k, _ in kv]),
        probs=np.array([v for _, v in kv]) / sum(v for _, v in kv),
    ))
    return st.one_of(
        st.just(Degenerate()),
        st.floats(0.1, 500.0).map(lambda l: Exponential(decay_length=l)),
        st.floats(1.05, 4.0).map(lambda a: DiscretePareto(tail_exponent=a)),
        tab,
    )


class TestClosedForms:
    def test_degenerate(self):
        law = Degenerate()
        assert law.pmf(1) == 1.0
        assert law.pmf(2) == 0.0
        assert law.ccdf(1) == 1.0
        assert law.mean_length() == 1.0
        assert law.stationary_remaining_pdf(1) == 1.0

    def test_exponential_values(self):
        law = Exponential(decay_length=2.0)
        assert law.pmf(1) == pytest.approx(EXP2_PMF1, abs=1e-15)
        assert law.ccdf(3) == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert law.mean_length() == pytest.approx(EXP2_MEAN, abs=1e-14)
        assert law.stationary_remaining_pdf(1) == pytest.approx(EXP2_PMF1, abs=1e-15)

    def test_exponential_large_decay_no_cancellation(self):
        # expm1 path: mean ~ L* + 1/2 for large L*, not 1/rounded-zero
        law = Exponential(decay_length=1e6)
        assert law.mean_length() == pytest.approx(1e6 + 0.5, rel=1e-6)

    def test_pareto_values(self):
        law = DiscretePareto(tail_exponent=1.5)
        assert law.pmf(2) == pytest.approx(PARETO15_PMF2, abs=1e-15)
        law2 = DiscretePareto(tail_exponent=2.0)
        assert law2.ccdf(10) == pytest.approx(0.01, abs=1e-15)
        assert law2.mean_length() == pytest.approx(ZETA2, rel=1e-12)
        assert law2.stationary_remaining_pdf(2) == pytest.approx(
            0.25 / ZETA2, rel=1e-12)

    def test_pareto_infinite_mean(self):
        law = DiscretePareto(tail_exponent=0.9)
        assert law.ccdf(4) == pytest.approx(4.0 ** -0.9)
        with pytest.raises(NonconvergentMean):
            law.mean_length()

    def test_tabulated_values(self):
        law = Tabulated(support=[1, 3], probs=[0.25, 0.75])
        assert law.pmf(3) == 0.75
        assert law.pmf(2) == 0.0
        assert law.ccdf(2) == 0.75
        assert law.mean_length() == pytest.approx(2.5)

    def test_constructor_errors(self):
        with pytest.raises(DomainError):
            Exponential(decay_length=0.0)
        with pytest.raises(InvalidExponent):
            DiscretePareto(tail_exponent=-1.0)
        with pytest.raises(InvalidSupport):
            Tabulated(support=[0], probs=[1.0])
        with pytest.raises(InvalidSupport):
            Tabulated(support=[1, 2], probs=[0.5, 0.6])
        with pytest.raises(InvalidSupport):
            Tabulated(support=[2, 2], probs=[0.5, 0.5])


class TestLawProperties:
    @given(law_strategy())
    @settings(max_examples=60, deadline=None)
    def test_ccdf_differences_match_pmf(self, law):
        lengths = np.unique(np.geomspace(1, 10_000, 80).astype(np.int64))
        diff = law.ccdf(lengths) - law.ccdf(lengths + 1)
        assert np.all(np.abs(diff - law.pmf(lengths)) < 1e-12)

    @given(law_strategy())
    @settings(max_examples=60, deadline=None)
    def test_ccdf_monotone_and_normalised(self, law):
        lengths = np.arange(1, 200)
        c = law.ccdf(lengths)
        assert c[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(c) <= 1e-15)
        assert np.all(law.pmf(lengths) >= 0.0)

    @given(law_strategy())
    @settings(max_examples=40, deadline=None)
    def test_stationary_pdf_sums_to_one(self, law):
        try:
            law.mean_length()
        except NonconvergentMean:
            return
        r = np.arange(1, 1_000_000)
        total = law.stationary_remaining_pdf(r).sum()
        # remaining tail mass is bounded by what the cap leaves behind
        tail = law.ccdf_tail(1_000_000) / law.mean_length()
        assert total == pytest.approx(1.0 - tail, abs=1e-8)

    @given(law_strategy(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_samples_are_positive_integers(self, law, seed):
        draws = law.lengths_from_uniform(np.random.default_rng(seed).random(64))
        assert draws.dtype == np.int64
        assert draws.min() >= 1

    def test_ccdf_tail_matches_mean_identity(self):
        # sum_{L>=1} ccdf(L) = mean, so the tail from 1 is the mean itself
        for law in (Exponential(decay_length=7.0),
                    DiscretePareto(tail_exponent=1.7),
                    Tabulated(support=[2, 5], probs=[0.4, 0.6])):
            assert law.ccdf_tail(1) == pytest.approx(law.mean_length(), rel=1e-10)
            head = law.ccdf(np.arange(1, 50)).sum()
            assert head + law.ccdf_tail(50) == pytest.approx(
                law.mean_length(), rel=1e-10)


class TestSampling:
    def test_pareto_ccdf_monte_carlo(self):
        rng = np.random.default_rng(101)
        law = DiscretePareto(tail_exponent=1.5)
        draws = law.lengths_from_uniform(rng.random(1_000_000))
        p = 10.0 ** -1.5
        se = math.sqrt(p * (1 - p) / draws.size)
        assert abs(np.mean(draws >= 10) - p) < 4 * se

    def test_pareto_length_at_the_largest_engine_uniform_is_capped(self):
        # 1 - 2**-53 is the largest uniform the engine draws; at alpha = 0.05
        # the power overflows, and the cap must apply without a warning
        lengths = DiscretePareto(0.05).lengths_from_uniform(np.array([1 - 2**-53]))
        assert lengths.tolist() == [2**62]

    def test_exponential_mean_monte_carlo(self):
        rng = np.random.default_rng(102)
        law = Exponential(decay_length=5.0)
        draws = law.lengths_from_uniform(rng.random(1_000_000))
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - EXP5_MEAN) < 3 * se

    def test_degenerate_sampling(self):
        rng = np.random.default_rng(103)
        assert np.all(Degenerate().lengths_from_uniform(rng.random(1000)) == 1)

    def test_stationary_exponential_monte_carlo(self):
        rng = np.random.default_rng(104)
        law = Exponential(decay_length=2.0)
        draws = law.remaining_from_uniform(rng.random(1_000_000))
        p = EXP2_PMF1
        se = math.sqrt(p * (1 - p) / draws.size)
        assert abs(np.mean(draws == 1) - p) < 3 * se

    def test_stationary_pareto_monte_carlo(self):
        rng = np.random.default_rng(105)
        law = DiscretePareto(tail_exponent=2.0)
        draws = law.remaining_from_uniform(rng.random(1_000_000))
        p = 1.0 / ZETA2
        se = math.sqrt(p * (1 - p) / draws.size)
        assert abs(np.mean(draws == 1) - p) < 3 * se

    def test_stationary_tabulated_matches_pdf(self):
        rng = np.random.default_rng(106)
        law = Tabulated(support=[1, 4], probs=[0.5, 0.5])
        draws = law.remaining_from_uniform(rng.random(200_000))
        for r in (1, 2, 3, 4):
            p = law.stationary_remaining_pdf(r)
            se = math.sqrt(p * (1 - p) / draws.size)
            assert abs(np.mean(draws == r) - p) < 4 * se

    @pytest.mark.parametrize("law", [
        Degenerate(), Exponential(decay_length=3.0), DiscretePareto(tail_exponent=1.5),
        Tabulated(support=[2, 5, 11], probs=[0.2, 0.5, 0.3])])
    def test_sampling_inverts_the_cdf_at_the_generator_uniforms(self, law):
        u = np.random.default_rng(108).random(200)
        draws = law.lengths_from_uniform(u)
        # P(L < draw) <= u < P(L <= draw)
        assert np.all(1.0 - law.ccdf(draws) <= u + 1e-12)
        assert np.all(u < 1.0 - law.ccdf(draws + 1) + 1e-12)
        remaining = law.remaining_from_uniform(u)
        cdf = np.concatenate(([0.0], np.cumsum(law.stationary_remaining_pdf(
            np.arange(1, remaining.max() + 1)))))
        assert np.all(cdf[remaining - 1] <= u + 1e-12)
        assert np.all(u < cdf[remaining] + 1e-12)

    def test_stationary_pareto_tail_beyond_the_table_is_exact(self):
        # draws far out in the tail, past 2**20, against the package's zeta
        # tail (its accuracy is pinned to mpmath in test_numerics.py)
        law = DiscretePareto(tail_exponent=1.5)
        cap = 1 << 20
        head = law.stationary_remaining_pdf(np.arange(1, cap + 1)).sum()
        u = np.array([0.5, head + 0.3 * (1 - head), 0.1, head + 0.9 * (1 - head)])
        alpha = np.array([1.5, 1.5, 2.5, 1.5])
        r = law.remaining_from_uniform(u, alpha)
        assert r[0] == law.remaining_from_uniform(u[:1])[0]
        other = DiscretePareto(tail_exponent=2.5)
        assert r[2] == other.remaining_from_uniform(u[2:3])[0]
        for ri, ui in zip(r[[1, 3]], u[[1, 3]]):
            # smallest r with P(R > r) <= 1 - u, from the zeta tail itself
            target = (1.0 - ui) * zeta(1.5, 1.0)
            assert ri > cap
            assert zeta(1.5, ri + 1.0) <= target < zeta(1.5, float(ri))

    def test_stationary_pareto_draw_near_the_int64_cap(self):
        # the true r is below the 2**62 clamp; mpmath puts it at this value
        u = np.array([0.9998108388280664])
        r = DiscretePareto(tail_exponent=1.2).remaining_from_uniform(u)[0]
        assert r < 1 << 62
        assert r == pytest.approx(2360567261104078313, rel=1e-12)

    def test_stationary_pareto_draws_bracket_the_zeta_tail(self):
        # every draw r below 2**40 is the smallest with
        # zeta(alpha, r + 1) <= (1 - u) zeta(alpha, 1), both from the
        # package's zeta, whose accuracy test_numerics.py pins to mpmath
        alpha = 1.05
        u = np.random.default_rng(109).random(100_000)
        r = DiscretePareto(tail_exponent=alpha).remaining_from_uniform(u)
        small = r < 2**40
        assert small.mean() > 0.5
        rf = r[small].astype(np.float64)
        target = (1.0 - u[small]) * zeta(alpha, 1.0)
        assert np.all(zeta(alpha, rf + 1.0) <= target)
        assert np.all(target < zeta(alpha, rf))

    def test_stationary_pareto_param_array_brackets_each_zeta_tail(self):
        # repeated exponents share one normaliser per distinct value; every
        # draw still brackets its own tail against the normaliser evaluated
        # trader by trader over the whole param array
        rng = np.random.default_rng(110)
        alpha = rng.choice([1.05, 1.5, 2.5, 3.7], size=50_000)
        u = rng.random(alpha.size)
        r = DiscretePareto(tail_exponent=1.5).remaining_from_uniform(u, alpha)
        small = r < 2**40
        rf, a = r[small].astype(np.float64), alpha[small]
        target = (1.0 - u[small]) * zeta(alpha, 1.0)[small]
        assert np.all(zeta(a, rf + 1.0) <= target)
        assert np.all(target < zeta(a, rf))

    def test_stationary_pareto_infinite_mean_raises(self):
        rng = np.random.default_rng(107)
        with pytest.raises(NonconvergentMean):
            DiscretePareto(tail_exponent=1.0).remaining_from_uniform(rng.random(1))


class TestAllocation:
    def test_decay_lengths_m4(self):
        out = allocate_decay_lengths(4, 1.5)
        assert out == pytest.approx([1.0, 16.0 / 9.0, 4.0, 16.0], rel=1e-12)

    def test_decay_lengths_m1(self):
        assert allocate_decay_lengths(1, 1.5) == pytest.approx([1.0])

    @given(st.integers(2, 500), st.floats(1.05, 1.95))
    @settings(max_examples=60, deadline=None)
    def test_decay_lengths_strictly_increasing(self, count, theta):
        out = allocate_decay_lengths(count, theta)
        assert np.all(np.diff(out) > 0.0)
        assert out[0] == pytest.approx(1.0)

    def test_decay_lengths_tail_slope(self):
        # allocated values sample rho(L*) ~ L*^{-theta}: the ccdf decays with
        # exponent theta-1 and the differenced density with theta itself
        values = allocate_decay_lengths(1000, 1.5)
        ccdf = 1.0 - (np.arange(1000) + 0.5) / 1000
        fit = fit_powerlaw(values, ccdf, window=(2.0, values.max() / 10))
        assert fit.exponent == pytest.approx(0.5, abs=0.05)
        edges = np.geomspace(1.0, values.max() / 10, 20)
        counts, _ = np.histogram(values, bins=edges)
        density = counts / np.diff(edges) / values.size
        centres = np.sqrt(edges[1:] * edges[:-1])
        keep = density > 0
        fit = fit_powerlaw(centres[keep], density[keep])
        assert fit.exponent == pytest.approx(1.5, abs=0.1)

    def test_intensities_m1(self):
        assert allocate_intensities(1, 0.5, 1e-4, 0.37) == pytest.approx([0.37])

    def test_intensities_sum_to_mass(self):
        out = allocate_intensities(1000, 0.5, 1e-4, 1.0)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out > 0.0)

    def test_intensities_prerescale_slope(self):
        # pre-rescale values follow P(lambda) ~ lambda^{-(beta+1)} on
        # [lambda_cut, 1]; check the density slope from a histogram
        scale = intensity_rescale_factor(1000, 0.5, 1e-4, 1.0)
        raw = allocate_intensities(1000, 0.5, 1e-4, 1.0) * scale
        assert raw.max() <= 1.0 + 1e-12 and raw.min() >= 1e-4 - 1e-15
        edges = np.geomspace(1e-4, 1.0, 25)
        counts, _ = np.histogram(raw, bins=edges)
        centres = np.sqrt(edges[1:] * edges[:-1])
        density = counts / np.diff(edges)
        keep = density > 0
        fit = fit_powerlaw(centres[keep], density[keep])
        assert fit.exponent == pytest.approx(1.5, abs=0.1)

    @given(st.integers(2, 300), st.floats(-1.5, 1.5),
           st.floats(1e-5, 1e-2), st.floats(0.1, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_intensities_rescale_contract(self, count, beta, cut, mass):
        out = allocate_intensities(count, beta, cut, mass)
        assert out.shape == (count,)
        assert out.sum() == pytest.approx(mass, rel=1e-12)
        assert np.all(out > 0.0)

    def test_allocation_errors(self):
        with pytest.raises(DomainError):
            allocate_decay_lengths(0, 1.5)
        with pytest.raises(InvalidExponent):
            allocate_decay_lengths(10, 1.0)
        with pytest.raises(DomainError):
            allocate_intensities(10, 0.5, 1.5, 1.0)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("law", [
        Degenerate(),
        Exponential(decay_length=3.5),
        DiscretePareto(tail_exponent=1.3),
        Tabulated(support=[1, 2, 7], probs=[0.2, 0.3, 0.5]),
    ])
    def test_as_config_round_trip(self, law):
        rebuilt = law_from_config(law.as_config())
        lengths = np.arange(1, 20)
        assert np.allclose(rebuilt.pmf(lengths), law.pmf(lengths), atol=1e-15)
        assert rebuilt.kind == law.kind

    def test_law_from_config_unknown_kind(self):
        with pytest.raises(DomainError):
            law_from_config({"kind": "cauchy"})
