"""Enumerated-chain oracle against the analytic ACF."""

import numpy as np
import pytest

from lmfsim import (
    Degenerate,
    DiscretePareto,
    Exponential,
    Population,
    Tabulated,
    TraderSpec,
    exact_acf_market,
    oracle_acf_small_chain,
)
from lmfsim.chain_oracle import build_oracle
from lmfsim.errors import DomainError, StateSpaceTooLarge


def tab(d):
    items = sorted(d.items())
    return Tabulated(support=[k for k, _ in items], probs=[v for _, v in items])


LAGS = np.arange(1, 13)


class TestAgainstExactFormula:
    def test_single_trader_length_two(self):
        # the smallest nontrivial chain: C_1 = 1/2 when lam = 1
        pop = Population([TraderSpec(1.0, tab({2: 1.0}))])
        assert oracle_acf_small_chain(pop, [1]).values[0] == pytest.approx(
            0.5, abs=1e-12)

    def test_single_trader_mixed_lengths(self):
        pop = Population([TraderSpec(0.35, tab({1: 0.2, 2: 0.5, 4: 0.3}))])
        oracle = oracle_acf_small_chain(pop, LAGS)
        exact = exact_acf_market(pop, LAGS)
        assert np.max(np.abs(oracle.values - exact.values)) < 1e-10

    def test_two_traders(self):
        pop = Population([
            TraderSpec(0.7, tab({1: 0.3, 2: 0.4, 3: 0.3})),
            TraderSpec(0.3, tab({2: 0.6, 3: 0.4})),
        ])
        oracle = oracle_acf_small_chain(pop, LAGS)
        exact = exact_acf_market(pop, LAGS)
        assert np.max(np.abs(oracle.values - exact.values)) < 1e-10

    def test_three_traders_with_degenerate(self):
        pop = Population([
            TraderSpec(0.5, tab({2: 1.0})),
            TraderSpec(0.3, Degenerate()),
            TraderSpec(0.2, tab({1: 0.5, 3: 0.5})),
        ])
        oracle = oracle_acf_small_chain(pop, LAGS)
        exact = exact_acf_market(pop, LAGS)
        assert np.max(np.abs(oracle.values - exact.values)) < 1e-10

    def test_common_rescaling_changes_nothing(self):
        # construction renormalises, so the chain only sees relative weights
        specs = [(0.4, tab({2: 0.5, 3: 0.5})), (0.2, tab({2: 1.0}))]
        base = Population([TraderSpec(w, law) for w, law in specs])
        scaled = Population([TraderSpec(1.25 * w, law) for w, law in specs])
        assert base.intensity_adjustment == pytest.approx(-0.4)
        a = oracle_acf_small_chain(base, LAGS).values
        b = oracle_acf_small_chain(scaled, LAGS).values
        assert np.max(np.abs(a - b)) < 1e-13


class TestMarginals:
    def test_remaining_marginal_matches_stationary_law(self):
        law = tab({1: 0.25, 2: 0.35, 5: 0.4})
        pop = Population([TraderSpec(0.8, law), TraderSpec(0.2, tab({2: 1.0}))])
        oracle = build_oracle(pop)
        got = oracle.remaining_marginal(0)
        want = law.stationary_remaining_pdf(np.arange(1, 6))
        assert np.max(np.abs(got - want)) < 1e-10
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_remaining_marginal_independent_of_selection_rate(self):
        # the stationary remaining-volume law does not depend on intensity
        law = tab({1: 0.5, 3: 0.5})
        for lam in (0.1, 0.9):
            pop = Population([TraderSpec(lam, law), TraderSpec(1 - lam, tab({2: 1.0}))])
            got = build_oracle(pop).remaining_marginal(0)
            want = law.stationary_remaining_pdf(np.arange(1, 4))
            assert np.max(np.abs(got - want)) < 1e-10

    def test_stationary_is_a_distribution(self):
        pop = Population([TraderSpec(1.0, tab({1: 0.4, 2: 0.6}))])
        oracle = build_oracle(pop)
        assert oracle.stationary.min() >= 0.0
        assert oracle.stationary.sum() == pytest.approx(1.0, abs=1e-10)
        # pushing the stationary vector through the chain leaves it fixed
        resid = oracle.stationary @ oracle.transition - oracle.stationary
        assert np.max(np.abs(resid)) < 1e-10


class TestLimits:
    def test_state_budget(self):
        # 2 * 800 * 800 = 1.28e6 states, refused before any enumeration
        pop = Population([TraderSpec(0.5, tab({400: 1.0})),
                          TraderSpec(0.5, tab({1: 0.5, 400: 0.5}))])
        with pytest.raises(StateSpaceTooLarge):
            build_oracle(pop)

    def test_infinite_support_rejected(self):
        for law in (Exponential(decay_length=2.0),
                    DiscretePareto(tail_exponent=1.5)):
            with pytest.raises(DomainError):
                build_oracle(Population([TraderSpec(1.0, law)]))

    def test_bad_lags(self):
        pop = Population([TraderSpec(1.0, tab({2: 1.0}))])
        with pytest.raises(DomainError):
            build_oracle(pop).acf([0, 1])
