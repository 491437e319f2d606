"""End-to-end acceptance: one test per shipping criterion.

Each test prints a single PASS/FAIL line (visible with -s, or via the
pytest -v result row) and asserts the pinned tolerance.  The expensive
reproduction runs use the deterministic experiment presets, so reruns
give bit-identical numbers.
"""

import math
import time

import numpy as np
import pytest

from lmfsim import (
    Degenerate,
    DiscretePareto,
    Exponential,
    Tabulated,
    binomial_pmf,
    calibrate_curve,
    exact_acf_market,
    exact_acf_trader,
    exponential_acf_closed_form,
    heuristic_acf,
    homogeneous_market_acf,
    min_splitter_count,
    oracle_acf_small_chain,
    prefactor_hetero,
    prefactor_homogeneous,
    run_experiment,
)
from lmfsim.engine import Population, TraderSpec
from lmfsim.runner import oracle_case_populations

CLOSED_FORM_GRID = {
    "intensities": (0.01, 0.1, 0.5),
    "decay_lengths": (1.0, 2.0, 5.0, 10.0, 100.0),
    "lags": np.arange(1, 201),
}


def report_line(number: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:02d}: {detail}")
    assert ok, detail


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    lags = np.arange(1, 51)
    worst = 0.0
    populations = oracle_case_populations()
    assert len(populations) >= 10
    for _, pop in populations:
        oracle = oracle_acf_small_chain(pop, lags)
        exact = exact_acf_market(pop, lags)
        worst = max(worst, float(np.max(np.abs(oracle.values - exact.values))))
    elapsed = time.perf_counter() - t0
    report_line(
        1,
        worst < 1e-10 and elapsed < 10.0,
        f"{len(populations)} populations, max |oracle - exact| = {worst:.3e} "
        f"(tol 1e-10), {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_02_closed_form_equivalence():
    t0 = time.perf_counter()
    lags = CLOSED_FORM_GRID["lags"]
    worst = 0.0
    for lam in CLOSED_FORM_GRID["intensities"]:
        for decay in CLOSED_FORM_GRID["decay_lengths"]:
            closed = exponential_acf_closed_form(lam, decay, lags)
            exact = exact_acf_trader(
                TraderSpec(lam, Exponential(decay_length=decay)), lags)
            worst = max(worst, float(np.max(np.abs(closed.values - exact.values))))
    elapsed = time.perf_counter() - t0
    report_line(
        2,
        worst < 1e-12 and elapsed < 5.0,
        f"15 (intensity, decay) pairs x 200 lags, max diff = {worst:.3e} "
        f"(tol 1e-12), {elapsed:.1f}s (limit 5s)",
    )


def test_criterion_03_homogeneous_exponential_market(tmp_path):
    t0 = time.perf_counter()
    report = run_experiment("fig3", tmp_path)
    elapsed = time.perf_counter() - t0
    worst = max(c["comparison"]["max_rel_err"] for c in report["cases"])
    checked = [c["comparison"]["lags_checked"] for c in report["cases"]]
    report_line(
        3,
        worst < 0.10 and all(n > 0 for n in checked) and elapsed < 120.0,
        f"3 decay lengths, {checked} lags in the theory-dominated region, "
        f"max rel err = {worst:.3f} (tol 0.10), {elapsed:.0f}s (limit 120s); "
        f"case directories in {tmp_path / 'fig3'}",
    )


def test_criterion_04_powerlaw_splitters(tmp_path):
    t0 = time.perf_counter()
    report = run_experiment("fig4", tmp_path)
    elapsed = time.perf_counter() - t0
    exps = [c["fitted_exponent"] for c in report["cases"]]
    ratios = [c["prefactor_ratio"] for c in report["cases"]]
    ok = (
        all(abs(e - 0.5) <= 0.1 for e in exps)
        and all(1 / 1.3 <= r <= 1.3 for r in ratios)
        and elapsed < 900.0
    )
    report_line(
        4,
        ok,
        f"mu in (1.0, 0.85, 0.7): exponents {[round(e, 3) for e in exps]} "
        f"(0.5 +- 0.1), prefactor ratios {[round(r, 3) for r in ratios]} "
        f"(factor 1.3), {elapsed:.0f}s (limit 900s); "
        f"case directories in {tmp_path / 'fig4'}",
    )


def test_criterion_05_decay_length_superposition(tmp_path):
    report = run_experiment("fig5", tmp_path)
    quant = next(c for c in report["cases"] if c["theta"] == 1.5)
    qual = next(c for c in report["cases"] if c["theta"] == 2.5)
    ok = (
        abs(quant["acf_exponent"] - 0.5) <= 0.1
        and abs(quant["pdf_exponent"] - 2.5) <= 0.2
        and not qual["within_validity"]
        and math.isfinite(qual["acf_exponent"])
        and math.isfinite(qual["pdf_exponent"])
    )
    report_line(
        5,
        ok,
        f"theta=1.5: acf slope {quant['acf_exponent']:.3f} (0.5 +- 0.1), "
        f"pdf slope {quant['pdf_exponent']:.3f} (2.5 +- 0.2); "
        f"theta=2.5 outside validity, reported qualitatively: "
        f"acf {qual['acf_exponent']:.3f}, pdf {qual['pdf_exponent']:.3f}; "
        f"case directories in {tmp_path / 'fig5'}",
    )


def test_criterion_06_intensity_superposition(tmp_path):
    report = run_experiment("fig7", tmp_path)
    quant = next(c for c in report["cases"] if c["quantitative"])
    fitted = quant["fitted_exponent"]
    exact = quant["exact_curve_exponent"]
    # unit-total normalisation dilates every trader clock by ~10, so the
    # reference window [10, 1e3] is fitted at [10 s, 1e3 s]
    ok = abs(fitted - 1.5) <= 0.15 and abs(exact - 1.5) <= 0.15
    report_line(
        6,
        ok,
        f"beta=0.5, decay 10: simulated slope {fitted:.4f}, exact-curve slope "
        f"{exact:.4f} (2 - beta = 1.5 +- 0.15) on window "
        f"{[round(w, 1) for w in quant['window']]}; "
        f"case directories in {tmp_path / 'fig7'}",
    )


def test_criterion_07_prefactor_inequalities(tmp_path):
    report = run_experiment("bounds", tmp_path)
    ok = (
        report["vectors"] == 10_000
        and report["violations"] == 0
        and report["ratio_max_rel_dev"] < 1e-12
        and report["equality_detected"] == report["equality_cases"]
    )
    report_line(
        7,
        ok,
        f"{report['vectors']} random intensity vectors: "
        f"{report['violations']} bound violations, ratio identity dev "
        f"{report['ratio_max_rel_dev']:.1e} (tol 1e-12), homogeneous equality "
        f"{report['equality_detected']}/{report['equality_cases']}",
    )


def test_criterion_08_heuristic_identity():
    lags = CLOSED_FORM_GRID["lags"]
    worst = 0.0
    for lam in CLOSED_FORM_GRID["intensities"]:
        for decay in CLOSED_FORM_GRID["decay_lengths"]:
            law = Exponential(decay_length=decay)
            exact = homogeneous_market_acf(lam, law, lags).values
            heur = heuristic_acf(lam, law, lags).values
            predicted = (
                lam / law.mean_length() * law.ccdf(2)
                * (1.0 - lam) ** (lags - 1.0)
            )
            worst = max(worst, float(np.max(np.abs(exact - heur - predicted))))
    report_line(
        8,
        worst < 1e-12,
        f"exact - heuristic vs single-decay correction on the criterion-2 "
        f"grid: max residual {worst:.3e} (tol 1e-12)",
    )


def test_criterion_09_master_equation_fixed_points():
    laws = [
        Exponential(decay_length=5.0),
        Exponential(decay_length=100.0),
        DiscretePareto(tail_exponent=1.5),
        DiscretePareto(tail_exponent=1.9),
        Tabulated(support=[1, 3, 4], probs=[0.2, 0.5, 0.3]),
        Degenerate(),
    ]
    r = np.arange(1, 1001)
    stationary_worst = 0.0
    for law in laws:
        p_st = law.stationary_remaining_pdf(np.arange(1, 1002))
        resid = p_st[1:] - p_st[:-1] + p_st[0] * law.pmf(r)
        stationary_worst = max(stationary_worst, float(np.max(np.abs(resid))))

    recursion_worst = 0.0
    for lam in (0.01, 0.3, 0.7):
        row = np.array([1.0])
        for t in range(1_000):
            nxt = binomial_pmf(t + 1, lam, np.arange(t + 2))
            stepped = (1 - lam) * np.concatenate((row, [0.0])) \
                + lam * np.concatenate(([0.0], row))
            recursion_worst = max(
                recursion_worst, float(np.max(np.abs(nxt - stepped))))
            row = nxt
    report_line(
        9,
        stationary_worst < 1e-10 and recursion_worst < 1e-12,
        f"stationary fixed-point residual {stationary_worst:.3e} (tol 1e-10) "
        f"over 6 laws x 1000 volumes; counting recursion residual "
        f"{recursion_worst:.3e} (tol 1e-12) up to t=1000",
    )


def test_criterion_10_calibration_round_trip():
    lags = np.arange(1, 10_001, dtype=np.float64)
    c0 = prefactor_homogeneous(0.8, 50, 1.5)
    homog = calibrate_curve(lags, c0 * lags**-0.5, mu=0.8)
    homog_err = abs(homog["min_splitter_count"] - 50.0) / 50.0

    rng = np.random.default_rng(16_000)
    exceeded = 0
    for _ in range(1_000):
        m = int(rng.integers(1, 201))
        mu = float(rng.uniform(0.1, 1.0))
        lam = rng.dirichlet(np.ones(m)) * mu
        lam = np.maximum(lam, 1e-12)
        values = prefactor_hetero(lam, 1.5) * lags**-0.5
        bound = calibrate_curve(lags, values, mu=mu)["min_splitter_count"]
        if bound > m * (1.0 + 1e-9):
            exceeded += 1
    report_line(
        10,
        homog_err < 0.02 and exceeded == 0,
        f"homogeneous M=50 recovered within {homog_err:.2e} (tol 2%); "
        f"heterogeneous bound exceeded the true count in {exceeded}/1000 cases",
    )


def test_calibration_shortcut_consistency():
    # the count bound and the prefactor are exact inverses of each other
    for m in (5, 80):
        c0 = prefactor_homogeneous(0.8, m, 1.5)
        assert min_splitter_count(0.8, 1.5, c0) == pytest.approx(m, rel=1e-9)
