"""Exact and asymptotic sign-autocorrelation theory for splitting populations.

The market sign autocorrelation C_tau decomposes into independent per-trader
contributions.  A trader with intensity lam and length law rho contributes

    C_tau = c_R * lam**2 * [ sum_{R0=2}^{tau} ccdf(R0) * F(tau, R0)
                             + sum_{R0=tau+1}^{inf} ccdf(R0) ],

where c_R = 1/mean_length and F(tau, R0) = P(N <= R0 - 2) is the probability
that the trader was selected at most R0 - 1 times in a window of tau steps
that starts with a selection, N ~ Binomial(tau - 1, lam).  Exchanging the two
sums turns the bracket into one binomial expectation,

    C_tau = c_R * lam**2 * E[T(max(N + 2, r0_min))],   T(s) = sum_{r>=s} ccdf(r),

with r0_min = 2 (3 for the classic heuristic).  T comes from one table per
curve: a reversed cumsum of the CCDF plus a single tail mass.  Each lag's
expectation is summed over the Bernstein window |n - (tau-1) lam| <= h,

    h = K/3 + sqrt(K**2/9 + 2 K (tau-1) lam (1-lam)),   K = 40,

outside which the binomial mass is at most 2 exp(-K) < 1e-17; as T <=
mean_length, the discarded part of C_tau is at most 2 exp(-K) lam**2.  The
window sum is divided by the window's pmf mass, which cancels the rounding
error that a lag's log-gamma masses share.  A window holds O(sqrt(tau))
terms; the windows of many lags are flattened into ragged blocks of about
_BLOCK terms and reduced with reduceat, so a dense grid to max_lag costs
O(max_lag**1.5) time and bounded memory.  Everything here evaluates that
expectation and its closed-form and asymptotic reductions with explicit
error control.

Binomial masses need only log n!: a 16-entry table below n = 16 and the
Stirling series above it, both in numpy, so no theory path loads SciPy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .engine import Population, TraderSpec
from .errors import DegenerateExponent, DomainError, LmfsimError
from .laws import Degenerate, DiscretePareto, Exponential, MetaorderLaw

__all__ = [
    "AcfCurve",
    "ValidityWarning",
    "binomial_pmf",
    "exact_acf_trader",
    "exact_acf_market",
    "homogeneous_market_acf",
    "heuristic_acf",
    "exponential_acf_closed_form",
    "powerlaw_acf_asymptote",
    "hetero_acf_asymptote",
    "prefactor_hetero",
    "prefactor_homogeneous",
    "superposition_prefactor",
    "PrefactorReport",
    "prefactor_bounds",
    "min_splitter_count",
    "default_lags",
]

CURVE_KINDS = ("simulated", "exact", "asymptotic", "oracle")

# K of the Bernstein window, and the window entries or trader x lag terms per block.
_WINDOW_K = 40.0
_BLOCK = 1 << 14


class ValidityWarning(UserWarning):
    """Emitted when a formula is evaluated outside its derivation window."""


@dataclass
class AcfCurve:
    """A sign-autocorrelation curve on an explicit lag grid."""

    lags: np.ndarray
    values: np.ndarray
    kind: str
    stderr: np.ndarray | None = None

    def __post_init__(self):
        self.lags = np.asarray(self.lags, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.kind not in CURVE_KINDS:
            raise DomainError(f"kind must be one of {CURVE_KINDS}, got {self.kind!r}")
        if self.lags.shape != self.values.shape or self.lags.ndim != 1:
            raise DomainError("lags and values must be matching 1-d arrays")
        if self.lags.size and (np.any(np.diff(self.lags) <= 0) or self.lags[0] < 0):
            raise DomainError("lags must be non-negative and strictly increasing")
        if self.stderr is not None:
            self.stderr = np.asarray(self.stderr, dtype=np.float64)
            if self.stderr.shape != self.values.shape:
                raise DomainError("stderr must match values")
        if self.kind in ("simulated", "oracle") and self.values.size:
            if np.max(np.abs(self.values)) > 1.0 + 1e-9:
                raise DomainError("sign autocorrelations must lie in [-1, 1]")

    def __len__(self) -> int:
        return self.lags.size


def default_lags(max_lag: int) -> np.ndarray:
    """Default lag grid of the theory evaluators.

    Deduplicated integers 1, 2, ... growing geometrically by 1.25 and ending
    at ``max_lag``.
    """
    if max_lag < 1:
        raise DomainError(f"max_lag must be >= 1, got {max_lag}")
    lags = [max_lag]
    x = 1.0
    while x <= max_lag:
        lags.append(int(round(x)))
        x *= 1.25
    out = np.unique(np.asarray(lags, dtype=np.int64))
    return out[out <= max_lag]


def _check_intensity(lam: float):
    if not (0.0 < lam <= 1.0):
        raise DomainError(f"intensity must lie in (0, 1], got {lam}")


# log n! for n = 0..15, below where the Stirling series reaches double precision
_LOG_FACTORIAL = np.log([float(math.factorial(n)) for n in range(16)])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_series(n):
    """Stirling series of ``_stirlerr``; five terms reach double precision for n > 15."""
    nn = 1.0 / (n * n)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - nn / 1188) * nn) * nn) * nn) / n


def _stirlerr(n):
    """log(n!) - log(sqrt(2 pi n) (n/e)**n) for integer-valued n >= 1."""
    n = np.asarray(n, dtype=np.float64)
    small = _LOG_FACTORIAL[np.minimum(n, 15.0).astype(np.int64)]
    direct = small - (n + 0.5) * np.log(n) + n - _HALF_LOG_2PI
    return np.where(n <= 15.0, direct, _stirling_series(n))


def _log_factorials(count: int) -> np.ndarray:
    """log n! for n = 0 .. count - 1: the table, then Stirling's formula."""
    n = np.arange(16.0, max(count, 16))
    big = (n + 0.5) * np.log(n) - n + _HALF_LOG_2PI + _stirling_series(n)
    return np.concatenate((_LOG_FACTORIAL, big))[:count]


def _bd0(x, m):
    """x log(x/m) + m - x, without the cancellation near x = m."""
    d = x - m
    v = d / (x + m)
    series, term = d * v, 2.0 * x * v
    for j in range(1, 12):  # used only for |v| < 0.1: each term is 100 times smaller
        term = term * v * v
        series = series + term / (2 * j + 1)
    return np.where(np.abs(d) < 0.1 * (x + m), series, x * np.log(x / m) - d)


def binomial_pmf(t: int, lam: float, n) -> np.ndarray | float:
    """Binomial mass P(Binomial(t, lam) = n).

    Inner counts use Loader's saddle-point form (Loader 2000, "Fast and
    accurate computation of binomial probabilities"), whose terms are small
    near the mode, so the mass there is within a few 1e-14 relative of the
    true value; a log-gamma sum loses about t log t rounding units.  Safe for
    t up to 1e6 and beyond; n may be a scalar or an array but must lie inside
    [0, t].
    """
    if t < 0:
        raise DomainError(f"trial count must be >= 0, got {t}")
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"probability must lie in [0, 1], got {lam}")
    n_arr = np.asarray(n, dtype=np.int64)
    if n_arr.size and (n_arr.min() < 0 or n_arr.max() > t):
        raise DomainError(f"counts must lie in [0, {t}]")
    n = n_arr.astype(np.float64)
    # the mass at n in {0, t} is (1 - lam)**t or lam**t; taking 0 * log(0)
    # as 0 keeps lam in {0, 1} exact
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pmf = np.asarray(np.where(n > 0.0, n * np.log(lam), 0.0)
                             + np.where(n < t, (t - n) * np.log1p(-lam), 0.0))
    inner = (n > 0.0) & (n < t) & (0.0 < lam < 1.0)
    if inner.any():
        x = n[inner]
        y = t - x
        log_pmf[inner] = (
            _stirlerr(t) - _stirlerr(x) - _stirlerr(y)
            - _bd0(x, t * lam) - _bd0(y, t * (1.0 - lam))
            - 0.5 * np.log(2.0 * math.pi * x * y / t)
        )
    return np.exp(log_pmf)[()]


def _binomial_means(table: np.ndarray, lam: float, trials: np.ndarray) -> np.ndarray:
    """``E[table[N]]``, N ~ Binomial(t, lam), for every t in ``trials`` (see above)."""
    if lam == 0.0 or lam == 1.0:  # point mass at n = 0 or n = t
        return table[trials * int(lam == 1.0)]
    log_fact = _log_factorials(int(trials.max(initial=0)) + 1)
    # log pmf(n; t) = log_head[n] + const[t] - log (t - n)!
    log_head = np.arange(log_fact.size) * (math.log(lam) - math.log1p(-lam)) - log_fact
    const = log_fact[trials] + trials * math.log1p(-lam)
    k = _WINDOW_K
    half = k / 3.0 + np.sqrt(k * k / 9.0 + 2.0 * k * trials * lam * (1.0 - lam))
    lo = np.maximum(np.ceil(trials * lam - half), 0).astype(np.int64)
    width = np.minimum(np.floor(trials * lam + half).astype(np.int64), trials) - lo + 1
    out = np.empty(trials.shape)
    step = max(1, _BLOCK // int(width.max(initial=1)))  # lags per block
    for i in range(0, trials.size, step):
        blk = slice(i, i + step)
        w = width[blk]
        first = np.cumsum(w) - w
        n = np.repeat(lo[blk] - first, w) + np.arange(first[-1] + w[-1])
        pmf = np.exp(log_head[n] + np.repeat(const[blk], w)
                     - log_fact[np.repeat(trials[blk], w) - n])
        out[blk] = np.add.reduceat(pmf * table[n], first) / np.add.reduceat(pmf, first)
    return out


def _acf_sum(lam: float, law: MetaorderLaw, lags, r0_min: int, scale: float) -> AcfCurve:
    """``scale * E[T(max(N + 2, r0_min))]``, N ~ Binomial(tau - 1, lam), at every lag tau."""
    lags = np.asarray(lags, dtype=np.int64)
    trials = np.maximum(lags - 1, 0)
    s_max = max(int(trials.max(initial=0)) + 2, r0_min)
    # tail[s - 2] = T(s): one reversed CCDF cumsum plus one tail mass
    tail = np.cumsum(law.ccdf(np.arange(s_max, 1, -1)))[::-1] + law.ccdf_tail(s_max + 1)
    table = tail[np.maximum(np.arange(s_max - 1) + 2, r0_min) - 2]  # T(max(n + 2, r0_min))
    return AcfCurve(lags=lags, values=scale * _binomial_means(table, lam, trials),
                    kind="exact")


def exact_acf_trader(trader: TraderSpec, lags) -> AcfCurve:
    """Exact per-trader contribution to the market sign autocorrelation.

    Always evaluates the binomial expectation of the module docstring, even
    for laws with a closed form; closed forms live in separate functions so
    the two routes stay independently checkable.
    """
    lam = trader.intensity
    if lam == 0.0:
        lags = np.asarray(lags, dtype=np.int64)
        return AcfCurve(lags=lags, values=np.zeros(lags.shape), kind="exact")
    c_r = 1.0 / trader.law.mean_length()
    return _acf_sum(lam, trader.law, lags, 2, c_r * lam * lam)


def exact_acf_market(population: Population, lags) -> AcfCurve:
    """Sum of exact per-trader contributions over a population.

    Identical traders are grouped and computed once, the groups added in the
    order of their first trader.  Exponential and unit-length traders take
    their closed forms (verified equal to the generic sum elsewhere);
    everything else goes through the generic sum, with each group's law
    rebuilt from the population's columns.
    """
    lags = np.asarray(lags, dtype=np.int64)
    total = _exponential_sum(population, lags)
    lam, group, param = population.intensities, population.group, population.param
    generic = np.flatnonzero(~population.has_law((Degenerate, Exponential)))
    first, count = _runs(lam[generic], group[generic], param[generic])
    for f, c in sorted(zip(generic[first].tolist(), count.tolist())):
        law = population.laws[group[f]].with_param(float(param[f]))
        total += c * exact_acf_trader(TraderSpec(float(lam[f]), law), lags).values
    return AcfCurve(lags=lags, values=total, kind="exact")


def homogeneous_market_acf(lam: float, law: MetaorderLaw, lags) -> AcfCurve:
    """Market ACF of a homogeneous splitting population with per-trader intensity lam.

    With 1/lam identical traders the market curve is the per-trader
    contribution divided by lam:  (lam / mean_length) * sum_{R0>=2} ccdf * F.
    """
    return _acf_sum(lam, law, lags, 2, lam * (1.0 / law.mean_length()))


def heuristic_acf(lam: float, law: MetaorderLaw, lags) -> AcfCurve:
    """Classic homogeneous splitting heuristic for the market ACF.

    Identical to ``homogeneous_market_acf`` except that the sum over
    remaining counts starts at R0 = 3: the heuristic drops metaorders whose
    remaining count is exactly 2, undercounting every lag by
    (lam/mean) * ccdf(2) * (1-lam)**(tau-1).
    """
    return _acf_sum(lam, law, lags, 3, lam * (1.0 / law.mean_length()))


def _exponential_params(lam, decay_length):
    """``(prefactor, decay_time)`` of the exponential closed form; vectorised."""
    step = -np.expm1(-1.0 / decay_length)  # 1 - exp(-1/L)
    q = 1.0 - lam * step
    return lam * lam * np.exp(-1.0 / decay_length) / q, -1.0 / np.log(q)


def _runs(*columns):
    """Equal rows of ``columns``: the index of each distinct row's first
    occurrence and its count, in the rows' lexicographic order (the last
    column first)."""
    order = np.lexsort(columns)
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for col in columns:
        c = col[order]
        new[1:] |= c[1:] != c[:-1]
    start = np.flatnonzero(new)
    return order[start], np.diff(start, append=order.size)


def _exponential_sum(population: Population, lags: np.ndarray) -> np.ndarray:
    """Closed forms of the population's exponential traders summed at ``lags``;
    identical traders are grouped, at most ``_BLOCK`` group x lag terms at a time.
    Zero-intensity traders never trade and contribute exactly 0."""
    lam = population.intensities
    pick = np.flatnonzero(population.has_law(Exponential) & (lam > 0.0))
    lam, decay = lam[pick], population.param[pick]
    first, count = _runs(decay, lam)  # sorted by intensity, then decay length
    lam, decay = lam[first, None], decay[first, None]
    _check_intensity(float(lam.min(initial=1.0)))
    prefactor, decay_time = _exponential_params(lam, decay)
    lags = lags.astype(np.float64)
    total = np.zeros(lags.shape)
    rows = max(1, _BLOCK // max(lags.size, 1))
    for i in range(0, count.size, rows):  # total first: groups add in order, as in a loop
        block = prefactor[i:i + rows] * np.exp(-lags / decay_time[i:i + rows])
        block *= count[i:i + rows, None]
        block[0] += total
        total = block.sum(axis=0)
    return total


def exponential_acf_closed_form(lam: float, decay_length: float, lags) -> AcfCurve:
    """Closed-form ACF of one exponential splitter on a lag grid.

    C_tau = lam**2 * exp(-1/L) * q**(tau-1) with q = 1 - lam*(1 - exp(-1/L)),
    rewritten as prefactor * exp(-tau/decay_time).
    """
    _check_intensity(lam)
    if decay_length <= 0.0:
        raise DomainError(f"decay_length must be positive, got {decay_length}")
    prefactor, decay_time = _exponential_params(lam, decay_length)
    lags = np.asarray(lags, dtype=np.int64)
    return AcfCurve(lags=lags, values=prefactor * np.exp(-lags / decay_time),
                    kind="exact")


def powerlaw_acf_asymptote(lam: float, alpha: float, lags) -> AcfCurve:
    """Large-lag asymptote of one Pareto splitter: (lam**(3-alpha)/alpha) * tau**(1-alpha).

    Derived for alpha in (1, 2); outside that window (and for lags below
    1/lam) the value is still returned but a ValidityWarning is emitted.
    """
    _check_intensity(lam)
    if alpha <= 1.0:
        raise DomainError(f"tail exponent must exceed 1, got {alpha}")
    if alpha >= 2.0:
        warnings.warn(
            f"power-law ACF asymptote derived for exponents in (1, 2); got {alpha}",
            ValidityWarning,
            stacklevel=2,
        )
    lags = np.asarray(lags, dtype=np.int64)
    if lags.size and lags.min() < 1.0 / lam:
        warnings.warn(
            "asymptote evaluated at lags below 1/intensity, outside its window",
            ValidityWarning,
            stacklevel=2,
        )
    values = lam ** (3.0 - alpha) / alpha * lags.astype(np.float64) ** (1.0 - alpha)
    return AcfCurve(lags=lags, values=values, kind="asymptotic")


def hetero_acf_asymptote(population: Population, lags) -> AcfCurve:
    """Superposition asymptote: closed forms for exponential traders plus
    power-law asymptotes for Pareto traders, added in trader order;
    unit-length traders contribute 0."""
    lags = np.asarray(lags, dtype=np.int64)
    lam = population.intensities
    other = np.flatnonzero(~population.has_law((DiscretePareto, Degenerate, Exponential)))
    if other.size:
        kind = population.laws[population.group[other[0]]].kind
        raise DomainError(f"no asymptote for law kind {kind!r}; use exact_acf_market")
    total = _exponential_sum(population, lags)
    # a zero-intensity trader contributes exactly 0
    pareto = np.flatnonzero(population.has_law(DiscretePareto) & (lam > 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for lam_i, alpha in zip(lam[pareto].tolist(), population.param[pareto].tolist()):
            total += powerlaw_acf_asymptote(lam_i, alpha, lags).values
    return AcfCurve(lags=lags, values=total, kind="asymptotic")


# ---------------------------------------------------------------------------
# prefactor algebra
# ---------------------------------------------------------------------------


def _check_pt_exponent(alpha: float):
    if not 1.0 < alpha < 2.0:
        raise DomainError(f"prefactor algebra requires exponent in (1, 2), got {alpha}")


def _check_mass(mu: float):
    if not (0.0 < mu <= 1.0 + 1e-12):
        raise DomainError(f"splitter mass must lie in (0, 1], got {mu}")


def prefactor_hetero(intensities, alpha: float) -> float:
    """Heterogeneous power-law ACF prefactor: sum(lam**(3-alpha)) / alpha."""
    _check_pt_exponent(alpha)
    lam = np.asarray(intensities, dtype=np.float64)
    if lam.size == 0 or np.any(lam <= 0.0):
        raise DomainError("intensities must be positive and non-empty")
    _check_mass(float(lam.sum()))
    return float(np.sum(lam ** (3.0 - alpha)) / alpha)


def prefactor_homogeneous(mu: float, count: int, alpha: float) -> float:
    """Prefactor when the splitter mass mu is split evenly over ``count`` traders."""
    _check_pt_exponent(alpha)
    _check_mass(mu)
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    return mu ** (3.0 - alpha) / (alpha * count ** (2.0 - alpha))


def superposition_prefactor(intensities, theta: float) -> float:
    """Exponential-superposition prefactor Gamma(theta) * sum(lam**(3-theta))."""
    _check_pt_exponent(theta)
    lam = np.asarray(intensities, dtype=np.float64)
    if lam.size == 0 or np.any(lam <= 0.0):
        raise DomainError("intensities must be positive and non-empty")
    _check_mass(float(lam.sum()))
    return float(math.gamma(theta) * np.sum(lam ** (3.0 - theta)))


@dataclass(frozen=True)
class PrefactorReport:
    """Prefactor bounds and identities for one intensity vector."""

    alpha: float
    intensities: tuple
    mu: float
    splitter_count: int
    c0_hetero: float
    c0_homogeneous: float
    c0_upper: float
    q0_hetero: float
    q0_homogeneous: float
    q0_upper: float
    q0_over_c0: float
    slack_lower: float
    slack_upper: float
    is_homogeneous_equality: bool


def prefactor_bounds(intensities, alpha: float) -> PrefactorReport:
    """Full prefactor report with the two-sided bound asserted.

    The heterogeneous prefactor always sits between the evenly-split value
    (power-mean inequality, equality iff all intensities agree) and the
    single-trader bound; violation beyond rounding noise raises.
    """
    lam = np.asarray(intensities, dtype=np.float64)
    c0 = prefactor_hetero(lam, alpha)
    mu = float(lam.sum())
    count = int(lam.size)
    c0_low = prefactor_homogeneous(mu, count, alpha)
    c0_high = mu ** (3.0 - alpha) / alpha  # a single trader carries all of mu
    q0 = superposition_prefactor(lam, alpha)
    q0_low = math.gamma(alpha) * mu ** (3.0 - alpha) / count ** (2.0 - alpha)
    q0_high = math.gamma(alpha) * mu ** (3.0 - alpha)
    tol = 1e-12 * max(c0, c0_high)
    if c0 < c0_low - tol or c0 > c0_high + tol:
        raise LmfsimError(
            f"prefactor bound violated: {c0_low} <= {c0} <= {c0_high} failed"
        )
    return PrefactorReport(
        alpha=float(alpha),
        intensities=tuple(float(x) for x in lam),
        mu=mu,
        splitter_count=count,
        c0_hetero=c0,
        c0_homogeneous=c0_low,
        c0_upper=c0_high,
        q0_hetero=q0,
        q0_homogeneous=q0_low,
        q0_upper=q0_high,
        q0_over_c0=q0 / c0,
        slack_lower=c0 - c0_low,
        slack_upper=c0_high - c0,
        is_homogeneous_equality=bool(abs(c0 - c0_low) <= 1e-12 * max(c0, c0_low)),
    )


def min_splitter_count(mu: float, alpha: float, c0: float) -> float:
    """Lower bound on the number of splitters from an observed ACF prefactor.

    Inverts the evenly-split prefactor: count >= (mu**(3-alpha)/(alpha*c0))**(1/(2-alpha)).
    The exponent 1/(2-alpha) blows up near alpha = 2, so exponents above 1.95
    are rejected as numerically degenerate.
    """
    _check_mass(mu)
    if not 1.0 < alpha < 2.0:
        raise DomainError(f"tail exponent must lie in (1, 2), got {alpha}")
    if alpha > 1.95:
        raise DegenerateExponent(
            f"1/(2 - alpha) = {1.0 / (2.0 - alpha):.1f} amplifies prefactor noise "
            "beyond usefulness; need alpha <= 1.95"
        )
    if c0 <= 0.0:
        raise DomainError(f"prefactor must be positive, got {c0}")
    return (mu ** (3.0 - alpha) / (alpha * c0)) ** (1.0 / (2.0 - alpha))
