"""Metaorder length laws and deterministic population allocation rules.

A law describes the distribution of the total child-order count L >= 1 of a
metaorder.  The simulator consumes inverse CDFs evaluated at uniforms, the
exact theory consumes pointwise PMF/CCDF values and tail masses, and
stationary initialisation consumes the size-biased remaining-length
distribution

    P_st(R) = ccdf(R) / mean_length,   R = 1, 2, ...

Each law writes its two inverse CDFs once, vectorised over uniforms and over
a parameter array (``lengths_from_uniform``, ``remaining_from_uniform``),
which the engine's batched draws call.  Laws with equal ``batch_key()``
share one kernel and differ only in ``param``, so the engine draws a whole
population kind by kind; ``mean_lengths`` is the batched mean and
``with_param`` rebuilds one law of the kind from its parameter.

All laws are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DomainError,
    InvalidExponent,
    InvalidSupport,
    LmfsimError,
    NonconvergentMean,
)

__all__ = [
    "MetaorderLaw",
    "Degenerate",
    "Exponential",
    "DiscretePareto",
    "Tabulated",
    "law_from_config",
    "allocate_decay_lengths",
    "allocate_intensities",
    "intensity_rescale_factor",
]

MAX_TABULATED_LENGTH = 10**6

# Stationary Pareto draws beyond this are clamped so they stay addressable
# as int64 step counts; the clamped mass is below 4e-10 for alpha >= 1.1.
_REMAINING_CAP = 1 << 62


def _check_lengths(length) -> np.ndarray:
    arr = np.asarray(length)
    if arr.size and arr.min() < 1:
        raise DomainError("lengths are integers >= 1")
    return arr


class MetaorderLaw:
    """Common interface for metaorder length distributions."""

    kind: str = "abstract"
    # per-law parameter of the batched kernels (decay length, tail exponent)
    param: float = 0.0

    def pmf(self, length):
        """P(L = length); vectorised over integer arrays."""
        raise NotImplementedError

    def ccdf(self, length):
        """P(L >= length), so ``ccdf(1) == 1``; vectorised."""
        raise NotImplementedError

    def mean_length(self) -> float:
        """Expected metaorder length; raises NonconvergentMean if infinite."""
        raise NotImplementedError

    def ccdf_tail(self, start: int) -> float:
        """Sum of ``ccdf(L)`` over ``L >= start`` (tail mass of the CCDF)."""
        raise NotImplementedError

    def batch_key(self) -> tuple:
        """Laws with equal keys share one kernel and differ only in ``param``."""
        return (self.kind,)

    def with_param(self, param: float) -> "MetaorderLaw":
        """The law of this batch key with parameter ``param``; a kind without
        a parameter returns itself."""
        return self

    def mean_lengths(self, param) -> np.ndarray:
        """Mean length at each of this kind's parameters ``param`` (float64
        array), inf where the mean diverges."""
        try:
            mean = self.mean_length()
        except NonconvergentMean:
            mean = math.inf
        return np.full(np.shape(param), mean)

    def lengths_from_uniform(self, u, param=None) -> np.ndarray:
        """Inverse CDF: lengths for uniforms ``u`` in [0, 1) (int64 array).

        ``param`` is an array of this kind's parameter, one per uniform; it
        defaults to this law's own.
        """
        raise NotImplementedError

    def remaining_from_uniform(self, u, param=None) -> np.ndarray:
        """Inverse CDF of the stationary remaining law P_st, as above."""
        raise NotImplementedError

    def stationary_remaining_pdf(self, remaining):
        """P_st(R) = ccdf(R) / mean_length for integer ``remaining >= 1``."""
        rem = _check_lengths(remaining)
        return self.ccdf(rem) / self.mean_length()


@dataclass(frozen=True)
class Degenerate(MetaorderLaw):
    """Unit-length metaorders: every execution is its own metaorder."""

    kind = "degenerate"

    def pmf(self, length):
        arr = _check_lengths(length)
        return np.where(arr == 1, 1.0, 0.0)[()]

    def ccdf(self, length):
        arr = _check_lengths(length)
        return np.where(arr <= 1, 1.0, 0.0)[()]

    def mean_length(self) -> float:
        return 1.0

    def ccdf_tail(self, start: int) -> float:
        return 1.0 if start <= 1 else 0.0

    def lengths_from_uniform(self, u, param=None):
        return np.ones(np.shape(u), dtype=np.int64)

    remaining_from_uniform = lengths_from_uniform


@dataclass(frozen=True)
class Exponential(MetaorderLaw):
    """Geometrically decaying lengths with ``ccdf(L) = exp(-(L-1)/decay_length)``.

    The size-biased stationary remaining length has the same distribution as
    L itself (the discrete-exponential law is memoryless), which the
    stationary sampler exploits.
    """

    decay_length: float
    kind = "exponential"

    def __post_init__(self):
        if not (self.decay_length > 0.0 and math.isfinite(self.decay_length)):
            raise DomainError(f"decay_length must be positive, got {self.decay_length}")

    @property
    def _step_mass(self) -> float:
        # 1 - exp(-1/L*), computed without cancellation for large L*
        return -math.expm1(-1.0 / self.decay_length)

    def pmf(self, length):
        arr = _check_lengths(length)
        return self._step_mass * np.exp(-(arr - 1.0) / self.decay_length)

    def ccdf(self, length):
        arr = _check_lengths(length)
        return np.exp(-(arr - 1.0) / self.decay_length)

    def mean_length(self) -> float:
        return 1.0 / self._step_mass

    def ccdf_tail(self, start: int) -> float:
        if start < 1:
            raise DomainError(f"tail start must be >= 1, got {start}")
        return math.exp(-(start - 1.0) / self.decay_length) / self._step_mass

    @property
    def param(self) -> float:
        return self.decay_length

    def with_param(self, param: float) -> "Exponential":
        return Exponential(decay_length=param)

    def mean_lengths(self, param) -> np.ndarray:
        return 1.0 / -np.expm1(-1.0 / np.asarray(param, dtype=np.float64))

    def lengths_from_uniform(self, u, param=None):
        decay = self.decay_length if param is None else param
        # 1 - u is uniform on (0, 1]; floor transform reproduces the CCDF exactly
        return 1 + np.floor(-decay * np.log1p(-u)).astype(np.int64)

    # memoryless: the stationary remaining count has the law of L itself
    remaining_from_uniform = lengths_from_uniform


@dataclass(frozen=True)
class DiscretePareto(MetaorderLaw):
    """Heavy-tailed lengths with ``ccdf(L) = L**(-tail_exponent)``.

    Construction requires ``tail_exponent > 0``; the mean and every
    stationary operation additionally require ``tail_exponent > 1`` and raise
    NonconvergentMean otherwise.
    """

    tail_exponent: float
    kind = "pareto"

    def __post_init__(self):
        if not (self.tail_exponent > 0.0 and math.isfinite(self.tail_exponent)):
            raise InvalidExponent(
                f"tail_exponent must be positive, got {self.tail_exponent}"
            )

    def pmf(self, length):
        arr = _check_lengths(length).astype(np.float64)
        a = self.tail_exponent
        return arr**-a - (arr + 1.0) ** -a

    def ccdf(self, length):
        arr = _check_lengths(length).astype(np.float64)
        return arr**-self.tail_exponent

    @cached_property
    def _zeta(self) -> float:
        # zeta(alpha, 1) on a 1-d array, as the engine's batched means and
        # stationary draws evaluate it, so the three agree bit for bit
        return float(_hurwitz_zeta(np.array([self.tail_exponent]), 1.0)[0])

    def mean_length(self) -> float:
        _check_summable(self.tail_exponent)
        return self._zeta

    def ccdf_tail(self, start: int) -> float:
        # Hurwitz zeta(alpha, start) = sum_{k >= start} k**-alpha
        _check_summable(self.tail_exponent)
        if start < 1:
            raise DomainError(f"tail start must be >= 1, got {start}")
        return float(_hurwitz_zeta(self.tail_exponent, start))

    @property
    def param(self) -> float:
        return self.tail_exponent

    def with_param(self, param: float) -> "DiscretePareto":
        return DiscretePareto(tail_exponent=param)

    def mean_lengths(self, param) -> np.ndarray:
        alpha = np.asarray(param, dtype=np.float64)
        mean = np.full(alpha.shape, math.inf)
        finite = alpha > 1.0
        mean[finite] = _hurwitz_zeta(alpha[finite], 1.0)
        return mean

    def lengths_from_uniform(self, u, param=None):
        alpha = self.tail_exponent if param is None else param
        # floor((1-u)**(-1/alpha)) hits the discrete CCDF exactly; a small
        # alpha can overflow to inf, which the cap below turns into 2**62
        with np.errstate(over="ignore"):
            raw = np.floor((1.0 - u) ** (-1.0 / alpha))
        return np.minimum(raw, float(_REMAINING_CAP)).astype(np.int64)

    def remaining_from_uniform(self, u, param=None):
        alpha = self.tail_exponent if param is None else param
        return _pareto_remaining(np.asarray(u, dtype=np.float64), alpha)


# Euler-Maclaurin coefficients (2k)! / B_2k of the Hurwitz zeta tail, k = 1..12
_ZETA_A = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
    -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
    1.1646782814350067249e14, -4.5979787224074726105e15,
    1.8152105401943546773e17, -7.1661652561756670113e18,
)


def _hurwitz_zeta(x, q):
    """Hurwitz zeta(x, q) = sum_{k >= 0} (q + k)**-x for x > 1 and q >= 1.

    Euler-Maclaurin summation in the order of operations of Cephes' ``zeta``:
    nine direct terms, then twelve Bernoulli corrections at w = q + 9 (all
    of them, which only adds terms far below the last bit); for q > 1e8 the
    two-term asymptote (1/(x-1) + 1/(2q)) q**(1-x).  ``x`` and ``q``
    broadcast.  numpy takes the ``pow`` of scalars from libm and that of
    arrays from its SIMD loops, which can differ in the last bit, so a
    caller that must match an array's entries passes an array.
    """
    x = np.asarray(x, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    s = q**-x
    a = q
    for _ in range(9):
        a = a + 1.0
        b = a**-x
        s = s + b
    w = a
    s = s + b * w / (x - 1.0) - 0.5 * b
    a = 1.0
    for j, coef in enumerate(_ZETA_A):  # a = x (x + 1) ... (x + 2j), b = w**(-x - 2j - 1)
        a = a * (x + 2 * j)
        b = b / w
        s = s + a * b / coef
        a = a * (x + (2 * j + 1))
        b = b / w
    far = (1.0 / (x - 1.0) + 0.5 / q) * q ** (1.0 - x)
    return np.where(q > 1e8, far, s)


def _check_summable(alpha):
    if np.any(np.asarray(alpha) <= 1.0):
        raise NonconvergentMean(f"tail sum diverges for exponent {alpha} <= 1")


def _pareto_remaining(u: np.ndarray, alpha) -> np.ndarray:
    """Pareto P_st draws: the smallest r with zeta(alpha, r + 1) <= (1 - u) zeta(alpha).

    The continuum inverse of zeta(alpha, s) ~ (s - 1/2)**(1 - alpha) / (alpha - 1)
    lands within one of that r wherever doubles can tell r from r + 1 (below
    about 2**40), so one bracket step makes it exact; ``alpha`` broadcasts
    against ``u``.
    """
    _check_summable(alpha)
    alpha = np.asarray(alpha, dtype=np.float64)
    # one normaliser per distinct alpha
    distinct, which = np.unique(alpha, return_inverse=True)
    target = (1.0 - u) * _hurwitz_zeta(distinct, 1.0)[which].reshape(alpha.shape)
    # in log space, so alpha near 1 clamps at the cap instead of overflowing
    log_r = -np.log((alpha - 1.0) * target) / (alpha - 1.0)
    cap = float(_REMAINING_CAP)
    r = np.clip(np.ceil(np.exp(np.minimum(log_r, math.log(cap))) - 0.5), 1.0, cap)
    r += _hurwitz_zeta(alpha, r + 1.0) > target
    r -= (r > 1.0) & (_hurwitz_zeta(alpha, r) <= target)
    return r.astype(np.int64)


@dataclass(frozen=True, eq=False)
class Tabulated(MetaorderLaw):
    """Finite-support law given as explicit (length, probability) atoms.

    Probabilities must be non-negative and sum to 1 within 1e-9; they are
    renormalised to an exact unit total.  Zero-probability atoms are dropped.
    """

    support: np.ndarray
    probs: np.ndarray
    kind = "tabulated"

    def __post_init__(self):
        support = np.asarray(self.support)
        probs = np.asarray(self.probs, dtype=np.float64)
        if support.shape != probs.shape or support.ndim != 1 or support.size == 0:
            raise InvalidSupport("support and probs must be matching 1-d arrays")
        if not np.issubdtype(support.dtype, np.integer):
            if np.any(support != np.floor(support)):
                raise InvalidSupport("support must contain integers")
        support = support.astype(np.int64)
        if support.min() < 1 or support.max() > MAX_TABULATED_LENGTH:
            raise InvalidSupport(
                f"support must lie within [1, {MAX_TABULATED_LENGTH}]"
            )
        if np.unique(support).size != support.size:
            raise InvalidSupport("support values must be distinct")
        if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
            raise InvalidSupport("probabilities must be finite and non-negative")
        total = probs.sum()
        if abs(total - 1.0) > 1e-9:
            raise InvalidSupport(f"probabilities sum to {total}, expected 1")
        keep = probs > 0.0
        order = np.argsort(support[keep])
        support = support[keep][order]
        probs = probs[keep][order] / total
        support.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    def pmf(self, length):
        arr = _check_lengths(length)
        idx = np.searchsorted(self.support, arr)
        idx = np.clip(idx, 0, self.support.size - 1)
        hit = self.support[idx] == arr
        return np.where(hit, self.probs[idx], 0.0)[()]

    @cached_property
    def _suffix_mass(self) -> np.ndarray:
        return np.concatenate((np.cumsum(self.probs[::-1])[::-1], [0.0]))

    def ccdf(self, length):
        arr = _check_lengths(length)
        idx = np.searchsorted(self.support, arr, side="left")
        return self._suffix_mass[idx][()]

    def mean_length(self) -> float:
        return float(np.dot(self.support, self.probs))

    def ccdf_tail(self, start: int) -> float:
        if start < 1:
            raise DomainError(f"tail start must be >= 1, got {start}")
        span = np.maximum(0, self.support - start + 1)
        return float(np.dot(span, self.probs))

    def batch_key(self) -> tuple:
        return (self.kind, self.support.tobytes(), self.probs.tobytes())

    @cached_property
    def _cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)

    @cached_property
    def _stationary_knots(self) -> np.ndarray:
        # P_st is flat at ccdf(r)/mean between atoms; its CDF at each atom
        width = np.diff(self.support, prepend=0)
        return np.cumsum(width * self._suffix_mass[:-1]) / self.mean_length()

    def lengths_from_uniform(self, u, param=None):
        idx = np.searchsorted(self._cdf, u, side="right")
        return self.support[np.minimum(idx, self.support.size - 1)]

    def remaining_from_uniform(self, u, param=None):
        # invert the piecewise-linear stationary CDF between atoms:
        # P(R = r) = ccdf(r) / mean for r in (s_{k-1}, s_k]
        knots = self._stationary_knots
        k = np.minimum(np.searchsorted(knots, u, side="right"), knots.size - 1)
        below = np.where(k > 0, knots[k - 1], 0.0)
        prev = np.where(k > 0, self.support[k - 1], 0)
        step = self._suffix_mass[k] / self.mean_length()
        r = prev + 1 + np.floor((u - below) / step).astype(np.int64)
        return np.clip(r, prev + 1, self.support[k])


def _real(value) -> float:
    """``float(value)`` of a JSON number; a boolean or a string is not one."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def law_from_config(config: dict) -> MetaorderLaw:
    """Build a law from the ``law`` field of a config group: ``{"kind":
    "degenerate"}``, ``{"kind": "exponential", "decay_length": L}``,
    ``{"kind": "pareto", "alpha": a}`` or ``{"kind": "tabulated", "pmf":
    [[length, prob], ...]}``; any other key is refused."""
    if not isinstance(config, dict) or "kind" not in config:
        raise DomainError("law config must be a dict with a 'kind' field")
    rest = dict(config)  # the keys no kind has read yet
    kind = rest.pop("kind")
    try:
        if kind == "degenerate":
            law = Degenerate()
        elif kind == "exponential":
            law = Exponential(decay_length=_real(rest.pop("decay_length")))
        elif kind == "pareto":
            law = DiscretePareto(tail_exponent=_real(rest.pop("alpha")))
        elif kind == "tabulated":
            support, probs = zip(*[(length, prob) for length, prob in rest.pop("pmf")])
            if any(isinstance(v, (bool, str)) for v in support + probs):
                raise TypeError("pmf atoms must be numbers, not booleans or strings")
            law = Tabulated(support=np.asarray(support), probs=np.asarray(probs))
        else:
            raise DomainError(f"unknown law kind {kind!r}")
    except LmfsimError:  # the law's own check, already typed
        raise
    except KeyError as exc:
        raise DomainError(f"{kind!r} law config is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed {kind!r} law config {config}: {exc}") from exc
    if rest:
        raise DomainError(f"unknown {kind!r} law keys: {sorted(rest)}")
    return law


def allocate_decay_lengths(count: int, theta: float) -> np.ndarray:
    """Deterministic decay lengths whose empirical CCDF falls off as a power law.

    Trader i of ``count`` receives

        decay_length_i = (1 / (1 - (i - 1)/count)) ** (1 / (theta - 1))

    so the multiset has CCDF ``P(decay_length >= x) ~ x**-(theta - 1)`` and the
    largest entry is ``count ** (1/(theta-1))``.  Every entry must be a valid
    ``Exponential`` decay length, so one that overflows (theta near 1) or is
    NaN raises DomainError, as the law would.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if theta <= 1.0:
        raise InvalidExponent(f"theta must exceed 1, got {theta}")
    i = np.arange(1, count + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        lengths = (1.0 / (1.0 - (i - 1.0) / count)) ** (1.0 / (theta - 1.0))
    bad = ~np.isfinite(lengths)
    if bad.any():
        raise DomainError(f"decay_length must be positive, got {lengths[bad][0]}")
    return lengths


def _intensity_quantiles(count: int, beta: float, lam_cut: float) -> np.ndarray:
    """Mid-point quantiles of the density ~ lam**-(beta+1) on [lam_cut, 1]."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if not 0.0 < lam_cut < 1.0:
        raise DomainError(f"lam_cut must lie in (0, 1), got {lam_cut}")
    p = (np.arange(1, count + 1, dtype=np.float64) - 0.5) / count
    if beta == 0.0:
        return lam_cut * (1.0 / lam_cut) ** p
    top = lam_cut**-beta
    return (top - p * (top - 1.0)) ** (-1.0 / beta)


def allocate_intensities(
    count: int, beta: float, lam_cut: float, total_mass: float = 1.0
) -> np.ndarray:
    """Deterministic intensities from a truncated power-law profile.

    Takes the ``count`` mid-point quantiles ``p_i = (i - 1/2)/count`` of the
    density proportional to ``lam**-(beta+1)`` on ``[lam_cut, 1]`` and rescales
    them to the requested total mass.
    """
    if not 0.0 < total_mass <= 1.0:
        raise DomainError(f"total_mass must lie in (0, 1], got {total_mass}")
    lam = _intensity_quantiles(count, beta, lam_cut)
    lam *= total_mass / lam.sum()
    if lam.max() > 1.0:
        raise DomainError("rescaled intensities exceed 1; lower total_mass or count")
    return lam


def intensity_rescale_factor(
    count: int, beta: float, lam_cut: float, total_mass: float = 1.0
) -> float:
    """Factor by which allocate_intensities shrinks the raw quantile profile.

    Every per-trader correlation time stretches by this factor relative to a
    hypothetical population whose intensities sit on [lam_cut, 1] directly,
    so lag windows stated on that reference clock map to windows multiplied
    by the returned value.
    """
    if not 0.0 < total_mass <= 1.0:
        raise DomainError(f"total_mass must lie in (0, 1], got {total_mass}")
    return float(_intensity_quantiles(count, beta, lam_cut).sum() / total_mass)
