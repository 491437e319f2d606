"""Shared numerical helpers: stable binomial mass, power-law tail sums, alias sampling.

These are the low-level kernels the law, theory and engine layers build on.
Everything here is plain float64 numerics with explicit error control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, NonconvergentMean

__all__ = ["log_binom_pmf", "powerlaw_tail_sum", "AliasTable"]


def log_binom_pmf(t: int, p: float, n):
    """Log of the binomial PMF ``P(Binomial(t, p) = n)``, vectorised over ``n``.

    Parameters
    ----------
    t : int
        Number of trials, ``t >= 0``.
    p : float
        Success probability in ``[0, 1]``.  The endpoints are handled
        exactly rather than through ``log(0)`` arithmetic.
    n : int or ndarray of int
        Occupation numbers; entries outside ``[0, t]`` get ``-inf``.

    Returns
    -------
    ndarray or float
        ``log P(N = n)`` in log space, safe for ``t`` up to ``1e6`` and
        beyond (gammaln keeps relative error at machine level).
    """
    if t < 0:
        raise DomainError(f"trial count must be >= 0, got {t}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability must lie in [0, 1], got {p}")
    n_arr = np.asarray(n)
    scalar = n_arr.ndim == 0
    n_arr = np.atleast_1d(n_arr).astype(np.int64)
    out = np.full(n_arr.shape, -np.inf)
    valid = (n_arr >= 0) & (n_arr <= t)
    if p == 0.0:
        out[valid & (n_arr == 0)] = 0.0
    elif p == 1.0:
        out[valid & (n_arr == t)] = 0.0
    else:
        nv = n_arr[valid].astype(np.float64)
        out[valid] = (
            gammaln(t + 1.0)
            - gammaln(nv + 1.0)
            - gammaln(t - nv + 1.0)
            + nv * np.log(p)
            + (t - nv) * np.log1p(-p)
        )
    return float(out[0]) if scalar else out


def powerlaw_tail_sum(alpha: float, start: int | float, rel_tol: float = 1e-12) -> float:
    """Sum of ``k**(-alpha)`` over integers ``k >= start``, for ``alpha > 1``.

    Uses explicit partial sums plus an Euler-Maclaurin tail whose truncation
    error is bracketed by the first omitted term; the explicit range grows
    until the bracket is below ``rel_tol`` of the accumulated value.  With
    ``start = 1`` this is the zeta series, with larger ``start`` the zeta
    tail used for stationary remainders and ACF tail masses.
    """
    if alpha <= 1.0:
        raise NonconvergentMean(f"tail sum diverges for exponent {alpha} <= 1")
    if start < 1:
        raise DomainError(f"tail start must be >= 1, got {start}")
    acc = 0.0
    n = float(start)
    block = 64
    while True:
        em = (
            n ** (1.0 - alpha) / (alpha - 1.0)
            + 0.5 * n**-alpha
            + alpha / 12.0 * n ** (-alpha - 1.0)
            - alpha * (alpha + 1.0) * (alpha + 2.0) / 720.0 * n ** (-alpha - 3.0)
        )
        err = (
            alpha * (alpha + 1.0) * (alpha + 2.0) * (alpha + 3.0) * (alpha + 4.0)
            / 30240.0
            * n ** (-alpha - 5.0)
        )
        total = acc + em
        if 2.0 * err <= rel_tol * total:
            return total
        k = np.arange(n, n + block)
        acc += float(np.sum(k**-alpha))
        n += block
        block *= 2


@dataclass(frozen=True)
class AliasTable:
    """Walker alias table of a finite categorical law, for O(1) draws.

    A draw picks column i uniformly, keeps it with probability ``prob[i]``
    and takes ``alias[i]`` otherwise; ``simulate`` draws this way.
    """

    prob: np.ndarray
    alias: np.ndarray

    @classmethod
    def from_weights(cls, weights) -> "AliasTable":
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise DomainError("weights must be a non-empty 1-d array")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise DomainError("weights must be finite and non-negative")
        total = w.sum()
        if total <= 0.0:
            raise DomainError("weights must have positive total mass")
        n = w.size
        scaled = w * (n / total)
        prob = np.ones(n)
        alias = np.arange(n)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] = (scaled[l] + scaled[s]) - 1.0
            if scaled[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        # leftovers are 1.0 up to rounding
        return cls(prob=prob, alias=alias)
