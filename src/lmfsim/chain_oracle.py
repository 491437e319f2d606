"""Brute-force ACF oracle: exact chain enumeration for tiny populations.

The full phase space (market sign, per-trader sign and remaining count) is
finite whenever every law has finite support.  This module enumerates it,
builds the one-step transition matrix, extracts the stationary distribution
by (lazy) power iteration and computes sign autocorrelations from matrix
powers.  It shares no code with the analytic formulas, which is the point:
it is the independent referee for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .engine import Population
from .errors import DomainError, LmfsimError, StateSpaceTooLarge
from .laws import Degenerate, Tabulated
from .theory import AcfCurve

__all__ = ["ChainOracle", "build_oracle", "oracle_acf_small_chain"]

MAX_ORACLE_STATES = 100_000
# lazy power iteration stops once no stationary mass moves by more than this
_STATIONARY_TOL = 1e-13
_MAX_ITERATIONS = 2_000_000


def _finite_support(law):
    """(lengths, probs) arrays for a finite-support law."""
    if isinstance(law, Degenerate):
        return np.array([1], dtype=np.int64), np.array([1.0])
    if isinstance(law, Tabulated):
        return law.support, law.probs
    raise DomainError(
        f"chain enumeration needs a finite-support law, got kind {law.kind!r}"
    )


@dataclass
class ChainOracle:
    """Enumerated chain with its stationary distribution."""

    radices: np.ndarray          # per-trader digit count 2 * Lmax_i
    transition: sp.csr_matrix    # row-stochastic, shape (n, n)
    stationary: np.ndarray
    market_sign: np.ndarray      # g(x) per state
    digits: np.ndarray           # per-state per-trader digit, shape (n, M)

    def acf(self, lags) -> AcfCurve:
        """C_tau = E[g(X_1) g(X_{1+tau})] under stationarity, by matrix powers."""
        lags = np.asarray(lags, dtype=np.int64)
        if lags.size and lags.min() < 1:
            raise DomainError("oracle lags must be >= 1")
        weights = self.stationary * self.market_sign
        wanted = set(int(t) for t in lags)
        values = {}
        h = self.market_sign.astype(np.float64)
        for t in range(1, (max(wanted) if wanted else 0) + 1):
            h = self.transition @ h
            if t in wanted:
                values[t] = float(np.dot(weights, h))
        return AcfCurve(
            lags=lags,
            values=np.array([values[int(t)] for t in lags]),
            kind="oracle",
        )

    def remaining_marginal(self, trader: int) -> np.ndarray:
        """Stationary P(R_i = r) for r = 1..Lmax_i, from the enumerated chain."""
        r = self.digits[:, trader] // 2 + 1
        l_max = int(self.radices[trader] // 2)
        out = np.zeros(l_max)
        np.add.at(out, r - 1, self.stationary)
        return out


def build_oracle(population: Population) -> ChainOracle:
    """Enumerate the chain of a finite-support population and solve it."""
    m = population.size
    supports = [_finite_support(t.law) for t in population.traders]
    radices = np.array([2 * int(s[0].max()) for s in supports], dtype=np.int64)
    n_states = 2 * int(np.prod(radices.astype(np.float64)))
    if n_states > MAX_ORACLE_STATES:
        raise StateSpaceTooLarge(
            f"{n_states} states exceed the budget of {MAX_ORACLE_STATES}"
        )

    idx = np.arange(n_states, dtype=np.int64)
    market_bit = idx % 2
    rest = idx // 2
    digits = np.empty((n_states, m), dtype=np.int64)
    for i in range(m):
        digits[:, i] = rest % radices[i]
        rest //= radices[i]
    strides = np.concatenate(([1], np.cumprod(radices[:-1])))

    def encode(bit, digs):
        return bit + 2 * (digs @ strides)

    rows, cols, probs = [], [], []
    for i, lam in enumerate(population.intensities):
        sign_bit = digits[:, i] % 2
        remaining = digits[:, i] // 2 + 1
        cont = remaining > 1
        # continuation: emit current sign, decrement remaining
        if np.any(cont):
            digs = digits[cont].copy()
            digs[:, i] -= 2
            rows.append(idx[cont])
            cols.append(encode(sign_bit[cont], digs))
            probs.append(np.full(int(cont.sum()), float(lam)))
        # completion: emit old sign, redraw length and sign
        done = ~cont
        if np.any(done):
            lengths, masses = supports[i]
            for length, mass in zip(lengths, masses):
                for new_bit in (0, 1):
                    digs = digits[done].copy()
                    digs[:, i] = new_bit + 2 * (int(length) - 1)
                    rows.append(idx[done])
                    cols.append(encode(sign_bit[done], digs))
                    probs.append(
                        np.full(int(done.sum()), float(lam) * float(mass) * 0.5)
                    )

    transition = sp.coo_matrix(
        (np.concatenate(probs), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_states, n_states),
    ).tocsr()
    row_sums = np.asarray(transition.sum(axis=1)).ravel()
    if np.max(np.abs(row_sums - 1.0)) > 1e-12:
        raise LmfsimError("transition matrix rows do not sum to 1")

    # lazy power iteration: same fixed point, immune to periodic chains
    back = transition.T.tocsr()
    pi = np.full(n_states, 1.0 / n_states)
    for _ in range(_MAX_ITERATIONS):
        nxt = 0.5 * (pi + back @ pi)
        nxt /= nxt.sum()
        delta = float(np.max(np.abs(nxt - pi)))
        pi = nxt
        if delta < _STATIONARY_TOL:
            break
    else:
        raise LmfsimError(
            f"stationary distribution did not converge to {_STATIONARY_TOL} "
            f"within {_MAX_ITERATIONS} iterations"
        )

    return ChainOracle(
        radices=radices,
        transition=transition,
        stationary=pi,
        market_sign=2.0 * market_bit - 1.0,
        digits=digits,
    )


def oracle_acf_small_chain(population: Population, lags) -> AcfCurve:
    """Exact ACF of a small finite-support population by full enumeration."""
    return build_oracle(population).acf(lags)
