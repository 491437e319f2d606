"""Walker alias sampling, the O(1) categorical draw ``simulate`` picks traders with."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["AliasTable"]


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
