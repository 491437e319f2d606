"""Estimators for simulated runs: sample ACF, length histograms, power-law fits.

The sample ACF uses the raw product mean C_tau = mean(eps_t * eps_{t+tau})
without mean subtraction (the signs are symmetric by construction), from
exact integer lag sums of a blocked overlap-save FFT.  Length histograms are
kept as exact integer counts on their observed support; log-binning happens
only at fit time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from .engine import SimulationOutput
from .errors import DomainError, EmptyLog, InsufficientPoints, SeriesTooShort
from .theory import AcfCurve

__all__ = [
    "acf_estimate",
    "average_curves",
    "EmpiricalDistribution",
    "aggregate_metaorder_distribution",
    "PowerLawFit",
    "fit_powerlaw",
    "log_bin_curve",
    "log_bin_density",
    "fit_acf_powerlaw",
    "fit_distribution_tail",
]


# Overlap-save sizes of the lag sums: each FFT spans the power of two at or
# above both _MIN_FFT samples and 4 times the max_lag + 1 overlap, so the
# overlap wastes at most 1/4 of the work; one batch of blocks holds about
# _GROUP_SAMPLES float64 samples.
# Batches stay small because they are transformed beside a running simulate,
# whose own temporaries set the peak memory of a run.
_MIN_FFT = 1 << 14
_GROUP_SAMPLES = 1 << 17

# Log bins per decade and the fewest usable points of the power-law fits.
_BINS_PER_DECADE = 8
_MIN_POINTS = 5


def _as_signs(series) -> np.ndarray:
    if isinstance(series, SimulationOutput):
        if series.signs is None:
            raise DomainError("run was executed with keep_signs=False")
        return series.signs
    return np.asarray(series)


class _AcfSums:
    """Exact lag sums Σ_t x_t x_{t+tau}, tau = 0..max_lag, of a series fed in pieces.

    Blocked overlap-save: each block of the series is correlated with itself
    extended by the next ``max_lag`` samples through cache-sized rffts whose
    length is a power of two (at least 4 (max_lag + 1) and ``_MIN_FFT``), and
    the block spectra are summed before one irfft, so work is O(T log
    max_lag) and memory a few batches of ``_GROUP_SAMPLES`` samples.  A batch
    (group) of blocks is transformed once the samples it spans have all been
    fed; the samples after the last transformed group are carried to the next
    ``feed``, so the groups, and hence the sums, do not depend on how the
    series was cut.  The samples must be integers in [-1, 1]: the sums are
    then integers and ``curve`` rounds them exactly.
    """

    def __init__(self, max_lag: int):
        if max_lag < 1:
            raise DomainError(f"max_lag must be >= 1, got {max_lag}")
        self.max_lag = max_lag
        self._n_fft = 1 << (max(4 * (max_lag + 1), _MIN_FFT) - 1).bit_length()
        self._block = self._n_fft - max_lag
        self._per_group = self._block * max(1, _GROUP_SAMPLES // self._n_fft)
        self._spectrum = np.zeros(self._n_fft // 2 + 1, dtype=np.complex128)
        self._carry = np.empty(0, dtype=np.int8)  # from the next group's first block on
        self.steps = 0

    def _group_spectrum(self, part: np.ndarray, heads: int) -> np.ndarray:
        """Summed spectra of the blocks that start at ``part``'s first ``heads``
        samples; ``part`` starts at a block edge and past its end reads as 0."""
        n_fft, block = self._n_fft, self._block
        seg = np.zeros(-(-heads // block) * block + self.max_lag)
        part = part[: seg.size]
        seg[: part.size] = part
        windows = np.lib.stride_tricks.sliding_window_view(seg, n_fft)[::block]
        full = rfft(windows, axis=1)
        head = rfft(windows[:, :block], n_fft, axis=1)
        np.conjugate(head, out=head)
        head *= full
        return head.sum(axis=0)

    def feed(self, chunk: np.ndarray) -> None:
        """Append ``chunk`` to the series and transform every group it completes."""
        carry, c = self._carry, self._carry.size
        total = c + chunk.size
        span = self._per_group + self.max_lag

        def part(lo, hi):  # samples lo..hi-1 of the carry followed by the chunk
            if lo >= c:
                return chunk[lo - c : hi - c]
            if hi <= c:
                return carry[lo:hi]
            return np.concatenate((carry[lo:], chunk[: hi - c]))

        at = 0
        while total - at >= span:
            self._spectrum += self._group_spectrum(part(at, at + span), self._per_group)
            at += self._per_group
        self._carry = part(at, total).copy()
        self.steps += chunk.size

    def curve(self) -> AcfCurve:
        """The sample ACF of everything fed so far (see ``acf_estimate``)."""
        spectrum = self._spectrum.copy()
        for at in range(0, self._carry.size, self._per_group):
            heads = min(self._per_group, self._carry.size - at)
            spectrum += self._group_spectrum(self._carry[at:], heads)
        t = self.steps
        raw = irfft(spectrum, self._n_fft)[: self.max_lag + 1]
        sums = np.rint(raw)
        if np.max(np.abs(raw - sums)) > 0.25:
            raise DomainError(f"lag sums of a length-{t} series lost integer precision")
        lags = np.arange(1, self.max_lag + 1, dtype=np.int64)
        values = sums[lags] / (t - lags)
        stderr = 1.0 / np.sqrt(t - lags.astype(np.float64))
        return AcfCurve(lags=lags, values=values, kind="simulated", stderr=stderr)


def acf_estimate(series, max_lag: int) -> AcfCurve:
    """Sample autocorrelation Σ_t eps_t eps_{t+tau} / (T - tau) up to ``max_lag``.

    The lag sums come from one ``_AcfSums`` fed the whole series.  The series
    must be 1-d integers in [-1, 1] (else DomainError), so the lag sums are
    integers and are rounded exactly: the values equal the direct lag sums
    bit for bit.  Requires T > 10 * max_lag so every lag keeps a comfortable
    sample count.  The attached standard error is the independent-product
    approximation 1/sqrt(T - tau).
    """
    x = _as_signs(series)
    sums = _AcfSums(max_lag)
    if x.size <= 10 * max_lag:
        raise SeriesTooShort(
            f"series of length {x.size} too short for max_lag {max_lag}"
        )
    if (x.ndim != 1 or not np.issubdtype(x.dtype, np.integer)
            or x.min() < -1 or x.max() > 1):
        raise DomainError("acf_estimate needs a 1-d integer series in [-1, 1]")
    sums.feed(x)
    return sums.curve()


def average_curves(curves: list[AcfCurve]) -> AcfCurve:
    """Replica average of simulated curves sharing one lag grid."""
    if not curves:
        raise DomainError("need at least one curve")
    lags = curves[0].lags
    for c in curves[1:]:
        if not np.array_equal(c.lags, lags):
            raise DomainError("curves must share the same lag grid")
    k = len(curves)
    values = np.mean([c.values for c in curves], axis=0)
    if all(c.stderr is not None for c in curves):
        stderr = np.sqrt(np.mean([c.stderr**2 for c in curves], axis=0) / k)
    else:
        stderr = None
    return AcfCurve(lags=lags, values=values, kind="simulated", stderr=stderr)


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Integer-valued empirical distribution kept as exact counts."""

    support: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if support.shape != counts.shape or support.ndim != 1 or support.size == 0:
            raise DomainError("support and counts must be matching 1-d arrays")
        if np.any(np.diff(support) <= 0):
            raise DomainError("support must be strictly increasing")
        if np.any(counts < 0) or counts.sum() == 0:
            raise DomainError("counts must be non-negative with positive total")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalDistribution":
        samples = np.asarray(samples)
        if samples.size == 0:
            raise EmptyLog("no samples to aggregate")
        support, counts = np.unique(samples, return_counts=True)
        return cls(support=support, counts=counts)

    @classmethod
    def merge(cls, parts: list["EmpiricalDistribution"]) -> "EmpiricalDistribution":
        if not parts:
            raise EmptyLog("nothing to merge")
        support = np.unique(np.concatenate([p.support for p in parts]))
        counts = np.zeros(support.size, dtype=np.int64)
        for p in parts:
            counts[np.searchsorted(support, p.support)] += p.counts
        return cls(support=support, counts=counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def aggregate_metaorder_distribution(output: SimulationOutput) -> EmpiricalDistribution:
    """Pool completed metaorder lengths across traders into one distribution."""
    return EmpiricalDistribution.from_samples(output.lengths)


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares power law y = prefactor * x**(-exponent) in log-log space."""

    exponent: float
    prefactor: float
    residual_rms: float
    n_points: int
    n_excluded: int
    window: tuple


def fit_powerlaw(x, y, window=None) -> PowerLawFit:
    """OLS fit of log y on log x inside a window, excluding non-positive values.

    The returned ``exponent`` is the decay rate (positive for falling
    curves); ``prefactor`` is exp(intercept).  Raises InsufficientPoints
    with fewer than ``_MIN_POINTS`` (5) usable points.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DomainError("x and y must be matching 1-d arrays")
    if window is None:
        window = (float(x.min()), float(x.max())) if x.size else (0.0, 0.0)
    lo, hi = float(window[0]), float(window[1])
    inside = (x >= lo) & (x <= hi)
    usable = inside & (y > 0.0) & (x > 0.0)
    n_excluded = int(inside.sum() - usable.sum())
    if usable.sum() < _MIN_POINTS:
        raise InsufficientPoints(
            f"only {int(usable.sum())} usable points in window [{lo}, {hi}], "
            f"need {_MIN_POINTS}"
        )
    lx = np.log(x[usable])
    ly = np.log(y[usable])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return PowerLawFit(
        exponent=float(-slope),
        prefactor=float(math.exp(intercept)),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        n_points=int(usable.sum()),
        n_excluded=n_excluded,
        window=(lo, hi),
    )


def _log_bin(x, weights, window):
    """Bin the points ``x`` inside ``window`` (all of them if None) into
    ``_BINS_PER_DECADE`` geometric bins per decade, from the smallest to the
    largest point; the bins are half-open [e_b, e_{b+1}) except the last,
    which is closed.  For each non-empty bin, returns the geometric mean of
    its points, their number, the sum of their ``weights`` and the number of
    integers in the bin.
    """
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if window is not None:
        keep = (x >= window[0]) & (x <= window[1])
        x, weights = x[keep], weights[keep]
    if x.size == 0:
        raise InsufficientPoints("no points to bin")
    lo, hi = x.min(), x.max()
    n_bins = max(1, int(np.ceil((np.log10(hi) - np.log10(lo)) * _BINS_PER_DECADE)))
    edges = np.logspace(np.log10(lo), np.log10(hi), n_bins + 1)
    edges[0], edges[-1] = lo, hi * (1.0 + 1e-12)
    which = np.digitize(x, edges) - 1
    n = np.bincount(which, minlength=n_bins)
    full = n > 0
    centre = np.exp(np.bincount(which, np.log(x), n_bins)[full] / n[full])
    width = np.diff(np.ceil(np.minimum(edges, hi + 1)))
    return centre, n[full], np.bincount(which, weights, n_bins)[full], width[full]


def log_bin_curve(x, y, window=None):
    """Average a curve inside geometric bins; returns (x_centre, y_mean, n_in_bin).

    The bins are 8 per decade, from the smallest to the largest x in the
    window, half-open [e_b, e_{b+1}) except the last, which is closed.  Bin
    centres are the geometric means of the member x values, y is their
    arithmetic mean; empty bins are dropped.
    """
    centre, n, y_sum, _ = _log_bin(x, y, window)
    return centre, y_sum / n, n


def log_bin_density(dist: EmpiricalDistribution, window=None):
    """Log-binned probability density of an integer distribution.

    The bins are those of ``log_bin_curve`` on the support inside the window;
    a bin's width is the number of integers it holds.  Each bin reports
    (total count in bin) / (total * width): the average per-integer mass,
    directly comparable to a PMF.
    """
    centre, _, mass, width = _log_bin(dist.support, dist.counts, window)
    return centre, mass / (dist.total * width)


def fit_acf_powerlaw(curve: AcfCurve, window) -> PowerLawFit:
    """Log-bin an ACF curve inside a lag window, then fit the power law."""
    x, y, _ = log_bin_curve(curve.lags, curve.values, window=window)
    return fit_powerlaw(x, y)


def fit_distribution_tail(dist: EmpiricalDistribution, window) -> PowerLawFit:
    """Log-bin the PMF of a length distribution in a window, then fit its decay."""
    x, dens = log_bin_density(dist, window=window)
    return fit_powerlaw(x, dens)
