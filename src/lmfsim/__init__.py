"""Order-splitting market simulator with matching exact autocorrelation theory.

A market of independent traders takes turns submitting signed orders; each
trader splits metaorders of random length into runs of equal-signed child
orders.  This package simulates the resulting sign series at scale, and
evaluates the exact stationary sign autocorrelation of the same process
(per trader and market-wide), its closed forms and long-lag asymptotes,
prefactor bounds, and a calibration bound on the number of active splitters.

The names below are the documented API (README.md, demos/); everything else
is imported from the submodule that defines it (``lmfsim.engine``,
``lmfsim.theory``, ...).
"""

# Defined before the submodules load: run manifests record it (lmfsim.runner).
__version__ = "0.1.0"

from .chain_oracle import oracle_acf_small_chain
from .engine import Population, TraderSpec, simulate
from .errors import ConfigError, DomainError, LmfsimError
from .laws import Degenerate, DiscretePareto, Exponential, Tabulated
from .runner import calibrate_curve, replica_seed, run_experiment, run_simulate
from .stats import acf_estimate, average_curves, fit_acf_powerlaw
from .theory import (
    binomial_pmf,
    exact_acf_market,
    exact_acf_trader,
    exponential_acf_closed_form,
    hetero_acf_asymptote,
    heuristic_acf,
    homogeneous_market_acf,
    min_splitter_count,
    powerlaw_acf_asymptote,
    prefactor_bounds,
    prefactor_hetero,
    prefactor_homogeneous,
)

__all__ = [
    "__version__",
    # errors
    "LmfsimError",
    "ConfigError",
    "DomainError",
    # laws
    "Degenerate",
    "Exponential",
    "DiscretePareto",
    "Tabulated",
    # engine
    "TraderSpec",
    "Population",
    "simulate",
    # theory
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
    "prefactor_bounds",
    "min_splitter_count",
    # oracle
    "oracle_acf_small_chain",
    # stats
    "acf_estimate",
    "average_curves",
    "fit_acf_powerlaw",
    # runs
    "replica_seed",
    "run_simulate",
    "run_experiment",
    "calibrate_curve",
]
