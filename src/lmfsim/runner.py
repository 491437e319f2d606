"""Run orchestration: replicated simulations, experiment presets, calibration.

Every run writes a self-describing directory: the averaged sample ACF, the
matching theory curves, pooled metaorder statistics and a manifest with the
config digest, derived seeds, artifact checksums and timings.  Experiment
presets bundle the parameter matrices of the standard validation scenarios;
every number of a report entry is computed from its case's run directory,
and the tolerances are asserted by the acceptance test suite, not here.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import resource
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .chain_oracle import build_oracle
from .config import ExperimentConfig, load_config, splitter_ids
from .engine import Population, TraderSpec, simulate
from .errors import ConfigError, DomainError, EmptyLog, LmfsimError
from .laws import Degenerate, Tabulated, intensity_rescale_factor
from .stats import (  # acf_estimate: bench/worker.py spans it by this module's name
    EmpiricalDistribution,
    _AcfSums,
    acf_estimate,
    aggregate_metaorder_distribution,
    average_curves,
    fit_acf_powerlaw,
    fit_distribution_tail,
    fit_powerlaw,
)
from .theory import (
    AcfCurve,
    _exponential_params,
    default_lags,
    exact_acf_market,
    hetero_acf_asymptote,
    min_splitter_count,
    prefactor_bounds,
    prefactor_hetero,
    superposition_prefactor,
)

__all__ = [
    "replica_seed",
    "run_simulate",
    "theory_curves",
    "run_experiment",
    "calibrate_curve",
    "run_calibrate",
    "write_acf_csv",
    "read_acf_csv",
    "write_theory_csv",
    "EXPERIMENTS",
]


def replica_seed(base_seed: int, replica: int) -> np.random.SeedSequence:
    """Independent, reproducible stream for one replica of a run."""
    return np.random.SeedSequence(entropy=int(base_seed), spawn_key=(int(replica),))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def _write_csv(path, header, blocks):
    """Write ``header``, then one row per index of each block's equal-length columns.

    Columns go through ``tolist`` so that ints are written as ints and floats
    by their shortest round-tripping ``repr``.  ``path`` may also be a binary
    stream such as ``sys.stdout.buffer``.  Returns (path, sha256).
    """
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    for columns in blocks:
        writer.writerows(zip(*(np.asarray(c).tolist() for c in columns)))
    data = text.getvalue().encode()
    if hasattr(path, "write"):
        path.write(data)
    else:
        path = Path(path)
        path.write_bytes(data)
    return path, hashlib.sha256(data).hexdigest()


def write_acf_csv(path, curve: AcfCurve):
    if curve.stderr is None:
        return _write_csv(path, ["lag", "value"], [(curve.lags, curve.values)])
    return _write_csv(path, ["lag", "value", "stderr"],
                      [(curve.lags, curve.values, curve.stderr)])


def read_acf_csv(path) -> AcfCurve:
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header[:2] != ["lag", "value"]:
                raise ConfigError(f"{path} is not an ACF CSV (header {header})")
            has_se = len(header) > 2 and header[2] == "stderr"
            lags, values, stderr = [], [], []
            for row in reader:
                lags.append(int(row[0]))
                values.append(float(row[1]))
                if has_se:
                    stderr.append(float(row[2]))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except (StopIteration, ValueError, IndexError) as exc:
        raise ConfigError(f"malformed ACF CSV {path}: {exc}") from exc
    if not lags:
        raise ConfigError(f"ACF CSV {path} has no data rows")
    if not np.all(np.isfinite(values + stderr)):
        raise ConfigError(f"ACF CSV {path} has a non-finite value or stderr")
    try:
        return AcfCurve(
            lags=np.asarray(lags),
            values=np.asarray(values),
            kind="simulated",
            stderr=np.asarray(stderr) if stderr else None,
        )
    except DomainError as exc:
        raise ConfigError(f"malformed ACF CSV {path}: {exc}") from exc


def write_theory_csv(path, curves: list[AcfCurve]):
    return _write_csv(path, ["lag", "value", "kind"],
                      ((c.lags, c.values, [c.kind] * len(c)) for c in curves))


def _write_lengths_npy(path, logs_per_replica):
    """An (n, 2) int64 ``.npy`` of (trader_id, length), one row per logged
    metaorder, from each replica's flat log ``(lengths, offsets)`` in turn,
    written through one 1 MB buffer so that the log is never held twice in
    memory.  Returns the path and the sha256 of the bytes written."""
    rows = sum(lengths.size for lengths, _ in logs_per_replica)
    block = np.empty((1 << 16, 2), dtype=np.int64)
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        head, {"descr": block.dtype.str, "fortran_order": False, "shape": (rows, 2)})
    digest = hashlib.sha256(head.getvalue())
    with open(path, "wb") as fh:
        fh.write(head.getvalue())
        for lengths, offsets in logs_per_replica:
            for start in range(0, lengths.size, len(block)):
                part = block[:lengths.size - start]
                row = np.arange(start, start + len(part))
                part[:, 0] = np.searchsorted(offsets, row, side="right") - 1
                part[:, 1] = lengths[start:start + len(part)]
                fh.write(part)
                digest.update(part)
    return Path(path), digest.hexdigest()


def _write_signs(path, signs: np.ndarray, meta: dict):
    """Write a raw int8 sign series and its sidecar; returns (path, sha256)."""
    path = Path(path)
    signs.tofile(path)
    digest = hashlib.sha256(signs).hexdigest()
    payload = {**meta, "dtype": "int8", "length": int(signs.size), "sha256": digest}
    path.with_suffix(".json").write_text(json.dumps(payload, indent=2))
    return path, digest


# ---------------------------------------------------------------------------
# simulation runs
# ---------------------------------------------------------------------------


def theory_curves(population: Population, max_lag: int, grid: str = "geometric"):
    """Exact market curve plus, when defined, the superposition asymptote."""
    lags = (
        default_lags(max_lag)
        if grid == "geometric"
        else np.arange(1, max_lag + 1, dtype=np.int64)
    )
    curves = [exact_acf_market(population, lags)]
    try:
        curves.append(hetero_acf_asymptote(population, lags))
    except DomainError:
        pass
    return curves


def run_simulate(config, out_dir, population: Population | None = None) -> dict:
    """Run every replica of a config and write its whole run directory.

    This is the only writer of a run directory: the averaged ACF, the theory
    curves, the pooled length histogram and raw metaorder log when logged,
    the raw sign series when requested, a sidecar per artifact and
    ``manifest.json``.  Theory is evaluated first, so a config whose theory
    fails leaves no directory and simulates nothing.  Each replica's ACF is
    estimated on the dense lag grid 1..max_lag by a ``_AcfSums`` that one
    helper thread feeds chunk by chunk while ``simulate`` computes the next
    chunk; the sums are exact integers fed in order, so the curve does not
    depend on the timing.  The sign series is held whole only when
    ``save_signs`` writes it.  Each replica's flat metaorder log
    ``(lengths, offsets)`` is reduced to a count histogram before the next
    replica runs.  Every writer hashes the bytes it writes, and the sidecars
    and the manifest carry those digests.  Returns the manifest.  Its
    ``timings_s.peak_rss_mb`` is the process's ``ru_maxrss`` high-water mark,
    so a run after others in one process (a preset's cases) reports theirs
    too.

    A ``population`` passed in must be the one the config builds (equal
    ``digest()``); any other raises ConfigError before theory runs or the
    directory is created.
    """
    config, out_dir = load_config(config), Path(out_dir)
    t_start, cpu_start = time.perf_counter(), time.process_time()
    own = config.build_population()
    population_digest = own.digest()
    if population is None:
        population = own
    elif population.digest() != population_digest:
        raise ConfigError(
            f"population digest {population.digest()} is not that of the "
            f"population the config builds ({population_digest})")
    del own
    t0 = time.perf_counter()
    theory = theory_curves(population, config.max_lag, config.theory_grid)
    t_theory = time.perf_counter() - t0
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = config.digest()
    collect = config.collect_mask(population)
    curves, dists, raw_logs = [], [], []
    sign_series = {}  # name -> (path, sha256)
    selections = 0
    t_sim = t_est = 0.0
    for r in range(config.replicas):
        sums = _AcfSums(config.max_lag)
        with ThreadPoolExecutor(max_workers=1) as helper:
            pending = deque()

            def feed(chunk):
                # at most two chunks in flight: one transforming, one queued
                if len(pending) == 2:
                    pending.popleft().result()
                pending.append(helper.submit(sums.feed, chunk))

            t0 = time.perf_counter()
            out = simulate(
                population,
                config.steps,
                replica_seed(config.seed, r),
                init_mode=config.init_mode,
                collect_lengths=collect,
                keep_signs=config.save_signs,
                on_chunk=feed,
            )
            t_sim += time.perf_counter() - t0
            t0 = time.perf_counter()
            while pending:
                pending.popleft().result()
        curves.append(sums.curve())
        t_est += time.perf_counter() - t0
        selections += int(out.selection_counts.sum())
        try:
            dists.append(aggregate_metaorder_distribution(out))
        except EmptyLog:
            pass
        if config.save_lengths and collect is not False:
            raw_logs.append((out.lengths, out.offsets))
        if config.save_signs:
            path = out_dir / f"signs_r{r}.bin"
            meta = {"base_seed": config.seed, "replica": r, "config_digest": digest}
            sign_series[path.stem] = _write_signs(path, out.signs, meta)
        del out
    curve = average_curves(curves)
    lengths = EmpiricalDistribution.merge(dists) if dists else None

    tables = {"acf": write_acf_csv(out_dir / "acf.csv", curve),
              "theory": write_theory_csv(out_dir / "theory.csv", theory)}
    if lengths is not None:
        tables["lengths_hist"] = _write_csv(
            out_dir / "lengths_hist.csv", ["length", "count"],
            [(lengths.support, lengths.counts)],
        )
        if raw_logs:
            tables["metaorders"] = _write_lengths_npy(
                out_dir / "metaorders.npy", raw_logs
            )
    seeds = {
        "base": config.seed,
        "replicas": [
            {"replica": r, "spawn_key": [r]} for r in range(config.replicas)
        ],
    }
    for path, sha in tables.values():
        path.with_suffix(".json").write_text(json.dumps(
            {"config_digest": digest, "seeds": seeds, "sha256": sha}, indent=2,
        ))
    artifacts = {**tables, **sign_series}  # name -> (path, sha256)

    manifest = {
        "version": __version__,
        "label": config.label,
        "config": config.to_dict(),
        "config_digest": digest,
        "population_digest": population_digest,
        "trader_count": population.size,
        "seeds": seeds,
        "summary": {
            "steps_per_replica": config.steps,
            "replicas": config.replicas,
            "total_selections": selections,
            "metaorders_logged": lengths.total if lengths is not None else 0,
            "acf_lag1": float(curve.values[0]),
        },
        "timings_s": {
            "simulate_s": round(t_sim, 3),
            "estimate_s": round(t_est, 3),
            "theory_s": round(t_theory, 3),
            "total_s": round(time.perf_counter() - t_start, 3),
            "cpu_s": round(time.process_time() - cpu_start, 3),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        },
        "artifacts": {
            name: {"path": p.name, "sha256": sha, "bytes": p.stat().st_size}
            for name, (p, sha) in artifacts.items()
        },
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return manifest


def _case_entry(case_dir: Path, config: ExperimentConfig) -> dict:
    """The report's pointer to a preset case's run directory."""
    return {"dir": str(case_dir), "config_digest": config.digest()}


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def calibrate_curve(lags, values, mu: float = 0.8, gamma: float | None = None,
                    window=None) -> dict:
    """Fit a power law to an observed ACF and bound the splitter count below.

    With ``gamma`` given, only the prefactor is estimated (mean log-offset at
    the pinned slope); otherwise both come from the log-log fit.
    """
    lags = np.asarray(lags, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if window is None:
        window = (100.0, float(min(10_000.0, lags.max())))
    if gamma is None:
        fit = fit_powerlaw(lags, values, window=window)
        gamma_hat = fit.exponent
        prefactor = fit.prefactor
        n_points = fit.n_points
    else:
        inside = (lags >= window[0]) & (lags <= window[1]) & (values > 0.0)
        if inside.sum() < 5:
            raise DomainError("fewer than 5 usable points at the pinned slope")
        offsets = np.log(values[inside]) + gamma * np.log(lags[inside])
        gamma_hat = float(gamma)
        prefactor = float(np.exp(np.mean(offsets)))
        n_points = int(inside.sum())
    alpha = gamma_hat + 1.0
    return {
        "mu": float(mu),
        "gamma": gamma_hat,
        "alpha": alpha,
        "prefactor": prefactor,
        "window": [float(window[0]), float(window[1])],
        "n_points": n_points,
        "pinned_gamma": gamma is not None,
        "min_splitter_count": min_splitter_count(mu, alpha, prefactor),
    }


def run_calibrate(acf_path, mu: float = 0.8, gamma: float | None = None,
                  alpha: float | None = None, window=None, out=None) -> dict:
    """File-level calibration: read an ACF CSV, fit, report the count bound."""
    if alpha is not None:
        if gamma is not None:
            raise ConfigError("give either alpha or gamma, not both")
        gamma = alpha - 1.0
    curve = read_acf_csv(acf_path)
    report = calibrate_curve(curve.lags, curve.values, mu=mu, gamma=gamma,
                             window=window)
    report["inputs"] = {
        "acf_csv": str(acf_path),
        "sha256": hashlib.sha256(Path(acf_path).read_bytes()).hexdigest(),
        "rows": int(curve.lags.size),
    }
    if out is not None:
        Path(out).write_text(json.dumps(report, indent=2))
    return report


# ---------------------------------------------------------------------------
# experiment presets
# ---------------------------------------------------------------------------


# Default base seed of each seeded preset; ``run_experiment(base_seed=...)``
# (``lmfsim experiment --seed``) overrides it.
PRESET_SEEDS = {"fig3": 11_000, "fig4": 12_000, "fig5": 13_000, "fig7": 14_000,
                "bounds": 15_000}


def _case_config(label, seed, steps, replicas, max_lag, groups,
                 collect_lengths="none", **kw):
    return ExperimentConfig.from_dict(dict(
        label=label, seed=seed, steps=steps, replicas=replicas, max_lag=max_lag,
        groups=groups, collect_lengths=collect_lengths, **kw))


def _group(count, mass, law):
    """A group of ``count`` traders sharing ``mass`` equally under one law."""
    return {"count": count, "intensity": {"rule": "equal", "mass": mass}, "law": law}


def oracle_case_populations():
    """Small finite-support populations for the enumeration referee."""

    def tab(d):
        items = sorted(d.items())
        return Tabulated(
            support=np.array([k for k, _ in items]),
            probs=np.array([v for _, v in items]),
        )

    deg = Degenerate()
    cases = [
        ("single-pair-law", [(1.0, tab({2: 1.0}))]),
        ("single-mixed-12", [(1.0, tab({1: 0.5, 2: 0.5}))]),
        ("single-mixed-123", [(1.0, tab({1: 0.3, 2: 0.3, 3: 0.4}))]),
        ("pair-law-with-noise", [(0.7, tab({2: 1.0})), (0.3, deg)]),
        ("gap-support", [(0.5, tab({1: 0.5, 3: 0.5})), (0.5, deg)]),
        ("deep-tail", [(0.6, tab({1: 0.2, 2: 0.3, 4: 0.5})), (0.4, deg)]),
        ("two-splitters", [(0.4, tab({2: 0.5, 3: 0.5})), (0.6, tab({1: 0.7, 2: 0.3}))]),
        ("uniform-vs-even", [(0.5, tab({1: 0.25, 2: 0.25, 3: 0.25, 4: 0.25})),
                             (0.5, tab({2: 0.6, 4: 0.4}))]),
        ("noise-heavy", [(0.2, deg), (0.8, tab({3: 1.0}))]),
        ("three-traders", [(0.35, tab({1: 0.9, 4: 0.1})),
                           (0.35, tab({2: 0.8, 3: 0.2})), (0.3, deg)]),
        ("clone-pair", [(1 / 3, tab({1: 0.5, 2: 0.5})), (1 / 3, tab({1: 0.5, 2: 0.5})),
                        (1 / 3, tab({2: 0.5, 3: 0.5}))]),
        ("unit-tabulated", [(0.15, tab({4: 1.0})), (0.6, tab({1: 0.6, 2: 0.4})),
                            (0.25, tab({1: 1.0}))]),
    ]
    return [
        (name, Population([TraderSpec(lam, law) for lam, law in specs]))
        for name, specs in cases
    ]


def _run_case(out_dir: Path, cfg: ExperimentConfig):
    """Run a preset case into ``out_dir / label``; returns that directory, the
    population, and the sample ACF of ``acf.csv`` and the ``exact`` rows of
    ``theory.csv`` read back (shortest-repr floats, so bit for bit)."""
    case_dir, population = out_dir / cfg.label, cfg.build_population()
    run_simulate(cfg, case_dir, population)
    rows = np.genfromtxt(case_dir / "theory.csv", delimiter=",", names=True,
                         dtype=None, encoding="utf-8")
    exact = rows[rows["kind"] == "exact"]
    return (case_dir, population, read_acf_csv(case_dir / "acf.csv"),
            AcfCurve(lags=exact["lag"], values=exact["value"], kind="exact"))


def _acf_comparison(steps: int, exact: AcfCurve, curve: AcfCurve):
    """Exact-curve agreement in the region where theory dominates noise."""
    lags = exact.lags
    single_se = 1.0 / np.sqrt(steps - lags.astype(np.float64))
    region = exact.values >= 10.0 * single_se
    sim_vals = curve.values[lags - 1]
    rel = np.abs(sim_vals[region] - exact.values[region]) / exact.values[region]
    return {
        "lags_checked": int(region.sum()),
        "max_rel_err": float(rel.max()) if region.any() else None,
        "mean_rel_err": float(rel.mean()) if region.any() else None,
        "region_rule": "exact >= 10 / sqrt(steps - lag)",
    }


def _experiment_fig3(out_dir: Path, base_seed: int) -> dict:
    """Homogeneous exponential market: three decay lengths, closed-form check."""
    report = {"name": "fig3", "cases": []}
    for j, decay in enumerate((2.0, 5.0, 10.0)):
        cfg = _case_config(f"exp-decay-{decay:g}", base_seed + j, 10_000_000, 12, 600,
                           [_group(10, 1.0, {"kind": "exponential", "decay_length": decay})])
        case_dir, pop, curve, exact = _run_case(out_dir, cfg)
        prefactor, decay_time = _exponential_params(float(pop.intensities[0]), decay)
        report["cases"].append(
            {
                "label": cfg.label,
                "decay_length": decay,
                "market_prefactor": float(prefactor) * pop.size,
                "decay_time": float(decay_time),
                "comparison": _acf_comparison(cfg.steps, exact, curve),
                "manifest": _case_entry(case_dir, cfg),
            }
        )
    return report


def _fig4_entry(out_dir: Path, cfg, mu, alpha, splitter_count) -> dict:
    case_dir, pop, curve, _ = _run_case(out_dir, cfg)
    window = (100.0, 10_000.0)
    fit = fit_acf_powerlaw(curve, window)
    entry = {
        "label": cfg.label,
        "mu": mu,
        "alpha": alpha,
        "splitter_count": splitter_count,
        "window": list(window),
        "fitted_exponent": fit.exponent,
        "fitted_prefactor": fit.prefactor,
        "n_fit_points": fit.n_points,
        "manifest": _case_entry(case_dir, cfg),
    }
    if 1.0 < alpha < 2.0:
        c0 = prefactor_hetero(pop.intensities[splitter_ids(pop)], alpha)
        entry["expected_exponent"] = alpha - 1.0
        entry["expected_prefactor"] = c0
        entry["prefactor_ratio"] = fit.prefactor / c0
    return entry


def _experiment_fig4(out_dir: Path, base_seed: int) -> dict:
    """Pareto splitters plus noise traders: quantitative and qualitative cells."""
    report = {"name": "fig4", "cases": [], "qualitative": []}
    for j, mu in enumerate((1.0, 0.85, 0.7)):
        groups = [_group(10, mu, {"kind": "pareto", "alpha": 1.5})]
        if mu < 1.0:
            groups.append(_group(1, round(1.0 - mu, 12), {"kind": "degenerate"}))
        cfg = _case_config(f"pareto-mu-{mu}", base_seed + j, 10_000_000, 12, 10_000, groups)
        report["cases"].append(_fig4_entry(out_dir, cfg, mu, 1.5, 10))
    for j, (alpha, count) in enumerate(((1.5, 100), (2.5, 10))):
        cfg = _case_config(f"pareto-alpha-{alpha}-m-{count}", base_seed + 100 + j,
                           4_000_000, 2, 10_000,
                           [_group(count, 1.0, {"kind": "pareto", "alpha": alpha})])
        report["qualitative"].append(_fig4_entry(out_dir, cfg, 1.0, alpha, count))
    return report


def _experiment_fig5(out_dir: Path, base_seed: int) -> dict:
    """1000 equal-intensity exponential splitters with allocated decay lengths.

    The superposition scaling regime opens at lags around M (each trader is
    touched once per M steps on average), so the fit window sits at
    [2e3, 1e5]; below that the exact curve is still on its shoulder.
    """
    report = {"name": "fig5", "cases": []}
    for j, theta in enumerate((1.5, 2.5)):
        quantitative = 1.0 < theta < 2.0
        window = (2_000.0, 100_000.0 if quantitative else 20_000.0)
        law = {"kind": "exponential", "decay_length": {"rule": "pareto", "theta": theta}}
        cfg = _case_config(f"decay-superposition-theta-{theta}", base_seed + j,
                           10_000_000, 10, 100_000, [_group(1000, 1.0, law)],
                           collect_lengths="all", save_lengths=False)
        case_dir, pop, curve, _ = _run_case(out_dir, cfg)
        hist = np.loadtxt(case_dir / "lengths_hist.csv", np.int64, delimiter=",",
                          skiprows=1, ndmin=2)
        dist = EmpiricalDistribution(support=hist[:, 0], counts=hist[:, 1])
        acf_fit = fit_acf_powerlaw(curve, window)
        max_len = int(dist.support.max())
        pdf_window = (10.0, float(min(1000, max(20, max_len // 10))))
        pdf_fit = fit_distribution_tail(dist, pdf_window)
        entry = {
            "label": cfg.label,
            "theta": theta,
            "acf_window": list(window),
            "acf_exponent": acf_fit.exponent,
            "acf_prefactor": acf_fit.prefactor,
            "pdf_window": list(pdf_window),
            "pdf_exponent": pdf_fit.exponent,
            "metaorders": dist.total,
            "expected_acf_exponent": theta - 1.0,
            "expected_pdf_exponent": theta + 1.0,
            "within_validity": quantitative,
            "manifest": _case_entry(case_dir, cfg),
        }
        if quantitative:
            q0 = superposition_prefactor(pop.intensities, theta)
            entry["expected_acf_prefactor"] = q0
            entry["acf_prefactor_ratio"] = acf_fit.prefactor / q0
        report["cases"].append(entry)
    return report


def _experiment_fig7(out_dir: Path, base_seed: int) -> dict:
    """1000 exponential splitters with power-law intensity profiles.

    Normalising the intensities to unit total mass stretches every trader
    clock by intensity_rescale_factor (about 10 here), so the asymptote's
    reference window [10, 1e3] maps to [10 s, 1e3 s] in simulation lags.
    The quantitative cell fits there; the other cells report raw windows.
    """
    report = {"name": "fig7", "cases": []}
    for j, (beta, decay) in enumerate(((0.5, 10.0), (0.5, 100.0),
                                       (-0.5, 10.0), (-0.5, 100.0))):
        quantitative = beta == 0.5 and decay == 10.0
        if quantitative:
            s = intensity_rescale_factor(1000, beta, 1e-4, 1.0)
            window = (10.0 * s, 1_000.0 * s)
            replicas, max_lag = 32, 11_000
        else:
            window = (10.0, 1_000.0)
            replicas, max_lag = 4, 2_000
        group = {
            "count": 1000,
            "intensity": {"rule": "pareto", "mass": 1.0, "beta": beta, "lambda_cut": 1e-4},
            "law": {"kind": "exponential", "decay_length": decay},
        }
        cfg = _case_config(f"intensity-superposition-beta-{beta}-decay-{decay}",
                           base_seed + j, 10_000_000, replicas, max_lag, [group])
        case_dir, _, curve, exact = _run_case(out_dir, cfg)
        fit = fit_acf_powerlaw(curve, window)
        exact_fit = fit_acf_powerlaw(exact, window)
        entry = {
            "label": cfg.label,
            "beta": beta,
            "decay_length": decay,
            "quantitative": quantitative,
            "window": list(window),
            "fitted_exponent": fit.exponent,
            "exact_curve_exponent": exact_fit.exponent,
            "manifest": _case_entry(case_dir, cfg),
        }
        if beta > 0:
            entry["expected_exponent"] = 2.0 - beta
        report["cases"].append(entry)
    return report


def _experiment_bounds(out_dir: Path, base_seed: int) -> dict:
    rng = np.random.default_rng(base_seed)
    alphas = (1.1, 1.3, 1.5, 1.7, 1.9)
    n_vectors = 10_000
    violations = 0
    ratio_dev = 0.0
    worst = None
    for k in range(n_vectors):
        m = int(rng.integers(2, 101))
        mu = float(rng.uniform(0.05, 1.0))
        lam = rng.dirichlet(np.ones(m))
        lam = np.maximum(lam, 1e-15)
        lam *= mu / lam.sum()
        alpha = alphas[k % len(alphas)]
        try:
            rep = prefactor_bounds(lam, alpha)
        except LmfsimError:
            violations += 1
            continue
        target = alpha * math.gamma(alpha)
        dev = abs(rep.q0_over_c0 - target) / target
        if dev > ratio_dev:
            ratio_dev = dev
            worst = {"alpha": alpha, "m": m, "mu": mu}
    equality_ok = 0
    homogeneous_cases = 0
    for m in (1, 2, 5, 10, 100):
        for alpha in alphas:
            rep = prefactor_bounds(np.full(m, 0.8 / m), alpha)
            homogeneous_cases += 1
            equality_ok += int(rep.is_homogeneous_equality)
    return {
        "name": "bounds",
        "vectors": n_vectors,
        "violations": violations,
        "ratio_max_rel_dev": ratio_dev,
        "ratio_worst_case": worst,
        "equality_cases": homogeneous_cases,
        "equality_detected": equality_ok,
    }


def _experiment_oracle(out_dir: Path, base_seed=None) -> dict:
    lags = np.arange(1, 51)
    report = {"name": "oracle", "cases": [], "max_abs_diff": 0.0,
              "max_marginal_diff": 0.0}
    for name, pop in oracle_case_populations():
        oracle = build_oracle(pop)
        oracle_curve = oracle.acf(lags)
        exact = exact_acf_market(pop, lags)
        diff = float(np.max(np.abs(oracle_curve.values - exact.values)))
        marg = 0.0
        for i, trader in enumerate(pop.traders):
            marginal = oracle.remaining_marginal(i)
            r = np.arange(1, marginal.size + 1)
            marg = max(
                marg,
                float(np.max(np.abs(marginal - trader.law.stationary_remaining_pdf(r)))),
            )
        report["cases"].append(
            {"case": name, "states": int(oracle.stationary.size),
             "max_abs_diff": diff, "max_marginal_diff": marg}
        )
        report["max_abs_diff"] = max(report["max_abs_diff"], diff)
        report["max_marginal_diff"] = max(report["max_marginal_diff"], marg)
    return report


EXPERIMENTS = {
    "fig3": _experiment_fig3,
    "fig4": _experiment_fig4,
    "fig5": _experiment_fig5,
    "fig7": _experiment_fig7,
    "bounds": _experiment_bounds,
    "oracle": _experiment_oracle,
}


def run_experiment(name: str, out_dir, base_seed: int | None = None) -> dict:
    """Run one named experiment preset; writes report.json under out_dir/name."""
    if name not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        )
    if base_seed is not None and base_seed < 0:
        raise ConfigError(f"base seed must be >= 0, got {base_seed}")
    out = Path(out_dir) / name
    out.mkdir(parents=True, exist_ok=True)
    if base_seed is None:
        base_seed = PRESET_SEEDS.get(name)
    report = EXPERIMENTS[name](out, base_seed)
    (out / "report.json").write_text(json.dumps(report, indent=2))
    return report
