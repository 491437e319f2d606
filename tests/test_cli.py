"""Runner artifacts, determinism, calibration, CLI exit codes."""

import csv
import hashlib
import json
import threading

import numpy as np
import pytest

import lmfsim
from lmfsim import (
    DiscretePareto,
    Population,
    TraderSpec,
    calibrate_curve,
    prefactor_hetero,
    prefactor_homogeneous,
    replica_seed,
    run_simulate,
)
from lmfsim import engine, stats
from lmfsim.cli import EXIT_CONFIG, EXIT_MODEL, EXIT_OK, main
from lmfsim.engine import simulate
from lmfsim.errors import ConfigError, DomainError
from lmfsim.laws import Exponential, Tabulated
from lmfsim.runner import (
    _case_entry,
    _run_case,
    _write_lengths_npy,
    read_acf_csv,
    run_calibrate,
    theory_curves,
    write_acf_csv,
)
from lmfsim.config import load_config
from lmfsim.stats import acf_estimate, average_curves
from lmfsim.theory import AcfCurve, default_lags


def minimal_config(**overrides):
    d = {
        "label": "minimal",
        "steps": 10_000,
        "seed": 4321,
        "max_lag": 100,
        "groups": [
            {"count": 1, "intensity": {"rule": "equal", "mass": 1.0},
             "law": {"kind": "degenerate"}}
        ],
    }
    d.update(overrides)
    return d


class TestReplicaSeed:
    def test_deterministic_and_distinct(self):
        a = np.random.default_rng(replica_seed(5, 0)).integers(0, 2**31, 8)
        b = np.random.default_rng(replica_seed(5, 0)).integers(0, 2**31, 8)
        c = np.random.default_rng(replica_seed(5, 1)).integers(0, 2**31, 8)
        d = np.random.default_rng(replica_seed(6, 0)).integers(0, 2**31, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestAcfCsv:
    def test_round_trip_with_stderr(self, tmp_path):
        curve = AcfCurve(
            lags=np.array([1, 2, 5]),
            values=np.array([0.25, 0.1, 1e-17]),
            kind="simulated",
            stderr=np.array([0.01, 0.01, 0.02]),
        )
        path, _ = write_acf_csv(tmp_path / "acf.csv", curve)
        back = read_acf_csv(path)
        assert np.array_equal(back.lags, curve.lags)
        assert np.array_equal(back.values, curve.values)  # repr survives exactly
        assert np.array_equal(back.stderr, curve.stderr)

    def test_round_trip_without_stderr(self, tmp_path):
        curve = AcfCurve(lags=np.array([1, 2]), values=np.array([0.5, 0.25]),
                         kind="exact")
        path, _ = write_acf_csv(tmp_path / "t.csv", curve)
        back = read_acf_csv(path)
        assert back.stderr is None
        assert np.array_equal(back.values, curve.values)

    def test_rejects_non_acf_files(self, tmp_path):
        bad = tmp_path / "junk.csv"
        bad.write_text("foo,bar\n1,2\n")
        with pytest.raises(ConfigError):
            read_acf_csv(bad)
        with pytest.raises(ConfigError):
            read_acf_csv(tmp_path / "absent.csv")
        short = tmp_path / "short.csv"
        short.write_text("lag,value\n1,notanumber\n")
        with pytest.raises(ConfigError):
            read_acf_csv(short)
        for i, rows in enumerate(["1,0.5\n2,1.5\n", "1,0.5\n2,inf\n",
                                  "1,0.5\n2,nan\n", "2,0.5\n1,0.25\n"]):
            bad = tmp_path / f"bad{i}.csv"
            bad.write_text("lag,value\n" + rows)
            with pytest.raises(ConfigError):
                read_acf_csv(bad)
        with_se = tmp_path / "se.csv"
        with_se.write_text("lag,value,stderr\n1,0.5,nan\n")
        with pytest.raises(ConfigError):
            read_acf_csv(with_se)


class TestTheoryCurves:
    def test_exact_plus_asymptote(self):
        pop = Population([TraderSpec(1.0, DiscretePareto(tail_exponent=1.5))])
        curves = theory_curves(pop, 100)
        assert [c.kind for c in curves] == ["exact", "asymptotic"]

    def test_tabulated_market_has_no_asymptote(self):
        pop = Population([
            TraderSpec(1.0, Tabulated(support=[1, 2], probs=[0.5, 0.5]))
        ])
        curves = theory_curves(pop, 50, grid="dense")
        assert [c.kind for c in curves] == ["exact"]
        assert curves[0].lags.tolist() == list(range(1, 51))


class TestRunSimulate:
    def test_minimal_config_artifacts(self, tmp_path):
        manifest = run_simulate(minimal_config(), tmp_path)
        # i.i.d. market: every lag within 4/sqrt(T) of zero
        curve = read_acf_csv(tmp_path / "acf.csv")
        assert curve.lags.size == 100
        assert np.max(np.abs(curve.values)) < 4 / np.sqrt(10_000)
        # every indexed artifact exists, hash matches, sidecar agrees
        for name, entry in manifest["artifacts"].items():
            path = tmp_path / entry["path"]
            assert path.exists()
            assert hashlib.sha256(path.read_bytes()).hexdigest() == entry["sha256"]
            if path.suffix == ".csv":
                sidecar = json.loads(path.with_suffix(".json").read_text())
                assert sidecar["config_digest"] == manifest["config_digest"]
                assert sidecar["sha256"] == entry["sha256"]
                assert sidecar["seeds"]["base"] == 4321
        assert manifest["summary"]["total_selections"] == 10_000
        # degenerate trader never logs lengths
        assert "lengths_hist" not in manifest["artifacts"]
        timings = manifest["timings_s"]
        assert set(timings) == {"simulate_s", "estimate_s", "theory_s", "total_s",
                                "cpu_s", "peak_rss_mb"}
        assert timings["cpu_s"] > 0.0 and timings["peak_rss_mb"] > 0.0

    def test_rerun_is_byte_identical(self, tmp_path):
        m1 = run_simulate(minimal_config(label="twin"), tmp_path / "a")
        m2 = run_simulate(minimal_config(label="twin"), tmp_path / "b")
        assert m1["config_digest"] == m2["config_digest"]
        for name in ("acf.csv", "theory.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
        for name, entry in m1["artifacts"].items():
            assert m2["artifacts"][name]["sha256"] == entry["sha256"]

    def test_manifest_version_is_the_package_version(self, tmp_path):
        # a source checkout has no installed metadata: the manifest must
        # still name the version the package declares
        manifest = run_simulate(minimal_config(), tmp_path)
        assert manifest["version"] == lmfsim.__version__
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["version"] == lmfsim.__version__

    def test_save_signs_sidecar(self, tmp_path):
        cfg = minimal_config(save_signs=True, steps=2000, max_lag=50)
        manifest = run_simulate(cfg, tmp_path)
        raw = (tmp_path / "signs_r0.bin").read_bytes()
        sidecar = json.loads((tmp_path / "signs_r0.json").read_text())
        assert sidecar["length"] == 2000 and sidecar["dtype"] == "int8"
        assert sidecar["sha256"] == hashlib.sha256(raw).hexdigest()
        assert sidecar["config_digest"] == manifest["config_digest"]
        signs = np.frombuffer(raw, dtype=np.int8)
        assert set(np.unique(signs)) <= {-1, 1}

    def test_splitter_run_writes_length_artifacts(self, tmp_path):
        cfg = minimal_config(groups=[
            {"count": 2, "intensity": {"rule": "equal", "mass": 1.0},
             "law": {"kind": "exponential", "decay_length": 3.0}}
        ])
        manifest = run_simulate(cfg, tmp_path)
        assert "lengths_hist" in manifest["artifacts"]
        assert "metaorders" in manifest["artifacts"]
        rows = (tmp_path / "lengths_hist.csv").read_text().strip().splitlines()
        assert rows[0] == "length,count"
        assert manifest["summary"]["metaorders_logged"] > 0

    def test_replica_averaging_shrinks_error(self, tmp_path):
        # i.i.d. market: the true ACF is 0, so the RMS across lags measures
        # estimator noise; quadrupling the replicas should halve it
        base = minimal_config(steps=4000, max_lag=40)
        rms = {}
        for k in (2, 8):
            cfg = load_config({**base, "replicas": k})
            run_simulate(cfg, tmp_path / f"r{k}")
            curve = read_acf_csv(tmp_path / f"r{k}" / "acf.csv")
            rms[k] = float(np.sqrt(np.mean(curve.values ** 2)))
            # the attached stderr scales exactly as 1/sqrt(k)
            lone = acf_estimate(
                simulate(cfg.build_population(), 4000, replica_seed(4321, 0)), 40
            )
            assert np.allclose(curve.stderr,
                               lone.stderr / np.sqrt(k), rtol=1e-12)
        ratio = rms[2] / rms[8]
        assert 2.0 / 1.3 < ratio < 2.0 * 1.3


def readme_config(**overrides):
    """The README's run config, shortened; ``_CHUNK`` patched small gives many chunks."""
    return {**minimal_config(
        label="readme", steps=300_000, seed=11000, max_lag=600, replicas=2,
        groups=[{"count": 10, "intensity": {"rule": "equal", "mass": 1.0},
                 "law": {"kind": "exponential", "decay_length": 5.0}}],
    ), **overrides}


class TestStreamedAcf:
    """The runner feeds each replica's ACF sums chunk by chunk from a helper thread."""

    def test_acf_csv_equals_the_serial_estimate(self, tmp_path, monkeypatch):
        monkeypatch.setattr(engine, "_CHUNK", 10_007)
        cfg = load_config(readme_config())
        run_simulate(cfg, tmp_path / "run")
        pop = cfg.build_population()
        serial = average_curves([
            acf_estimate(simulate(pop, cfg.steps, replica_seed(cfg.seed, r)).signs,
                         cfg.max_lag)
            for r in range(cfg.replicas)])
        path, _ = write_acf_csv(tmp_path / "serial.csv", serial)
        assert (tmp_path / "run" / "acf.csv").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("failing_feed", [0, 59])
    def test_a_failed_feed_propagates_and_stops_the_helper(self, tmp_path,
                                                          monkeypatch, failing_feed):
        # of the 2 x 30 chunks, a failed first feed is seen while simulating,
        # a failed last one in the wait after the last simulate returns
        monkeypatch.setattr(engine, "_CHUNK", 10_007)
        error = DomainError("feed failed")
        original, calls = stats._AcfSums.feed, []

        def feed(self, chunk):
            calls.append(chunk.size)
            if len(calls) > failing_feed:
                raise error
            original(self, chunk)

        monkeypatch.setattr(stats._AcfSums, "feed", feed)
        threads = threading.active_count()
        with pytest.raises(DomainError) as caught:
            run_simulate(readme_config(), tmp_path)
        assert caught.value is error
        assert threading.active_count() == threads
        assert not (tmp_path / "manifest.json").exists()

    def test_saved_signs_equal_the_simulated_series(self, tmp_path, monkeypatch):
        monkeypatch.setattr(engine, "_CHUNK", 10_007)
        cfg = load_config(readme_config(save_signs=True))
        manifest = run_simulate(cfg, tmp_path)
        pop = cfg.build_population()
        for r in range(cfg.replicas):
            signs = simulate(pop, cfg.steps, replica_seed(cfg.seed, r)).signs
            raw = (tmp_path / f"signs_r{r}.bin").read_bytes()
            assert raw == signs.tobytes()
            assert manifest["artifacts"][f"signs_r{r}"]["sha256"] == \
                hashlib.sha256(raw).hexdigest()


def per_row_lengths_csv(path, logs_per_replica):
    """Referee for the metaorder log: one csv.writerow call per metaorder of
    each replica's per-trader lists."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trader_id", "length"])
        for logs in logs_per_replica:
            for trader, lengths in enumerate(logs):
                for length in lengths:
                    writer.writerow([trader, int(length)])


class TestRunDirectory:
    def test_lengths_npy_matches_per_row_writer(self, tmp_path):
        pop = Population([TraderSpec(0.5, Exponential(decay_length=3.0)),
                          TraderSpec(0.2, Tabulated(support=[1], probs=[1.0])),
                          TraderSpec(0.3, DiscretePareto(tail_exponent=1.5))])
        logs = []
        for r in range(2):
            out = simulate(pop, 20_000, replica_seed(3, r))
            logs.append(np.split(out.lengths, out.offsets[1:-1]))
        # a trader with no logged metaorder contributes no rows, and neither
        # does a replica in which no trader logged one
        empty = np.array([], dtype=np.int64)
        logs.append([logs[0][0], empty, logs[1][2]])
        logs.append([empty, empty, empty])
        # past 2**16 traders, many of them empty, over more than one buffer
        rng = np.random.default_rng(5)
        logs.append([rng.integers(1, 1 << 40, size=k)
                     for k in rng.integers(0, 3, size=70_000)])
        flat = [(np.concatenate(r), np.cumsum([0, *(log.size for log in r)]))
                for r in logs]
        per_row_lengths_csv(tmp_path / "reference.csv", logs)
        path, sha = _write_lengths_npy(tmp_path / "metaorders.npy", flat)
        assert sha == hashlib.sha256(path.read_bytes()).hexdigest()
        table = np.load(path, allow_pickle=False)
        reference = np.loadtxt(tmp_path / "reference.csv", delimiter=",",
                               skiprows=1, dtype=np.int64, ndmin=2)
        assert table.dtype == np.int64
        assert table.shape == (sum(log.size for r in logs for log in r), 2)
        assert table.shape[0] > 1 << 16
        assert table[-1, 0] >= 1 << 16
        assert np.array_equal(table, reference)

    def test_lengths_npy_writer_peak_memory(self, tmp_path, traced_peak):
        # 1e6 rows over 10 traders, the log being the flat (lengths,
        # offsets) pair simulate returns.  A writer that builds the (n, 2)
        # table first peaks at 1.5x its bytes and raises the peak memory of
        # a default run; rows must go out through a small buffer instead
        lengths = np.arange(1, 1_000_001, dtype=np.int64)
        logs = [(lengths, np.arange(11) * 100_000)]
        table_bytes = lengths.size * 2 * 8
        _, peak = traced_peak(
            lambda: _write_lengths_npy(tmp_path / "metaorders.npy", logs))
        assert peak < 0.25 * table_bytes, peak / table_bytes
        # every trader's log spans several buffer fills
        table = np.load(tmp_path / "metaorders.npy", allow_pickle=False)
        assert np.array_equal(table[:, 0], np.repeat(np.arange(10), 100_000))
        assert np.array_equal(table[:, 1], lengths)

    def test_experiment_case_writes_a_full_run_directory(self, tmp_path):
        cfg = load_config(minimal_config(
            label="exp-decay-2", steps=20_000, replicas=2, max_lag=600,
            collect_lengths="all",
            groups=[{"count": 10, "intensity": {"rule": "equal", "mass": 1.0},
                     "law": {"kind": "exponential", "decay_length": 2.0}}],
        ))
        case_dir, pop, curve, exact = _run_case(tmp_path, cfg)
        entry = _case_entry(case_dir, cfg)
        assert entry["dir"] == str(tmp_path / cfg.label)
        manifest = json.loads((case_dir / "manifest.json").read_text())
        assert manifest["config_digest"] == entry["config_digest"] == cfg.digest()
        assert set(manifest["artifacts"]) == {"acf", "theory", "lengths_hist",
                                              "metaorders"}
        for name, artifact in manifest["artifacts"].items():
            path = case_dir / artifact["path"]
            sha = hashlib.sha256(path.read_bytes()).hexdigest()
            sidecar = json.loads(path.with_suffix(".json").read_text())
            assert sidecar["sha256"] == artifact["sha256"] == sha
            assert sidecar["config_digest"] == manifest["config_digest"]
        # the curves the report uses are read back bit for bit: the exact
        # curve of the population on the default grid, and the sample ACF
        assert np.array_equal(exact.lags, default_lags(cfg.max_lag))
        assert np.array_equal(exact.values, theory_curves(pop, cfg.max_lag)[0].values)
        assert curve.lags.size == cfg.max_lag
        assert curve.values[0] == manifest["summary"]["acf_lag1"]
        rows = (case_dir / "theory.csv").read_text().splitlines()[1:len(exact) + 1]
        assert rows == [f"{lag},{val!r},exact"
                        for lag, val in zip(exact.lags.tolist(), exact.values.tolist())]
        # the histogram pools the lengths of the raw metaorder log
        hist = np.loadtxt(case_dir / "lengths_hist.csv", np.int64, delimiter=",",
                          skiprows=1, ndmin=2)
        support, counts = np.unique(np.load(case_dir / "metaorders.npy")[:, 1],
                                    return_counts=True)
        assert np.array_equal(hist[:, 0], support)
        assert np.array_equal(hist[:, 1], counts)
        assert manifest["summary"]["metaorders_logged"] == counts.sum()
        assert manifest["population_digest"] == pop.digest()


class TestCalibration:
    def test_recovers_synthetic_count(self):
        lags = np.arange(1, 10_001, dtype=np.float64)
        c0 = prefactor_homogeneous(0.8, 50, 1.5)
        report = calibrate_curve(lags, c0 * lags**-0.5)
        assert report["gamma"] == pytest.approx(0.5, abs=1e-6)
        assert report["alpha"] == pytest.approx(1.5, abs=1e-6)
        assert report["min_splitter_count"] == pytest.approx(50, rel=0.02)
        assert not report["pinned_gamma"]
        assert report["mu"] == 0.8

    def test_pinned_gamma_skips_slope_fit(self):
        lags = np.arange(1, 5001, dtype=np.float64)
        c0 = prefactor_homogeneous(0.8, 20, 1.5)
        report = calibrate_curve(lags, c0 * lags**-0.5, gamma=0.5)
        assert report["pinned_gamma"]
        assert report["gamma"] == 0.5
        assert report["min_splitter_count"] == pytest.approx(20, rel=1e-6)

    def test_heterogeneous_bound_is_conservative(self):
        rng = np.random.default_rng(17)
        lam = rng.dirichlet(np.ones(40)) * 0.8
        c0 = prefactor_hetero(lam, 1.5)
        lags = np.arange(1, 10_001, dtype=np.float64)
        report = calibrate_curve(lags, c0 * lags**-0.5)
        assert report["min_splitter_count"] <= 40 * 1.001

    def test_run_calibrate_file_io(self, tmp_path):
        lags = np.arange(1, 2001)
        c0 = prefactor_homogeneous(0.8, 10, 1.5)
        curve = AcfCurve(lags=lags, values=c0 * lags**-0.5, kind="simulated")
        acf_path, _ = write_acf_csv(tmp_path / "obs.csv", curve)
        out = tmp_path / "report.json"
        report = run_calibrate(acf_path, mu=0.8, out=out)
        assert report["min_splitter_count"] == pytest.approx(10, rel=0.02)
        assert report["inputs"]["rows"] == 2000
        assert json.loads(out.read_text())["alpha"] == pytest.approx(
            report["alpha"])

    def test_alpha_and_gamma_conflict(self, tmp_path):
        lags = np.arange(1, 2001)
        curve = AcfCurve(lags=lags, values=1.0 * lags**-0.5, kind="simulated")
        path, _ = write_acf_csv(tmp_path / "o.csv", curve)
        with pytest.raises(ConfigError):
            run_calibrate(path, gamma=0.5, alpha=1.5)
        # alpha alone is shorthand for gamma = alpha - 1
        report = run_calibrate(path, alpha=1.5)
        assert report["gamma"] == 0.5 and report["pinned_gamma"]


class TestCliExitCodes:
    def test_simulate_ok_and_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(minimal_config(steps=2000, max_lag=50)))
        assert main(["simulate", str(cfg_path), "-o", str(tmp_path / "out")]) \
            == EXIT_OK
        assert (tmp_path / "out" / "manifest.json").exists()
        assert main(["simulate", str(tmp_path / "absent.json"),
                     "-o", str(tmp_path / "out2")]) == EXIT_CONFIG
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_config(steps=10)))
        assert main(["simulate", str(bad), "-o", str(tmp_path / "out3")]) \
            == EXIT_CONFIG

    def test_theory_stdout(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(minimal_config()))
        assert main(["theory", str(cfg_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("lag,value,kind")
        assert ",exact" in out

    def test_theory_to_file(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(minimal_config()))
        dest = tmp_path / "theory.csv"
        assert main(["theory", str(cfg_path), "-o", str(dest)]) == EXIT_OK
        assert dest.read_text().startswith("lag,value,kind")

    def test_theory_stdout_carries_the_file_bytes(self, tmp_path, capsysbinary):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(minimal_config(groups=[
            {"count": 1, "intensity": {"rule": "equal", "mass": 1.0},
             "law": {"kind": "pareto", "alpha": 1.5}}])))
        dest = tmp_path / "theory.csv"
        assert main(["theory", str(cfg_path), "-o", str(dest)]) == EXIT_OK
        capsysbinary.readouterr()
        assert main(["theory", str(cfg_path)]) == EXIT_OK
        assert capsysbinary.readouterr().out == dest.read_bytes()

    def test_calibrate_acf_without_rows_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        path.write_text("lag,value\n")
        assert main(["calibrate", str(path)]) == EXIT_CONFIG
        assert "no data rows" in capsys.readouterr().err

    def test_calibrate_malformed_acf_is_a_config_error(self, tmp_path, capsys):
        # a valid curve with one value outside [-1, 1] appended
        lags = np.arange(1, 2001)
        curve = AcfCurve(lags=lags, values=0.3 * lags**-0.5, kind="simulated")
        path, _ = write_acf_csv(tmp_path / "obs.csv", curve)
        path.write_text(path.read_text() + "2001,1.5\n")
        assert main(["calibrate", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_calibrate_cli(self, tmp_path, capsys):
        lags = np.arange(1, 2001)
        c0 = prefactor_homogeneous(0.8, 10, 1.5)
        curve = AcfCurve(lags=lags, values=c0 * lags**-0.5, kind="simulated")
        path, _ = write_acf_csv(tmp_path / "obs.csv", curve)
        assert main(["calibrate", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["min_splitter_count"] == pytest.approx(10, rel=0.02)
        # conflicting pins exit with the config code
        assert main(["calibrate", str(path), "--gamma", "0.5",
                     "--alpha", "1.5"]) == EXIT_CONFIG

    def test_model_error_exit_code(self, tmp_path):
        # a fit with too few usable points is a model-level failure
        curve = AcfCurve(lags=np.arange(1, 2001),
                         values=np.full(2000, -1.0), kind="simulated")
        path, _ = write_acf_csv(tmp_path / "neg.csv", curve)
        assert main(["calibrate", str(path)]) == EXIT_MODEL

    @pytest.mark.parametrize("break_config", [
        lambda d: d.update(steps="ten"),
        lambda d: d["groups"][0].update(count="x"),
        lambda d: d["groups"][0].update(
            count=2, intensity={"rule": "explicit", "values": ["a", 1]}),
        lambda d: d["groups"][0].update(law={"kind": "exponential"}),
        lambda d: d.update(groups=5),
        lambda d: d["groups"][0].update(intensity="x"),
        lambda d: d["groups"][0].update(intensity=5),
        lambda d: d.update(save_signs="no"),
        lambda d: d.update(seed=-1),
        lambda d: d.update(steps=20000.5),
        lambda d: d.update(max_lag=99.9),
        lambda d: d["groups"][0].update(count=2.5),
        lambda d: d["groups"][0].update(count=True),
        lambda d: d.update(replicas=True),
        lambda d: d.update(steps=1e400),
        lambda d: d["groups"][0].update(intensity={"rule": "equal", "mass": True}),
        lambda d: d["groups"][0].update(
            law={"kind": "exponential", "decay_length": True}),
        lambda d: d["groups"][0].update(law={"kind": "pareto", "alpha": True}),
        lambda d: d["groups"][0].update(law={
            "kind": "exponential", "decay_length": {"rule": "pareto", "theta": True}}),
        lambda d: d["groups"][0].update(law={"kind": "tabulated", "pmf": [[True, 1.0]]}),
        lambda d: d["groups"][0].update(law={"kind": "tabulated", "pmf": [[2, True]]}),
        lambda d: d.update(steps="20000"),
        lambda d: d.update(seed="1"),
        lambda d: d.update(replicas="2"),
        lambda d: d["groups"][0].update(count="2"),
        lambda d: d["groups"][0].update(intensity={"rule": "equal", "mass": "1.0"}),
        lambda d: d["groups"][0].update(
            count=2, intensity={"rule": "explicit", "values": ["0.5", "0.5"]}),
        lambda d: d["groups"][0].update(
            law={"kind": "exponential", "decay_length": "5"}),
        lambda d: d["groups"][0].update(law={"kind": "pareto", "alpha": "1.5"}),
        lambda d: d["groups"][0].update(law={
            "kind": "exponential", "decay_length": {"rule": "pareto", "theta": "1.5"}}),
        lambda d: d["groups"][0].update(law={"kind": "tabulated", "pmf": [[2, "1.0"]]}),
        lambda d: d.update(label=5),
        lambda d: d.update(label=None),
        lambda d: d.update(label=True),
        lambda d: d.update(label={"a": 1}),
    ], ids=["steps-not-a-number", "count-not-a-number",
            "explicit-intensity-not-a-number", "law-missing-decay-length",
            "groups-not-a-list", "intensity-a-string", "intensity-a-number",
            "save-signs-not-a-boolean", "seed-negative", "steps-fractional",
            "max-lag-fractional", "count-fractional", "count-a-boolean",
            "replicas-a-boolean", "steps-infinite", "mass-a-boolean",
            "decay-length-a-boolean", "alpha-a-boolean", "theta-a-boolean",
            "pmf-support-a-boolean", "pmf-probability-a-boolean",
            "steps-a-string", "seed-a-string", "replicas-a-string", "count-a-string",
            "mass-a-string", "explicit-intensity-a-string", "decay-length-a-string",
            "alpha-a-string", "theta-a-string", "pmf-probability-a-string",
            "label-a-number", "label-null", "label-a-boolean", "label-an-object"])
    def test_malformed_config_exits_with_the_config_code(self, tmp_path, capsys,
                                                        break_config):
        d = minimal_config()
        break_config(d)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        assert main(["simulate", str(bad), "-o", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_experiment_seed_exits_with_the_config_code(self, tmp_path,
                                                                 capsys):
        assert main(["experiment", "bounds", "--seed", "-1",
                     "-o", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_experiment_oracle(self, tmp_path, capsys):
        # the enumeration referee against the exact ACF and the stationary
        # remaining-volume laws, through the CLI
        assert main(["experiment", "oracle", "-o", str(tmp_path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report == json.loads((tmp_path / "oracle" / "report.json").read_text())
        assert report["cases"]
        assert report["max_abs_diff"] < 1e-10
        assert report["max_marginal_diff"] < 1e-10

    def test_foreign_population_exits_before_any_directory(self, tmp_path,
                                                           monkeypatch, capsys):
        # the config builds one unit-length trader; a run handed an
        # exponential trader instead must not write a manifest claiming the config
        def with_foreign_population(config, out_dir):
            foreign = Population([TraderSpec(1.0, Exponential(decay_length=5.0))])
            return run_simulate(config, out_dir, population=foreign)

        monkeypatch.setattr("lmfsim.cli.run_simulate", with_foreign_population)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(minimal_config()))
        out = tmp_path / "out"
        assert main(["simulate", str(cfg_path), "-o", str(out)]) == EXIT_CONFIG
        assert "population" in capsys.readouterr().err
        assert not out.exists()
        # the config's own population, built apart, is accepted
        own = load_config(str(cfg_path)).build_population()
        manifest = run_simulate(str(cfg_path), out, population=own)
        assert manifest["population_digest"] == own.digest()

    def test_theory_failure_exits_before_any_replica(self, tmp_path, monkeypatch):
        # a fresh-draw start can simulate a Pareto law without a mean, but
        # its exact curve needs the mean, so the run must stop before simulating
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulate ran before the theory failed")

        monkeypatch.setattr("lmfsim.runner.simulate", no_simulation)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(minimal_config(
            init_mode="fresh_draw",
            groups=[{"count": 1, "intensity": {"rule": "equal", "mass": 1.0},
                     "law": {"kind": "pareto", "alpha": 0.8}}],
        )))
        out = tmp_path / "out"
        assert main(["simulate", str(cfg_path), "-o", str(out)]) == EXIT_MODEL
        assert not out.exists()
