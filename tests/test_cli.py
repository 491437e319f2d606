"""Runner artifacts, determinism, calibration, CLI exit codes."""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

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
from lmfsim.cli import EXIT_CONFIG, EXIT_MODEL, EXIT_OK, main
from lmfsim.engine import simulate
from lmfsim.errors import ConfigError
from lmfsim.laws import Exponential, Tabulated
from lmfsim.runner import (
    _run_case,
    _write_lengths_csv,
    homogeneous_exponential_cases,
    read_acf_csv,
    run_calibrate,
    run_replicated,
    theory_curves,
    write_acf_csv,
)
from lmfsim.config import load_config
from lmfsim.stats import acf_estimate
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
        path = write_acf_csv(tmp_path / "acf.csv", curve)
        back = read_acf_csv(path)
        assert np.array_equal(back.lags, curve.lags)
        assert np.array_equal(back.values, curve.values)  # repr survives exactly
        assert np.array_equal(back.stderr, curve.stderr)

    def test_round_trip_without_stderr(self, tmp_path):
        curve = AcfCurve(lags=np.array([1, 2]), values=np.array([0.5, 0.25]),
                         kind="exact")
        back = read_acf_csv(write_acf_csv(tmp_path / "t.csv", curve))
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

    def test_rerun_is_byte_identical(self, tmp_path):
        m1 = run_simulate(minimal_config(label="twin"), tmp_path / "a")
        m2 = run_simulate(minimal_config(label="twin"), tmp_path / "b")
        assert m1["config_digest"] == m2["config_digest"]
        for name in ("acf.csv", "theory.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
        for name, entry in m1["artifacts"].items():
            assert m2["artifacts"][name]["sha256"] == entry["sha256"]

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

    def test_replica_averaging_shrinks_error(self):
        # i.i.d. market: the true ACF is 0, so the RMS across lags measures
        # estimator noise; quadrupling the replicas should halve it
        base = minimal_config(steps=4000, max_lag=40)
        rms = {}
        for k in (2, 8):
            cfg = load_config({**base, "replicas": k})
            result = run_replicated(cfg)
            rms[k] = float(np.sqrt(np.mean(result["curve"].values ** 2)))
            # the attached stderr scales exactly as 1/sqrt(k)
            lone = acf_estimate(
                simulate(cfg.build_population(), 4000, replica_seed(4321, 0)), 40
            )
            assert np.allclose(result["curve"].stderr,
                               lone.stderr / np.sqrt(k), rtol=1e-12)
        ratio = rms[2] / rms[8]
        assert 2.0 / 1.3 < ratio < 2.0 * 1.3


def per_row_lengths_csv(path, logs_per_replica):
    """Reference metaorders.csv writer: one csv.writerow call per metaorder."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trader_id", "length"])
        for logs in logs_per_replica:
            for trader, lengths in enumerate(logs):
                for length in lengths:
                    writer.writerow([trader, int(length)])


class TestRunDirectory:
    def test_lengths_csv_matches_per_row_writer(self, tmp_path):
        pop = Population([TraderSpec(0.5, Exponential(decay_length=3.0)),
                          TraderSpec(0.2, Tabulated(support=[1], probs=[1.0])),
                          TraderSpec(0.3, DiscretePareto(tail_exponent=1.5))])
        logs = [simulate(pop, 20_000, replica_seed(3, r)).metaorder_log
                for r in range(2)]
        # a trader with no logged metaorder contributes no rows
        logs.append([logs[0][0], np.array([], dtype=np.int64), logs[1][2]])
        per_row_lengths_csv(tmp_path / "reference.csv", logs)
        _write_lengths_csv(tmp_path / "metaorders.csv", logs)
        assert (tmp_path / "metaorders.csv").read_bytes() == \
            (tmp_path / "reference.csv").read_bytes()

    def test_experiment_case_writes_a_full_run_directory(self, tmp_path):
        preset = homogeneous_exponential_cases()[0]["config"].to_dict()
        cfg = load_config({**preset, "steps": 20_000, "replicas": 2,
                           "collect_lengths": "all"})
        pop, res, exact, entry = _run_case(tmp_path, cfg)
        case_dir = Path(entry["dir"])
        assert case_dir == tmp_path / cfg.label
        manifest = json.loads((case_dir / "manifest.json").read_text())
        assert manifest.keys() == run_simulate(cfg, tmp_path / "cli").keys()
        assert manifest["config_digest"] == entry["config_digest"]
        assert set(manifest["artifacts"]) == {"acf", "theory", "lengths_hist",
                                              "metaorders"}
        for name, artifact in manifest["artifacts"].items():
            path = case_dir / artifact["path"]
            sha = hashlib.sha256(path.read_bytes()).hexdigest()
            sidecar = json.loads(path.with_suffix(".json").read_text())
            assert sidecar["sha256"] == artifact["sha256"] == sha
            assert sidecar["config_digest"] == manifest["config_digest"]
        # the curve the report compares against is the one in theory.csv
        assert np.array_equal(exact.lags, default_lags(cfg.max_lag))
        rows = (case_dir / "theory.csv").read_text().splitlines()[1:len(exact) + 1]
        assert rows == [f"{lag},{val!r},exact"
                        for lag, val in zip(exact.lags.tolist(), exact.values.tolist())]
        assert manifest["summary"]["metaorders_logged"] == res["metaorders"]
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
        acf_path = write_acf_csv(tmp_path / "obs.csv", curve)
        out = tmp_path / "report.json"
        report = run_calibrate(acf_path, mu=0.8, out=out)
        assert report["min_splitter_count"] == pytest.approx(10, rel=0.02)
        assert report["inputs"]["rows"] == 2000
        assert json.loads(out.read_text())["alpha"] == pytest.approx(
            report["alpha"])

    def test_alpha_and_gamma_conflict(self, tmp_path):
        lags = np.arange(1, 2001)
        curve = AcfCurve(lags=lags, values=1.0 * lags**-0.5, kind="simulated")
        path = write_acf_csv(tmp_path / "o.csv", curve)
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

    def test_calibrate_cli(self, tmp_path, capsys):
        lags = np.arange(1, 2001)
        c0 = prefactor_homogeneous(0.8, 10, 1.5)
        curve = AcfCurve(lags=lags, values=c0 * lags**-0.5, kind="simulated")
        path = write_acf_csv(tmp_path / "obs.csv", curve)
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
        path = write_acf_csv(tmp_path / "neg.csv", curve)
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
    ], ids=["steps-not-a-number", "count-not-a-number",
            "explicit-intensity-not-a-number", "law-missing-decay-length",
            "groups-not-a-list", "intensity-a-string", "intensity-a-number",
            "save-signs-not-a-boolean"])
    def test_malformed_config_exits_with_the_config_code(self, tmp_path, capsys,
                                                        break_config):
        d = minimal_config()
        break_config(d)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        assert main(["simulate", str(bad), "-o", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
