import json
import os
import sys
import types

import numpy as np
import pytest

from stablebranch.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_SCHEMA,
    EXIT_TOLERANCE,
    ExperimentSpec,
    main,
    preset,
    run,
    write_preset,
)
from stablebranch.model import calibrate_critical, load_calibrated_model, load_model


def make_spec(kind, model_path, params, outdir, seed=None):
    return ExperimentSpec(
        kind=kind,
        model_path=str(model_path) if model_path else None,
        parameters=params,
        output_dir=str(outdir),
        seed=seed,
    )


@pytest.fixture(scope="module")
def preset_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("presets")
    for name in ("scalar-csbp", "two-site", "three-site-mixed"):
        write_preset(name, str(d / name))
    return d


class TestPresets:
    def test_bundle_contents(self):
        bundle = preset("two-site", outdir="/tmp/unused")
        kinds = [s.kind for s in bundle.specs]
        assert kinds[0] == "calibrate"
        assert "simulate" in kinds and "spine-check" in kinds
        assert bundle.model["gamma"] == [1.2, 1.8]

    def test_unknown_preset(self):
        with pytest.raises(Exception):
            preset("no-such-preset")

    def test_two_site_calibrates_symmetric(self, preset_dir):
        motion, mech = load_model(preset_dir / "two-site" / "two-site_model.json")
        model = calibrate_critical(motion, mech)
        assert abs(model.eigen.lam) <= 1e-12
        assert np.allclose(model.phi, 1.0 / np.sqrt(2.0), atol=1e-12)

    def test_three_site_declares_front_constant(self, preset_dir):
        motion, mech = load_model(
            preset_dir / "three-site-mixed" / "three-site-mixed_model.json"
        )
        model = calibrate_critical(motion, mech)
        assert model.gamma0 == pytest.approx(1.3)
        assert model.c_x > 0

    def test_scalar_bundle_includes_oracle_checks(self, preset_dir):
        spec_files = sorted((preset_dir / "scalar-csbp").glob("*delay-eq.json"))
        assert spec_files, "scalar bundle must carry the closed-form oracle check"


class TestRun:
    def test_calibrate_idempotent_on_critical_model(self, preset_dir, tmp_path):
        model_path = preset_dir / "two-site" / "two-site_model.json"
        spec = make_spec("calibrate", model_path, {}, tmp_path)
        assert run(spec) == EXIT_OK
        out = load_calibrated_model(tmp_path / "calibrated_model.json")
        assert np.abs(out.mechanism.beta).max() <= 1e-12  # beta unchanged

    def test_calibrated_file_reloads_identically(self, preset_dir, tmp_path):
        model_path = preset_dir / "three-site-mixed" / "three-site-mixed_model.json"
        run(make_spec("calibrate", model_path, {}, tmp_path))
        path = tmp_path / "calibrated_model.json"
        a = load_calibrated_model(path)
        b = load_calibrated_model(path)
        assert np.array_equal(a.phi, b.phi) and a.c_x == b.c_x

    def test_delay_eq_pass_and_fail_codes(self, tmp_path):
        params = {"a": 1.5, "thetaMax": 2.0, "step": 0.01, "tol": 1e-10}
        ok = make_spec("delay-eq", None, {**params, "supTolerance": 1e-8}, tmp_path / "ok")
        assert run(ok) == EXIT_OK
        bad = make_spec("delay-eq", None, {**params, "supTolerance": 1e-20}, tmp_path / "bad")
        assert run(bad) == EXIT_TOLERANCE

    def test_simulate_byte_identical_reruns(self, preset_dir, tmp_path):
        model_path = preset_dir / "two-site" / "two-site_model.json"
        params = {"paths": 2000, "step": 1e-3, "horizon": 0.2, "mu": [0.5, 0.5]}
        blobs = []
        for sub in ("a", "b"):
            spec = make_spec("simulate", model_path, params, tmp_path / sub, seed=99)
            assert run(spec) == EXIT_OK
            blobs.append((tmp_path / sub / "functionals.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_simulate_report_schema(self, preset_dir, tmp_path):
        model_path = preset_dir / "scalar-csbp" / "scalar-csbp_model.json"
        params = {"paths": 500, "step": 1e-2, "horizon": 0.5, "mu": [1.0]}
        assert run(make_spec("simulate", model_path, params, tmp_path, seed=1)) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        for key in ("survivors", "survival_rate", "se", "functionals_csv_path"):
            assert key in report
        assert report["live_by_block"][-1] == report["survivors"]
        assert 0.0 <= report["cluster_share"] <= 1.0

    def test_mixture_check(self, tmp_path):
        params = {
            "alpha": [1.2, 1.8],
            "rho": [1.0, 1.0],
            "tGrid": {"min": 1e-6, "max": 1e-2, "count": 5},
            "ratioTolerance": 1e-3,
        }
        assert run(make_spec("mixture-check", None, params, tmp_path)) == EXIT_OK
        rows = (tmp_path / "mixture_check.csv").read_text().splitlines()
        assert rows[2].startswith("t,ratio") or rows[2].startswith("1e-06") or len(rows) >= 5

    def test_schema_violations_exit_two(self, tmp_path):
        with pytest.raises(Exception):
            make_spec("not-a-kind", None, {}, tmp_path)
        spec = make_spec("cumulant", tmp_path / "missing.json", {}, tmp_path)
        assert run(spec) == EXIT_SCHEMA

    def test_runtime_failure_exit_three(self, preset_dir, tmp_path):
        model_path = preset_dir / "two-site" / "two-site_model.json"
        params = {"f": [1.0, 1.0], "horizon": 10.0, "thetaGrid": {"min": 0.1, "max": 1.0, "count": 3}}
        # f violates the normalization precondition -> runtime failure
        spec = make_spec("yaglom", model_path, params, tmp_path)
        assert run(spec) == EXIT_RUNTIME

    def test_manifest_written_with_fields(self, preset_dir, tmp_path):
        model_path = preset_dir / "scalar-csbp" / "scalar-csbp_model.json"
        run(make_spec("calibrate", model_path, {}, tmp_path))
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        for key in ("kind", "tool_version", "model_hash", "wall_time_s", "status", "artifacts"):
            assert key in manifest
        assert manifest["status"] == "ok"

    def test_rv_fit_runs_with_tolerance(self, preset_dir, tmp_path):
        model_path = preset_dir / "two-site" / "two-site_model.json"
        params = {
            "timesGrid": {"min": 1e3, "max": 1e5, "count": 13},
            "relTol": 1e-7,
            "slopeRelTolerance": 0.02,
        }
        spec = make_spec("rv-fit", model_path, params, tmp_path)
        assert run(spec) == EXIT_OK
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["summary"]["slope"] == pytest.approx(-5.0, rel=0.02)


class TestMain:
    def test_cli_delay_eq(self, tmp_path, capsys):
        code = main(
            ["delay-eq", "--a", "1.5", "--theta-max", "1.0", "--outdir", str(tmp_path)]
        )
        assert code == EXIT_OK
        assert (tmp_path / "delay_eq.csv").exists()

    def test_cli_run_spec_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "kind": "delay-eq",
                    "parameters": {"a": 1.4, "thetaMax": 1.0},
                    "outputDir": str(tmp_path / "out"),
                }
            )
        )
        assert main(["run", str(spec_path)]) == EXIT_OK

    def test_cli_unknown_kind_exits_schema(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": "bogus", "outputDir": str(tmp_path)}))
        assert main(["run", str(spec_path)]) == EXIT_SCHEMA

    def test_cli_preset_writes_files(self, tmp_path, capsys):
        assert main(["preset", "scalar-csbp", "--outdir", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "scalar-csbp_model.json").exists()

    def test_cli_threads_without_threadpoolctl_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
        argv = ["--threads", "1", "delay-eq", "--a", "1.5", "--outdir", str(tmp_path)]
        assert main(argv) == EXIT_SCHEMA
        assert "threadpoolctl" in capsys.readouterr().err
        assert not (tmp_path / "delay_eq.csv").exists()

    def test_cli_threads_applies_cap(self, tmp_path, monkeypatch):
        calls = []
        fake = types.SimpleNamespace(threadpool_limits=calls.append)
        monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
        argv = ["--threads", "2", "delay-eq", "--a", "1.5", "--theta-max", "1.0",
                "--outdir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert calls == [2]
