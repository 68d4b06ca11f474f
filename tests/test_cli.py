import builtins
import csv
import hashlib
import json
import os
import platform
import re
from pathlib import Path

import numpy as np
import pytest
import scipy

from stablebranch import cli
from stablebranch.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_SCHEMA,
    EXIT_TOLERANCE,
    ExperimentSpec,
    SchemaError,
    _KINDS,
    main,
    run,
    write_preset,
)
from stablebranch._ivp import SolverError
from stablebranch.analysis import mixture_rv_check
from stablebranch.model import read_model, save_calibrated_model

from conftest import count_forks, no_solver, use_cpus


def _refuse(constant):
    raise ValueError(f"{constant} is not strict JSON")


def strict_json(path):
    """The JSON file at path, parsed by a reader that refuses NaN and Infinity."""
    return json.loads(Path(path).read_text(), parse_constant=_refuse)


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
    def test_bundle_contents(self, tmp_path):
        model_path, *spec_paths = write_preset("two-site", str(tmp_path))
        specs = [json.loads(Path(p).read_text()) for p in spec_paths]
        kinds = [s["kind"] for s in specs]
        assert kinds[0] == "calibrate"
        assert "simulate" in kinds and "spine-check" in kinds
        assert json.loads(Path(model_path).read_text())["gamma"] == [1.2, 1.8]
        for i, (path, spec) in enumerate(zip(spec_paths, specs)):
            assert path == str(tmp_path / f"two-site_{i:02d}_{spec['kind']}.json")
            assert spec["modelPath"] == model_path
            assert spec["outputDir"] == str(tmp_path / f"two-site_{i:02d}_{spec['kind']}")
            assert spec["seed"] == 20260808

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(SchemaError, match="no-such-preset"):
            write_preset("no-such-preset", str(tmp_path))

    def test_written_bundles_pinned(self, tmp_path, monkeypatch):
        # every byte and path write_preset writes; a relative outdir keeps the
        # paths inside the specs the same on every machine
        monkeypatch.chdir(tmp_path)
        digest = hashlib.sha256()
        for name in ("scalar-csbp", "two-site", "three-site-mixed"):
            for path in write_preset(name, os.path.join("bundles", name)):
                digest.update(path.encode())
                digest.update(Path(path).read_bytes())
        assert digest.hexdigest() == (
            "3f4fabc598e0dd050e637d032409230a088a4d6212834bf7d0b12f542ff38c64"
        )

    def test_two_site_calibrates_symmetric(self, preset_dir):
        model, _ = read_model(preset_dir / "two-site" / "two-site_model.json")
        assert abs(model.eigen.lam) <= 1e-12
        assert np.allclose(model.phi, 1.0 / np.sqrt(2.0), atol=1e-12)

    def test_three_site_declares_front_constant(self, preset_dir):
        model, _ = read_model(preset_dir / "three-site-mixed" / "three-site-mixed_model.json")
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
        out, _ = read_model(tmp_path / "calibrated_model.json")
        assert np.abs(out.mechanism.beta).max() <= 1e-12  # beta unchanged

    def test_calibrated_file_reloads_identically(self, preset_dir, tmp_path):
        model_path = preset_dir / "three-site-mixed" / "three-site-mixed_model.json"
        run(make_spec("calibrate", model_path, {}, tmp_path))
        path = tmp_path / "calibrated_model.json"
        a, _ = read_model(path)
        b, _ = read_model(path)
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
        assert 0 < report["site_steps"] <= 500 * 50
        assert 0.0 <= report["cluster_share"] <= 1.0
        # the worker count depends on the machine, so only the manifest has it
        assert "workers" not in report
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        # 500 paths x 50 steps are below the split floor
        assert manifest["summary"]["workers"] == 1

    def test_cumulant_manifest_records_solver_counts(self, preset_dir, tmp_path):
        model_path = preset_dir / "two-site" / "two-site_model.json"
        params = {"f": [1.0, 1.0], "times": [0.5, 1.0, 2.0]}
        assert run(make_spec("cumulant", model_path, params, tmp_path)) == EXIT_OK
        summary = json.loads((tmp_path / "run_manifest.json").read_text())["summary"]
        assert summary["engine"] == "radau" and summary["variable"] == "u"
        for key in ("accepted", "nfev", "njev", "nlu"):
            assert isinstance(summary[key], int) and summary[key] > 0
        assert "nfev" not in (tmp_path / "cumulant.csv").read_text()

    def test_mixture_check(self, tmp_path):
        params = {
            "alpha": [1.2, 1.8],
            "rho": [1.0, 1.0],
            "tGrid": {"min": 1e-6, "max": 1e-2, "count": 5},
            "ratioTolerance": 1e-3,
        }
        assert run(make_spec("mixture-check", None, params, tmp_path)) == EXIT_OK
        table = mixture_rv_check([1.2, 1.8], [1.0, 1.0], np.geomspace(1e-6, 1e-2, 5))
        lines = (tmp_path / "mixture_check.csv").read_text().splitlines()
        assert lines[:3] == [
            f"# alpha0={table.alpha0}", f"# minimal_mass={table.minimal_mass}", "t,ratio",
        ]
        # csv writes floats by repr, so every value reads back exactly
        rows = [tuple(map(float, row)) for row in csv.reader(lines[3:])]
        assert rows == list(zip(table.t.tolist(), table.ratio.tolist()))

    def test_schema_violations_exit_two(self, tmp_path):
        with pytest.raises(Exception):
            make_spec("not-a-kind", None, {}, tmp_path)
        spec = make_spec("cumulant", tmp_path / "missing.json", {}, tmp_path)
        assert run(spec) == EXIT_SCHEMA

    def test_runtime_failure_exit_three(self, preset_dir, tmp_path):
        model_path = preset_dir / "two-site" / "two-site_model.json"
        params = {"mu": [0.5, 0.5], "times": [1e-3, 1.0], "warmStartTime": 1e-4, "relTol": 1e-12}
        # valid arguments whose warm start cannot be certified -> runtime failure
        spec = make_spec("survival", model_path, params, tmp_path)
        assert run(spec) == EXIT_RUNTIME
        error = json.loads((tmp_path / "run_manifest.json").read_text())["error"]
        assert error.startswith("CertificationError: ")

    @pytest.mark.parametrize("kind, params", [
        ("calibrate", {}),
        ("cumulant", {"f": [1.0], "times": [0.5, 1.0]}),
        ("simulate", {"paths": 10, "step": 0.1, "horizon": 0.1, "mu": [1.0]}),
    ])
    def test_run_opens_model_file_once(self, kind, params, preset_dir, tmp_path, monkeypatch):
        model = str(preset_dir / "scalar-csbp" / "scalar-csbp_model.json")
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert run(make_spec(kind, model, params, tmp_path)) == EXIT_OK
        assert opened.count(model) == 1

    def test_manifest_written_with_fields(self, preset_dir, tmp_path):
        model_path = preset_dir / "scalar-csbp" / "scalar-csbp_model.json"
        run(make_spec("calibrate", model_path, {}, tmp_path))
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        for key in ("kind", "tool_version", "model_hash", "wall_time_s", "status", "artifacts"):
            assert key in manifest
        assert manifest["status"] == "ok"

    def test_manifest_records_environment(self, preset_dir, tmp_path):
        model_path = preset_dir / "scalar-csbp" / "scalar-csbp_model.json"
        run(make_spec("calibrate", model_path, {}, tmp_path))
        env = json.loads((tmp_path / "run_manifest.json").read_text())["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        assert env["cpus"] >= 1
        assert env["blas_threads"] is None or env["blas_threads"] >= 1

    def test_scalar_preset_runs_clean(self, tmp_path):
        # every shipped spec must pass its own gates; the scalar yaglom errors
        # sit at the solver's noise floor at every horizon
        paths = write_preset("scalar-csbp", str(tmp_path))
        for path in paths[1:]:
            spec = ExperimentSpec.from_file(path)
            assert run(spec) == EXIT_OK, spec.kind

    def test_yaglom_trend_gated_above_noise_floor(self, preset_dir, tmp_path):
        # at theta 0.1 the two-site surface crosses its limit near T = 11, so
        # the sup error grows from 1.06e-3 at T = 12 to 1.43e-3 at T = 15, far
        # above 10 rel_tol
        model_path = preset_dir / "two-site" / "two-site_model.json"
        params = {"theta": [0.1], "horizons": [12.0, 15.0], "relTol": 1e-7, "supTolerance": 1.0}
        assert run(make_spec("yaglom", model_path, params, tmp_path)) == EXIT_TOLERANCE

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


class TestYaglomWorkers:
    """The yaglom kind solves its horizons in forked workers, one per CPU."""

    PARAMS = {"thetaGrid": {"min": 0.1, "max": 10.0, "count": 21},
              "horizons": [1.0, 10.0, 100.0], "supTolerance": 1e-8}

    def run_on(self, n, preset_dir, outdir, monkeypatch):
        use_cpus(monkeypatch, n)
        model = preset_dir / "scalar-csbp" / "scalar-csbp_model.json"
        code = run(make_spec("yaglom", model, self.PARAMS, outdir))
        manifest = json.loads((outdir / "run_manifest.json").read_text())
        tables = {p.name: p.read_bytes() for p in sorted(outdir.glob("yaglom_T*.csv"))}
        return code, manifest, tables

    def test_same_files_on_one_and_two_cpus(self, preset_dir, tmp_path, monkeypatch):
        forks = count_forks(monkeypatch)
        runs = []
        for n in (1, 2):
            runs.append(self.run_on(n, preset_dir, tmp_path / f"cpus{n}", monkeypatch))
            assert len(forks) == n - 1  # no fork on one CPU, one worker on two
        (code1, manifest1, tables1), (code2, manifest2, tables2) = runs
        assert code1 == code2 == EXIT_OK
        assert list(tables1) == ["yaglom_T1.csv", "yaglom_T10.csv", "yaglom_T100.csv"]
        assert tables2 == tables1
        assert manifest2["summary"] == manifest1["summary"]
        assert [Path(p).name for p in manifest2["artifacts"]] == [
            Path(p).name for p in manifest1["artifacts"]
        ]

    def test_solver_error_in_forked_horizon(self, preset_dir, tmp_path, monkeypatch):
        # on two CPUs the forked worker solves horizons 1 and 100 and this
        # process horizon 10; its error is raised after horizon 1's table is
        # written, as in one process
        table = cli.yaglom_table

        def failing_at_ten(model, f, thetas, T, opts):
            if T == 10.0:
                raise SolverError("Radau failed at t=5")
            return table(model, f, thetas, T, opts)

        monkeypatch.setattr(cli, "yaglom_table", failing_at_ten)
        runs = [self.run_on(n, preset_dir, tmp_path / f"cpus{n}", monkeypatch) for n in (1, 2)]
        for code, manifest, tables in runs:
            assert code == EXIT_RUNTIME
            assert manifest["error"] == "SolverError: Radau failed at t=5"
            assert list(tables) == ["yaglom_T1.csv"]
        assert runs[0][2] == runs[1][2]


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

    @pytest.mark.parametrize("command", [
        ["delay-eq", "--a", "1.5", "--theta-max", "1"],
        ["preset", "scalar-csbp"],
    ], ids=["delay-eq", "preset"])
    def test_uncreatable_outdir_exits_three(self, command, tmp_path, capsys):
        # no manifest can be written where the directory cannot be made
        (tmp_path / "afile").write_text("")
        assert main([*command, "--outdir", str(tmp_path / "afile" / "sub")]) == EXIT_RUNTIME
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("runtime error: "), err


def _kebab(name):
    return "--" + re.sub("([A-Z])", r"-\1", name).lower()


def _artifacts(outdir):
    return {
        p.name: p.read_bytes()
        for p in sorted(outdir.iterdir())
        if p.name != "run_manifest.json"
    }


class TestSchema:
    @pytest.mark.parametrize("case", [
        "missing-spec", "malformed-spec", "missing-mu-file", "missing-model", "malformed-model",
        "calibrated-no-phi", "calibrated-no-phiStar", "calibrated-no-C_X", "calibrated-no-gamma0",
        "gamma-out-of-range", "fractional-d", "integer-model-path", "kind-not-string",
        "outdir-not-string", "outdir-empty",
    ])
    def test_unreadable_input_exits_two(self, case, preset_dir, tmp_path, capsys):
        model = str(preset_dir / "scalar-csbp" / "scalar-csbp_model.json")
        (tmp_path / "bad.json").write_text('{"kind": "delay-eq",')
        # the model cases calibrate bad_model.json, written here for each case
        bad_model = tmp_path / "bad_model.json"
        if case == "malformed-model":
            bad_model.write_text('{"d": 1,')
        elif case.startswith("calibrated-no-"):
            save_calibrated_model(bad_model, read_model(model)[0])
            data = json.loads(bad_model.read_text())
            del data[case.removeprefix("calibrated-no-")]
            bad_model.write_text(json.dumps(data))
        elif case == "gamma-out-of-range":
            data = json.loads((preset_dir / "two-site" / "two-site_model.json").read_text())
            bad_model.write_text(json.dumps({**data, "gamma": [1.2, 2.5]}))
        elif case == "fractional-d":
            data = json.loads((preset_dir / "two-site" / "two-site_model.json").read_text())
            bad_model.write_text(json.dumps({**data, "d": 2.5}))
        elif case == "integer-model-path":
            # open() would take the path 0 for the file descriptor of stdin
            (tmp_path / "fd.json").write_text(json.dumps(
                {"kind": "calibrate", "modelPath": 0, "outputDir": str(tmp_path / "out")}
            ))
        elif case == "kind-not-string":
            (tmp_path / "kind.json").write_text(json.dumps(
                {"kind": ["delay-eq"], "parameters": {"a": 1.5}, "outputDir": str(tmp_path)}
            ))
        elif case.startswith("outdir-"):
            (tmp_path / "outdir.json").write_text(json.dumps(
                {"kind": "delay-eq", "parameters": {"a": 1.5},
                 "outputDir": 5 if case == "outdir-not-string" else ""}
            ))
        argv = {
            "missing-spec": ["run", str(tmp_path / "no-such-spec.json")],
            "kind-not-string": ["run", str(tmp_path / "kind.json")],
            "outdir-not-string": ["run", str(tmp_path / "outdir.json")],
            "outdir-empty": ["run", str(tmp_path / "outdir.json")],
            "integer-model-path": ["run", str(tmp_path / "fd.json")],
            "malformed-spec": ["run", str(tmp_path / "bad.json")],
            "missing-mu-file": [
                "simulate", "--model", model, "--paths", "10", "--step", "0.1",
                "--horizon", "0.1", "--mu", str(tmp_path / "mu.json"),
                "--outdir", str(tmp_path / "out"),
            ],
        }.get(case, ["calibrate", "--model", str(bad_model), "--outdir", str(tmp_path / "out")])
        assert main(argv) == EXIT_SCHEMA
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("schema error: ")
        if argv[0] == "calibrate":
            assert err[0].startswith(f"schema error: model file {str(bad_model)!r}: ")
        if case == "integer-model-path":
            assert err[0].startswith("schema error: model file 0: ")
        if case.startswith("outdir-"):
            assert err[0].startswith("schema error: outputDir ")

    @pytest.mark.parametrize("seed", ["abc", -1, 1.5, "2.5", 2**64, True])
    def test_bad_seed_exits_two(self, seed, preset_dir, tmp_path, capsys):
        model = preset_dir / "scalar-csbp" / "scalar-csbp_model.json"
        params = {"paths": 10, "step": 0.1, "horizon": 0.1, "mu": [1.0]}
        assert run(make_spec("simulate", model, params, tmp_path, seed)) == EXIT_SCHEMA
        assert "seed" in json.loads((tmp_path / "run_manifest.json").read_text())["error"]
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "functionals.csv").exists()

    @pytest.mark.parametrize("seed, checked", [(None, 0), (7, 7), (7.0, 7), (2**64 - 1, 2**64 - 1)])
    def test_manifest_records_checked_seed(self, seed, checked, preset_dir, tmp_path):
        model = preset_dir / "scalar-csbp" / "scalar-csbp_model.json"
        params = {"paths": 10, "step": 0.1, "horizon": 0.1, "mu": [1.0]}
        assert run(make_spec("simulate", model, params, tmp_path, seed)) == EXIT_OK
        assert json.loads((tmp_path / "run_manifest.json").read_text())["seed"] == checked
        assert f"# seed={checked}" in (tmp_path / "functionals.csv").read_text()

    @pytest.mark.parametrize(
        "kind, params, named",
        [
            ("simulate", {"paths": 10, "horizon": 0.1, "mu": [1.0]}, "step"),
            ("delay-eq", {"thetaMax": 1.0}, "a"),
            ("survival", {"mu": [1.0], "timesGrid": {"min": 1.0, "max": 10.0}}, "timesGrid"),
            ("yaglom", {"thetaGrid": {"min": 0.1, "max": 1.0, "count": 3}}, "horizons"),
            ("simulate", {"paths": "many", "step": 0.1, "horizon": 0.1, "mu": [1.0]}, "paths"),
            ("delay-eq", {"a": 1.5, "supTolerence": 1e-30}, "supTolerence"),
            ("cumulant", {"f": [1.0], "times": [1.0], "relTol": 0}, "relTol"),
            ("cumulant", {"f": [1.0], "times": [1.0], "relTol": "nan"}, "relTol"),
            ("cumulant", {"f": [1.0], "times": [1.0], "absTol": "inf"}, "absTol"),
            ("rv-fit", {"times": [1.0, 10.0], "warmStartTime": "inf"}, "warmStartTime"),
            ("rv-fit", {"timesGrid": {"min": 0, "max": 10.0, "count": 5}}, "timesGrid"),
            ("rv-fit", {"timesGrid": {"min": 1.0, "max": 10.0, "count": 0}}, "timesGrid"),
            ("rv-fit", {"timesGrid": {"min": 10.0, "max": 1.0, "count": 5}}, "timesGrid"),
            ("yaglom", {"thetaGrid": {"min": 0.1, "max": "inf", "count": 3}, "horizons": [1.0]},
             "thetaGrid"),
            ("simulate", {"paths": 10, "step": "nan", "horizon": 0.1, "mu": [1.0]}, "step"),
            ("simulate", {"paths": 10, "step": 0.1, "horizon": "inf", "mu": [1.0]}, "horizon"),
            ("simulate", {"paths": 0, "step": 0.1, "horizon": 0.1, "mu": [1.0]}, "paths"),
            ("survival", {"mu": [float("nan")], "times": [1.0]}, "mu"),
            ("survival", {"mu": [-1.0], "times": [1.0]}, "mu"),
            ("survival", {"mu": [0.0], "times": [1.0]}, "mu"),
            ("cumulant", {"f": [float("nan")], "times": [1.0]}, "f"),
            ("cumulant", {"f": [-1.0], "times": [1.0]}, "f"),
            ("simulate", {"paths": 10, "step": 0.1, "horizon": 0.1, "mu": [1.0], "f": [-1.0]},
             "f"),
            ("yaglom", {"f": [float("nan")], "thetaGrid": {"min": 0.1, "max": 1.0, "count": 3},
                        "horizons": [1.0]}, "f"),
            ("delay-eq", {"a": 1.5, "step": 0.0}, "step"),
            ("delay-eq", {"a": 1.5, "step": "nan"}, "step"),
            ("delay-eq", {"a": 1.5, "thetaMax": "inf"}, "thetaMax"),
            ("delay-eq", {"a": 1.5, "thetaMax": -1.0}, "thetaMax"),
            ("delay-eq", {"a": 1.5, "thetaMax": 0.5, "step": 1.0}, "step"),
            ("delay-eq", {"a": 1.5, "thetaMax": 1.0, "step": 1e-6}, "step"),
            ("cumulant", {"f": [1.0], "times": [1.0, float("inf")]}, "times"),
            ("survival", {"mu": [1.0], "times": [1e3, float("inf")]}, "times"),
            ("rv-fit", {"times": [1e3, 1e4, float("inf")]}, "times"),
            ("rv-fit", {"times": [1e3, float("nan")]}, "times"),
            ("yaglom", {"thetaGrid": {"min": 0.1, "max": 1.0, "count": 3},
                        "horizons": [10.0, float("inf")]}, "horizons"),
            ("yaglom", {"thetaGrid": {"min": 0.1, "max": 1.0, "count": 3},
                        "horizons": [float("nan")]}, "horizons"),
            ("yaglom", {"theta": [1.0, float("nan")], "horizons": [10.0]}, "theta"),
            ("spine-check", {"horizon": float("nan"), "paths": 10}, "horizon"),
            ("spine-check", {"theta": float("inf"), "paths": 10}, "theta"),
            ("delay-eq", {"a": 2.5}, "a"),
            ("delay-eq", {"a": 1.5, "tol": -1.0}, "tol"),
            ("delay-eq", {"a": 1.5, "tol": "nan", "thetaMax": 1.0}, "tol"),
            ("spine-check", {"paths": 1}, "paths"),
            ("survival", {"mu": [1.0], "times": [1e-9, 1.0]}, "times"),
            ("rv-fit", {"times": [1e3, 1e3, 1e4, 1e5]}, "times"),
            ("mixture-check", {"alpha": [1.2, 1.8], "rho": [1.0], "t": [1e-3]}, "rho"),
            ("mixture-check", {"alpha": [1.2, 1.8], "rho": [1.0, 1.0], "t": ["nan", 1e-3]}, "'t'"),
            ("yaglom", {"f": [2.0], "theta": [1.0], "horizons": [10.0]}, "f"),
            ("yaglom", {"theta": [1.0], "horizons": []}, "horizons"),
            ("simulate", {"paths": 2.5, "step": 0.1, "horizon": 0.1, "mu": [1.0]}, "paths"),
            ("simulate", {"paths": True, "step": 0.1, "horizon": 0.1, "mu": [1.0]}, "paths"),
            ("spine-check", {"paths": 100.5}, "paths"),
            ("rv-fit", {"timesGrid": {"min": 1.0, "max": 10.0, "count": 2.5}}, "timesGrid"),
            ("rv-fit", {"timesGrid": {"min": 1.0, "max": 10.0, "count": True}}, "timesGrid"),
        ],
        ids=["no-step", "no-a", "grid-no-count", "no-horizon", "bad-int", "unknown-key",
             "rel-tol-zero", "rel-tol-nan", "abs-tol-inf", "warm-start-inf",
             "grid-min-zero", "grid-count-zero", "grid-max-below-min", "grid-max-inf",
             "step-nan", "horizon-inf", "paths-zero", "mu-nan", "mu-negative", "mu-zero",
             "f-nan", "f-negative", "simulate-f-negative", "yaglom-f-nan",
             "delay-step-zero", "delay-step-nan", "delay-theta-max-inf",
             "delay-theta-max-negative", "delay-step-above-theta-max",
             "delay-grid-over-limit", "cumulant-times-inf", "survival-times-inf",
             "rv-fit-times-inf", "rv-fit-times-nan", "yaglom-horizons-inf",
             "yaglom-horizon-nan", "yaglom-theta-nan", "spine-horizon-nan",
             "spine-theta-inf", "delay-a-out-of-range", "delay-tol-negative", "delay-tol-nan",
             "spine-paths-one", "survival-times-below-warm-start", "rv-fit-times-repeated",
             "mixture-rho-short", "mixture-t-nan", "yaglom-f-unnormalized",
             "yaglom-horizons-empty", "paths-fractional", "paths-boolean",
             "spine-paths-fractional", "grid-count-fractional", "grid-count-boolean"],
    )
    def test_schema_errors_exit_two_and_name_parameter(
        self, kind, params, named, preset_dir, tmp_path, capsys, monkeypatch
    ):
        no_solver(monkeypatch)  # each is refused before any solve
        model = preset_dir / "scalar-csbp" / "scalar-csbp_model.json"
        assert run(make_spec(kind, model, params, tmp_path)) == EXIT_SCHEMA
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert named in manifest["error"]
        assert named in capsys.readouterr().err

    def test_cumulant_accepts_zero_field(self, preset_dir, tmp_path):
        # V_t 0 = 0: a zero field is a valid start for the cumulant, unlike a density
        model = preset_dir / "scalar-csbp" / "scalar-csbp_model.json"
        assert run(make_spec("cumulant", model, {"f": [0.0], "times": [1.0]}, tmp_path)) == EXIT_OK

    def test_delay_eq_grid_refused_before_allocation(self, tmp_path, monkeypatch, capsys):
        def no_arange(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        # 10^13 points: the count is refused before np.arange is asked for them
        monkeypatch.setattr(np, "arange", no_arange)
        params = {"a": 1.5, "thetaMax": 10.0, "step": 1e-12}
        assert run(make_spec("delay-eq", None, params, tmp_path)) == EXIT_SCHEMA
        assert "'step'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["survival", "--mu", "[NaN, 0.5]", "--times", "[1, 2]"], "mu"),
        (["survival", "--mu", "[-1, 0.5]", "--times", "[1, 2]"], "mu"),
        (["cumulant", "--f", "[0.5, NaN]", "--times", "[1, 2]"], "f"),
        (["cumulant", "--f", "[0.5, -1]", "--times", "[1, 2]"], "f"),
        (["delay-eq", "--a", "1.5", "--step", "0"], "step"),
        (["cumulant", "--f", "[1, 1]", "--times", "[1, Infinity]"], "times"),
        (["survival", "--mu", "[0.5, 0.5]", "--times", "[1e3, Infinity]"], "times"),
        (["rv-fit", "--times", "[1e3, 1e4, Infinity]"], "times"),
        (["cumulant", "--f", "[1, 1]", "--times", "[1, NaN]"], "times"),
        (["yaglom", "--horizons", "[10, Infinity]", "--theta", "[1]"], "horizons"),
        (["yaglom", "--horizons", "[NaN]", "--theta", "[1]"], "horizons"),
        (["yaglom", "--horizons", "[10]", "--theta", "[1, NaN]"], "theta"),
        (["delay-eq", "--a", "2.5"], "a"),
        (["delay-eq", "--a", "1.5", "--tol", "-1"], "tol"),
        (["delay-eq", "--a", "1.5", "--tol", "nan", "--theta-max", "1"], "tol"),
        (["spine-check", "--paths", "1"], "paths"),
        (["spine-check", "--paths", "2.5"], "paths"),
        (["survival", "--mu", "[0.5, 0.5]", "--times", "[1e-9, 1]"], "times"),
        (["rv-fit", "--times", "[1e3, 1e4]"], "times"),
        (["rv-fit", "--times", "[1e3, 1e3, 1e4, 1e5]"], "times"),
        (["rv-fit", "--times", "[1e100, 1e101, 1e102]"], "times"),
        (["mixture-check", "--alpha", "[1.2, 1.8]", "--rho", "[1]", "--t", "[1e-3]"], "rho"),
        (["mixture-check", "--alpha", "[1.2, 1.8]", "--rho", "[1, 1]", "--t", "[NaN, 1e-3]"],
         "t"),
        (["delay-eq", "--a", "1.5", "--step", "1e-13", "--theta-max", "1e-11"], "step"),
        (["yaglom", "--horizons", "[100, 100.0001]", "--theta", "[1]"], "horizons"),
        (["yaglom", "--horizons", "[100, 1]", "--theta", "[1]"], "horizons"),
    ], ids=["mu-nan", "mu-negative", "f-nan", "f-negative", "delay-step-zero",
            "cumulant-times-inf", "survival-times-inf", "rv-fit-times-inf",
            "cumulant-times-nan", "yaglom-horizons-inf", "yaglom-horizon-nan",
            "yaglom-theta-nan", "delay-a-out-of-range", "delay-tol-negative", "delay-tol-nan",
            "spine-paths-one", "spine-paths-fractional", "survival-times-below-warm-start",
            "rv-fit-window",
            "rv-fit-times-repeated", "rv-fit-times-past-double-range", "mixture-rho-short",
            "mixture-t-nan", "delay-step-merges-grid", "yaglom-horizons-same-file",
            "yaglom-horizons-decreasing"])
    def test_command_line_exits_two(self, argv, named, preset_dir, tmp_path, capsys,
                                    monkeypatch, request):
        # the fit window is read from the solved grid; every other case is
        # refused before any solve
        if request.node.callspec.id != "rv-fit-window":
            no_solver(monkeypatch)
        if _KINDS[argv[0]].needs_model:
            argv = [*argv, "--model", str(preset_dir / "two-site" / "two-site_model.json")]
        assert main([*argv, "--outdir", str(tmp_path)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"schema error: parameter {named!r}")


class TestGeneratedCommands:
    # (kind, preset model or None, argv flags, equivalent spec parameters, seed);
    # "@mu" stands for a JSON file holding [1.0]
    CASES = [
        ("calibrate", "scalar-csbp", [], {}, None),
        ("cumulant", "scalar-csbp", ["--f", "[1.0]", "--times", "[0.5, 1.0]"],
         {"f": [1.0], "times": [0.5, 1.0]}, None),
        ("survival", "scalar-csbp",
         ["--mu", "@mu", "--times-grid", '{"min": 1, "max": 10, "count": 3}',
          "--rel-tol", "1e-8", "--ratio-tolerance", "0.5"],
         {"mu": [1.0], "timesGrid": {"min": 1, "max": 10, "count": 3}, "relTol": 1e-8,
          "ratioTolerance": 0.5}, None),
        ("yaglom", "scalar-csbp",
         ["--theta-grid", '{"min": 0.1, "max": 1, "count": 3}', "--horizons", "[1]"],
         {"thetaGrid": {"min": 0.1, "max": 1.0, "count": 3}, "horizons": [1.0]}, None),
        ("simulate", "scalar-csbp",
         ["--mu", "[1.0]", "--paths", "200", "--step", "1e-2", "--horizon", "0.2"],
         {"mu": [1.0], "paths": 200, "step": 1e-2, "horizon": 0.2}, 5),
        ("spine-check", "two-site", ["--paths", "200", "--theta", "0.5"],
         {"paths": 200, "theta": 0.5}, 3),
        ("rv-fit", "scalar-csbp", ["--times", "[1, 10, 100]", "--rel-tol", "1e-8"],
         {"times": [1, 10, 100], "relTol": 1e-8}, None),
        ("delay-eq", None, ["--a", "1.5", "--theta-max", "1.0"],
         {"a": 1.5, "thetaMax": 1.0}, None),
        ("mixture-check", None,
         ["--alpha", "[1.2, 1.8]", "--rho", "[1.0, 1.0]",
          "--t-grid", '{"min": 1e-6, "max": 1e-2, "count": 5}'],
         {"alpha": [1.2, 1.8], "rho": [1.0, 1.0],
          "tGrid": {"min": 1e-6, "max": 1e-2, "count": 5}}, None),
    ]

    def test_every_kind_has_a_case(self):
        assert sorted(case[0] for case in self.CASES) == sorted(_KINDS)

    @pytest.mark.parametrize(
        "kind, preset_name, flags, params, seed", CASES, ids=[c[0] for c in CASES]
    )
    def test_command_matches_spec_run(
        self, kind, preset_name, flags, params, seed, preset_dir, tmp_path
    ):
        mu_file = tmp_path / "mu.json"
        mu_file.write_text("[1.0]")
        model = preset_dir / preset_name / f"{preset_name}_model.json" if preset_name else None
        outdir = tmp_path / "out"
        argv = [kind, "--outdir", str(outdir)] + [str(mu_file) if a == "@mu" else a for a in flags]
        if model:
            argv += ["--model", str(model)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        code = main(argv)
        from_cli = _artifacts(outdir)
        assert from_cli
        for p in outdir.iterdir():
            p.unlink()
        assert run(make_spec(kind, model, params, outdir, seed)) == code
        assert _artifacts(outdir) == from_cli

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_help_lists_every_parameter(self, kind, capsys):
        with pytest.raises(SystemExit) as exc:
            main([kind, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name, _, _ in _KINDS[kind].params:
            assert _kebab(name) in out

    def test_flag_names_keep_their_spelling(self, capsys):
        for kind, flags in [
            ("delay-eq", ["--theta-max", "--sup-tolerance"]),
            ("spine-check", ["--paths", "--z-max", "--rel-tol"]),
            ("simulate", ["--paths", "--mu", "--f"]),
        ]:
            with pytest.raises(SystemExit):
                main([kind, "--help"])
            out = capsys.readouterr().out
            assert all(flag in out for flag in flags)

    def test_spine_check_gate(self, preset_dir, tmp_path):
        # an absent zMax is no gate, recorded as null; a tiny one must fail
        model = str(preset_dir / "two-site" / "two-site_model.json")
        argv = ["spine-check", "--model", model, "--paths", "2000"]
        assert main(argv + ["--outdir", str(tmp_path / "a")]) == EXIT_OK
        manifest = json.loads((tmp_path / "a" / "run_manifest.json").read_text())
        assert manifest["parameters"]["zMax"] is None
        assert main(argv + ["--z-max", "0.01", "--outdir", str(tmp_path / "b")]) == EXIT_TOLERANCE

    def test_readme_names_only_existing_flags(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
        named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
        assert named
        flags = set()
        for command in [[], ["run"], ["preset"], *([kind] for kind in _KINDS)]:
            with pytest.raises(SystemExit):
                main([*command, "--help"])
            flags |= set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out))
        assert named <= flags, sorted(named - flags)

    def test_spine_check_matches_ode_on_scalar_model(self, preset_dir, tmp_path):
        # scalar paths are deterministic, so the gap is the r-quadrature's bias;
        # with se = 0 and a nonzero gap z is undefined, written null
        model = str(preset_dir / "scalar-csbp" / "scalar-csbp_model.json")
        argv = ["spine-check", "--model", model, "--theta", "10", "--paths", "2"]
        assert main([*argv, "--outdir", str(tmp_path)]) == EXIT_OK
        (row,) = strict_json(tmp_path / "spine_check.json")["rows"]
        assert abs(row["fk_estimate"] / row["ode_value"] - 1.0) <= 1e-5
        assert row["fk_se"] == 0.0 and row["z_score"] is None
        assert strict_json(tmp_path / "run_manifest.json")["summary"]["rows"] == [row]
        # an undefined z fails a present zMax
        assert main([*argv, "--z-max", "3", "--outdir", str(tmp_path / "gated")]) == EXIT_TOLERANCE
        strict_json(tmp_path / "gated" / "run_manifest.json")

    def test_spine_check_agreeing_paths_pass(self, preset_dir, tmp_path):
        # at theta 0 the estimate and the ODE value are both exactly 0: z is 0
        model = str(preset_dir / "scalar-csbp" / "scalar-csbp_model.json")
        argv = ["spine-check", "--model", model, "--theta", "0", "--paths", "2", "--z-max", "3"]
        assert main([*argv, "--outdir", str(tmp_path)]) == EXIT_OK
        (row,) = strict_json(tmp_path / "spine_check.json")["rows"]
        assert row["fk_estimate"] == row["ode_value"] == row["fk_se"] == row["z_score"] == 0.0
        assert strict_json(tmp_path / "run_manifest.json")["status"] == "ok"

    def test_three_site_bundle_runs_clean(self, tmp_path, capsys):
        argv = ["preset", "three-site-mixed", "--outdir", str(tmp_path), "--execute"]
        assert main(argv) == EXIT_OK
        written = sorted(tmp_path.rglob("*.json"))
        assert len(written) == 10  # the model, four specs, four manifests, the calibrated model
        for path in written:
            strict_json(path)
