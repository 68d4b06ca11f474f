"""Configuration-driven experiment runner.

One experiment per invocation: a JSON spec selects a kind, a model file,
parameters, and an output directory; artifacts (CSV/JSON) are written
atomically together with a run manifest carrying the model hash, tool
version, seed, and wall time.  Exit codes: 0 success, 1 declared tolerance
violated, 2 schema/validation error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .analysis import kolmogorov_table, mixture_rv_check, rv_index_fit, yaglom_table
from .cumulant import (
    SolverOptions,
    solve_cumulant,
    solve_extinction,
    weighted_extinction_norm,
)
from .limitlaw import DelayEquationProblem, g_closed, solve_delay_equation
from .model import (
    calibrate_critical,
    eta,
    load_calibrated_model,
    load_model,
    model_hash,
    model_to_dict,
    save_calibrated_model,
    _atomic_write_text,
)
from .simulate import SimConfig, simulate_paths
from .spine import feynman_kac_estimate

__all__ = ["ExperimentSpec", "PresetBundle", "run", "preset", "main"]

KINDS = (
    "calibrate",
    "cumulant",
    "survival",
    "yaglom",
    "simulate",
    "spine-check",
    "rv-fit",
    "delay-eq",
    "mixture-check",
)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_SCHEMA = 2
EXIT_RUNTIME = 3


class SchemaError(ValueError):
    pass


@dataclass
class ExperimentSpec:
    kind: str
    model_path: str | None
    parameters: dict
    output_dir: str
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"unknown experiment kind {self.kind!r}")
        if not isinstance(self.parameters, dict):
            raise SchemaError("parameters must be a mapping")

    def validate_files(self):
        if self.kind not in ("delay-eq", "mixture-check"):
            if not self.model_path or not os.path.exists(self.model_path):
                raise SchemaError(f"model file not found: {self.model_path!r}")

    @classmethod
    def from_file(cls, path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        for key in ("kind", "outputDir"):
            if key not in data:
                raise SchemaError(f"spec missing key {key!r}")
        return cls(
            kind=data["kind"],
            model_path=data.get("modelPath"),
            parameters=data.get("parameters", {}),
            output_dir=data["outputDir"],
            seed=data.get("seed"),
        )

    def to_dict(self):
        return {
            "kind": self.kind,
            "modelPath": self.model_path,
            "parameters": self.parameters,
            "outputDir": self.output_dir,
            "seed": self.seed,
        }


@dataclass
class PresetBundle:
    name: str
    model: dict
    specs: list = field(default_factory=list)


def _write_json(path, data):
    _atomic_write_text(path, json.dumps(data, indent=2))


def _write_csv(path, header_meta, columns, rows):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        for line in header_meta:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
    os.replace(tmp, path)


def _solver_options(params):
    kwargs = {}
    for spec_key, kw in (
        ("relTol", "rel_tol"),
        ("absTol", "abs_tol"),
        ("maxStep", "max_step"),
        ("warmStartTime", "warm_start_time"),
    ):
        if spec_key in params:
            kwargs[kw] = float(params[spec_key])
    return SolverOptions(**kwargs) if kwargs else None


def _load_any_model(path):
    """Calibrated file if it carries spectral data, else calibrate the base."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if "lambda" in data:
        return load_calibrated_model(path), data
    motion, mech = load_model(path)
    return calibrate_critical(motion, mech), data


def _as_field(params, key, d, default=None):
    if key not in params:
        if default is None:
            raise SchemaError(f"parameter {key!r} required")
        return np.asarray(default, dtype=float)
    arr = np.asarray(params[key], dtype=float)
    if arr.shape != (d,):
        raise SchemaError(f"parameter {key!r} must have length {d}")
    return arr


def _times_from(params, key="times"):
    if key in params:
        return np.asarray(params[key], dtype=float)
    grid = params.get(f"{key}Grid")
    if grid is None:
        raise SchemaError(f"parameter {key!r} or {key}Grid required")
    return np.geomspace(float(grid["min"]), float(grid["max"]), int(grid["count"]))


# ---------------------------------------------------------------------------
# Kind handlers: each returns (exit_code, artifacts, summary)
# ---------------------------------------------------------------------------


def _run_calibrate(spec, outdir):
    motion, mech = load_model(spec.model_path)
    model = calibrate_critical(motion, mech)
    out = os.path.join(outdir, "calibrated_model.json")
    save_calibrated_model(out, model)
    summary = {
        "lambda": model.eigen.lam,
        "gamma0": model.gamma0,
        "C_X": model.c_x,
        "beta": model.mechanism.beta.tolist(),
    }
    return EXIT_OK, [out], summary


def _run_cumulant(spec, outdir):
    model, mdata = _load_any_model(spec.model_path)
    params = spec.parameters
    f = _as_field(params, "f", model.d)
    times = _times_from(params)
    opts = _solver_options(params)
    curve = solve_cumulant(model, f, times, opts)
    out = os.path.join(outdir, "cumulant.csv")
    rows = [
        (float(t), x, float(curve.values[i, x]))
        for i, t in enumerate(curve.times)
        for x in range(model.d)
    ]
    _write_csv(
        out,
        [f"model={model_hash(mdata)}", f"f={f.tolist()}", "theta=1"],
        ("t", "site", "value"),
        rows,
    )
    return EXIT_OK, [out], {"engine": curve.solver_report.engine}


def _run_survival(spec, outdir):
    model, mdata = _load_any_model(spec.model_path)
    params = spec.parameters
    mu = _as_field(params, "mu", model.d)
    times = _times_from(params)
    opts = _solver_options(params)
    table = kolmogorov_table(model, mu, times, opts)
    out = os.path.join(outdir, "survival.csv")
    rows = [
        (float(t), float(n * eta(model, t)), float(n), table.target)
        for t, n in zip(table.times, table.normalized)
    ]
    _write_csv(
        out,
        [f"model={model_hash(mdata)}", f"mu={mu.tolist()}"],
        ("t", "survival", "normalized", "target"),
        rows,
    )
    summary = {
        "target": table.target,
        "final_ratio": float(table.ratio[-1]),
        "monotone": table.monotone,
    }
    code = EXIT_OK
    tol = params.get("ratioTolerance")
    if tol is not None and abs(summary["final_ratio"] - 1.0) > float(tol):
        code = EXIT_TOLERANCE
    return code, [out], summary


def _run_yaglom(spec, outdir):
    model, mdata = _load_any_model(spec.model_path)
    params = spec.parameters
    d = model.d
    if "f" in params:
        f = _as_field(params, "f", d)
    else:
        ones = np.ones(d)
        f = ones / model.inner_m(ones, model.phi_star)
    thetas = _times_from(params, "theta")
    horizons = [float(T) for T in params.get("horizons", [params.get("horizon")])]
    if horizons == [None]:
        raise SchemaError("parameter 'horizon' or 'horizons' required")
    opts = _solver_options(params)
    sup_by_T = []
    artifacts = []
    for T in horizons:
        table = yaglom_table(model, f, thetas, T, opts)
        out = os.path.join(outdir, f"yaglom_T{T:g}.csv")
        rows = [
            (float(th), float(se), float(gl))
            for th, se, gl in zip(table.theta, table.sup_error, table.limit)
        ]
        _write_csv(
            out,
            [f"model={model_hash(mdata)}", f"f={f.tolist()}", f"T={T:g}"],
            ("theta", "sup_error", "G_limit"),
            rows,
        )
        artifacts.append(out)
        sup_by_T.append(float(table.sup_error.max()))
    summary = {"horizons": horizons, "sup_error": sup_by_T}
    code = EXIT_OK
    tol = params.get("supTolerance")
    if tol is not None:
        decreasing = all(a > b for a, b in zip(sup_by_T, sup_by_T[1:]))
        if sup_by_T[-1] > float(tol) or (len(sup_by_T) > 1 and not decreasing):
            code = EXIT_TOLERANCE
    return code, artifacts, summary


def _run_simulate(spec, outdir):
    model, mdata = _load_any_model(spec.model_path)
    params = spec.parameters
    mu = _as_field(params, "mu", model.d)
    f = _as_field(params, "f", model.d, default=np.ones(model.d))
    config = SimConfig(
        step_size=float(params["step"]),
        horizon=float(params["horizon"]),
        replicates=int(params["paths"]),
        mass_floor=float(params.get("massFloor", 0.0)),
        seed=int(spec.seed or 0),
    )
    stats = simulate_paths(model, mu, config, f=f)
    csv_path = os.path.join(outdir, "functionals.csv")
    _write_csv(
        csv_path,
        [f"model={model_hash(mdata)}", f"f={f.tolist()}", f"seed={config.seed}"],
        ("functional",),
        [(repr(float(v)),) for v in stats.functional_values],
    )
    report = {
        "survivors": stats.survivors,
        "survival_rate": stats.survival_rate,
        "se": stats.survival_se,
        "functionals_csv_path": csv_path,
        "live_by_block": stats.live_by_block.tolist(),
        "cluster_share": stats.cluster_share,
    }
    report_path = os.path.join(outdir, "report.json")
    _write_json(report_path, report)
    return EXIT_OK, [csv_path, report_path], report


def _run_spine_check(spec, outdir):
    model, mdata = _load_any_model(spec.model_path)
    params = spec.parameters
    d = model.d
    if "f" in params:
        f = _as_field(params, "f", d)
    else:
        ones = np.ones(d)
        f = ones / model.inner_m(ones, model.phi_star)
    theta = float(params.get("theta", 1.0))
    T = float(params.get("horizon", 2.0))
    n_paths = int(params.get("paths", 10000))
    rng = np.random.default_rng(int(spec.seed or 0))
    opts = _solver_options(params)
    est, se = feynman_kac_estimate(
        model, f, theta, T, n_paths, rng,
        r_grid_size=int(params.get("rGridSize", 16)),
        opts=opts,
    )
    ode = solve_cumulant(model, theta * f, [T], opts).values[0]
    rows = [
        {
            "site": x,
            "fk_estimate": float(est[x]),
            "fk_se": float(se[x]),
            "ode_value": float(ode[x]),
            "z_score": float((est[x] - ode[x]) / se[x]),
        }
        for x in range(d)
    ]
    out = os.path.join(outdir, "spine_check.json")
    _write_json(out, {"model": model_hash(mdata), "theta": theta, "T": T, "rows": rows})
    z_max = float(params.get("zMax", np.inf))
    code = EXIT_OK if all(abs(r["z_score"]) <= z_max for r in rows) else EXIT_TOLERANCE
    return code, [out], {"rows": rows}


def _run_rv_fit(spec, outdir):
    model, mdata = _load_any_model(spec.model_path)
    params = spec.parameters
    times = _times_from(params)
    opts = _solver_options(params)
    values = weighted_extinction_norm(model, times, opts)
    est = rv_index_fit(times, values)
    out = os.path.join(outdir, "rv_fit.csv")
    _write_csv(
        out,
        [f"model={model_hash(mdata)}", f"slope={est.slope}", f"stderr={est.stderr}"],
        ("t", "weighted_norm"),
        list(zip(times.tolist(), values.tolist())),
    )
    target = -1.0 / (model.gamma0 - 1.0)
    summary = {"slope": est.slope, "stderr": est.stderr, "target": target}
    code = EXIT_OK
    tol = params.get("slopeRelTolerance")
    if tol is not None and abs(est.slope / target - 1.0) > float(tol):
        code = EXIT_TOLERANCE
    return code, [out], summary


def _run_delay_eq(spec, outdir):
    params = spec.parameters
    a = float(params["a"])
    theta_max = float(params.get("thetaMax", 10.0))
    step = float(params.get("step", 0.01))
    tol = float(params.get("tol", 1e-10))
    grid = np.round(np.arange(0.0, theta_max + step / 2, step), 12)
    sol = solve_delay_equation(DelayEquationProblem(a=a, theta_grid=grid, tol=tol))
    closed = g_closed(a, grid)
    err = np.abs(sol.values - closed)
    out = os.path.join(outdir, "delay_eq.csv")
    _write_csv(
        out,
        [f"a={a}", f"iterations={sol.iterations}"],
        ("theta", "G_solved", "G_closed", "abs_error"),
        list(zip(grid.tolist(), sol.values.tolist(), np.asarray(closed).tolist(), err.tolist())),
    )
    summary = {"sup_error": float(err.max()), "iterations": sol.iterations}
    sup_tol = float(params.get("supTolerance", 1e-8))
    code = EXIT_OK if summary["sup_error"] <= sup_tol else EXIT_TOLERANCE
    return code, [out], summary


def _run_mixture_check(spec, outdir):
    params = spec.parameters
    alpha = np.asarray(params["alpha"], dtype=float)
    rho = np.asarray(params["rho"], dtype=float)
    t_grid = _times_from(params, "t")
    table = mixture_rv_check(alpha, rho, t_grid)
    out = os.path.join(outdir, "mixture_check.csv")
    _write_csv(
        out,
        [f"alpha0={table.alpha0}", f"minimal_mass={table.minimal_mass}"],
        ("t", "ratio"),
        list(zip(table.t.tolist(), table.ratio.tolist())),
    )
    i_min = int(np.argmin(table.t))
    summary = {"alpha0": table.alpha0, "ratio_at_min_t": float(table.ratio[i_min])}
    code = EXIT_OK
    tol = params.get("ratioTolerance")
    if tol is not None and abs(summary["ratio_at_min_t"] - 1.0) > float(tol):
        code = EXIT_TOLERANCE
    return code, [out], summary


_HANDLERS = {
    "calibrate": _run_calibrate,
    "cumulant": _run_cumulant,
    "survival": _run_survival,
    "yaglom": _run_yaglom,
    "simulate": _run_simulate,
    "spine-check": _run_spine_check,
    "rv-fit": _run_rv_fit,
    "delay-eq": _run_delay_eq,
    "mixture-check": _run_mixture_check,
}


def run(spec):
    """Execute one experiment; returns the process exit code."""
    started = time.time()
    outdir = spec.output_dir or os.environ.get("STABLEBRANCH_OUTDIR", ".")
    os.makedirs(outdir, exist_ok=True)
    manifest = {
        "kind": spec.kind,
        "tool_version": __version__,
        "seed": spec.seed,
        "parameters": spec.parameters,
        "status": "failed",
        "artifacts": [],
    }
    try:
        spec.validate_files()
        if spec.model_path:
            with open(spec.model_path, encoding="utf-8") as fh:
                manifest["model_hash"] = model_hash(json.load(fh))
        code, artifacts, summary = _HANDLERS[spec.kind](spec, outdir)
        manifest["artifacts"] = artifacts
        manifest["summary"] = summary
        manifest["status"] = "ok" if code == EXIT_OK else "tolerance_violation"
    except SchemaError as exc:
        manifest["error"] = str(exc)
        code = EXIT_SCHEMA
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 3
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        code = EXIT_RUNTIME
    manifest["wall_time_s"] = round(time.time() - started, 3)
    _write_json(os.path.join(outdir, "run_manifest.json"), manifest)
    return code


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

_PRESET_MODELS = {
    "scalar-csbp": {
        "d": 1,
        "m": [1.0],
        "Q": [[0.0]],
        "beta": [0.25],
        "kappa": [1.0],
        "gamma": [1.5],
    },
    "two-site": {
        "d": 2,
        "m": [1.0, 1.0],
        "Q": [[-1.0, 1.0], [1.0, -1.0]],
        "beta": [0.0, 0.0],
        "kappa": [1.0, 1.0],
        "gamma": [1.2, 1.8],
    },
    "three-site-mixed": {
        "d": 3,
        "m": [1.0, 1.0, 1.0],
        "Q": [[-1.2, 0.8, 0.4], [0.5, -0.9, 0.4], [0.3, 0.6, -0.9]],
        "beta": [0.1, -0.05, 0.2],
        "kappa": [1.0, 0.8, 1.2],
        "gamma": [1.3, 1.3, 1.7],
    },
}

# Experiment blocks per preset; tolerances live here, visibly, not in code.
_PRESET_SPECS = {
    "scalar-csbp": [
        ("calibrate", {}),
        ("delay-eq", {"a": 1.5, "thetaMax": 10.0, "step": 0.01, "tol": 1e-10, "supTolerance": 1e-8}),
        ("survival", {"mu": [1.0], "timesGrid": {"min": 1.0, "max": 1e4, "count": 25}, "relTol": 1e-8, "ratioTolerance": 0.05}),
        ("yaglom", {"thetaGrid": {"min": 0.1, "max": 10.0, "count": 21}, "horizons": [1.0, 10.0, 100.0], "supTolerance": 1e-8}),
        ("simulate", {"paths": 20000, "step": 1e-3, "horizon": 1.0, "mu": [1.0]}),
    ],
    "two-site": [
        ("calibrate", {}),
        ("rv-fit", {"timesGrid": {"min": 1e3, "max": 1e6, "count": 25}, "relTol": 1e-7, "slopeRelTolerance": 0.02}),
        ("yaglom", {"thetaGrid": {"min": 0.1, "max": 10.0, "count": 21}, "horizons": [1e2, 1e3, 1e4], "relTol": 1e-7, "supTolerance": 0.05}),
        ("simulate", {"paths": 100000, "step": 1e-3, "horizon": 1.0, "mu": [0.5, 0.5], "f": [1.0, 1.0]}),
        ("spine-check", {"theta": 1.0, "horizon": 2.0, "paths": 100000, "zMax": 3.0}),
    ],
    "three-site-mixed": [
        ("calibrate", {}),
        ("survival", {"mu": [0.4, 0.3, 0.3], "timesGrid": {"min": 1e3, "max": 1e5, "count": 9}, "relTol": 1e-7, "ratioTolerance": 0.05}),
        ("rv-fit", {"timesGrid": {"min": 1e3, "max": 1e6, "count": 25}, "relTol": 1e-7, "slopeRelTolerance": 0.02}),
        ("mixture-check", {"alpha": [1.2, 1.8], "rho": [1.0, 1.0], "tGrid": {"min": 1e-6, "max": 1e-2, "count": 9}, "ratioTolerance": 1e-3}),
    ],
}


def preset(name, outdir=None, seed=20260808):
    """Ready-to-run spec bundle for a canonical model."""
    if name not in _PRESET_MODELS:
        raise SchemaError(f"unknown preset {name!r}")
    bundle = PresetBundle(name=name, model=dict(_PRESET_MODELS[name]))
    outdir = outdir or os.environ.get("STABLEBRANCH_OUTDIR", ".")
    model_path = os.path.join(outdir, f"{name}_model.json")
    for i, (kind, params) in enumerate(_PRESET_SPECS[name]):
        bundle.specs.append(
            ExperimentSpec(
                kind=kind,
                model_path=model_path,
                parameters=dict(params),
                output_dir=os.path.join(outdir, f"{name}_{i:02d}_{kind}"),
                seed=seed,
            )
        )
    return bundle


def write_preset(name, outdir, seed=20260808):
    """Materialize the preset: model JSON plus one spec JSON per experiment."""
    os.makedirs(outdir, exist_ok=True)
    bundle = preset(name, outdir, seed)
    model_path = os.path.join(outdir, f"{name}_model.json")
    _write_json(model_path, bundle.model)
    paths = [model_path]
    for i, sp in enumerate(bundle.specs):
        path = os.path.join(outdir, f"{name}_{i:02d}_{sp.kind}.json")
        _write_json(path, sp.to_dict())
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _apply_thread_cap(threads):
    """Cap BLAS threads; raises ImportError when threadpoolctl is missing.

    numpy has loaded its BLAS by the time arguments are parsed, so setting
    OMP_NUM_THREADS here would be silently ignored; threadpoolctl is the only
    way the cap can take effect.
    """
    if threads is None:
        return
    import threadpoolctl

    threadpoolctl.threadpool_limits(int(threads))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="stablebranch",
        description="Experiment runner for critical stable-branching models.",
    )
    parser.add_argument(
        "--threads", type=int, default=None, help="cap BLAS threads (needs threadpoolctl)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON experiment spec")
    p_run.add_argument("spec", help="path to the spec JSON")

    p_preset = sub.add_parser("preset", help="write a canonical model + spec bundle")
    p_preset.add_argument("name", choices=sorted(_PRESET_MODELS))
    p_preset.add_argument("--outdir", default=None)
    p_preset.add_argument("--seed", type=int, default=20260808)
    p_preset.add_argument(
        "--execute", action="store_true", help="run every spec after writing"
    )

    p_cal = sub.add_parser("calibrate", help="calibrate a base model file")
    p_cal.add_argument("--model", required=True)
    p_cal.add_argument("--outdir", default=None)

    p_sim = sub.add_parser("simulate", help="Monte Carlo run")
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--paths", type=int, required=True)
    p_sim.add_argument("--step", type=float, required=True)
    p_sim.add_argument("--horizon", type=float, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--mu", required=True, help="JSON file with the start density")
    p_sim.add_argument("--f", default=None, help="JSON file with the test field")
    p_sim.add_argument("--outdir", default=None)

    p_spine = sub.add_parser("spine-check", help="path-functional consistency check")
    p_spine.add_argument("--model", required=True)
    p_spine.add_argument("--theta", type=float, default=1.0)
    p_spine.add_argument("--horizon", type=float, default=2.0)
    p_spine.add_argument("--paths", type=int, default=10000)
    p_spine.add_argument("--seed", type=int, default=0)
    p_spine.add_argument("--outdir", default=None)

    p_delay = sub.add_parser("delay-eq", help="fixed-point solve vs closed form")
    p_delay.add_argument("--a", type=float, required=True)
    p_delay.add_argument("--theta-max", type=float, default=10.0)
    p_delay.add_argument("--step", type=float, default=0.01)
    p_delay.add_argument("--tol", type=float, default=1e-10)
    p_delay.add_argument("--sup-tolerance", type=float, default=1e-8)
    p_delay.add_argument("--outdir", default=None)

    args = parser.parse_args(argv)
    try:
        _apply_thread_cap(args.threads)
    except ImportError:
        print("error: --threads needs threadpoolctl, which is not installed", file=sys.stderr)
        return EXIT_SCHEMA
    outdir = getattr(args, "outdir", None) or os.environ.get(
        "STABLEBRANCH_OUTDIR", "."
    )

    try:
        if args.command == "run":
            return run(ExperimentSpec.from_file(args.spec))
        if args.command == "preset":
            paths = write_preset(args.name, outdir, args.seed)
            print("\n".join(paths))
            if args.execute:
                worst = EXIT_OK
                for path in paths[1:]:
                    worst = max(worst, run(ExperimentSpec.from_file(path)))
                return worst
            return EXIT_OK
        if args.command == "calibrate":
            spec = ExperimentSpec("calibrate", args.model, {}, outdir)
        elif args.command == "simulate":
            with open(args.mu, encoding="utf-8") as fh:
                mu = json.load(fh)
            params = {
                "paths": args.paths,
                "step": args.step,
                "horizon": args.horizon,
                "mu": mu,
            }
            if args.f:
                with open(args.f, encoding="utf-8") as fh:
                    params["f"] = json.load(fh)
            spec = ExperimentSpec("simulate", args.model, params, outdir, args.seed)
        elif args.command == "spine-check":
            params = {
                "theta": args.theta,
                "horizon": args.horizon,
                "paths": args.paths,
            }
            spec = ExperimentSpec("spine-check", args.model, params, outdir, args.seed)
        elif args.command == "delay-eq":
            params = {
                "a": args.a,
                "thetaMax": args.theta_max,
                "step": args.step,
                "tol": args.tol,
                "supTolerance": args.sup_tolerance,
            }
            spec = ExperimentSpec("delay-eq", None, params, outdir)
        else:  # pragma: no cover
            raise SchemaError(f"unhandled command {args.command}")
        return run(spec)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
