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
import dataclasses
import functools
import glob
import io
import json
import math
import numbers
import os
import platform
import re
import sys
import time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy

from . import __version__
from .analysis import kolmogorov_table, rv_index_fit, yaglom_tables
from .cumulant import SolverOptions, solve_cumulant, solve_extinction
from .limitlaw import DelayEquationProblem, g_closed, solve_delay_equation
from .model import ArgumentError, _atomic_write_text, eta, read_model, save_calibrated_model
from .simulate import SimConfig, simulate_paths
from .spine import feynman_kac_estimate

__all__ = ["ExperimentSpec", "run", "main"]

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_SCHEMA = 2
EXIT_RUNTIME = 3

# The most points a grid may have: a delay-eq theta grid, or a timesGrid or
# thetaGrid; each is refused before it is allocated.
_MAX_GRID_POINTS = 10**6


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
        for key, value in (("kind", self.kind), ("outputDir", self.output_dir)):
            if not isinstance(value, str):
                raise SchemaError(f"{key} must be a string, got {value!r}")
        if not self.output_dir:
            raise SchemaError("outputDir must not be empty")
        if self.kind not in _KINDS:
            raise SchemaError(f"unknown experiment kind {self.kind!r}")
        if not isinstance(self.parameters, dict):
            raise SchemaError("parameters must be a mapping")

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SchemaError(f"cannot read spec {path!r}: {exc}") from exc
        for key in ("kind", "outputDir"):
            if not isinstance(data, dict) or key not in data:
                raise SchemaError(f"spec {path!r} has no key {key!r}")
        return cls(
            kind=data["kind"],
            model_path=data.get("modelPath"),
            parameters=data.get("parameters", {}),
            output_dir=data["outputDir"],
            seed=data.get("seed"),
        )


def _strict(data):
    """data with every non-finite float replaced by None, as strict JSON has
    no NaN or Infinity."""
    if isinstance(data, float):
        return data if math.isfinite(data) else None
    if isinstance(data, dict):
        return {key: _strict(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [_strict(value) for value in data]
    return data


def _write_json(path, data):
    _atomic_write_text(path, json.dumps(_strict(data), indent=2, allow_nan=False))


def _write_csv(path, header_meta, columns, rows):
    text = io.StringIO()
    for line in header_meta:
        text.write(f"# {line}\n")
    writer = csv.writer(text)
    writer.writerow(columns)
    writer.writerows(rows)
    _atomic_write_text(path, text.getvalue())


def _words(name, sep):
    """camelCase spec name split into lower-case words: relTol -> rel<sep>tol."""
    return re.sub("([A-Z])", sep + r"\1", name).lower()


def _solver_options(params):
    """The spec's SolverOptions, None when it sets none."""
    rel_tol = params.get("relTol")
    return None if rel_tol is None else SolverOptions(rel_tol=rel_tol)


def _field(params, key, default=None):
    """The spec's field `key` as an array, `default` when absent; the library
    call it is passed to checks it."""
    return default if params[key] is None else np.asarray(params[key])


def _unit_field(model):
    """The constant field normalised to <f, phi*>_m = 1."""
    ones = np.ones(model.d)
    return ones / model.inner_m(ones, model.phi_star)


def _times_from(params, key="times"):
    """The list `key` or the geometric grid `keyGrid`: exactly one must be given."""
    grid = params[f"{key}Grid"]
    if params[key] is not None:
        if grid is not None:
            raise SchemaError(f"parameter {key!r} and parameter '{key}Grid' exclude each other")
        return np.asarray(params[key])
    if grid is None:
        raise SchemaError(f"parameter {key!r} or {key}Grid required")
    return np.geomspace(grid["min"], grid["max"], grid["count"])


def _gate(value, tol):
    """Exit code of a tolerance check: an absent tolerance is no gate; NaN fails."""
    return EXIT_OK if tol is None or value <= tol else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# Kind handlers: (spec with its seed checked, resolved parameters, outdir,
# model, model hash) -> (exit_code, artifacts, summary); the model and its hash
# are None for a kind that reads no model.  A handler's docstring is its
# subcommand's help.  The library checks the values a handler passes it; an
# ArgumentError that names one of the kind's parameters is a schema error.
# ---------------------------------------------------------------------------


def _run_calibrate(spec, params, outdir, model, mhash):
    """Shift beta to criticality and write the calibrated model."""
    out = os.path.join(outdir, "calibrated_model.json")
    save_calibrated_model(out, model)
    summary = {
        "lambda": model.eigen.lam,
        "gamma0": model.gamma0,
        "C_X": model.c_x,
        "beta": model.mechanism.beta.tolist(),
    }
    return EXIT_OK, [out], summary


def _run_cumulant(spec, params, outdir, model, mhash):
    """Solve the cumulant equation from the field f."""
    f = _field(params, "f")
    curve = solve_cumulant(model, f, _times_from(params), _solver_options(params))
    out = os.path.join(outdir, "cumulant.csv")
    rows = [
        (float(t), x, float(curve.values[i, x]))
        for i, t in enumerate(curve.times)
        for x in range(model.d)
    ]
    _write_csv(
        out,
        [f"model={mhash}", f"f={f.tolist()}", "theta=1"],
        ("t", "site", "value"),
        rows,
    )
    return EXIT_OK, [out], _solve_summary(curve)


def _counts(report):
    """A SolverReport's counts, under the keys every manifest uses."""
    keys = ("engine", "variable", "accepted", "rejected", "nfev", "njev", "nlu")
    return {key: getattr(report, key) for key in keys}


def _solve_summary(curve):
    """The counts of the solve behind a curve; for an extinction curve also its
    warm-start time t0 (twice the returned run's start) and its certified bound."""
    summary = _counts(curve.solver_report)
    if curve.certification_bound is not None:
        summary.update(t0=2.0 * curve.t_start, certification_bound=curve.certification_bound)
    return summary


def _run_survival(spec, params, outdir, model, mhash):
    """Survival probability against its normalisation eta(t)."""
    mu = _field(params, "mu")
    table = kolmogorov_table(model, mu, _times_from(params), _solver_options(params))
    out = os.path.join(outdir, "survival.csv")
    rows = [
        (float(t), float(n * eta(model, t)), float(n), table.target)
        for t, n in zip(table.times, table.normalized)
    ]
    _write_csv(
        out,
        [f"model={mhash}", f"mu={mu.tolist()}"],
        ("t", "survival", "normalized", "target"),
        rows,
    )
    summary = {
        "target": table.target,
        "final_ratio": float(table.ratio[-1]),
        "monotone": table.monotone,
        **_solve_summary(table.curve),
    }
    return _gate(abs(summary["final_ratio"] - 1.0), params["ratioTolerance"]), [out], summary


def _run_yaglom(spec, params, outdir, model, mhash):
    """Sup error of the conditioned Laplace transform against the Yaglom limit."""
    f = _field(params, "f", _unit_field(model))
    thetas = _times_from(params, "theta")
    horizons = params["horizons"]
    # the trend gate reads the horizons in order, and each has its own table
    if any(a >= b for a, b in zip(horizons, horizons[1:])):
        raise SchemaError(f"parameter 'horizons' must be strictly increasing, got {horizons}")
    names = [f"yaglom_T{T:g}.csv" for T in horizons]
    if len(set(names)) < len(names):
        raise SchemaError(f"parameter 'horizons': {horizons} repeat a table name in {names}")
    opts = _solver_options(params)
    # one solve for every horizon: if it fails, no table is written
    tables = yaglom_tables(model, f, thetas, horizons, opts)
    sup_by_T = []
    artifacts = []
    for T, name, table in zip(horizons, names, tables):
        out = os.path.join(outdir, name)
        rows = [
            (float(th), float(se), float(gl))
            for th, se, gl in zip(table.theta, table.sup_error, table.limit)
        ]
        _write_csv(
            out,
            [f"model={mhash}", f"f={f.tolist()}", f"T={T:g}"],
            ("theta", "sup_error", "G_limit"),
            rows,
        )
        artifacts.append(out)
        sup_by_T.append(float(table.sup_error.max()))
    summary = {
        "horizons": horizons,
        "sup_error": sup_by_T,
        "solve": _counts(tables[0].solver_report),
    }
    # The error must fall with the horizon until it reaches the solver's
    # noise floor; below 10 rel_tol the order of the errors is noise.
    floor = 10.0 * (opts or SolverOptions()).rel_tol
    falling = all(a > b for a, b in zip(sup_by_T, sup_by_T[1:]) if a > floor)
    tol = params["supTolerance"]
    code = _gate(sup_by_T[-1], tol) if falling or tol is None else EXIT_TOLERANCE
    return code, artifacts, summary


def _run_simulate(spec, params, outdir, model, mhash):
    """Monte Carlo run of the branching process from the density mu."""
    mu = _field(params, "mu")
    f = _field(params, "f", np.ones(model.d))
    config = SimConfig(
        step_size=params["step"], horizon=params["horizon"], replicates=params["paths"],
        seed=spec.seed,
    )
    stats = simulate_paths(model, mu, config, f=f)
    csv_path = os.path.join(outdir, "functionals.csv")
    _write_csv(
        csv_path,
        [f"model={mhash}", f"f={f.tolist()}", f"seed={config.seed}"],
        ("functional",),
        [(repr(float(v)),) for v in stats.functional_values],
    )
    report = {
        "survivors": stats.survivors,
        "survival_rate": stats.survival_rate,
        "se": stats.survival_se,
        "functionals_csv_path": csv_path,
        "live_by_block": stats.live_by_block.tolist(),
        "site_steps": stats.site_steps,
        "cluster_share": stats.cluster_share,
    }
    report_path = os.path.join(outdir, "report.json")
    _write_json(report_path, report)
    # the worker count goes to the manifest only: report.json and the csv are
    # the same on every machine
    return EXIT_OK, [csv_path, report_path], {**report, "workers": stats.workers}


def _run_spine_check(spec, params, outdir, model, mhash):
    """Feynman-Kac spine estimate of the cumulant against the ODE solve."""
    f = _field(params, "f", _unit_field(model))
    theta, T = params["theta"], params["horizon"]
    rng = np.random.default_rng(spec.seed)
    opts = _solver_options(params)
    est, se = feynman_kac_estimate(model, f, theta, T, params["paths"], rng, opts=opts)
    ode = solve_cumulant(model, theta * f, [T], opts).values[0]
    # z is 0 where the estimate equals the ODE value, and undefined (NaN,
    # written null) where every path agrees (se = 0) on another value
    z = np.where(est == ode, 0.0, (est - ode) / np.where(se > 0.0, se, np.nan))
    rows = [
        {
            "site": x,
            "fk_estimate": float(est[x]),
            "fk_se": float(se[x]),
            "ode_value": float(ode[x]),
            "z_score": float(z[x]),
        }
        for x in range(model.d)
    ]
    out = os.path.join(outdir, "spine_check.json")
    _write_json(out, {"model": mhash, "theta": theta, "T": T, "rows": rows})
    return _gate(np.abs(z).max(), params["zMax"]), [out], {"rows": rows}


def _run_rv_fit(spec, params, outdir, model, mhash):
    """Regular-variation index of the weighted extinction norm."""
    times = _times_from(params)
    curve = solve_extinction(model, times, _solver_options(params))
    values = curve.values @ (model.phi_star * model.m)
    est = rv_index_fit(times, values)
    out = os.path.join(outdir, "rv_fit.csv")
    _write_csv(
        out,
        [f"model={mhash}", f"slope={est.slope}", f"stderr={est.stderr}"],
        ("t", "weighted_norm"),
        list(zip(times.tolist(), values.tolist())),
    )
    target = -1.0 / (model.gamma0 - 1.0)
    summary = {"slope": est.slope, "stderr": est.stderr, "target": target, **_solve_summary(curve)}
    return _gate(abs(est.slope / target - 1.0), params["slopeRelTolerance"]), [out], summary


def _run_delay_eq(spec, params, outdir, model, mhash):
    """Picard solve of the delay equation against its closed form."""
    a, step, theta_max = params["a"], params["step"], params["thetaMax"]
    # written so that NaN fails every rule
    for name, value in (("thetaMax", theta_max), ("step", step)):
        if not 0.0 < value < np.inf:
            raise SchemaError(f"parameter {name!r} must be finite and positive, got {value!r}")
    if not step <= theta_max:
        raise SchemaError(f"parameter 'step' ({step!r}) must not exceed thetaMax ({theta_max!r})")
    # the grid's length, counted before it is allocated
    if (theta_max + step / 2) / step > _MAX_GRID_POINTS:
        raise SchemaError(
            f"parameter 'step': a step of {step!r} up to thetaMax {theta_max!r} "
            f"gives more than {_MAX_GRID_POINTS:,} grid points"
        )
    grid = np.round(np.arange(0.0, theta_max + step / 2, step), 12)
    sol = solve_delay_equation(DelayEquationProblem(a=a, theta_grid=grid, tol=params["tol"]))
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
    return _gate(summary["sup_error"], params["supTolerance"]), [out], summary


# ---------------------------------------------------------------------------
# The kind table
# ---------------------------------------------------------------------------

REQUIRED = object()  # a parameter default: the spec must give a value


def _is_number(value):
    """A JSON number: a real number that is not a boolean."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _float(value):
    """A number, or a decimal string (a command-line value); a boolean is
    refused, not read as 0 or 1."""
    if not (_is_number(value) or isinstance(value, str)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _floats(value):
    """A nonempty list of numbers; a boolean or a string in it is refused."""
    if not (isinstance(value, (list, tuple)) and value and all(map(_is_number, value))):
        raise ValueError(f"expected a nonempty list of numbers, got {value!r}")
    return [float(v) for v in value]


def _int(value):
    """An integer, given as a number or as a decimal string (a command-line
    value); a boolean or a fractional number is refused, not truncated."""
    if isinstance(value, str):
        return int(value)
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _grid(value):
    if not isinstance(value, dict) or set(value) != {"min", "max", "count"}:
        raise ValueError(f"expected an object with keys min, max and count, got {value!r}")
    grid = {"min": _float(value["min"]), "max": _float(value["max"]), "count": _int(value["count"])}
    # written so that a NaN bound fails
    if not 0.0 < grid["min"] <= grid["max"] < np.inf:
        raise ValueError(f"expected finite bounds with 0 < min <= max, got {value!r}")
    if not 1 <= grid["count"] <= _MAX_GRID_POINTS:
        raise ValueError(f"expected a count from 1 to {_MAX_GRID_POINTS:,}, got {value!r}")
    return grid


def _sampled(key):
    """A list `key`, or a geometric grid `keyGrid`; the handler needs one of them."""
    return ((key, _floats, None), (f"{key}Grid", _grid, None))


# SolverOptions' one field under its camelCase name, for every kind with an
# ODE solve; absent means its default.
_SOLVER = (("relTol", _float, None),)


_Kind = namedtuple("_Kind", "handler needs_model params aliases", defaults=({},))

# Parameters are (name, type, default): the type coerces a given value, a
# default of None means absent, and an absent tolerance means no gate.  A
# library argument carries the parameter of its own name in camelCase, or the
# one its kind's aliases name.
_KINDS = {
    "calibrate": _Kind(_run_calibrate, True, ()),
    "cumulant": _Kind(
        _run_cumulant, True, (("f", _floats, REQUIRED), *_sampled("times"), *_SOLVER)
    ),
    "survival": _Kind(_run_survival, True, (
        ("mu", _floats, REQUIRED), *_sampled("times"), *_SOLVER,
        ("ratioTolerance", _float, None),
    )),
    "yaglom": _Kind(_run_yaglom, True, (
        ("f", _floats, None), *_sampled("theta"), ("horizons", _floats, REQUIRED), *_SOLVER,
        ("supTolerance", _float, None),
    ), {"horizon": "horizons"}),
    "simulate": _Kind(_run_simulate, True, (
        ("mu", _floats, REQUIRED), ("f", _floats, None), ("step", _float, REQUIRED),
        ("horizon", _float, REQUIRED), ("paths", _int, REQUIRED),
    ), {"step_size": "step", "replicates": "paths"}),
    "spine-check": _Kind(_run_spine_check, True, (
        ("f", _floats, None), ("theta", _float, 1.0), ("horizon", _float, 2.0),
        ("paths", _int, 10000), *_SOLVER, ("zMax", _float, None),
    ), {"n_paths": "paths"}),
    "rv-fit": _Kind(
        _run_rv_fit, True,
        (*_sampled("times"), *_SOLVER, ("slopeRelTolerance", _float, None)),
    ),
    "delay-eq": _Kind(_run_delay_eq, False, (
        ("a", _float, REQUIRED), ("thetaMax", _float, 10.0), ("step", _float, 0.01),
        ("tol", _float, 1e-10), ("supTolerance", _float, 1e-8),
    ), {"theta_grid": "step"}),
}


def _resolve(spec):
    """Check `spec` against its kind; returns every parameter, coerced, null as absent."""
    kind = _KINDS[spec.kind]
    unknown = sorted(set(spec.parameters) - {name for name, _, _ in kind.params})
    if unknown:
        raise SchemaError(f"unknown parameter(s) for {spec.kind!r}: {', '.join(unknown)}")
    resolved = {}
    for name, coerce, default in kind.params:
        value = spec.parameters.get(name)
        if value is None and default is REQUIRED:
            raise SchemaError(f"parameter {name!r} required")
        try:
            resolved[name] = default if value is None else coerce(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"parameter {name!r}: {exc}") from exc
    return resolved


def _parameter(kind, argument):
    """The parameter of `kind` that the library argument `argument` carries, or None."""
    names = {_words(name, "_"): name for name, _, _ in _KINDS[kind].params}
    return {**names, **_KINDS[kind].aliases}.get(argument)


def _seed(value):
    """The spec's seed: null means 0, otherwise an integer in [0, 2**64)."""
    if value is None:
        return 0
    try:
        seed = _int(value)
    except (TypeError, ValueError, OverflowError):
        seed = -1  # refused below
    if not 0 <= seed < 2**64:
        raise SchemaError(f"seed must be null or an integer in [0, 2**64), got {value!r}")
    return seed


@functools.cache
def _blas_thread_getters():
    """The thread-count getters of the OpenBLAS builds bundled with numpy and
    scipy (numpy.libs/libscipy_openblas64_*.so, scipy.libs/libscipy_openblas*.so),
    those that are found."""
    import ctypes

    getters = []
    for package, pattern, symbol in (
        (np, "libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
        (scipy, "libscipy_openblas*.so", "scipy_openblas_get_num_threads"),
    ):
        libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                            package.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, pattern))):
            try:
                getter = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            getter.argtypes = []
            getter.restype = ctypes.c_int
            getters.append(getter)
    return tuple(getters)


def _environment():
    """Interpreter and library versions, and the threads this run could use.

    `blas_threads` is the larger of the thread counts of numpy's and scipy's
    OpenBLAS, and None when neither library's getter is found.
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": max((getter() for getter in _blas_thread_getters()), default=None),
    }


def run(spec):
    """Execute one experiment; returns the process exit code.

    Raises OSError when the output directory cannot be created.
    """
    started = time.time()
    outdir = spec.output_dir
    os.makedirs(outdir, exist_ok=True)
    manifest = {
        "kind": spec.kind,
        "tool_version": __version__,
        "environment": _environment(),
        "seed": spec.seed,
        "parameters": spec.parameters,
        "status": "failed",
        "artifacts": [],
    }
    try:
        params = manifest["parameters"] = _resolve(spec)
        spec = dataclasses.replace(spec, seed=_seed(spec.seed))
        manifest["seed"] = spec.seed
        model = mhash = None
        if _KINDS[spec.kind].needs_model:
            try:
                model, mhash = read_model(spec.model_path)
            except (OSError, TypeError, ValueError) as exc:
                raise SchemaError(f"model file {spec.model_path!r}: {exc}") from exc
            manifest["model_hash"] = mhash
        try:
            code, artifacts, summary = _KINDS[spec.kind].handler(spec, params, outdir, model, mhash)
        except ArgumentError as exc:
            name = _parameter(spec.kind, exc.name)
            if name is None:
                raise
            raise SchemaError(f"parameter {name!r}: {exc}") from exc
        manifest["artifacts"] = artifacts
        manifest["summary"] = summary
        manifest["status"] = "ok" if code == EXIT_OK else "tolerance_violation"
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
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
    ],
}


def write_preset(name, outdir, seed=20260808):
    """Write the preset's model JSON and one spec JSON per experiment; returns
    their paths, the model's first."""
    if name not in _PRESET_MODELS:
        raise SchemaError(f"unknown preset {name!r}")
    os.makedirs(outdir, exist_ok=True)
    model_path = os.path.join(outdir, f"{name}_model.json")
    _write_json(model_path, _PRESET_MODELS[name])
    paths = [model_path]
    for i, (kind, params) in enumerate(_PRESET_SPECS[name]):
        stem = os.path.join(outdir, f"{name}_{i:02d}_{kind}")
        spec = {
            "kind": kind, "modelPath": model_path, "parameters": params,
            "outputDir": stem, "seed": seed,
        }
        _write_json(stem + ".json", spec)
        paths.append(stem + ".json")
    return paths


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _json_arg(name, text):
    """A command-line value given as a JSON literal or as the path of a JSON file."""
    try:
        if os.path.isfile(text):
            with open(text, encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(text)
    except (OSError, ValueError) as exc:
        raise SchemaError(f"parameter {name!r}: {text!r} is neither JSON nor a JSON file") from exc


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="stablebranch",
        description="Experiment runner for critical stable-branching models.",
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

    # One subcommand per kind; parameter relTol is flag --rel-tol.
    for kind, entry in _KINDS.items():
        p_kind = sub.add_parser(kind, help=entry.handler.__doc__)
        if entry.needs_model:
            p_kind.add_argument("--model", required=True, help="model JSON file")
        p_kind.add_argument("--seed", type=int, default=None)
        p_kind.add_argument("--outdir", default=None)
        for name, coerce, default in entry.params:
            p_kind.add_argument(
                "--" + _words(name, "-"),
                dest=name,
                required=default is REQUIRED,
                metavar="JSON|FILE" if coerce in (_floats, _grid)
                else coerce.__name__.lstrip("_").upper(),
                help="required" if default is REQUIRED
                else f"default {'absent' if default is None else default}",
            )

    args = parser.parse_args(argv)
    outdir = getattr(args, "outdir", None) or os.environ.get("STABLEBRANCH_OUTDIR", ".")

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
        # Values stay as given; run() coerces them as it does a spec file's.
        params = {}
        for name, coerce, _ in _KINDS[args.command].params:
            value = getattr(args, name)
            if value is not None:
                params[name] = _json_arg(name, value) if coerce in (_floats, _grid) else value
        model = getattr(args, "model", None)
        return run(ExperimentSpec(args.command, model, params, outdir, args.seed))
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:  # an output directory that cannot be made holds no manifest
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
