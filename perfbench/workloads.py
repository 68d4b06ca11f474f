"""The benchmark's models, ops and checks.

Every op calls the package's public API through `api`, so that a traced run
can wrap those calls.  Every op has a check that takes another route to the
same quantity (a closed form, the conservation identity, the spine chain, a
recorded digest); checks run outside the timed region.  See README.md for why
each workload and op exists.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

import stablebranch as sb
from stablebranch import cli, cumulant

HERE = os.path.dirname(os.path.abspath(__file__))

# The benchmark's own copy of the preset models (cli._PRESET_MODELS).
MODELS = {
    "scalar-csbp": {
        "d": 1, "m": [1.0], "Q": [[0.0]],
        "beta": [0.25], "kappa": [1.0], "gamma": [1.5],
    },
    "two-site": {
        "d": 2, "m": [1.0, 1.0], "Q": [[-1.0, 1.0], [1.0, -1.0]],
        "beta": [0.0, 0.0], "kappa": [1.0, 1.0], "gamma": [1.2, 1.8],
    },
    "three-site-mixed": {
        "d": 3, "m": [1.0, 1.0, 1.0],
        "Q": [[-1.2, 0.8, 0.4], [0.5, -0.9, 0.4], [0.3, 0.6, -0.9]],
        "beta": [0.1, -0.05, 0.2], "kappa": [1.0, 0.8, 1.2], "gamma": [1.3, 1.3, 1.7],
    },
}

# The benchmark's own copy of the scalar-csbp preset specs run through cli.run
# (the preset's simulate spec is left out: Monte Carlo has its own workloads).
CLI_SPECS = {
    "calibrate": {},
    "delay-eq": {"a": 1.5, "thetaMax": 10.0, "step": 0.01, "tol": 1e-10,
                 "supTolerance": 1e-8},
    "survival": {"mu": [1.0], "timesGrid": {"min": 1.0, "max": 1e4, "count": 25},
                 "relTol": 1e-8, "ratioTolerance": 0.05},
    "yaglom": {"thetaGrid": {"min": 0.1, "max": 10.0, "count": 21},
               "horizons": [1.0, 10.0, 100.0], "supTolerance": 1e-8},
}
CLI_SEED = 20260808

# Op sizes.  "run" runs the Monte Carlo ops at 1/4 of the replicates or paths
# of the acceptance tests, so that a pass fits several times into one run; the
# solver ops keep their tolerances.  "smoke" runs every op and check once,
# quickly.
SIZES = {
    "run": dict(ext_tol=1e-8, fit_tol=1e-7, yaglom_tol=1e-7, n_scalar=2048,
                n_small=4096, n_order=4096, fk_paths=25_000, erg_paths=300),
    "smoke": dict(ext_tol=1e-6, fit_tol=1e-6, yaglom_tol=1e-6, n_scalar=512,
                  n_small=256, n_order=256, fk_paths=2000, erg_paths=300),
}

# The package functions the ops call; a traced run wraps each of them.
API = SimpleNamespace(
    solve_extinction=sb.solve_extinction,
    weighted_extinction_norm=sb.weighted_extinction_norm,
    rv_index_fit=sb.rv_index_fit,
    yaglom_table=sb.yaglom_table,
    simulate_paths=sb.simulate_paths,
    feynman_kac_estimate=sb.feynman_kac_estimate,
    spine_generator=sb.spine_generator,
    ergodic_average_check=sb.ergodic_average_check,
    simulate_spine=sb.simulate_spine,
    run=cli.run,
)


@dataclass
class Check:
    name: str
    ok: bool
    err: float | None = None  # achieved error, in the unit of tol
    tol: float | None = None  # stated tolerance
    note: str = ""

    @property
    def ratio(self):
        return None if self.err is None else self.err / self.tol


@dataclass
class Op:
    name: str
    run: Callable  # run(ctx, api) -> output; timed
    check: Callable  # check(ctx, output) -> [Check]; untimed
    fingerprint: Callable  # output -> str; later passes must reproduce it
    # Checks that miss their tolerance at the parent commit, with the ROADMAP
    # item that will fix them.  They are reported, not excused: they count
    # against ops_ok_share and worst_err_over_tol.
    known_misses: dict = field(default_factory=dict)
    # Share of site-steps on live replicates, integral of P(alive) dt / T
    # from the extinction curve (see live_share()); Monte Carlo ops only.
    live_share: float | None = None


@dataclass
class Context:
    models: dict
    spec_paths: dict
    digests: dict
    capture: bool = False  # set on the checked pass


def _critical_model(data):
    space = sb.StateSpace(d=data["d"], m=data["m"])
    motion = sb.MotionGenerator(space=space, Q=data["Q"])
    mech = sb.BranchingMechanism(beta=data["beta"], kappa=data["kappa"], gamma=data["gamma"])
    return sb.calibrate_critical(motion, mech)


def setup(workdir):
    """Calibrate the models and write the model and spec files under workdir."""
    os.makedirs(workdir, exist_ok=True)
    models = {}
    for name, data in MODELS.items():
        with open(os.path.join(workdir, f"{name}_model.json"), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
        models[name] = _critical_model(data)
    spec_paths = {}
    for kind, params in CLI_SPECS.items():
        spec = {
            "kind": kind,
            "modelPath": os.path.join(workdir, "scalar-csbp_model.json"),
            "parameters": params,
            "outputDir": os.path.join(workdir, f"cli-{kind}"),
            "seed": CLI_SEED,
        }
        path = os.path.join(workdir, f"scalar-csbp_{kind}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh, indent=2)
        spec_paths[kind] = path
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        digests = json.load(fh)
    return Context(models=models, spec_paths=spec_paths, digests=digests)


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _normalized_ones(model):
    ones = np.ones(model.d)
    return ones / model.inner_m(ones, model.phi_star)


# ---------------------------------------------------------------------------
# ode-asymptotics
# ---------------------------------------------------------------------------


def _conservation(model, curve, s, t, rel_tol):
    """Relative residual of the weighted balance on [s, t]; tolerance 10 rel_tol.

    The quadrature tolerance is scaled to the value being checked: the
    library's absolute default (1e-9) exceeds that value on [1e3, 1e6].
    """
    base = float(curve.evaluate(s) @ (model.phi_star * model.m))
    res = sb.conservation_residual(model, curve, s, t, quad_tol=1e-3 * rel_tol * base)
    err = res / base
    return Check("conservation", err <= 10 * rel_tol, err, 10 * rel_tol, f"on [{s:g}, {t:g}]")


def _ext_op(tol):
    def run(ctx, api):
        return api.solve_extinction(ctx.models["two-site"], [1.0], sb.SolverOptions(rel_tol=tol))

    def check(ctx, curve):
        return [_conservation(ctx.models["two-site"], curve, 0.1, 1.0, tol)]

    return Op("ext-two-t1", run, check, lambda c: _sha(c.values),
              known_misses={"conservation": "ROADMAP item 2"})


@contextmanager
def _captured_extinction(enabled):
    """Keep the curves solve_extinction returns, for the conservation check."""
    curves = []
    if not enabled:
        yield curves
        return
    original = cumulant.solve_extinction

    def capturing(*args, **kwargs):
        curves.append(original(*args, **kwargs))
        return curves[-1]

    cumulant.solve_extinction = capturing
    try:
        yield curves
    finally:
        cumulant.solve_extinction = original


def _rvfit_op(name, model_name, tol, known):
    times = np.geomspace(1e3, 1e6, 25)

    def run(ctx, api):
        model = ctx.models[model_name]
        with _captured_extinction(ctx.capture) as curves:
            values = api.weighted_extinction_norm(model, times, sb.SolverOptions(rel_tol=tol))
        return values, api.rv_index_fit(times, values), curves

    def check(ctx, out):
        values, est, curves = out
        model = ctx.models[model_name]
        target = -1.0 / (model.gamma0 - 1.0)
        slope_err = abs(est.slope / target - 1.0)
        return [
            Check("slope", slope_err <= 0.02, slope_err, 0.02,
                  f"slope {est.slope:.5f} vs {target:.5f}"),
            _conservation(model, curves[0], 1e3, 1e6, tol),
        ]

    return Op(name, run, check, lambda out: _sha(out[0], [out[1].slope]), known_misses=known)


def _yaglom_op(tol):
    thetas = np.geomspace(0.1, 10.0, 21)
    horizons = (1e2, 1e3, 1e4)

    def run(ctx, api):
        model = ctx.models["two-site"]
        f = _normalized_ones(model)
        opts = sb.SolverOptions(rel_tol=tol)
        return [api.yaglom_table(model, f, thetas, T, opts) for T in horizons]

    def check(ctx, tables):
        sups = [float(t.sup_error.max()) for t in tables]
        decreasing = all(a > b for a, b in zip(sups, sups[1:]))
        return [
            Check("sup-decreasing", decreasing, note=" > ".join(f"{s:.3g}" for s in sups)),
            Check("sup-final", sups[-1] <= 0.05, sups[-1], 0.05),
        ]

    return Op("yaglom-two", run, check, lambda tables: _sha(*[t.surface for t in tables]))


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}


def _cli_check_calibrate(outdir):
    with open(os.path.join(outdir, "calibrated_model.json"), encoding="utf-8") as fh:
        lam = abs(json.load(fh)["lambda"])
    return [Check("criticality", lam <= 1e-12, lam, 1e-12, "|lambda| after calibration")]


def _cli_check_delay(outdir):
    params = CLI_SPECS["delay-eq"]
    table = _read_csv(os.path.join(outdir, "delay_eq.csv"))
    theta, a1 = table["theta"], params["a"] - 1.0
    closed = np.zeros_like(theta)
    pos = theta > 0
    closed[pos] = (1.0 + theta[pos] ** -a1) ** (-1.0 / a1)
    err = float(np.abs(table["G_solved"] - closed).max())
    tol = params["supTolerance"]
    return [Check("closed-form", err <= tol, err, tol, "sup |G - (1 + theta^-(a-1))^(-1/(a-1))|")]


def _cli_check_survival(outdir):
    table = _read_csv(os.path.join(outdir, "survival.csv"))
    closed = -np.expm1(-((table["t"] / 2.0) ** -2.0))
    err = float(np.abs(table["survival"] / closed - 1.0).max())
    tol = 10 * CLI_SPECS["survival"]["relTol"]
    return [Check("closed-form", err <= tol, err, tol, "max rel err vs 1 - exp(-(t/2)^-2)")]


def _cli_check_yaglom(outdir):
    tol = CLI_SPECS["yaglom"]["supTolerance"]
    err = max(
        float(_read_csv(os.path.join(outdir, f"yaglom_T{T:g}.csv"))["sup_error"].max())
        for T in CLI_SPECS["yaglom"]["horizons"]
    )
    return [Check("sup-error", err <= tol, err, tol)]


_CLI_CHECKS = {
    "calibrate": _cli_check_calibrate,
    "delay-eq": _cli_check_delay,
    "survival": _cli_check_survival,
    "yaglom": _cli_check_yaglom,
}


def _cli_op(kind, known):
    def run(ctx, api):
        spec = cli.ExperimentSpec.from_file(ctx.spec_paths[kind])
        return api.run(spec), spec.output_dir

    def check(ctx, out):
        code, outdir = out
        return [Check("exit-0", code == 0, note=f"exit {code}")] + _CLI_CHECKS[kind](outdir)

    def fingerprint(out):
        code, outdir = out
        h = hashlib.sha256(str(code).encode())
        for name in sorted(os.listdir(outdir)):
            if name != "run_manifest.json":  # holds the wall time
                with open(os.path.join(outdir, name), "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()

    return Op(f"cli-scalar-{kind}", run, check, fingerprint, known_misses=known)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def digest(stats):
    """SHA-256 of the survivor count and survivor functionals, bit for bit."""
    h = hashlib.sha256(np.int64(stats.survivors).tobytes())
    h.update(np.ascontiguousarray(stats.functional_values, dtype="<f8").tobytes())
    return h.hexdigest()


def _digest_check(ctx, name, seed, n, stats):
    key = f"{name}/seed={seed}/N={n}"
    found = digest(stats)
    expected = ctx.digests.get(key)
    if expected is None:
        return Check("digest", True, note=f"skipped: no recorded digest for {key} (got {found})")
    return Check("digest", found == expected, note=f"{key} {found[:16]}")


def _sim_op(name, model_name, mu, f, h, T, n, seed, live, survival_closed_form=None):
    def run(ctx, api):
        config = sb.SimConfig(step_size=h, horizon=T, replicates=n, seed=seed)
        return api.simulate_paths(ctx.models[model_name], np.asarray(mu), config, f=f)

    def check(ctx, stats):
        checks = [_digest_check(ctx, name, seed, n, stats)]
        if survival_closed_form is not None:
            p = survival_closed_form
            z = (stats.survival_rate - p) / np.sqrt(p * (1.0 - p) / n)
            checks.append(Check("survival-z", abs(z) <= 3.0, abs(z), 3.0,
                                f"{stats.survivors}/{n} survive vs p = {p:.5f}"))
        return checks

    return Op(name, run, check, digest, live_share=live)


def _fk_op(n_paths):
    theta, T = 1.0, 2.0

    def run(ctx, api):
        model = ctx.models["two-site"]
        f = _normalized_ones(model)
        return api.feynman_kac_estimate(model, f, theta, T, n_paths, np.random.default_rng(42))

    def check(ctx, out):
        est, se = out
        model = ctx.models["two-site"]
        ode = sb.solve_cumulant(model, theta * _normalized_ones(model), [T]).values[0]
        z = np.abs(est - ode) / se
        return [Check("z-vs-ode", bool(np.all(z <= 3.0)), float(z.max()), 3.0,
                      "per-site |FK - solve_cumulant| / se")]

    return Op("fk-two", run, check, lambda out: _sha(*out))


def _site0(y, u):
    return (y == 0) * np.ones_like(u)


def _ergodic_op(n_paths):
    horizons = (1e2, 1e3, 1e4)

    def run(ctx, api):
        chain = api.spine_generator(ctx.models["three-site-mixed"])
        return [
            api.ergodic_average_check(chain, _site0, T, n_paths, np.random.default_rng(100 + i))
            for i, T in enumerate(horizons)
        ]

    def check(ctx, results):
        l2 = [float(np.sqrt(se**2 * n_paths + (est - tgt) ** 2)) for est, tgt, se in results]
        worst = max(b / a for a, b in zip(l2, l2[1:]))
        return [Check("l2-decreasing", worst < 1.0, worst, 1.0,
                      "L2 " + " > ".join(f"{v:.4f}" for v in l2))]

    return Op("ergodic-three", run, check, lambda results: _sha(*results))


def _spine_op():
    T, n_blocks = 1e4, 100

    def run(ctx, api):
        chain = api.spine_generator(ctx.models["three-site-mixed"])
        return chain, api.simulate_spine(chain, 0, T, np.random.default_rng(314))

    def check(ctx, out):
        chain, path = out
        d = chain.d
        edges = np.linspace(0.0, T, n_blocks + 1)
        times = np.concatenate([[0.0], path.jump_times, [T]])
        sites = np.concatenate([[path.start], path.states]).astype(int)
        blocks = np.empty((n_blocks, d))
        for b in range(n_blocks):
            lo, hi = edges[b], edges[b + 1]
            span = np.maximum(np.clip(times[1:], lo, hi) - np.clip(times[:-1], lo, hi), 0.0)
            occ = np.zeros(d)
            np.add.at(occ, sites, span)
            blocks[b] = occ / (hi - lo)
        dev = np.abs(blocks.mean(axis=0) - chain.stationary * chain.m)
        se = blocks.std(axis=0, ddof=1) / np.sqrt(n_blocks)
        z = float((dev / se).max())
        return [Check("occupation-z", z <= 3.0, z, 3.0,
                      f"{len(path.jump_times)} jumps; block-mean occupation vs stationary")]

    return Op("spine-path-three", run, check,
              lambda out: _sha(out[1].jump_times, out[1].states))


def live_share(model, mu, T, rel_tol=1e-6, points=2001):
    """Integral over [0, T] of P(alive at t) = 1 - exp(-<mu, v_t>), divided by T."""
    t = np.geomspace(1e-7, T, points)
    v = sb.solve_extinction(model, t, sb.SolverOptions(rel_tol=rel_tol)).values
    alive = -np.expm1(-(v @ (np.asarray(mu) * model.m)))
    return float((1e-7 + np.trapezoid(alive, t)) / T)


def build(size):
    """The ops of each workload at the given size ("run" or "smoke")."""
    s = SIZES[size]
    return {
        "ode-asymptotics": [
            _ext_op(s["ext_tol"]),
            _rvfit_op("rvfit-two", "two-site", s["fit_tol"], {}),
            _rvfit_op("rvfit-three", "three-site-mixed", s["fit_tol"],
                      {"conservation": "ROADMAP item 2"}),
            _yaglom_op(s["yaglom_tol"]),
            _cli_op("calibrate", {}),
            _cli_op("delay-eq", {}),
            _cli_op("survival", {}),
            _cli_op("yaglom", {"exit-0": "ROADMAP item 5"}),
        ],
        "mc-dust": [
            # Scalar closed form: v_T = (T/2)^-2, so P(alive at 20) = 1 - exp(-0.01).
            _sim_op("sim-scalar-t20", "scalar-csbp", [1.0], np.ones(1), 5e-3, 20.0,
                    s["n_scalar"], 777, LIVE_SHARES["sim-scalar-t20"],
                    survival_closed_form=-np.expm1(-0.01)),
            _sim_op("sim-two-smallmass", "two-site", [4e-4, 4e-4], None, 1e-3, 1.0,
                    s["n_small"], 4321, LIVE_SHARES["sim-two-smallmass"]),
        ],
        "mc-bulk": [
            _sim_op("sim-two-orderone", "two-site", [0.5, 0.5], np.ones(2), 1e-3, 1.0,
                    s["n_order"], 1234, LIVE_SHARES["sim-two-orderone"]),
            _fk_op(s["fk_paths"]),
            _ergodic_op(s["erg_paths"]),
            _spine_op(),
        ],
    }


# live_share() of each simulate op, computed once; the smoke mode recomputes
# them and fails if a stored value is off by more than LIVE_SHARE_TOL.
LIVE_SHARES = {
    "sim-scalar-t20": 0.1673,
    "sim-two-smallmass": 0.9459,
    "sim-two-orderone": 1.0,
}
LIVE_SHARE_TOL = 1e-3
LIVE_SHARE_INPUTS = {
    "sim-scalar-t20": ("scalar-csbp", [1.0], 20.0),
    "sim-two-smallmass": ("two-site", [4e-4, 4e-4], 1.0),
    "sim-two-orderone": ("two-site", [0.5, 0.5], 1.0),
}
