"""Deterministic evolution of the log-Laplace functional and extinction curves.

On a finite site space the integral equation for the log-Laplace functional
V_t f is equivalent to the site-wise ODE

    du/dt = A u - kappa * u^gamma,      u(0) = f,

with A the calibrated mean generator, integrated by the Radau IIA engine of
`_ivp`.  The extinction cumulant v_t (the infinite-initial-condition limit) is
started analytically: over a vanishing initial window the motion is negligible
and each site evolves as the scalar stable branching flow, giving
v(t0, x) = (kappa(x) (gamma(x)-1) t0)^(-1/(gamma(x)-1)).  The warm start is
certified by halving t0 and bounding the induced change; the bound achieved is
kept on the returned curve.  Extinction runs integrate the Bernoulli variable
z = v^(1-gamma0), in which the tail v ~ c t^(-1/(gamma0-1)) is linear in t;
runs from a finite field f stay in u, because f may vanish on some sites.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._fork import map_forked, worker_count
from ._ivp import OdeSolution, SolverError, SolverReport, solve_branching_ode
from .model import ArgumentError, _as_vector, _density, eta

__all__ = [
    "SolverOptions",
    "CumulantCurve",
    "CertificationError",
    "solve_cumulant",
    "solve_extinction",
    "weighted_extinction_norm",
    "conservation_residual",
]


class CertificationError(SolverError):
    """Warm-start certification failed: t0 too large for the requested accuracy."""


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances of the ODE engine and the extinction warm start.

    Every value must be finite; a value out of range raises ArgumentError
    naming its field.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    warm_start_time: float = 1e-8

    def __post_init__(self):
        # Written so that NaN fails every rule.
        rules = (
            ("rel_tol", 0.0 < self.rel_tol < np.inf, "finite and positive"),
            ("abs_tol", 0.0 <= self.abs_tol < np.inf, "finite and nonnegative"),
            ("warm_start_time", 0.0 < self.warm_start_time < np.inf, "finite and positive"),
        )
        for name, ok, rule in rules:
            if not ok:
                raise ArgumentError(name, f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class CumulantCurve:
    """Time-gridded solution per site, with dense-output access.

    values[i, x] is the solution at times[i], site x; nonnegative throughout.
    For the extinction curve of solve_extinction each site trace is
    nonincreasing in t, certification_bound is the relative warm-start change
    the certification achieved at the first reported time, and
    certification_reports holds the solver reports of its coarse (t0) and
    halved (t0/2) runs, in that order; both are None for other curves.
    solver_report is the report of the solve behind values.
    """

    times: np.ndarray
    values: np.ndarray
    _dense: OdeSolution
    certification_bound: float | None = None
    certification_reports: tuple[SolverReport, SolverReport] | None = None

    def evaluate(self, t):
        """Dense-output values at arbitrary t inside the solved span."""
        return self._dense(t)

    @property
    def solver_report(self):
        return self._dense.report

    @property
    def t_start(self):
        return self._dense.t_start

    @property
    def t_end(self):
        return self._dense.t_end


def _check_times(times, minimum=0.0):
    """The grid every solve and every reading runs on: a nonempty, finite,
    strictly increasing 1-d array starting at or above minimum."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if t.ndim != 1 or t.size == 0:
        raise ArgumentError("times", "times must be a nonempty 1-d grid")
    if not np.all(np.isfinite(t)):
        raise ArgumentError("times", "times must be finite")
    if np.any(np.diff(t) <= 0):
        raise ArgumentError("times", "times must be strictly increasing")
    if t[0] < minimum:
        raise ArgumentError("times", f"times must start at or above {minimum}")
    return t


def _check_horizon(T):
    """T as a float; ArgumentError unless it is finite and positive."""
    if not 0.0 < T < np.inf:  # written so that NaN fails
        raise ArgumentError("horizon", f"horizon must be finite and positive, got {T!r}")
    return float(T)


def _check_thetas(thetas):
    """thetas as a 1-d array; ArgumentError unless each is finite and nonnegative."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if not np.all((thetas >= 0.0) & (thetas < np.inf)):  # NaN fails both
        raise ArgumentError("theta", "theta must be finite and nonnegative")
    return thetas


def solve_cumulant(model, f, times, opts=None):
    """Evolve the log-Laplace functional from initial field f over the grid.

    f must be finite and nonnegative.  The returned curve satisfies the weighted
    conservation identity (see conservation_residual) to quadrature accuracy
    and is dominated by the linear mean flow.
    """
    opts = opts or SolverOptions()
    f = _as_vector(f, model.d, "f")
    if np.any(f < 0):
        raise ArgumentError("f", "initial field must be nonnegative")
    times = _check_times(times)
    sol = _cumulant_flow(model, f, float(times[-1]), opts)
    return CumulantCurve(
        times=times,
        values=sol(times),
        _dense=sol,
    )


def _warm_start(model, t0):
    """Short-time profile of the infinite-initial-condition solution at t0.

    Base value per site: the scalar stable flow (kappa (gamma-1) t0)^(-1/(gamma-1)).
    Sites whose index exceeds the minimum are slaved to the inflow from
    faster-blowing neighbours, so the scalar value is corrected by balance
    sweeps kappa w^gamma = (scalar)^gamma + inflow until self-consistent; the
    correction vanishes for homogeneous gamma and is certified downstream by
    the t0-halving check.
    """
    kappa = model.mechanism.kappa
    gamma = model.mechanism.gamma
    g1 = gamma - 1.0
    scalar = (kappa * g1 * t0) ** (-1.0 / g1)
    off = model.A - np.diag(np.diag(model.A))
    w = scalar.copy()
    scalar_pow = kappa * scalar**gamma
    for _ in range(model.d + 1):
        w_new = ((scalar_pow + np.clip(off @ w, 0.0, None)) / kappa) ** (1.0 / gamma)
        if np.allclose(w_new, w, rtol=1e-12):
            w = w_new
            break
        w = w_new
    return w


def _cumulant_flow(model, F, T, opts, kappa=None):
    """Dense solution of the u-flow over [0, T] from F, one field (d,) or a
    batch (B, d); kappa defaults to the model's (see _yaglom_batch)."""
    return solve_branching_ode(
        model.A,
        model.mechanism.kappa if kappa is None else kappa,
        model.mechanism.gamma,
        F,
        (0.0, float(T)),
        rtol=opts.rel_tol,
        atol=opts.abs_tol,
    )


def _extinction_solution(model, t0, t_max, opts, rtol=None):
    # Values traverse many decades and stay strictly positive: integrate the
    # Bernoulli variable z = u^(1-gamma0), whose tail is linear in t, under
    # purely relative control.
    return solve_branching_ode(
        model.A,
        model.mechanism.kappa,
        model.mechanism.gamma,
        _warm_start(model, t0),
        (t0, t_max),
        rtol=rtol if rtol is not None else opts.rel_tol,
        _bernoulli=True,
    )


def _certify(model, t0, t_first, opts):
    """The warm-start bound at t_first and the reports of the coarse (t0) and
    halved (t0/2) runs that measured it; CertificationError when the bound
    exceeds 10 * rel_tol or cannot be transported."""
    threshold = 10.0 * opts.rel_tol

    # Certification sub-runs integrate 30x tighter than the claimed tolerance
    # so the measured change isolates the warm-start effect from integrator
    # noise.  The halving discrepancy decays like t0/t along the contracting
    # flow; when the first reported time lies beyond the measured window the
    # bound is transported with the 1/t law, which must itself be visible in
    # the measurement (or the signal must already sit at the noise floor).
    cert_rtol = opts.rel_tol / 30.0
    t_cert_end = min(100.0 * t0, t_first)
    coarse = _extinction_solution(model, t0, t_cert_end, opts, rtol=cert_rtol)
    halved = _extinction_solution(model, t0 / 2.0, t_cert_end, opts, rtol=cert_rtol)

    def rel_diff(t):
        va, vb = coarse(t), halved(t)
        return float(np.max(np.abs(va - vb) / np.maximum(vb, 1e-300)))

    if t_first <= 100.0 * t0:
        measured = max(rel_diff(t) for t in np.geomspace(10.0 * t0, t_cert_end, 5))
        bound = measured
    else:
        d_early = rel_diff(10.0 * t0)
        d_late = rel_diff(t_cert_end)
        noise_floor = 50.0 * cert_rtol
        decay_seen = d_late <= 0.5 * d_early or d_late <= noise_floor
        if not decay_seen:
            raise CertificationError(
                f"warm-start discrepancy not decaying ({d_early:.3e} -> {d_late:.3e}); "
                "decrease warm_start_time"
            )
        bound = d_late * (t_cert_end / t_first)
    if bound > threshold:
        raise CertificationError(
            f"warm-start certification failed: projected relative change {bound:.3e} "
            f"at t={t_first:g} exceeds {threshold:.1e}; decrease warm_start_time"
        )
    return bound, (coarse.report, halved.report)


def solve_extinction(model, times, opts=None):
    """Extinction cumulant on the grid, certified by warm-start halving.

    Requires min(times) >= 10 * warm_start_time.  Certification: a second run
    from t0/2 is compared against the t0 run on a geometric grid between
    10*t0 and the first requested time; the warm-start discrepancy decays
    like t0/t along the contracting flow, so the earliest comparison point
    dominates all later ones.  A relative change above 10 * rel_tol raises
    CertificationError.  The t0/2 run is returned.  A grid past the time where
    eta(t)^-gamma0 overflows a double is refused before any solve.

    The certification and the returned solve are the two items dealt out by
    _fork.map_forked, in that order, so a failed certification's error is
    raised before the returned solve's.  On 2 CPUs the returned solve, the
    last item, runs in this process, since its OdeSolution cannot be pickled.
    """
    opts = opts or SolverOptions()
    t0 = opts.warm_start_time
    times = _check_times(times, minimum=10.0 * t0)
    # The z variable's right-hand side scales like eta(t)^-gamma0: where that
    # leaves double range the solver works on inf and NaN and never ends.
    with np.errstate(over="ignore", divide="ignore"):
        if not np.isfinite(np.power(eta(model, times[-1]), -model.gamma0)):
            raise ArgumentError(
                "times", f"times must end where eta(t)^-gamma0 is a finite double, "
                f"got {times[-1]:g}"
            )
    certify = functools.partial(_certify, model, t0, float(times[0]), opts)
    solve = functools.partial(_extinction_solution, model, t0 / 2.0, float(times[-1]), opts)
    results, error = map_forked(lambda task: task(), [certify, solve], worker_count(2))
    if error is not None:
        raise error
    (bound, reports), fine = results
    return CumulantCurve(
        times=times,
        values=fine(times),
        _dense=fine,
        certification_bound=bound,
        certification_reports=reports,
    )


def weighted_extinction_norm(model, times, opts=None):
    """<v_t, phi_star>_m at each of the times, from one solve_extinction call;
    the grid rules are solve_extinction's.

    solve_extinction is looked up in this module when this runs, so that a
    wrapper installed on cumulant.solve_extinction sees the curve.
    """
    return solve_extinction(model, times, opts).values @ (model.phi_star * model.m)


def _yaglom_batch(model, f, thetas, T, opts):
    """g(T, theta, x) for all thetas at once via the rescaled flow.

    With w := u / (theta * eta_T) the evolution of u = V(theta eta_T f) maps to
    w' = A w - kappa (theta eta_T)^(gamma-1) w^gamma, w(0) = f, which keeps the
    state O(1) even when eta_T underflows the absolute tolerance.
    """
    opts = opts or SolverOptions()
    thetas = _check_thetas(thetas)
    T = _check_horizon(T)
    f = _density(f, model.d, "f")
    norm = model.inner_m(f, model.phi_star)
    if abs(norm - 1.0) > 1e-10:
        raise ArgumentError(
            "f", f"<f, phi_star>_m = {norm!r} must equal 1 (rescale f before calling)"
        )
    eta_T = eta(model, T)
    gamma = model.mechanism.gamma
    kappa_eff = model.mechanism.kappa[None, :] * np.power(
        thetas[:, None] * eta_T, gamma[None, :] - 1.0
    )
    u0 = np.broadcast_to(f, (thetas.size, model.d)).copy()
    sol = _cumulant_flow(model, u0, T, opts, kappa=kappa_eff)
    w_T = sol(float(T))
    return thetas[:, None] * w_T / model.phi[None, :]


def conservation_residual(model, curve, s, t, quad_tol=None):
    """Residual of the weighted balance between grid times s < t.

    | <V_t, phi*>_m + integral_s^t <kappa V_r^gamma, phi*>_m dr - <V_s, phi*>_m |
    should vanish to the solver's accuracy for every solved curve.  The
    dense output is one polynomial per solver step, so the integral takes a
    Gauss-Legendre rule on each step inside [s, t]: 4 nodes per step,
    doubled until two successive rules agree within quad_tol (default
    1e-12 |<V_s, phi*>_m|); RuntimeError if 32 nodes per step do not.
    """
    if not (curve.t_start <= s < t <= curve.t_end):
        raise ValueError("need t_start <= s < t <= t_end of the solved span")
    w = model.phi_star * model.m
    kappa, gamma = model.mechanism.kappa, model.mechanism.gamma
    base = float(curve.evaluate(s) @ w)
    tol = 1e-12 * abs(base) if quad_tol is None else quad_tol
    steps = curve._dense.step_times
    edges = np.concatenate([[s], steps[(steps > s) & (steps < t)], [t]])
    half = 0.5 * np.diff(edges)[:, None]
    mid = edges[:-1, None] + half

    def rule(n):
        x, wts = np.polynomial.legendre.leggauss(n)
        v = curve.evaluate((mid + half * x).ravel()).reshape(half.size, n, -1)
        return float(np.sum(half * wts * (np.power(v, gamma) @ (kappa * w))))

    integral = rule(4)
    for n in (8, 16, 32):
        previous, integral = integral, rule(n)
        if abs(integral - previous) <= tol:
            return abs(float(curve.evaluate(t) @ w) + integral - base)
    raise RuntimeError(
        f"conservation quadrature on [{s:g}, {t:g}]: 16 and 32 nodes per step differ "
        f"by {abs(integral - previous):.3e} > {tol:.3e}"
    )
