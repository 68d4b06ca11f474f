"""Deterministic evolution of the log-Laplace functional and extinction curves.

On a finite site space the integral equation for the log-Laplace functional
V_t f is equivalent to the site-wise ODE

    du/dt = A u - kappa * u^gamma,      u(0) = f,

with A the calibrated mean generator, integrated by the Radau IIA engine of
`_ivp`.  The extinction cumulant v_t (the infinite-initial-condition limit) is
started analytically: over a vanishing initial window the motion is negligible
and each site evolves as the scalar stable branching flow, giving
v(t0, x) = (kappa(x) (gamma(x)-1) t0)^(-1/(gamma(x)-1)).  The returned run
starts at t0/2, and a second run from t0, compared against it, certifies the
warm start; the bound achieved is kept on the returned curve.  Extinction
runs integrate the Bernoulli variable z = v^(1-gamma0), in which the tail
v ~ c t^(-1/(gamma0-1)) is linear in t; runs from a finite field f stay in u,
because f may vanish on some sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

import numpy as np

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
    """Warm-start certification failed: no warm-start time the search tried
    reaches the requested accuracy, or the warm start overflows a double."""


# The most times solve_extinction divides its warm-start time by 10.
_WARM_START_REDUCTIONS = 6

# Where indices are well separated the certified warm-start bound at the first
# reported time t1 reads C a t0^2 / t1, with a the fastest exit rate and C
# about 0.35; _warm_start_time aims it at rel_tol / 100 with 100 C.
_WARM_START_CONSTANT = 35.0


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances of the ODE engine.

    rel_tol applies to every solve.  abs_tol applies only to solves from a
    finite field (solve_cumulant, the Yaglom and spine flows): extinction
    runs control z purely relatively and never read it.  Every value must be
    finite; a value out of range raises ArgumentError naming its field.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        # Written so that NaN fails every rule.
        rules = (
            ("rel_tol", 0.0 < self.rel_tol < np.inf, "finite and positive"),
            ("abs_tol", 0.0 <= self.abs_tol < np.inf, "finite and nonnegative"),
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
    certification_report is the solver report of the run from t0 that it
    compared against this curve; both are None for other curves.
    solver_report is the report of the solve behind values.
    """

    times: np.ndarray
    values: np.ndarray
    _dense: OdeSolution
    certification_bound: float | None = None
    certification_report: SolverReport | None = None

    def evaluate(self, t):
        """Dense-output values at arbitrary t inside the solved span.

        On an extinction curve rel_tol does not hold in the warm-start
        transient [t_start, times[0]): on one-index closed forms the error
        there reached 10 rel_tol (two sites, 1e-7) and 1.2e4 (d = 100, 1e-10).
        """
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


def _check_times(times):
    """The grid every solve and every reading runs on: a nonempty, finite,
    strictly increasing 1-d array."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if t.ndim != 1 or t.size == 0:
        raise ArgumentError("times", "times must be a nonempty 1-d grid")
    if not np.all(np.isfinite(t)):
        raise ArgumentError("times", "times must be finite")
    if np.any(np.diff(t) <= 0):
        raise ArgumentError("times", "times must be strictly increasing")
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

    f and the times must be finite and nonnegative (V_0 f = f).  The returned
    curve satisfies the weighted conservation identity (see conservation_residual)
    to quadrature accuracy and is dominated by the linear mean flow.
    """
    opts = opts or SolverOptions()
    f = _as_vector(f, model.d, "f")
    if np.any(f < 0):
        raise ArgumentError("f", "initial field must be nonnegative")
    times = _check_times(times)
    if times[0] < 0.0:
        raise ArgumentError("times", f"times must be nonnegative, got {times[0]:g}")
    sol = _cumulant_flow(model, f, float(times[-1]), opts)
    return CumulantCurve(
        times=times,
        values=sol(times),
        _dense=sol,
    )


@np.errstate(over="ignore", invalid="ignore")
def _warm_start(model, t0):
    """Short-time profile of the infinite-initial-condition solution at t0.

    Base value per site: the scalar stable flow (kappa (gamma-1) t0)^(-1/(gamma-1)).
    Sites whose index exceeds the minimum are slaved to the inflow from
    faster-blowing neighbours: up to d + 1 balance sweeps
    kappa w^gamma = kappa scalar^gamma + max(sum_{y != x} A_xy w_y, 0) raise
    each value.  They leave out the diagonal outflow A_xx w_x, so they move
    even a one-index start, whose scalar value is exact, off by about
    0.2 max|A_xx| t0 relative; _certify bounds the error left at times[0].
    CertificationError naming gamma0 when a value overflows a double.
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
    if not np.all(np.isfinite(w)):
        raise CertificationError(
            f"warm-start certification failed: the warm start at t={t0:g} "
            f"overflows a double for gamma0={model.gamma0:g}"
        )
    return w


def _cumulant_flow(model, F, T, opts, kappa=None, scale=None):
    """Dense solution of the u-flow over [0, T] from F, one field (d,) or a
    batch (B, d); kappa defaults to the model's, and a batch may scale each
    member's time (see _yaglom_batch)."""
    return solve_branching_ode(
        model.A,
        model.mechanism.kappa if kappa is None else kappa,
        model.mechanism.gamma,
        F,
        (0.0, float(T)),
        rtol=opts.rel_tol,
        atol=opts.abs_tol,
        _scale=scale,
    )


def _extinction_solution(model, t0, t_max, opts):
    # Values traverse many decades and stay strictly positive: integrate the
    # Bernoulli variable z = u^(1-gamma0), whose tail is linear in t, under
    # purely relative control.
    return solve_branching_ode(
        model.A,
        model.mechanism.kappa,
        model.mechanism.gamma,
        _warm_start(model, t0),
        (t0, t_max),
        rtol=opts.rel_tol,
        _bernoulli=True,
    )


def _warm_start_time(model, t_first, rel_tol):
    """The first warm-start time solve_extinction tries for a grid from t_first.

    With a = max(1, max_x |A_xx|), t* = sqrt(rel_tol t_first / (35 a)) puts
    the bound the certification measures near rel_tol / 100.  t0 is t* floored
    to a power of ten, kept within [1e-8, t_first / 10]: from 1e-7 on it is
    never earlier than 1e-8, and below 1e-7 it is t_first / 10.
    """
    a = max(1.0, float(np.max(np.abs(np.diag(model.A)))))
    t_star = np.sqrt(rel_tol * t_first / (_WARM_START_CONSTANT * a))
    return min(t_first / 10.0, max(1e-8, 10.0 ** float(np.floor(np.log10(t_star)))))


def _certify(model, t0, t_first, returned, opts):
    """The warm-start bound at t_first and the report of the run from t0 that
    measured it against `returned`, the run from t0/2; CertificationError,
    naming t0 and the bound, when the bound exceeds rel_tol or cannot be
    transported (solve_extinction then tries a smaller t0).  The threshold is
    rel_tol itself: t0 sits near the accuracy limit, and the warm start alone
    must never use up more than the stated tolerance."""
    # Both runs integrate at rel_tol, so the measured change holds the
    # warm-start effect and both runs' own errors across the transient.  It
    # decays like t0/t along the contracting flow; past the measured window
    # the bound is transported with that law, which the measurement must show
    # (or sit at the noise floor).
    t_cert_end = min(100.0 * t0, t_first)
    coarse = _extinction_solution(model, t0, t_cert_end, opts)

    def rel_diff(t):
        va, vb = coarse(t), returned(t)
        return float(np.max(np.abs(va - vb) / np.maximum(vb, 1e-300)))

    if t_first <= 100.0 * t0:
        bound = max(rel_diff(t) for t in np.geomspace(10.0 * t0, t_cert_end, 5))
    else:
        d_early = rel_diff(10.0 * t0)
        d_late = rel_diff(t_cert_end)
        noise_floor = 50.0 * (opts.rel_tol / 30.0)
        decay_seen = d_late <= 0.5 * d_early or d_late <= noise_floor
        if not decay_seen:
            raise CertificationError(
                f"warm-start certification failed at t0={t0:g}: discrepancy not "
                f"decaying ({d_early:.3e} -> {d_late:.3e})"
            )
        bound = d_late * (t_cert_end / t_first)
    if bound > opts.rel_tol:
        raise CertificationError(
            f"warm-start certification failed at t0={t0:g}: projected relative change "
            f"{bound:.3e} at t={t_first:g} exceeds {opts.rel_tol:.1e}"
        )
    return bound, coarse.report


def solve_extinction(model, times, opts=None):
    """Extinction cumulant on the grid, from a certified warm start.

    The times must be positive.  The first warm-start time t0 is
    _warm_start_time(model, times[0], rel_tol): the power of ten at which the
    measured warm-start error sits near rel_tol / 100, never earlier than
    min(1e-8, times[0]/10).  The returned run starts at t0/2.  A second run
    from t0 is compared against it on a geometric grid between 10*t0 and the
    first requested time; the discrepancy decays like t0/t along the
    contracting flow, so the earliest comparison point dominates all later
    ones.  A relative change above rel_tol fails, and try k <= 6 starts at the
    decimal value of the first t0 times 10^-k: exactly 1e-11 two tries after
    1e-9, where 1e-9 / 10 / 10 is off by an ulp.
    CertificationError when the last try fails, or when the warm start at
    t0/2 overflows a double (gamma0 near 1).  The curve's t_start is the t0/2
    of the try that certified.  A grid past the time where eta(t)^-gamma0
    overflows a double is refused before any solve.
    """
    opts = opts or SolverOptions()
    times = _check_times(times)
    if times[0] <= 0.0:
        raise ArgumentError("times", f"times must be positive, got {times[0]:g}")
    # The z variable's right-hand side scales like eta(t)^-gamma0: where that
    # leaves double range the solver works on inf and NaN and never ends.
    with np.errstate(over="ignore", divide="ignore"):
        if not np.isfinite(np.power(eta(model, times[-1]), -model.gamma0)):
            raise ArgumentError(
                "times", f"times must end where eta(t)^-gamma0 is a finite double, "
                f"got {times[-1]:g}"
            )
    first = Decimal(repr(_warm_start_time(model, float(times[0]), opts.rel_tol)))
    for tries in range(_WARM_START_REDUCTIONS + 1):
        t0 = float(first.scaleb(-tries))
        returned = _extinction_solution(model, t0 / 2.0, float(times[-1]), opts)
        try:
            bound, report = _certify(model, t0, float(times[0]), returned, opts)
        except CertificationError:
            if tries == _WARM_START_REDUCTIONS:
                raise
        else:
            return CumulantCurve(
                times=times,
                values=returned(times),
                _dense=returned,
                certification_bound=bound,
                certification_report=report,
            )


def weighted_extinction_norm(model, times, opts=None):
    """<v_t, phi_star>_m at each of the times, from one solve_extinction call;
    the grid rules are solve_extinction's.

    solve_extinction is looked up in this module when this runs, so that a
    wrapper installed on cumulant.solve_extinction sees the curve.
    """
    return solve_extinction(model, times, opts).values @ (model.phi_star * model.m)


def _yaglom_batch(model, f, thetas, horizons, opts):
    """g(T, theta, x) for every horizon T and every theta, shape
    (len(horizons), len(thetas), d), from one solve, and the report of it.

    With w := u / (theta * eta_T) the evolution of u = V(theta eta_T f) maps to
    w' = A w - kappa (theta eta_T)^(gamma-1) w^gamma, w(0) = f, which keeps the
    state O(1) even when eta_T underflows the absolute tolerance.  Each
    (T, theta) pair is one member of a batch run on s in [0, T_max], the
    longest horizon: its flow is multiplied by T / T_max, so its value at
    s = T_max is w(T).  The longest horizon's scale is exactly 1.
    """
    opts = opts or SolverOptions()
    thetas = _check_thetas(thetas)
    horizons = [_check_horizon(T) for T in np.atleast_1d(np.asarray(horizons, dtype=float))]
    if not horizons:
        raise ArgumentError("horizon", "horizons must not be empty")
    f = _density(f, model.d, "f")
    norm = model.inner_m(f, model.phi_star)
    if abs(norm - 1.0) > 1e-10:
        raise ArgumentError(
            "f", f"<f, phi_star>_m = {norm!r} must equal 1 (rescale f before calling)"
        )
    gamma = model.mechanism.gamma
    kappa_eff = np.concatenate([
        model.mechanism.kappa[None, :] * np.power(
            thetas[:, None] * eta(model, T), gamma[None, :] - 1.0
        )
        for T in horizons
    ])
    t_max = max(horizons)
    scale = np.repeat([T / t_max for T in horizons], thetas.size)
    u0 = np.broadcast_to(f, kappa_eff.shape).copy()
    sol = _cumulant_flow(model, u0, t_max, opts, kappa=kappa_eff, scale=scale)
    w = sol(t_max).reshape(len(horizons), thetas.size, model.d)
    return thetas[:, None] * w / model.phi[None, :], sol.report


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
