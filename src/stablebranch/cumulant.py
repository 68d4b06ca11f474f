"""Deterministic evolution of the log-Laplace functional and extinction curves.

On a finite site space the integral equation for the log-Laplace functional
V_t f is equivalent to the site-wise ODE

    du/dt = A u - kappa * u^gamma,      u(0) = f,

with A the calibrated mean generator, integrated by the Radau IIA engine of
`_ivp`.  The extinction cumulant v_t (the infinite-initial-condition limit) is
started from the flow's quasi-steady balance at t0/2 (_warm_start); time
shifts of that one run bound the change a start at t0 would make (_certify).
Extinction runs integrate the Bernoulli variable z = v^(1-gamma0), in which
the tail v ~ c t^(-1/(gamma0-1)) is linear in t, and so do the Yaglom runs
from a field f positive at every site.  The other runs from a finite field
stay in u (solve_cumulant, the spine's tables, a Yaglom field with a zero
site): z is read between steps by _ivp's _log_log, which assumes a power law
on each step, and a flow from f is none until it forgets f.  In z on [1e-2,
1e3] at rel_tol 1e-7, the scalar closed form (kappa 0.7, gamma 1.3, f = 2.5)
read 5.8e4 rel_tol between steps, the two-site fixture from (0.5, 2) 149; in
u, 0.12 and 0.15.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from ._ivp import OdeSolution, SolverError, solve_branching_ode
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

# Placed when the certified bound at the first reported time t1 read
# C a t0^2 / t1 on well-separated indices (a the fastest exit rate, C about
# 0.35), to aim it at rel_tol / 100; the balance start's bound is lower.
_WARM_START_CONSTANT = 35.0


@dataclass(frozen=True)
class SolverOptions:
    """The tolerance of the ODE engine: rel_tol, finite and positive (else
    ArgumentError naming it), bounds the relative error of every run from a
    start positive at every site, however far it decays.  A field with a zero
    site keeps the floor `_ivp._ZERO_SITE_ATOL` (1e-12), which, not rel_tol,
    bounds the error at a site whose value falls near it."""

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.rel_tol < np.inf:  # written so that NaN fails
            raise ArgumentError(
                "rel_tol", f"rel_tol must be finite and positive, got {self.rel_tol!r}"
            )


@dataclass
class CumulantCurve:
    """Time-gridded solution per site, with dense-output access.

    values[i, x] is the solution at times[i], site x; nonnegative throughout.
    For the extinction curve of solve_extinction each site trace is
    nonincreasing in t, and certification_bound bounds the relative change a
    start at t0 = 2 t_start would make at the first reported time; it is None
    for other curves.  solver_report is the report of the solve behind values.
    """

    times: np.ndarray
    values: np.ndarray
    _dense: OdeSolution
    certification_bound: float | None = None

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
    """thetas as a 1-d array; ArgumentError unless they are a scalar or a 1-d
    grid, each finite and nonnegative."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if thetas.ndim != 1:
        raise ArgumentError("theta", f"theta must be a scalar or a 1-d grid, got shape "
                            f"{thetas.shape}")
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


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _warm_start(model, t):
    """Quasi-steady starts of the extinction curve at t and 2t, shape (2, d).

    Each solves the flow's own balance for a local power law w_x ~ t^(-c_x),
    kappa_x w_x^gamma_x = (A w)_x + (c_x/t) w_x: given the other sites, the
    unique positive root of a convex equation.  Each sweep takes one Newton
    step at every site, at t and 2t, in log w, where the equation rises with
    slope in [gamma_x - 1, gamma_x]; c_x starts at 1/(gamma_x - 1) and then is
    log2(w(t)/w(2t)), the mean exponent over the octave that _certify spans.
    F(w) = -(c/t) w, so where w(t) > w(2t) at every site a run from either
    start is nonincreasing (solve_extinction refuses a try where it is not);
    with one gamma and kappa = K phi^(1-gamma) the start is exact.
    CertificationError naming gamma0 when a value overflows.
    """
    kappa = model.mechanism.kappa
    gamma = model.mechanism.gamma
    diag = np.diag(model.A)
    off = model.A - np.diag(diag)
    g1 = gamma - 1.0
    ts = t * np.array([[1.0], [2.0]])
    log_kappa = np.log(kappa)
    c = 1.0 / g1
    y = -np.log(kappa * g1 * ts) / g1  # the scalar flow, exact for A = 0
    for _ in range(50):
        a = diag + c / ts
        lhs = np.logaddexp(log_kappa + gamma * y, np.log(np.maximum(-a, 0.0)) + y)
        log_a = np.log(np.maximum(a, 0.0))
        rhs = np.logaddexp(log_a + y, np.log(np.exp(y) @ off.T))
        slope = 1.0 + g1 * np.exp(log_kappa + gamma * y - lhs) - np.exp(log_a + y - rhs)
        step = (lhs - rhs) / slope
        y = y - step
        c = (y[0] - y[1]) / np.log(2.0)
        if not np.max(np.abs(step)) > 1e-13 * max(1.0, np.max(np.abs(y))):
            break
    w = np.exp(y)
    if not np.all(np.isfinite(w)):
        raise CertificationError(
            f"warm-start certification failed: the warm start at t={t:g} "
            f"overflows a double for gamma0={model.gamma0:g}"
        )
    return w


def _cumulant_flow(model, F, T, opts):
    """Dense solution of the u-flow over [0, T] from F, one field (d,) or a
    batch (B, d)."""
    return solve_branching_ode(
        model.A,
        model.mechanism.kappa,
        model.mechanism.gamma,
        F,
        (0.0, float(T)),
        rtol=opts.rel_tol,
    )


def _extinction_solution(model, start, t0, t_max, opts):
    # Values traverse many decades and stay strictly positive: integrate the
    # Bernoulli variable z = u^(1-gamma0), whose tail is linear in t, under
    # purely relative control.
    return solve_branching_ode(
        model.A,
        model.mechanism.kappa,
        model.mechanism.gamma,
        start,
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


def _refuse_rising_start(t0, start, w):
    """CertificationError naming t0 and the first site where the balance's
    start at t0/2 does not lie above w, its start at t0: there c_x <= 0, so
    the start does not fall.  The balance misses this beyond the motion's
    time scale, and a run from such a start leaves the domain of z.  The sign
    is read from the two starts, not from F(start), which cancels to rounding
    where a site's inflow dominates."""
    rising = np.flatnonzero(~(start > w))  # NaN rises
    if rising.size:
        raise CertificationError(
            f"warm-start certification failed at t0={t0:g}: the start at t0/2 does not "
            f"decrease at site {rising[0]}"
        )


def _certify(model, t0, t_first, returned, w, opts):
    """The warm-start bound at t_first, read off `returned`, the run from the
    start at t0/2, by comparison with w, the balance's start at t0;
    CertificationError naming t0 and the bound when it exceeds rel_tol
    (solve_extinction then tries a smaller t0).

    The flow is cooperative and autonomous, so time shifts of a run bracket
    the run from any start they bracket (Kamke).  The shifts s+, s- <= t0/2
    with R(t0 + s+) <= w <= R(t0 - s-) at every site are the largest lags
    (R(t0) - w) / -R'(t0), R' a central difference of R, each 1% and 1e-12 t0
    longer so that rounding cannot undo them (t0/2 if longer), and checked on
    R.  A run from w lies in
    [R(t + s+), R(t - s-)]; the bound is their largest relative distance from
    R at t_first.  It covers the warm start, not R's own error.
    """
    h = 1e-4 * t0
    early, r0, late = returned(t0 + np.array([-h, 0.0, h]))
    lag = (r0 - w) * (2.0 * h) / (early - late)
    ahead, behind = 1.01 * np.maximum([np.max(lag), -np.min(lag)], 0.0) + 1e-12 * t0
    if not max(ahead, behind) <= t0 / 2.0:  # written so that NaN fails
        ahead = behind = t0 / 2.0
    r = returned(t0 + np.array([ahead, -behind]))
    if not (np.all(r[0] <= w) and np.all(r[1] >= w)):  # NaN fails
        raise CertificationError(
            f"warm-start certification failed at t0={t0:g}: the run from t0/2 does not "
            f"bracket the start at t0"
        )
    before, at, after = returned(t_first + np.array([-behind, 0.0, ahead]))
    bound = float(max(np.max(before / at - 1.0), np.max(1.0 - after / at)))
    if not bound <= opts.rel_tol:
        raise CertificationError(
            f"warm-start certification failed at t0={t0:g}: projected relative change "
            f"{bound:.3e} at t={t_first:g} exceeds {opts.rel_tol:.1e}"
        )
    return bound


def solve_extinction(model, times, opts=None):
    """Extinction cumulant on the grid, from a certified warm start.

    The times must be positive.  The first warm-start time t0 is
    _warm_start_time(model, times[0], rel_tol): the power of ten at which the
    measured warm-start error sits near rel_tol / 100, never earlier than
    min(1e-8, times[0]/10).  Each try is one run, from the start at t0/2 to
    the last time or to times[0] + t0/2, the later, and _certify reads off it
    how much a start at t0 would change it at times[0]; a start that does
    not decrease at every site is refused before its run.  Above rel_tol, or
    on such a start, try k <= 6 starts at the decimal value of the first t0
    times 10^-k (1e-9 / 10 / 10 misses 1e-11 by an ulp).  CertificationError
    when the last try fails, or when the warm start overflows a double (gamma0
    near 1).  The curve's t_start is the t0/2 of the try that certified.  A
    grid past the time where eta(t)^-gamma0 overflows a double is refused
    before any solve.
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
        t_max = max(float(times[-1]), float(times[0]) + t0 / 2.0)
        start, w = _warm_start(model, t0 / 2.0)
        try:
            _refuse_rising_start(t0, start, w)
            returned = _extinction_solution(model, start, t0 / 2.0, t_max, opts)
            bound = _certify(model, t0, float(times[0]), returned, w, opts)
        except CertificationError:
            if tries == _WARM_START_REDUCTIONS:
                raise
        else:
            return CumulantCurve(
                times=times,
                values=returned(times),
                _dense=returned,
                certification_bound=bound,
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

    Where f > 0 at every site the run integrates z = w^(1-gamma0), in which
    w's power-law tail is linear: the scalar preset's three horizons take 6
    steps, not 392.  A field with a zero site, where z is infinite at s = 0,
    runs in w, under the absolute floor.
    """
    opts = opts or SolverOptions()
    thetas = _check_thetas(thetas)
    horizons = np.atleast_1d(np.asarray(horizons, dtype=float))
    if horizons.ndim != 1 or horizons.size == 0:
        raise ArgumentError("horizon", f"horizons must be a scalar or a nonempty 1-d list, "
                            f"got shape {horizons.shape}")
    horizons = [_check_horizon(T) for T in horizons]
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
    sol = solve_branching_ode(model.A, kappa_eff, gamma, u0, (0.0, t_max), rtol=opts.rel_tol,
                              _bernoulli=True, _scale=scale)
    w = sol(t_max).reshape(len(horizons), thetas.size, model.d)
    return thetas[:, None] * w / model.phi[None, :], sol.report


def conservation_residual(model, curve, s, t, quad_tol=None):
    """Residual of the weighted balance between grid times s < t.

    | <V_t, phi*>_m + integral_s^t <kappa V_r^gamma, phi*>_m dr - <V_s, phi*>_m |
    should vanish to the solver's accuracy for every solved curve.  The
    dense output is one smooth function per solver step, so the integral
    takes a Gauss-Legendre rule on each step inside [s, t]: 4 nodes per step,
    doubled until two successive rules agree within quad_tol (default
    1e-12 |<V_s, phi*>_m|); RuntimeError if 32 nodes per step do not.
    """
    # written so that NaN fails
    if not curve.t_start <= s < curve.t_end:
        raise ArgumentError("s", f"s must lie in [t_start, t_end) = "
                            f"[{curve.t_start:g}, {curve.t_end:g}), got {s!r}")
    if not s < t <= curve.t_end:
        raise ArgumentError("t", f"t must lie in (s, t_end] = ({s:g}, {curve.t_end:g}], "
                            f"got {t!r}")
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
