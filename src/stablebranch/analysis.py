"""Asymptotic diagnostics: tail-index fits and convergence tables.

These wrap the deterministic solvers into the quantities the limit statements
are about: the decay index of the weighted extinction norm, the normalized
survival probability against its mass target, and the rescaled cumulant
surface against the closed-form limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._ivp import SolverReport
from .cumulant import CumulantCurve, _check_times, _yaglom_batch, solve_extinction
from .limitlaw import g_closed
from .model import ArgumentError, _density, eta

__all__ = [
    "RVEstimate",
    "rv_index_fit",
    "KolmogorovTable",
    "kolmogorov_table",
    "YaglomTable",
    "yaglom_table",
    "yaglom_tables",
]


@dataclass(frozen=True)
class RVEstimate:
    """OLS slope of log value against log time over the fitted window."""

    slope: float
    stderr: float
    window: tuple
    point_count: int

    def __post_init__(self):
        if self.point_count < 3:
            raise ValueError("need at least three points for a slope estimate")
        if not self.window[0] < self.window[1]:
            raise ValueError("invalid fit window")


def rv_index_fit(times, values):
    """Least-squares log-log slope with its standard error.

    The fit window is the top two decades of the supplied grid,
    [times[-1] / 100, times[-1]]: the decay index is a tail property and
    early transients bias the slope.  The grid rules are _check_times's.
    """
    times = _check_times(times)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ArgumentError("values", "times and values must be matching 1-d arrays")
    if np.any(times <= 0):
        raise ArgumentError("times", "log-log fit needs positive times")
    if not np.all((values > 0.0) & (values < np.inf)):  # NaN fails both
        raise ArgumentError("values", "values must be finite and positive")
    window = (times[-1] / 100.0, times[-1])
    sel = times >= window[0]
    if sel.sum() < 3:
        raise ArgumentError("times", "fewer than three points in the fit window")
    x = np.log(times[sel])
    y = np.log(values[sel])
    n = x.size
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    slope = float(((x - xm) * (y - ym)).sum() / sxx)
    intercept = float(ym - slope * xm)
    resid = y - intercept - slope * x
    sigma2 = float((resid**2).sum() / max(n - 2, 1))
    return RVEstimate(
        slope=slope,
        stderr=float(np.sqrt(sigma2 / sxx)),
        window=(float(window[0]), float(window[1])),
        point_count=int(n),
    )


@dataclass
class KolmogorovTable:
    """Normalized survival probability against its mass target per time, with
    the extinction curve it was read from."""

    times: np.ndarray
    normalized: np.ndarray  # survival / eta_t
    target: float  # <mu, phi>
    monotone: bool
    curve: CumulantCurve

    @property
    def ratio(self):
        return self.normalized / self.target


def kolmogorov_table(model, mu, times, opts=None):
    """Tabulate eta_t^-1 (1 - exp(-<mu, v_t>)) against mu(phi).

    One extinction solve covers the whole grid, whose rules are
    solve_extinction's.  The monotone flag records whether |ratio - 1| is
    nonincreasing along the grid.
    """
    mu = _density(mu, model.d)
    curve = solve_extinction(model, times, opts)
    mu_v = curve.values @ (mu * model.m)
    survival = -np.expm1(-mu_v)
    normalized = survival / eta(model, curve.times)
    target = model.inner_m(mu, model.phi)
    dev = np.abs(normalized / target - 1.0)
    monotone = bool(np.all(np.diff(dev) <= 1e-12))
    return KolmogorovTable(
        times=curve.times, normalized=normalized, target=target, monotone=monotone,
        curve=curve,
    )


@dataclass
class YaglomTable:
    """Rescaled cumulant surface against the closed-form limit per theta, with
    the report of the solve behind the surface."""

    theta: np.ndarray
    surface: np.ndarray  # g(T, theta, x), shape (n_theta, d)
    limit: np.ndarray  # G(theta)
    solver_report: SolverReport

    @property
    def sup_error(self):
        return np.abs(self.surface - self.limit[:, None]).max(axis=1)


def yaglom_tables(model, f, theta_grid, horizons, opts=None):
    """Join the rescaled cumulant surface with its limit at each horizon.

    Requires <f, phi_star>_m = 1.  Every (horizon, theta) pair is one member
    of one batched run, on time rescaled to the longest horizon, so the
    tables, one per horizon in the order given, share its solver_report.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    surfaces, report = _yaglom_batch(model, f, theta_grid, horizons, opts)
    limit = np.atleast_1d(g_closed(model.gamma0, theta_grid))
    return [
        YaglomTable(theta=theta_grid, surface=surface, limit=limit, solver_report=report)
        for surface in surfaces
    ]


def yaglom_table(model, f, theta_grid, T, opts=None):
    """The table of yaglom_tables at the one horizon T: all thetas in one
    batched run."""
    return yaglom_tables(model, f, theta_grid, [T], opts)[0]
