"""Limit random variable of the conditioned mass: its law and its delay equation.

The limiting law with index alpha in (0, 1) has Laplace transform
1 - (1 + u^-alpha)^(-1/alpha); its complement G, evaluated by g_closed, solves
a nonlinear delay equation whose unique solution has the closed form
(1 + theta^-(a-1))^(-1/(a-1)) with a = alpha + 1 in (1, 2).  The Picard solver
here recovers G from the equation alone, so the closed form stays an
independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ArgumentError

__all__ = [
    "g_closed",
    "DelayEquationProblem",
    "DelaySolution",
    "solve_delay_equation",
]

PICARD_ITERATION_CAP = 1000
# Points of solve_delay_equation's uniform grid in y = theta^(a-1).
_DELAY_GRID_POINTS = 20001


def g_closed(gamma0, theta):
    """(1 + theta^-a)^(-1/a) with a = gamma0 - 1, 0 at theta = 0; theta finite, >= 0.

    Each branch raises a ratio at most 1 to the power +-a, so nothing
    overflows or cancels: theta exp(-log1p(theta^a)/a) up to theta = 1, and
    exp(-log1p(theta^-a)/a) above, which never exceeds 1.
    """
    if not 1.0 < gamma0 < 2.0:  # written so that NaN fails
        raise ArgumentError("gamma0", f"gamma0 must lie in (1, 2), got {gamma0!r}")
    theta_arr = np.asarray(theta, dtype=float)
    if not np.all((theta_arr >= 0.0) & (theta_arr < np.inf)):  # NaN fails both
        raise ArgumentError("theta", "theta must be finite and nonnegative")
    a = gamma0 - 1.0
    val = np.empty_like(theta_arr)
    low = theta_arr <= 1.0
    t = theta_arr[low]
    val[low] = t * np.exp(-np.log1p(np.power(t, a)) / a)
    t = theta_arr[~low]
    val[~low] = np.exp(-np.log1p(np.power(t, -a)) / a)
    return float(val) if np.isscalar(theta) or theta_arr.ndim == 0 else val


@dataclass(frozen=True)
class DelayEquationProblem:
    """Fixed-point problem for G on theta_grid with index a in (1, 2).

    The solver integrates on _DELAY_GRID_POINTS uniform points of the
    transformed variable y = theta^(a-1), where all integrands are smooth;
    that resolution meets a 1e-9 discretization budget on [0, 10] grids.
    """

    a: float
    theta_grid: np.ndarray
    tol: float = 1e-10

    def __post_init__(self):
        # Written so that NaN fails every rule.
        if not 1.0 < self.a < 2.0:
            raise ArgumentError("a", f"index a must lie in (1, 2), got {self.a!r}")
        grid = np.asarray(self.theta_grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or grid[0] != 0.0:
            raise ArgumentError(
                "theta_grid", "theta_grid must be 1-d, start at 0, and have >= 2 points"
            )
        if not (np.all(np.diff(grid) > 0) and grid[-1] < np.inf):
            raise ArgumentError("theta_grid", "theta_grid must be finite and strictly increasing")
        if not 0.0 < self.tol < np.inf:
            raise ArgumentError("tol", f"tol must be finite and positive, got {self.tol!r}")
        grid.setflags(write=False)
        object.__setattr__(self, "theta_grid", grid)


@dataclass
class DelaySolution:
    """Converged fixed point on the problem's theta_grid."""

    values: np.ndarray
    iterations: int
    sup_changes: np.ndarray


def _panel_coefficients(y, F):
    """Per-panel Newton-form parabola coefficients for F on the y grid.

    Panel j spans [y_j, y_{j+1}]; its parabola interpolates F at nodes
    (j-1, j, j+1), one-sided at the left boundary.
    """
    n = y.size - 1  # number of panels
    n0 = np.arange(n) - 1
    n0[0] = 0
    y0, y1, y2 = y[n0], y[n0 + 1], y[n0 + 2]
    F0, F1, F2 = F[n0], F[n0 + 1], F[n0 + 2]
    d01 = (F1 - F0) / (y1 - y0)
    d12 = (F2 - F1) / (y2 - y1)
    c2 = (d12 - d01) / (y2 - y0)
    return (F0, d01, c2, y0, y1)


def _panel_integrals(a, x_lo, x_hi, coef):
    """Exact integral of the panel parabola in y = x^(a-1) against dx."""
    F0, d01, c2, y0, y1 = coef
    p1 = a  # exponent of x for the y^1 moment, p*(a-1)+1 with p=1
    p2 = 2.0 * a - 1.0
    M0 = x_hi - x_lo
    M1 = (x_hi**p1 - x_lo**p1) / p1
    M2 = (x_hi**p2 - x_lo**p2) / p2
    # integral of F0 + d01 (y - y0) + c2 (y - y0)(y - y1) dx
    return (
        F0 * M0
        + d01 * (M1 - y0 * M0)
        + c2 * (M2 - (y0 + y1) * M1 + y0 * y1 * M0)
    )


def _eval_from_nodes(a, y, g_nodes, coef, thetas):
    """G(theta) = G(x_j) + partial panel integral, panels indexed by y grid."""
    x = y ** (1.0 / (a - 1.0))
    j = np.clip(np.searchsorted(x, thetas, side="right") - 1, 0, x.size - 2)
    sub = tuple(c[j] for c in coef)
    return g_nodes[j] + _panel_integrals(a, x[j], thetas, sub)


def solve_delay_equation(prob):
    """Picard iteration for the delay equation, from G_0(theta) = min(theta, 1).

    Each iterate maps G -> integral_0^theta exp{-(a/(a-1)) J[G](r)} dr with
    J[G](r) = integral_0^1 G(r u^(1/(a-1)))^(a-1) du/u.  Substituting
    y = r^(a-1) turns J into integral_0^(r^(a-1)) (G(y^(1/(a-1)))^(a-1)/y) dy
    exactly; the integrand extends continuously to y = 0 (unit slope of G),
    so both integrals run over smooth functions on a uniform y grid: the
    inner via cumulative Simpson, the outer via parabola-in-y product
    quadrature with exact x-moments.  Iteration stops when the sup change of
    G on the grid falls below prob.tol; raises RuntimeError at the cap.
    """
    # imported here, not with the package: see _ivp's module docstring
    from scipy.integrate import cumulative_simpson

    a = prob.a
    am1 = a - 1.0
    y_max = prob.theta_grid[-1] ** am1
    y = np.linspace(0.0, y_max, _DELAY_GRID_POINTS)
    x = y ** (1.0 / am1)
    hy = y[1] - y[0]

    # h-representation: G(x) = x * h(x^(a-1)); h(0) = 1 for every iterate.
    with np.errstate(divide="ignore"):
        h = np.minimum(1.0, np.where(x > 0, 1.0 / x, np.inf))
    h[0] = 1.0

    sup_changes = []
    g_old = x * h
    coef = None
    for iteration in range(1, PICARD_ITERATION_CAP + 1):
        H = h**am1  # = G(x)^(a-1)/y, smooth with H(0)=1
        K = np.concatenate([[0.0], cumulative_simpson(H, dx=hy)])
        F = np.exp(-(a / am1) * K)
        coef = _panel_coefficients(y, F)
        panels = _panel_integrals(a, x[:-1], x[1:], coef)
        g_new = np.concatenate([[0.0], np.cumsum(panels)])
        sup_changes.append(float(np.abs(g_new - g_old).max()))
        g_old = g_new
        with np.errstate(invalid="ignore"):
            h = np.where(x > 0, g_new / x, 1.0)
        h[0] = 1.0
        if sup_changes[-1] <= prob.tol:
            break
    else:
        raise RuntimeError(
            f"Picard iteration cap {PICARD_ITERATION_CAP} reached "
            f"(last change {sup_changes[-1]:.3e} > tol {prob.tol:.1e})"
        )

    values = _eval_from_nodes(a, y, g_new, coef, prob.theta_grid)
    values[prob.theta_grid == 0.0] = 0.0
    return DelaySolution(
        values=values, iterations=iteration, sup_changes=np.asarray(sup_changes)
    )

