"""Implicit integrator for the branching evolution u' = A u - kappa * u^gamma.

One engine: scipy's Radau IIA collocation method (order 5, L-stable; Hairer &
Wanner, *Solving ODEs II*, section IV.5) with the analytic Jacobian

    J(u) = A - diag(kappa * gamma * u^(gamma-1)),

dense for a single system and block-diagonal sparse for a batch.  L-stability
covers both kinds of stiffness the flow has: the linear spectrum of A on long
near-linear tails, and the nonlinear relaxation of sites with a large stable
index slaved to the inflow of faster-blowing sites after an
infinite-initial-condition warm start.

Extinction runs integrate in the Bernoulli variable z = u^(1-gamma0), with
gamma0 = min(gamma) (private argument `_bernoulli`).  Along the tail
u ~ c t^(-1/(gamma0-1)) the variable z grows linearly in t, so the step size
is limited by accuracy only where the solution actually bends.  There

    z' = (1-gamma0) u^(-gamma0) F(u),
    J_z = diag(u^-gamma0) J(u) diag(u^gamma0) - diag(gamma0 F(u) / u),

with F(u) = A u - kappa u^gamma.  A relative error e in z is a relative error
e / (gamma0-1) in u, so z is controlled purely relatively with
rtol_z = (gamma0-1) * rtol.  The state must be strictly positive there; the
plain variable u is used wherever it may vanish.

State may be a single vector (d,) or a batch (B, d) of independent systems
sharing A; kappa may be (d,) or (B, d) (per-batch coefficients), gamma is (d,).

A single system's dense Jacobian is factored with LAPACK getrf/getrs called
directly (`_DirectLU`): the same routines on the same arrays as scipy's
lu_factor/lu_solve, so the same arithmetic, without their per-call wrapper
layers, which cost more than the 2x2 or 3x3 factorisation itself.  A batch's
sparse Jacobian keeps scipy's splu.

The step control is scipy's plus one rule of Hairer & Wanner's RADAU5
(section IV.8), `_NoGrowthAfterReject`: a step accepted after a rejection
is not followed by a larger one.  Simplified Newton, not the error estimate,
limits the step along the extinction runs; scipy lets the step grow by up to
10x straight after a step that a Newton failure cut, and the next step failed
again.  scipy's Newton cap is kept: a larger cap lets the error estimate set
the step, and the error then exceeds rtol.

scipy.integrate is imported on the first solve (`_radau`), not with this
module: it takes about a third of a fresh `import stablebranch`, and runs that
never integrate (calibrate, simulate, mixture-check) need none of it.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.linalg import LinAlgWarning
from scipy.linalg.lapack import dgetrf, dgetrs, zgetrf, zgetrs

__all__ = ["SolverError", "SolverReport", "OdeSolution", "solve_branching_ode"]


class SolverError(RuntimeError):
    """The integrator failed: step-size underflow or non-finite states."""


@dataclass
class SolverReport:
    """Counts of one solve, read off scipy's result.

    scipy does not count rejected steps, so `rejected` stays 0.
    """

    accepted: int = 0
    rejected: int = 0
    engine: str = "radau"
    variable: str = "u"  # "u", or "z" for z = u^(1-gamma0)
    nfev: int = 0
    njev: int = 0
    nlu: int = 0


class OdeSolution:
    """Dense solution over [t_start, t_end]; callable on scalars or arrays.

    Returns (d,) per time for a single system and (B, d) for a batch, clipped
    to be nonnegative.  step_times holds the solver's step boundaries, from
    t_start to t_end: the dense output is one polynomial per step.
    """

    def __init__(self, dense, t_start, t_end, shape, squeeze, to_u, report):
        self._dense = dense
        self.t_start = t_start
        self.t_end = t_end
        self.step_times = dense.ts
        self._shape = shape
        self._squeeze = squeeze
        self._to_u = to_u
        self.report = report

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        lo = self.t_start - 1e-9 * max(1.0, abs(self.t_start))
        hi = self.t_end + 1e-9 * max(1.0, abs(self.t_end))
        if t_arr.min() < lo or t_arr.max() > hi:
            raise ValueError(
                f"dense evaluation outside [{self.t_start}, {self.t_end}]"
            )
        y = self._dense(np.clip(t_arr, self.t_start, self.t_end))  # (n, size)
        out = np.clip(self._to_u(y.T), 0.0, None).reshape((t_arr.size,) + self._shape)
        if self._squeeze:
            out = out[:, 0, :]
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return out[0]
        return out


def _finite(a):
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


class _DirectLU:
    """Mixin for scipy's Radau: a dense Jacobian's LU done by getrf/getrs directly.

    Keeps what scipy's lu_factor/lu_solve do around the LAPACK call: the
    `nlu` count, the ValueError on a non-finite matrix or right-hand side, the
    LinAlgWarning on an exactly zero pivot and the error on `info < 0`.  The
    matrices are float64 (real eigenvalue) or complex128 (complex pair).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not scipy.sparse.issparse(self.J):
            self.lu, self.solve_lu = self._getrf, self._getrs

    def _getrf(self, a):
        self.nlu += 1
        _finite(a)
        lu, piv, info = (zgetrf if a.dtype == np.complex128 else dgetrf)(a, overwrite_a=True)
        if info < 0:
            raise ValueError(f"illegal value in {-info}th argument of internal getrf (lu_factor)")
        if info > 0:
            warnings.warn(
                f"Diagonal number {info} is exactly zero. Singular matrix.",
                LinAlgWarning, stacklevel=2,
            )
        return lu, piv

    @staticmethod
    def _getrs(lu_piv, b):
        lu, piv = lu_piv
        _finite(b)
        x, info = (zgetrs if lu.dtype == np.complex128 else dgetrs)(lu, piv, b, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal getrs")
        return x


class _NoGrowthAfterReject:
    """Mixin for scipy's Radau: RADAU5's rule that a step accepted after a
    rejection (a Newton failure or an error-test failure) is not followed by
    a larger one.

    scipy lets the step grow again straight away, so a step just halved by a
    Newton failure is followed by one that fails again.  A step was rejected
    when the step taken is not the one first tried, t + h_abs; the last step,
    clipped to t_bound, ends the solve and does not count.
    """

    def _step_impl(self):
        t, tried = self.t, min(self.h_abs, self.max_step)
        success, message = super()._step_impl()
        if success and self.t != self.t_bound and self.t != t + self.direction * tried:
            self.h_abs = min(self.h_abs, abs(self.t - t))
        return success, message


@functools.cache
def _radau():
    """The Radau class every solve runs: scipy's, with `_NoGrowthAfterReject`
    and `_DirectLU` mixed in.

    Built once, on the first call, which is what imports scipy.integrate.
    """
    from scipy.integrate import Radau

    return type("_Radau", (_NoGrowthAfterReject, _DirectLU, Radau), {})


def _assemble(blocks):
    """One system's dense Jacobian, or a batch's block-diagonal sparse one."""
    return blocks[0] if len(blocks) == 1 else scipy.sparse.block_diag(blocks, format="csc")


def solve_branching_ode(A, kappa, gamma, u0, t_span, rtol=1e-10, atol=1e-12, _bernoulli=False):
    """Integrate u' = A u - kappa * max(u,0)^gamma over t_span with dense output.

    `_bernoulli=True` integrates z = u^(1-min(gamma)) under purely relative
    control (atol is not used); u0 must then be strictly positive.
    """
    A = np.asarray(A, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    squeeze = u0.ndim == 1
    y0 = np.atleast_2d(u0).astype(float)
    shape = y0.shape
    B, d = shape
    kappa = np.broadcast_to(np.asarray(kappa, dtype=float), shape)
    t0, t_end = map(float, t_span)
    if t_end < t0:
        raise ValueError("t_span must be increasing")
    diag = np.arange(d)

    def F(u):
        return u @ A.T - kappa * np.power(np.maximum(u, 0.0), gamma)

    def J(u):
        blocks = np.broadcast_to(A, (B, d, d)).copy()
        blocks[:, diag, diag] -= kappa * gamma * np.power(np.maximum(u, 0.0), gamma - 1.0)
        return blocks

    if _bernoulli:
        if np.any(y0 <= 0.0):
            raise ValueError("the z = u^(1-gamma0) variable needs a strictly positive state")
        g0 = float(gamma.min())
        p = 1.0 - g0

        def to_u(z):
            return np.power(z, 1.0 / p)

        def fun(t, z):
            u = to_u(z.reshape(shape))
            return (p * np.power(u, -g0) * F(u)).ravel()

        def jac(t, z):
            u = to_u(z.reshape(shape))
            blocks = J(u) * (np.power(u, -g0)[:, :, None] * np.power(u, g0)[:, None, :])
            blocks[:, diag, diag] -= g0 * F(u) / u
            return _assemble(blocks)

        y_start, tols = np.power(y0, p), dict(rtol=(g0 - 1.0) * rtol, atol=0.0)
    else:
        to_u = np.asarray

        def fun(t, u):
            return F(u.reshape(shape)).ravel()

        def jac(t, u):
            return _assemble(J(u.reshape(shape)))

        y_start, tols = y0, dict(rtol=rtol, atol=atol)

    from scipy.integrate import solve_ivp

    res = solve_ivp(
        fun, (t0, t_end), y_start.ravel(), method=_radau(), dense_output=True,
        jac=jac, **tols,
    )
    if res.status != 0:
        raise SolverError(f"Radau failed at t={res.t[-1]:.6g}: {res.message}")
    report = SolverReport(accepted=res.t.size - 1, variable="z" if _bernoulli else "u",
                          nfev=res.nfev, njev=res.njev, nlu=res.nlu)
    return OdeSolution(res.sol, t0, t_end, shape, squeeze, to_u, report)
