"""Implicit integrator for the branching evolution u' = A u - kappa * u^gamma.

One engine: the Radau IIA collocation method (order 5, L-stable; Hairer &
Wanner, *Solving ODEs II*, sections IV.5 and IV.8) with the analytic Jacobian

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

The stepper, `_RadauIIA`, is scipy 1.17.1's `Radau` ported expression for
expression: its tableau, initial step, step-size control, simplified Newton
iteration, error estimate and dense output.  It adds one rule of Hairer &
Wanner's RADAU5 (section IV.8) that scipy leaves out: a step accepted after a
rejection (a Newton failure or a failed error test) is not followed by a
larger one.  Simplified Newton, not the error estimate, limits the step along
the extinction runs; scipy lets the step grow by up to 10x straight after a
step that a Newton failure cut, and the next step failed again.  scipy's
Newton cap is kept: a larger cap lets the error estimate set the step, and the
error then exceeds rtol.

Every solve is bit for bit scipy's Radau under that rule.  Two differences
touch only the Python around the arithmetic:

- Each Newton iteration evaluates its three stages in one right-hand-side
  call on a (3, B, d) stack.  A stacked matmul runs each stage through the
  same 2-D kernel and the rest is elementwise, so each stage is bit for bit
  a call of its own; what a step costs is the Python around the calls.
- A single system's dense Jacobian is factored with LAPACK getrf/getrs called
  directly: the routines scipy's lu_factor/lu_solve call, on the same arrays,
  without their wrapper layers, which cost more than the 2x2 or 3x3
  factorisation itself.  A batch's sparse Jacobian keeps scipy's splu.

The report counts what scipy counts (nfev, njev, nlu, accepted steps), and
also the step attempts the stepper abandoned (`rejected`), which scipy does
not count.  No solve imports scipy.integrate: it takes about a third of a
fresh `import stablebranch`.
"""

# The Radau IIA stepper below is ported from scipy 1.17.1
# (scipy/integrate/_ivp/radau.py and common.py), which carries this notice:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.linalg import LinAlgWarning
from scipy.linalg.lapack import dgetrf, dgetrs, zgetrf, zgetrs

__all__ = ["SolverError", "SolverReport", "OdeSolution", "solve_branching_ode"]

EPS = np.finfo(float).eps

S6 = 6 ** 0.5

# Butcher tableau. A is not used directly, see below.
C = np.array([(4 - S6) / 10, (4 + S6) / 10, 1])
E = np.array([-13 - 7 * S6, -13 + 7 * S6, -1]) / 3

# Eigendecomposition of A is done: A = T L T**-1. There is 1 real eigenvalue
# and a complex conjugate pair. They are written below.
MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
MU_COMPLEX = (3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3))
              - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6)))

# These are transformation matrices.
T = np.array([
    [0.09443876248897524, -0.14125529502095421, 0.03002919410514742],
    [0.25021312296533332, 0.20412935229379994, -0.38294211275726192],
    [1, 1, 0]])
TI = np.array([
    [4.17871859155190428, 0.32768282076106237, 0.52337644549944951],
    [-4.17871859155190428, -0.32768282076106237, 0.47662355450055044],
    [0.50287263494578682, -2.57192694985560522, 0.59603920482822492]])
# These linear combinations are used in the algorithm.
TI_REAL = TI[0]
TI_COMPLEX = TI[1] + 1j * TI[2]

# Interpolator coefficients.
P = np.array([
    [13/3 + 7*S6/3, -23/3 - 22*S6/3, 10/3 + 5 * S6],
    [13/3 - 7*S6/3, -23/3 + 22*S6/3, 10/3 - 5 * S6],
    [1/3, -8/3, 10/3]])

NEWTON_MAXITER = 6  # Maximum number of Newton iterations.
MIN_FACTOR = 0.2  # Minimum allowed decrease in a step size.
MAX_FACTOR = 10  # Maximum allowed increase in a step size.


class SolverError(RuntimeError):
    """The integrator failed: step-size underflow or non-finite states."""


@dataclass
class SolverReport:
    """Counts of one solve.

    `rejected` counts the step attempts abandoned: a Newton failure under a
    fresh Jacobian (the step is halved) or a failed error test.
    """

    accepted: int = 0
    rejected: int = 0
    engine: str = "radau"
    variable: str = "u"  # "u", or "z" for z = u^(1-gamma0)
    nfev: int = 0
    njev: int = 0
    nlu: int = 0


def _norm(x):
    """RMS norm."""
    return np.linalg.norm(x) / x.size ** 0.5


def _finite(a):
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _getrf(a):
    """LU of a dense float64 or complex128 matrix, overwriting it: LAPACK
    getrf with what scipy's lu_factor does around it (the ValueError on a
    non-finite matrix or `info < 0`, the LinAlgWarning on an exactly zero pivot)."""
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


def _getrs(lu_piv, b):
    """Solve with an LU from `_getrf`, overwriting b: LAPACK getrs with scipy
    lu_solve's ValueError on a non-finite right-hand side."""
    lu, piv = lu_piv
    _finite(b)
    x, info = (zgetrs if lu.dtype == np.complex128 else dgetrs)(lu, piv, b, overwrite_b=True)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal getrs")
    return x


def _splu_solve(lu, b):
    return lu.solve(b)


def _select_initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """scipy's select_initial_step for an error estimator of order 3, forward
    in time (Hairer, Norsett & Wanner, *Solving ODEs I*, II.4).  Calls fun
    once, unless the interval is empty."""
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0

    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    # Check t0+h0 doesn't take us beyond t_bound
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = fun(y1)
    d2 = _norm((f1 - f0) / scale) / h0

    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 4)

    return min(100 * h0, h1, interval_length)


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old):
    """Predict by which factor to increase/decrease the step size: the
    two-step rule of Hairer & Wanner, section IV.8, or the one-step rule where
    no previous step or error is at hand."""
    if error_norm_old is None or h_abs_old is None or error_norm == 0:
        multiplier = 1
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25

    with np.errstate(divide='ignore'):
        factor = min(1, multiplier) * error_norm ** -0.25

    return factor


def _dense_values(t_old, h, Q, y_old, t):
    """A step's dense output (scipy's RadauDenseOutput) at the 1-d times t: (n, len(t))."""
    x = (t - t_old) / h
    p = np.tile(x, (Q.shape[1], 1))
    p = np.cumprod(p, axis=0)
    # Here we don't multiply by h, not a mistake.
    y = np.dot(Q, p)
    y += y_old[:, None]
    return y


class _RadauIIA:
    """Radau IIA steps from (t0, y0) forward to t_bound: scipy's `Radau`
    (`__init__`, `_step_impl`, `solve_collocation_system`), ported.

    fun(y) is the autonomous right-hand side at a state (n,) or at a stack of
    states (k, n); jac(y) is the Jacobian at a state, a dense array or a
    sparse csc matrix.  nfev counts states evaluated, which is scipy's count
    of calls.  `ts`, `Qs` and `y_olds` collect the accepted step times and
    each step's dense output.
    """

    def __init__(self, fun, jac, t0, y0, t_bound, rtol, atol):
        self.rtol = rtol
        if rtol < 100 * EPS:
            warnings.warn(f"`rtol` is too small. Setting `rtol = {100 * EPS}`.", stacklevel=3)
            self.rtol = 100 * EPS
        if atol < 0:
            raise ValueError("`atol` must be positive.")
        self.fun, self.jac_fun = fun, jac
        self.t, self.y, self.t_bound = t0, y0, t_bound
        self.atol = atol
        self.nfev = self.njev = self.nlu = self.rejected = 0
        self.f = self.evaluate(y0)
        self.h_abs = _select_initial_step(self.evaluate, t0, y0, t_bound, self.f, self.rtol, atol)
        self.h_abs_old = None
        self.error_norm_old = None

        # from the rtol asked for, not the one raised to 100 EPS, as in scipy
        self.newton_tol = max(10 * EPS / rtol, min(0.03, rtol ** 0.5))
        self.sol = None  # the last step's dense output: (t_old, h, Q, y_old)

        self.J = self.jac(y0)
        n = y0.size
        if scipy.sparse.issparse(self.J):
            from scipy.sparse.linalg import splu

            self.factor, self.solve_lu = splu, _splu_solve
            self.I = scipy.sparse.eye(n, format='csc')
        else:
            self.factor, self.solve_lu = _getrf, _getrs
            self.I = np.identity(n)

        self.current_jac = True
        self.LU_real = None
        self.LU_complex = None
        self.ts, self.Qs, self.y_olds = [t0], [], []

    def evaluate(self, y):
        self.nfev += 1
        return self.fun(y)

    def jac(self, y):
        self.njev += 1
        return self.jac_fun(y)

    def lu(self, a):
        self.nlu += 1
        return self.factor(a)

    def solve_collocation_system(self, y, h, Z0, scale, LU_real, LU_complex):
        """Simplified Newton on the collocation system: (converged, iterations,
        Z, rate).  y + Z[i] is the state at t + h C[i]."""
        solve_lu = self.solve_lu
        tol = self.newton_tol
        M_real = MU_REAL / h
        M_complex = MU_COMPLEX / h

        W = TI.dot(Z0)
        Z = Z0

        dW_norm_old = None
        dW = np.empty_like(W)
        converged = False
        rate = None
        for k in range(NEWTON_MAXITER):
            # the three stages in one call
            self.nfev += 3
            F = self.fun(y + Z)

            if not np.all(np.isfinite(F)):
                break

            f_real = F.T.dot(TI_REAL) - M_real * W[0]
            f_complex = F.T.dot(TI_COMPLEX) - M_complex * (W[1] + 1j * W[2])

            dW_real = solve_lu(LU_real, f_real)
            dW_complex = solve_lu(LU_complex, f_complex)

            dW[0] = dW_real
            dW[1] = dW_complex.real
            dW[2] = dW_complex.imag

            dW_norm = _norm(dW / scale)
            if dW_norm_old is not None:
                rate = dW_norm / dW_norm_old

            if (rate is not None and (rate >= 1 or
                    rate ** (NEWTON_MAXITER - k) / (1 - rate) * dW_norm > tol)):
                break

            W += dW
            Z = T.dot(W)

            if (dW_norm == 0 or
                    rate is not None and rate / (1 - rate) * dW_norm < tol):
                converged = True
                break

            dW_norm_old = dW_norm

        return converged, k + 1, Z, rate

    def step(self):
        """Take one step; SolverError when the step size falls below the
        spacing of doubles at t."""
        t = self.t
        y = self.y
        f = self.f

        atol = self.atol
        rtol = self.rtol

        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if self.h_abs < min_step:
            h_abs = min_step
            h_abs_old = None
            error_norm_old = None
        else:
            h_abs = self.h_abs
            h_abs_old = self.h_abs_old
            error_norm_old = self.error_norm_old

        J = self.J
        LU_real = self.LU_real
        LU_complex = self.LU_complex

        current_jac = self.current_jac

        rejected = False
        step_accepted = False
        while not step_accepted:
            if h_abs < min_step:
                raise SolverError(f"Radau failed at t={t:.6g}: Required step size is less "
                                  "than spacing between numbers.")

            h = h_abs
            t_new = t + h

            if t_new - self.t_bound > 0:
                t_new = self.t_bound

            h = t_new - t
            h_abs = np.abs(h)

            if self.sol is None:
                Z0 = np.zeros((3, y.shape[0]))
            else:
                Z0 = _dense_values(*self.sol, t + h * C).T - y

            scale = atol + np.abs(y) * rtol

            converged = False
            while not converged:
                if LU_real is None or LU_complex is None:
                    LU_real = self.lu(MU_REAL / h * self.I - J)
                    LU_complex = self.lu(MU_COMPLEX / h * self.I - J)

                converged, n_iter, Z, rate = self.solve_collocation_system(
                    y, h, Z0, scale, LU_real, LU_complex)

                if not converged:
                    if current_jac:
                        break

                    J = self.jac(y)
                    current_jac = True
                    LU_real = None
                    LU_complex = None

            if not converged:
                self.rejected += 1
                h_abs *= 0.5
                LU_real = None
                LU_complex = None
                continue

            y_new = y + Z[-1]
            ZE = Z.T.dot(E) / h
            error = self.solve_lu(LU_real, f + ZE)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _norm(error / scale)
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER
                                                       + n_iter)

            if rejected and error_norm > 1:
                error = self.solve_lu(LU_real, self.evaluate(y + error) + ZE)
                error_norm = _norm(error / scale)

            if error_norm > 1:
                self.rejected += 1
                factor = _predict_factor(h_abs, h_abs_old,
                                         error_norm, error_norm_old)
                h_abs *= max(MIN_FACTOR, safety * factor)

                LU_real = None
                LU_complex = None
                rejected = True
            else:
                step_accepted = True

        recompute_jac = n_iter > 2 and rate > 1e-3

        factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
        factor = min(MAX_FACTOR, safety * factor)

        if not recompute_jac and factor < 1.2:
            factor = 1
        else:
            LU_real = None
            LU_complex = None

        f_new = self.evaluate(y_new)
        if recompute_jac:
            J = self.jac(y_new)
            current_jac = True
        else:
            current_jac = False

        tried = self.h_abs
        self.h_abs_old = self.h_abs
        self.error_norm_old = error_norm

        self.h_abs = h_abs * factor
        # RADAU5: a step taken smaller than the one first tried is not followed
        # by a larger one; the last step, clipped to t_bound, ends the solve.
        if t_new != self.t_bound and t_new != t + tried:
            self.h_abs = min(self.h_abs, h_abs)

        self.t = t_new
        self.y = y_new
        self.f = f_new

        self.LU_real = LU_real
        self.LU_complex = LU_complex
        self.current_jac = current_jac
        self.J = J

        Q = np.dot(Z.T, P)
        self.sol = (t, t_new - t, Q, y)
        self.ts.append(t_new)
        self.Qs.append(Q)
        self.y_olds.append(y)


class OdeSolution:
    """Dense solution over [t_start, t_end]; callable on scalars or arrays.

    Returns (d,) per time for a single system and (B, d) for a batch, clipped
    to be nonnegative.  step_times holds the solver's step boundaries, from
    t_start to t_end: the dense output is one polynomial per step.
    """

    def __init__(self, stepper, shape, squeeze, to_u, report):
        self.step_times = np.array(stepper.ts)
        self.t_start = float(self.step_times[0])
        self.t_end = float(self.step_times[-1])
        self._Qs = stepper.Qs
        self._y_olds = stepper.y_olds
        self._shape = shape
        self._squeeze = squeeze
        self._to_u = to_u
        self.report = report

    def _values(self, t):
        """The solver's variable at the 1-d times t, (n, len(t)), as scipy's
        OdeSolution gives it: each step's polynomial is evaluated on the run of
        sorted times it holds, and a time on a step boundary takes the earlier
        step."""
        if self.t_start == self.t_end:  # a zero-length run holds its start
            return np.repeat(self._y_olds[0][:, None], t.size, axis=1)
        order = np.argsort(t)
        reverse = np.empty_like(order)
        reverse[order] = np.arange(order.shape[0])
        t_sorted = t[order]

        ts = self.step_times
        segments = np.searchsorted(ts, t_sorted, side="left")
        np.clip(segments - 1, 0, len(self._Qs) - 1, out=segments)
        starts = np.flatnonzero(np.diff(segments)) + 1
        bounds = zip(np.concatenate(([0], starts)), np.concatenate((starts, [t.size])))
        ys = []
        for start, end in bounds:
            s = segments[start]
            ys.append(_dense_values(ts[s], ts[s + 1] - ts[s], self._Qs[s],
                                    self._y_olds[s], t_sorted[start:end]))
        return np.hstack(ys)[:, reverse]

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        lo = self.t_start - 1e-9 * max(1.0, abs(self.t_start))
        hi = self.t_end + 1e-9 * max(1.0, abs(self.t_end))
        if t_arr.min() < lo or t_arr.max() > hi:
            raise ValueError(
                f"dense evaluation outside [{self.t_start}, {self.t_end}]"
            )
        y = self._values(np.clip(t_arr, self.t_start, self.t_end))  # (n, size)
        out = np.clip(self._to_u(y.T), 0.0, None).reshape((t_arr.size,) + self._shape)
        if self._squeeze:
            out = out[:, 0, :]
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return out[0]
        return out


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

    # F takes a state (B, d) or a stack of states (k, B, d).
    def F(u):
        return u @ A.T - kappa * np.power(np.maximum(u, 0.0), gamma)

    def J(u):
        blocks = np.broadcast_to(A, (B, d, d)).copy()
        blocks[:, diag, diag] -= kappa * gamma * np.power(np.maximum(u, 0.0), gamma - 1.0)
        return blocks

    # fun and jac see the flat state (B d,); fun also a stack of them (k, B d).
    if _bernoulli:
        if np.any(y0 <= 0.0):
            raise ValueError("the z = u^(1-gamma0) variable needs a strictly positive state")
        g0 = float(gamma.min())
        p = 1.0 - g0

        def to_u(z):
            return np.power(z, 1.0 / p)

        def fun(z):
            u = to_u(z.reshape(z.shape[:-1] + shape))
            return (p * np.power(u, -g0) * F(u)).reshape(z.shape)

        def jac(z):
            u = to_u(z.reshape(shape))
            blocks = J(u) * (np.power(u, -g0)[:, :, None] * np.power(u, g0)[:, None, :])
            blocks[:, diag, diag] -= g0 * F(u) / u
            return _assemble(blocks)

        y_start, tols = np.power(y0, p), dict(rtol=(g0 - 1.0) * rtol, atol=0.0)
    else:
        to_u = np.asarray

        def fun(u):
            return F(u.reshape(u.shape[:-1] + shape)).reshape(u.shape)

        def jac(u):
            return _assemble(J(u.reshape(shape)))

        y_start, tols = y0, dict(rtol=rtol, atol=atol)

    y_start = y_start.ravel()
    if not np.isfinite(y_start).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    stepper = _RadauIIA(fun, jac, t0, y_start, t_end, **tols)
    if t_end == t0:  # one step of length zero, as scipy's solve_ivp records it
        stepper.ts.append(t0)
        stepper.y_olds.append(y_start)
    while stepper.t < t_end:
        stepper.step()
    report = SolverReport(accepted=len(stepper.ts) - 1, rejected=stepper.rejected,
                          variable="z" if _bernoulli else "u",
                          nfev=stepper.nfev, njev=stepper.njev, nlu=stepper.nlu)
    return OdeSolution(stepper, shape, squeeze, to_u, report)
