"""Implicit integrator for the branching evolution u' = A u - kappa * u^gamma.

One engine: the Radau IIA collocation method (order 5, L-stable; Hairer &
Wanner, *Solving ODEs II*, sections IV.5 and IV.8) with the analytic Jacobian

    J(u) = A - diag(kappa * gamma * u^(gamma-1)),

dense for a single system, a stack of dense blocks for a small batch and
block-diagonal sparse for a large one.  L-stability covers both kinds of
stiffness the flow has: the linear spectrum of A on long near-linear tails,
and the nonlinear relaxation of sites with a large stable index slaved to the
inflow of faster-blowing sites after an infinite-initial-condition warm start.

Extinction runs, and Yaglom runs from a field positive at every site,
integrate in the Bernoulli variable z = u^(1-gamma0), with gamma0 = min(gamma)
(private argument `_bernoulli`).  Along the tail u ~ c t^(-1/(gamma0-1)) the
variable z grows linearly in t, so the step size is limited by accuracy only
where the solution actually bends.  There

    z' = (1-gamma0) u^(-gamma0) F(u),
    J_z = diag(u^-gamma0) J(u) diag(u^gamma0) - diag(gamma0 F(u) / u),

with F(u) = A u - kappa u^gamma.  A relative error e in z is a relative error
e / (gamma0-1) in u, so z runs with rtol_z = (gamma0-1) * rtol.  A start
with a zero site, where z is infinite, runs in u.  Between its step ends a z
run is read as log u against log t (OdeSolution._log_log), save on a step
from t = 0, which is read on z's cubic.  A z run's Newton stages may leave
z's domain before the stepper rejects them; the run steps under one
np.errstate that silences their floating-point warnings.

The start sets the absolute tolerance: a start positive at every site runs
purely relatively (atol 0), in u or z, so rtol holds however far u decays.
Relative control is undefined at an exact zero (Hairer & Wanner, IV.8): a
start with a zero site runs under _ZERO_SITE_ATOL, which, not rtol, bounds
the error at a site whose value falls near it.

State may be a single vector (d,) or a batch (B, d) of independent systems
sharing A; kappa may be (d,) or (B, d) (per-batch coefficients), gamma is (d,).
A batch may also carry a time scale per member (private argument `_scale`,
(B,)): member b then integrates scale_b (A u - kappa u^gamma), whose value at
t is the unscaled member's at scale_b t, so members of different horizons
share one run.  The scale multiplies the member's right-hand side and its
Jacobian block, and a scale of exactly 1.0 changes no bit.

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

Every solve but a small batch's is bit for bit scipy's Radau under that rule.
Three differences touch only the Python around the arithmetic:

- Each Newton iteration evaluates its three stages in one right-hand-side
  call on a (3, B, d) stack.  A stacked matmul runs each stage through the
  same 2-D kernel and the rest is elementwise, so each stage is bit for bit
  a call of its own; what a step costs is the Python around the calls.
- A single system's dense Jacobian is factored with LAPACK getrf/getrs called
  directly: the routines scipy's lu_factor/lu_solve call, on the same arrays,
  without their wrapper layers, which cost more than the 2x2 or 3x3
  factorisation itself.  A batch whose blocks have more than
  _DENSE_BLOCK_SITES sites keeps scipy's splu on its block-diagonal sparse
  Jacobian.
- The step and its Newton iterations call none of numpy's wrappers written
  in Python, a small batch's np.linalg.inv (below) apart.  The RMS norm
  takes np.linalg.norm's square root of the dot product of the flattened
  array, directly.  An array is proved finite by a finite sum before any
  full scan.  The dense output multiplies x, x^2, x^3 in place instead of
  tiling and cumprod.  Step bounds take math.nextafter and abs on Python
  floats, and each LU carries its getrs routine.  The right-hand side of the
  z variable takes no max(u, 0), which leaves its u = z^(1/p) unchanged.
  Each value is what the replaced call gave.

The dense output reads each time on its own step in one stacked matmul: bit
for bit scipy's reading of that time alone, so a reading depends only on t.
scipy's array call makes one product per step over all its times, which BLAS
rounds otherwise.

A smaller batch changes the arithmetic of its linear algebra, and only that:
its Jacobian stays a (B, d, d) stack of dense blocks, each LU is the inverse
of the real and of the complex stack (np.linalg.inv, after `_finite`'s
check), and each solve is a batched matmul with it.  Up to d = 30 at 21 or
63 members this costs less than splu's Python layers and fill-in on the
reflecting diffusion's tridiagonal blocks; the values differ from scipy's by
rounding only, with the same counts on the test batches.

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

import cmath
import math
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

# The most sites a batch's blocks may have to be factored as a dense stack, at
# any batch size, else splu: in BENCH_yaglom_batch.json's dense_rule_sweep
# dense was the faster up to d = 30 and splu from d = 40, at 21 and 63 members.
_DENSE_BLOCK_SITES = 30

_ZERO_SITE_ATOL = 1e-12  # the absolute tolerance of a start with a zero site


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


_sum = np.add.reduce


def _norm(x):
    """RMS norm: np.linalg.norm(x) / sqrt(x.size), with the norm computed as
    numpy computes it, the square root of the flattened array's dot product."""
    v = x.ravel("K")
    return math.sqrt(v.dot(v)) / x.size ** 0.5


def _finite(a):
    """scipy's ValueError when a holds an inf or a NaN.  A finite sum proves
    that it holds none; only a sum that is not finite (such an entry, or an
    overflow, which numpy reports with its RuntimeWarning) needs the full scan."""
    if not cmath.isfinite(_sum(a, None)) and not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _getrf(a):
    """LU of a dense float64 or complex128 matrix, overwriting it: LAPACK
    getrf with what scipy's lu_factor does around it (the ValueError on a
    non-finite matrix or `info < 0`, the LinAlgWarning on an exactly zero
    pivot).  Returns (lu, piv, getrs), the getrs routine of a's type."""
    _finite(a)
    getrf, getrs = (zgetrf, zgetrs) if a.dtype == np.complex128 else (dgetrf, dgetrs)
    lu, piv, info = getrf(a, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal getrf (lu_factor)")
    if info > 0:
        warnings.warn(
            f"Diagonal number {info} is exactly zero. Singular matrix.",
            LinAlgWarning, stacklevel=2,
        )
    return lu, piv, getrs


def _getrs(lu_piv, b):
    """Solve with an LU from `_getrf`, overwriting b: LAPACK getrs with scipy
    lu_solve's ValueError on a non-finite right-hand side."""
    lu, piv, getrs = lu_piv
    _finite(b)
    x, info = getrs(lu, piv, b, overwrite_b=True)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal getrs")
    return x


def _inv_blocks(a):
    """The inverse of each dense block of a (B, d, d) stack: a small batch's
    LU, with `_getrf`'s ValueError on a non-finite matrix."""
    _finite(a)
    return np.linalg.inv(a)


def _solve_blocks(inv, b):
    """Solve with `_inv_blocks`' inverses for a flat right-hand side (B d,)."""
    _finite(b)
    return np.matmul(inv, b.reshape(inv.shape[0], -1, 1)).reshape(b.shape)


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
    no previous step or error is at hand.  A previous step of zero (a zero
    factor, from an error_norm_old of 0, proposes one) is no step at hand:
    scipy's numpy scalars divide by it to inf or NaN, and min(1, either) is 1."""
    if error_norm == 0:
        return math.inf  # error_norm ** -0.25
    if error_norm_old is None or not h_abs_old:
        multiplier = 1
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25

    return min(1, multiplier) * error_norm ** -0.25


def _dense_values(t_old, h, Q, y_old, t):
    """A step's dense output at the 1-d times t as scipy's RadauDenseOutput
    gives it for an array, (n, len(t)): the stepper's prediction of the next
    step's stages."""
    x = (t - t_old) / h
    # x, x^2, x^3: the rows of scipy's cumprod over np.tile(x, (3, 1))
    p = np.empty((3, x.size))
    p[0] = x
    np.multiply(x, x, out=p[1])
    np.multiply(p[1], x, out=p[2])
    # Here we don't multiply by h, not a mistake.
    y = Q.dot(p)
    y += y_old[:, None]
    return y


class _RadauIIA:
    """Radau IIA steps from (t0, y0) forward to t_bound: scipy's `Radau`
    (`__init__`, `_step_impl`, `solve_collocation_system`), ported.

    fun(y) is the autonomous right-hand side at a state (n,) or at a stack of
    states (k, n); jac(y) is the Jacobian at a state, a dense array or a
    sparse csc matrix.  nfev counts states evaluated, which is scipy's count
    of calls.  jac may also return a (B, d, d) stack of dense blocks, the
    Jacobian of a batch of B independent systems.  `ts`, `Qs` and `y_olds`
    collect the accepted step times and each step's dense output.
    """

    def __init__(self, fun, jac, t0, y0, t_bound, rtol, atol):
        self.rtol = rtol
        if rtol < 100 * EPS:
            warnings.warn(f"`rtol` is too small. Setting `rtol = {100 * EPS}`.", stacklevel=3)
            self.rtol = 100 * EPS
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
            from scipy.sparse.linalg import SuperLU, splu

            self.factor, self.solve_lu = splu, SuperLU.solve
            self.I = scipy.sparse.eye(n, format='csc')
        elif self.J.ndim == 3:
            self.factor, self.solve_lu = _inv_blocks, _solve_blocks
            self.I = np.identity(self.J.shape[-1])
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
        fun = self.fun
        tol = self.newton_tol
        M_real = MU_REAL / h
        M_complex = MU_COMPLEX / h

        W = TI.dot(Z0)
        Z = Z0

        dW_norm_old = None
        dW = np.empty(W.shape)
        converged = False
        rate = None
        for k in range(NEWTON_MAXITER):
            # the three stages in one call
            self.nfev += 3
            F = fun(y + Z)

            # a finite sum proves every stage finite
            if not math.isfinite(_sum(F, None)) and not np.isfinite(F).all():
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

        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
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
            h_abs = abs(h)

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

        Q = Z.T.dot(P)
        self.sol = (t, t_new - t, Q, y)
        self.ts.append(t_new)
        self.Qs.append(Q)
        self.y_olds.append(y)


_NODES = np.array([0.0, *C])  # where a step's dense output meets y and the stages


class OdeSolution:
    """Dense solution over [t_start, t_end]; callable on scalars or arrays.

    Returns (d,) per time for a single system and (B, d) for a batch, clipped
    to be nonnegative.  step_times holds the solver's step boundaries, from
    t_start to t_end: the dense output is one function per step, scipy's
    cubic collocation polynomial, or for a z run `_log_log`, save on a z
    run's step from t = 0, where log t is unbounded and z's cubic is read
    (at the step's end, z's state to rounding).  Each time is
    read on its own step, a time on a step boundary on the earlier one, so a
    reading depends only on t, not on the other times asked for with it.
    """

    def __init__(self, stepper, shape, squeeze, to_u, report):
        self.step_times = np.array(stepper.ts)
        self.t_start = float(self.step_times[0])
        self.t_end = float(self.step_times[-1])
        # one row per step: its polynomial's coefficients (steps, n, 3) and
        # its start (steps, n)
        self._Q, self._y_old = np.array(stepper.Qs), np.array(stepper.y_olds)
        self._shape = shape
        self._squeeze = squeeze
        self._to_u = to_u
        self.report = report

    def _steps(self, t):
        """The step each of the 1-d times t is read on."""
        k = np.searchsorted(self.step_times, t, side="left") - 1
        np.clip(k, 0, self._y_old.shape[0] - 1, out=k)
        return k

    def _cubic(self, t):
        """The solver's variable at the 1-d times t, (len(t), n): each time on
        its step's polynomial, bit for bit scipy's reading of that time alone."""
        k = self._steps(t)
        if self.t_start == self.t_end:  # a zero-length run holds its start
            return self._y_old[k]
        ts = self.step_times
        x = (t - ts[k]) / (ts[k + 1] - ts[k])
        # x, x^2, x^3: the rows of scipy's cumprod over np.tile(x, 3)
        p = np.empty((t.size, 3, 1))
        p[:, 0, 0] = x
        np.multiply(x, x, out=p[:, 1, 0])
        np.multiply(p[:, 1, 0], x, out=p[:, 2, 0])
        y = np.matmul(self._Q[k], p)[:, :, 0]
        y += self._y_old[k]
        return y

    def _log_log(self, t):
        """u of a z run at the 1-d times t, (len(t), n): on each step the cubic
        in log t through log u at the step's start and its three stages, which
        every power law u = c t^-a is.  In z the cubic is exact only at the
        tail's a = 1/(gamma0 - 1); a site with a larger index decays faster
        early on, and there it read up to 3.2 rel_tol between the stages
        (three-site fixture at 1e-8), where the step ends read 0.47."""
        ts = self.step_times
        k = self._steps(t)
        Q, z_old, t_old = self._Q[k], self._y_old[k], ts[k]
        r = (ts[k + 1] - t_old) / t_old
        z = z_old[:, :, None] + (Q[:, :, 0:1] + (Q[:, :, 1:2] + Q[:, :, 2:3] * _NODES) * _NODES) * _NODES
        log_u = np.log(self._to_u(z))  # (m, n, 4)
        # positions in log t: the step's from 0 to 1, its nodes and each t
        log_r = np.log1p(r)
        nodes = np.log1p(r[:, None] * _NODES) / log_r[:, None]
        x = np.log1p((t - t_old) / t_old) / log_r
        weights = np.ones(nodes.shape)  # Lagrange's basis at x
        for i in range(4):
            for j in range(4):
                if j != i:
                    weights[:, i] *= (x - nodes[:, j]) / (nodes[:, i] - nodes[:, j])
        return np.exp(np.sum(weights[:, None, :] * log_u, axis=2))

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        lo = self.t_start - 1e-9 * max(1.0, abs(self.t_start))
        hi = self.t_end + 1e-9 * max(1.0, abs(self.t_end))
        if t_arr.size and (t_arr.min() < lo or t_arr.max() > hi):
            raise ValueError(
                f"dense evaluation outside [{self.t_start}, {self.t_end}]"
            )
        t_arr = np.clip(t_arr, self.t_start, self.t_end)
        z_run = self.report.variable == "z" and self.t_start < self.t_end
        if z_run and self.t_start > 0.0:
            u = self._log_log(t_arr)
        else:
            u = np.clip(self._to_u(self._cubic(t_arr)), 0.0, None)  # (size, n)
            if z_run:  # a step from t = 0 has no log t: z's cubic reads it
                later = t_arr > self.step_times[1]
                u[later] = self._log_log(t_arr[later])
        out = u.reshape((t_arr.size,) + self._shape)
        if self._squeeze:
            out = out[:, 0, :]
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return out[0]
        return out


def _assemble(blocks):
    """One system's dense Jacobian, a small batch's stack of dense blocks, or
    a larger batch's block-diagonal sparse one."""
    if len(blocks) == 1:
        return blocks[0]
    if blocks.shape[1] <= _DENSE_BLOCK_SITES:
        return blocks
    return scipy.sparse.block_diag(blocks, format="csc")


def _step_to_end(stepper):
    """Step until the stepper reaches its t_bound."""
    while stepper.t < stepper.t_bound:
        stepper.step()


# A z run's Newton stages may leave z's domain (a negative z's power is NaN, a
# zero one's inf), which the stepper rejects as a Newton failure: the run's
# floating-point warnings say nothing a caller can act on.  The errstate is
# built here and entered once per run, not per step.
_step_z_to_end = np.errstate(divide="ignore", over="ignore", invalid="ignore")(_step_to_end)


def solve_branching_ode(A, kappa, gamma, u0, t_span, rtol=1e-10, _bernoulli=False, _scale=None):
    """Integrate u' = A u - kappa * max(u,0)^gamma over t_span with dense output.

    The absolute tolerance follows from u0 (see the module docstring).
    `_bernoulli=True` integrates z = u^(1-min(gamma)) from a u0 positive at
    every site, and u from one with a zero site, where z is infinite.
    `_scale`, one positive factor per member of a batch, multiplies that
    member's right-hand side.
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
    A_T = A.T
    A_blocks = np.broadcast_to(A, (B, d, d))
    kappa_gamma, gamma_1 = kappa * gamma, gamma - 1.0
    scale = None if _scale is None else np.asarray(_scale, dtype=float).reshape(B, 1)
    atol = 0.0 if np.all(y0 > 0.0) else _ZERO_SITE_ATOL
    bernoulli = _bernoulli and not atol

    # F takes a state u, (B, d) or a stack of states (k, B, d), and v = max(u, 0).
    def F(u, v):
        out = u @ A_T - kappa * np.power(v, gamma)
        if scale is not None:
            out *= scale
        return out

    # J takes v = max(u, 0) at a state u (B, d).
    def J(v):
        blocks = A_blocks.copy()
        blocks[:, diag, diag] -= kappa_gamma * np.power(v, gamma_1)
        if scale is not None:
            blocks *= scale[:, :, None]
        return blocks

    # fun and jac see the flat state (B d,); fun also a stack of them (k, B d).
    if bernoulli:
        g0 = float(gamma.min())
        p = 1.0 - g0
        inv_p = 1.0 / p

        # u = z^(1/p) is positive, +0, +inf or NaN, never negative, since 1/p
        # is not an odd integer for gamma0 in (1, 2): u is its own max(u, 0).
        def to_u(z):
            return np.power(z, inv_p)

        def fun(z):
            u = np.power(z.reshape(z.shape[:-1] + shape), inv_p)
            return (p * np.power(u, -g0) * F(u, u)).reshape(z.shape)

        def jac(z):
            u = to_u(z.reshape(shape))
            blocks = J(u) * (np.power(u, -g0)[:, :, None] * np.power(u, g0)[:, None, :])
            blocks[:, diag, diag] -= g0 * F(u, u) / u
            return _assemble(blocks)

        y0, rtol = np.power(y0, p), (g0 - 1.0) * rtol
    else:
        to_u = np.asarray

        def fun(y):
            u = y.reshape(y.shape[:-1] + shape)
            return F(u, np.maximum(u, 0.0)).reshape(y.shape)

        def jac(y):
            return _assemble(J(np.maximum(y.reshape(shape), 0.0)))

    y0 = y0.ravel()  # the solver's variable, u or z
    if not np.isfinite(y0).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    stepper = _RadauIIA(fun, jac, t0, y0, t_end, rtol, atol)
    if t_end == t0:  # one step of length zero, as scipy's solve_ivp records it
        stepper.ts.append(t0)
        stepper.y_olds.append(y0)
    (_step_z_to_end if bernoulli else _step_to_end)(stepper)
    report = SolverReport(accepted=len(stepper.ts) - 1, rejected=stepper.rejected,
                          variable="z" if bernoulli else "u",
                          nfev=stepper.nfev, njev=stepper.njev, nlu=stepper.nlu)
    return OdeSolution(stepper, shape, squeeze, to_u, report)
