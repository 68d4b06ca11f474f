"""The phi-transformed single-particle chain and its Feynman-Kac identities.

For a calibrated model the h-transform of the motion by the principal
eigenfunction is a conservative Markov chain (rows of the transformed rate
matrix sum to zero exactly because the eigenvalue vanishes) with invariant
probability phi(x) phi_star(x) m(x).  Path functionals of this chain give an
independent Monte Carlo route to the deterministic cumulant solutions:

    V_T(theta f)(x) = phi(x) * integral_0^theta E_x[ (f/phi)(xi_T)
        * exp(-integral_0^T (kappa gamma V_{T-s}(r f)^{gamma-1})(xi_s) ds) ] dr,

estimated by sharing one ensemble of chain paths across the quadrature nodes
in r.  Direct simulation of immigration along the path is avoided on purpose:
the small-mass immigration activity is infinite for stable indices in (1, 2),
while this identity carries the same content without truncation bias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from ._mapped import mapped_zeros
from .cumulant import SolverOptions, _cumulant_flow

__all__ = [
    "SpineChain",
    "SpinePath",
    "spine_generator",
    "simulate_spine",
    "feynman_kac_estimate",
    "ergodic_average_check",
]

ROW_SUM_TOL = 1e-12
_HOOK_ROWS = 2048  # path rows per table gather in feynman_kac_estimate
# Segments per flush in ergodic_average_check.  Flushes of 16k segments made
# (m, gl_points) temporaries of about 0.35 MB, after which glibc trimmed and
# re-faulted its heap top on every flush (about 10^5 minor page faults per
# ergodic-three benchmark op); at 4,096 segments there are none.
_ERGODIC_ROWS = 4096


@dataclass(frozen=True)
class SpineChain:
    """Conservative h-transformed chain with its stationary field."""

    q_phi: np.ndarray
    stationary: np.ndarray  # phi * phi_star; sums to 1 against m
    m: np.ndarray

    def __post_init__(self):
        for name in ("q_phi", "stationary", "m"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def d(self):
        return self.q_phi.shape[0]

    @property
    def exit_rates(self):
        return -np.diag(self.q_phi)

    def jump_matrix(self):
        """Row-normalized off-diagonal jump distribution (zero rows for traps)."""
        off = self.q_phi - np.diag(np.diag(self.q_phi))
        rates = off.sum(axis=1)
        P = np.zeros_like(off)
        live = rates > 0
        P[live] = off[live] / rates[live, None]
        return P


@dataclass
class SpinePath:
    """Piecewise-constant right-continuous trajectory on [0, T]."""

    start: int
    jump_times: np.ndarray
    states: np.ndarray  # site after each jump
    horizon: float

    def __post_init__(self):
        if len(self.jump_times) != len(self.states):
            raise ValueError("jump_times and states must have equal length")
        if len(self.jump_times) and np.any(np.diff(self.jump_times) < 0):
            raise ValueError("jump times must be nondecreasing")

    def site_at(self, t):
        i = np.searchsorted(self.jump_times, t, side="right")
        return self.start if i == 0 else int(self.states[i - 1])

    def occupation_fractions(self, d):
        """Fraction of [0, horizon] spent at each site."""
        times = np.concatenate([[0.0], self.jump_times, [self.horizon]])
        sites = np.concatenate([[self.start], self.states]).astype(int)
        occ = np.zeros(d)
        np.add.at(occ, sites, np.diff(times))
        return occ / self.horizon


def spine_generator(model):
    """h-transformed rate matrix Q_phi and stationary field phi*phi_star.

    Requires criticality: the raw row sums of (1/phi) A (phi .) equal the
    principal eigenvalue, so they vanish only for a calibrated model; they are
    checked against ROW_SUM_TOL and the diagonal is then closed exactly.
    """
    A = model.A
    phi = model.phi
    G = A * (phi[None, :] / phi[:, None])
    scale = max(1.0, float(np.abs(G).max()))
    residual = np.abs(G.sum(axis=1)).max()
    if residual > ROW_SUM_TOL * scale:
        raise ValueError(
            f"model is not critical: transformed row sums reach {residual:.3e}"
        )
    off = G - np.diag(np.diag(G))
    if off.min() < 0:
        off = np.clip(off, 0.0, None)
    q_phi = off - np.diag(off.sum(axis=1))
    stationary = phi * model.phi_star
    left = (stationary * model.m) @ q_phi
    if np.abs(left).max() > ROW_SUM_TOL * scale:
        raise ValueError("stationary field fails the left-null-vector identity")
    return SpineChain(q_phi=q_phi, stationary=stationary, m=model.m)


def _start_site(chain, x0):
    """x0 as a site index; a negative index would wrap to another site."""
    x0 = int(x0)
    if not 0 <= x0 < chain.d:
        raise ValueError(f"start site x0={x0} is outside [0, {chain.d})")
    return x0


def simulate_spine(chain, x0, T, rng):
    """Event-driven jump simulation: exponential holds, row-proportional jumps."""
    if T <= 0:
        raise ValueError("horizon must be positive")
    x0 = _start_site(chain, x0)
    rates = chain.exit_rates
    P = chain.jump_matrix()
    cumP = np.cumsum(P, axis=1)
    t = 0.0
    site = x0
    jump_times = []
    states = []
    while True:
        rate = rates[site]
        if rate <= 0:
            break
        t += rng.standard_exponential() / rate
        if t >= T:
            break
        site = int(np.searchsorted(cumP[site], rng.random(), side="right"))
        jump_times.append(t)
        states.append(site)
    return SpinePath(
        start=x0,
        jump_times=np.asarray(jump_times),
        states=np.asarray(states, dtype=int),
        horizon=float(T),
    )


def _batch_paths_accumulate(chain, starts, T, rng, segment_hook):
    """Wave-based batch jump simulation; returns each path's final site.

    segment_hook(sites, t0, t1, idx) is called once per wave with the
    constant-site segments [t0, t1) of the live paths idx (ascending).  Each
    wave draws standard_exponential(live) holds, then random(jumped) jump
    targets.  The arrays handed to the hook are never modified afterwards,
    so a hook may keep them."""
    rates = chain.exit_rates
    # gathered per wave, these give the values of np.maximum(rates[site],
    # 1e-300) and rates[site] <= 0 without the per-wave ufunc calls
    divisor = np.maximum(rates, 1e-300)
    trap = rates <= 0
    any_trap = trap.any()
    cumP = np.cumsum(chain.jump_matrix(), axis=1)
    final = starts.copy()
    idx = np.arange(starts.size)
    site = starts.copy()
    t = np.zeros(starts.size)
    while idx.size:
        hold = rng.standard_exponential(idx.size)
        hold /= divisor[site]
        if any_trap:
            hold[trap[site]] = np.inf
        hold += t
        t_next = np.minimum(hold, T, out=hold)
        segment_hook(site, t, t_next, idx)
        jumped = t_next < T
        t = t_next
        if not jumped.all():
            done = ~jumped
            final[idx[done]] = site[done]
            idx, site, t = idx[jumped], site[jumped], t[jumped]
        if idx.size:
            u = rng.random(idx.size)
            site = (u[:, None] > cumP[site]).sum(axis=1)
    return final


def _exponent_tables(model, f, r_nodes, T, opts, curves, n_tau):
    """Cumulative exponent integrals W(y, tau, k) = int_0^tau (kappa gamma
    V_u(r_k f)^{gamma-1})(y) du on the uniform grid tau = linspace(0, T, n_tau).

    Returns (tau, W, S).  W has shape (d, n_tau, K), so one gather W[y, j]
    gives every node's value at site y and grid point j.  S has the same shape
    and holds np.interp's slopes, S[y, j] = (W[y, j+1] - W[y, j]) /
    (tau[j+1] - tau[j]), with a zero row at j = n_tau - 1 so that
    `_table_lookup` can read S at the last grid point.

    Without supplied curves the K node solves run as one (K, d) batch.  Both
    arrays live on maps of their own (see `_mapped`) and are filled in place,
    the dense output in pieces of about 128 KB and the integrals one node at a
    time: glibc raises its mmap threshold to the size of the largest block
    freed, so a large temporary freed here would raise the peak memory of the
    path phase by several MB."""
    kappa = model.mechanism.kappa[:, None, None]
    gamma = model.mechanism.gamma[:, None, None]
    tau = np.linspace(0.0, T, n_tau)
    K = len(r_nodes)
    W = mapped_zeros((model.d, n_tau, K))
    if curves is None:
        sol = _cumulant_flow(model, np.outer(r_nodes, f), T, opts)
        for chunk in np.array_split(np.arange(n_tau), max(1, W.nbytes // 2**17)):
            W[:, chunk] = sol(tau[chunk]).transpose(2, 0, 1)
    else:
        for k, curve in enumerate(curves):
            W[:, :, k] = curve.evaluate(tau).T
    np.power(np.clip(W, 0.0, None, out=W), gamma - 1.0, out=W)
    W *= kappa * gamma
    for k in range(K):
        W[:, 1:, k] = cumulative_simpson(W[:, :, k], x=tau, axis=1)
        W[:, 0, k] = 0.0
    S = mapped_zeros(W.shape)
    np.subtract(W[:, 1:], W[:, :-1], out=S[:, :-1])
    S[:, :-1] /= np.diff(tau)[:, None]
    return tau, W, S


def _table_lookup(W, S, tau, sites, x):
    """Every node's table at (sites[i], x[i]) for x in [0, tau[-1]], shape (m, K).

    Bit for bit np.interp(x, tau, W[y, :, k]): the bracket j is the largest
    index with tau[j] <= x, found from the uniform spacing and corrected by
    one step against the rounded grid, and the value is np.interp's own
    slope * (x - tau[j]) + W[j] (its exact hit x == tau[j] returns W[j], which
    this formula also gives)."""
    last = tau.size - 1
    j = np.minimum((x * (last / tau[-1])).astype(np.intp), last)
    j -= tau[j] > x
    j += (j < last) & (tau[np.minimum(j + 1, last)] <= x)
    rows = sites * tau.size + j
    K = W.shape[-1]
    out = S.reshape(-1, K).take(rows, axis=0)
    out *= (x - tau[j])[:, None]
    out += W.reshape(-1, K).take(rows, axis=0)
    return out


def _composite_geometric_nodes(theta, n_panels=12, per_panel=4):
    """Gauss-Legendre panels refined geometrically toward r = 0.

    The integrand behaves like exp(-c r^(gamma-1)) near the origin, whose
    fractional power defeats a single global rule; geometric refinement
    restores fast convergence without assuming a particular index.
    """
    x_gl, w_gl = np.polynomial.legendre.leggauss(per_panel)
    edges = theta * 2.0 ** -np.arange(n_panels + 1)
    edges = np.concatenate([edges, [0.0]])[::-1]  # ascending, 0 first
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(lo + half * (x_gl + 1.0))
        weights.append(half * w_gl)
    return np.concatenate(nodes), np.concatenate(weights)


def feynman_kac_estimate(
    model,
    f,
    theta,
    T,
    n_paths,
    rng,
    r_grid_size=None,
    opts=None,
    curves=None,
    r_nodes=None,
    r_weights=None,
    n_tau=4097,
):
    """Per-site path estimate of V_T(theta f) via the transformed chain.

    The outer integral over r in [0, theta] uses geometrically refined
    Gauss-Legendre panels by default (the integrand has a fractional-power
    kink at r = 0 that a single-panel rule resolves only to ~1e-4); passing
    r_grid_size selects a plain single-panel rule with that many nodes, and
    explicit r_nodes/r_weights override both.  All nodes share one ensemble of
    n_paths chain paths per start site (common random numbers).  The exponent
    integral along each piecewise-constant trajectory is read off precomputed
    cumulative tables of the dense cumulant output, so no time-discretization
    bias enters beyond the table resolution.  Returns (estimate, stderr), each
    a field over start sites.
    """
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    if n_paths < 2:
        raise ValueError("need at least two paths")
    if T <= 0:
        raise ValueError("horizon must be positive")
    if n_tau < 2:
        raise ValueError("n_tau must be at least 2")
    f = np.asarray(f, dtype=float)
    if f.shape != (model.d,) or np.any(f < 0):
        raise ValueError("f must be a nonnegative field of length d")
    opts = opts or SolverOptions(rel_tol=1e-8)
    if r_nodes is None:
        if r_grid_size is None:
            r_nodes, r_weights = _composite_geometric_nodes(theta)
        else:
            x_gl, w_gl = np.polynomial.legendre.leggauss(r_grid_size)
            r_nodes = 0.5 * theta * (x_gl + 1.0)
            r_weights = 0.5 * theta * w_gl
    else:
        r_nodes = np.asarray(r_nodes, dtype=float)
        r_weights = np.asarray(r_weights, dtype=float)
        if r_nodes.shape != r_weights.shape:
            raise ValueError("r_nodes and r_weights must match")
    if curves is not None and len(curves) != r_nodes.size:
        raise ValueError("need one cumulant curve per quadrature node")

    chain = spine_generator(model)
    tau, W, S = _exponent_tables(model, f, r_nodes, T, opts, curves, n_tau)
    d = model.d

    starts = np.repeat(np.arange(d), n_paths)
    I = mapped_zeros((starts.size, r_nodes.size))

    def hook(sites, t0, t1, idx):
        # int_{t0}^{t1} g(T - s) ds = W(T - t0) - W(T - t1), in row chunks
        # that keep the (rows, K) temporaries small
        for c in range(0, idx.size, _HOOK_ROWS):
            rows = slice(c, c + _HOOK_ROWS)
            y = sites[rows]
            step = _table_lookup(W, S, tau, y, T - t0[rows])
            step -= _table_lookup(W, S, tau, y, T - t1[rows])
            I[idx[rows]] += step

    final_site = _batch_paths_accumulate(chain, starts, T, rng, hook)
    ratio = (f / model.phi)[final_site]
    np.exp(np.negative(I, out=I), out=I)
    vals = ratio * (I @ r_weights)

    est = np.empty(d)
    se = np.empty(d)
    for x in range(d):
        block = vals[x * n_paths : (x + 1) * n_paths]
        est[x] = model.phi[x] * block.mean()
        se[x] = model.phi[x] * block.std(ddof=1) / np.sqrt(n_paths)
    return est, se


def _apply_elementwise(F, y, u):
    vals = np.asarray(F(int(y), u))
    if vals.shape != u.shape:
        raise ValueError(
            "F(y, u) must be applied elementwise and return an array of the "
            f"shape of u {u.shape}; got shape {vals.shape}"
        )
    return vals


def ergodic_average_check(chain, F, T, n_paths, rng, x0=0, gl_points=8):
    """Path average of int_0^1 F(xi_{(1-u)T}, u) du against its stationary value.

    F(y, u) is applied elementwise: it receives a site index y and an array u
    of values in [0, 1] and must return an array of the shape of u.  Returns
    (estimate, target, stderr); the target is int_0^1 <F(., u), stationary>_m du.

    Each constant-site segment contributes its gl_points-node Gauss-Legendre
    rule.  Segments are buffered and evaluated in flushes of at most
    _ERGODIC_ROWS segments (or one wave, if larger); the node sum runs in a
    fixed order per segment and each path adds its segments in time order, so
    the result depends only on the paths, not on how they are grouped into
    waves or flushes.
    """
    if T <= 0:
        raise ValueError("horizon must be positive")
    if n_paths < 2:
        raise ValueError("need at least two paths")
    x0 = _start_site(chain, x0)

    x64, w64 = np.polynomial.legendre.leggauss(64)
    u64 = 0.5 * (x64 + 1.0)
    weights = chain.stationary * chain.m
    target = 0.0
    for y in range(chain.d):
        target += weights[y] * 0.5 * float(_apply_elementwise(F, y, u64) @ w64)

    x_gl, w_gl = np.polynomial.legendre.leggauss(gl_points)
    acc = np.zeros(n_paths)
    waves = []
    pending = 0

    def flush():
        sites, t0, t1, idx = (np.concatenate(a) for a in zip(*waves))
        waves.clear()
        half = 0.5 * (t1 - t0)
        step = np.empty_like(half)
        for y in np.flatnonzero(np.bincount(sites)):
            sel = np.flatnonzero(sites == y)
            # node-major (gl_points, m): F sees the (m, gl_points) view, and
            # the rule sums contiguous node rows, unlike a BLAS matrix-vector
            # product whose rounding depends on the row count and position
            u = np.multiply(half[sel], x_gl[:, None] + 1.0)
            u += t0[sel]
            u /= T
            np.subtract(1.0, u, out=u)
            vals = _apply_elementwise(F, y, u.T).T
            q = vals[0] * w_gl[0]
            for k in range(1, gl_points):
                q += vals[k] * w_gl[k]
            step[sel] = half[sel] * q
        np.add.at(acc, idx, step)

    def hook(sites, t0, t1, idx):
        nonlocal pending
        if waves and pending + idx.size > _ERGODIC_ROWS:
            flush()
            pending = 0
        waves.append((sites, t0, t1, idx))
        pending += idx.size

    _batch_paths_accumulate(chain, np.full(n_paths, x0), T, rng, hook)
    flush()
    acc /= T

    est = float(acc.mean())
    se = float(acc.std(ddof=1) / np.sqrt(n_paths))
    return est, float(target), se
