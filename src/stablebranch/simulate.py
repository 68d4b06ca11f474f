"""Monte Carlo engine: d-type stable branching with motion mixing.

State is the density vector Z against the site weights m (mass at x is
Z(x) m(x)).  One step over h first applies the frozen mean update
Zp = Z + h [(Qm' Z) + beta Z] (Qm' is the m-adjoint motion action, so the mean
propagates with the adjoint of the calibrated generator), then branches the
post-drift mass:

    Z'(x) = max(0, Zp(x) + sigma_x(Zp(x), h) S_gamma(x))

where S_gamma is a standardized spectrally positive stable increment with
log E[exp(-u S)] = u^gamma.  The jump scale

    sigma_x(z, h) = (kappa(x) z h)^(1/gamma(x)) * m(x)^((1-gamma(x))/gamma(x))

is fixed by matching the one-step conditional log-Laplace of the site mass
z m(x) to its exact branching value z m(x) kappa(x) theta^gamma(x) h to first
order in h; the m-power converts mass scale to density scale.  The constant is
gated by the closed-form extinction oracle of the motion-free scalar case.

Small masses need care beyond the clamp: once sigma_x(z, h) is comparable to
z, the clamped kick inflates the conditional mean (E max(0, z + sigma S) >> z)
and sub-resolution dust re-ignites far too often, which breaks the extinction
functional.  The exact one-step branching law is compound Poisson: with
w_h(x) = m(x) (kappa(x) (gamma(x)-1) h)^(-1/(gamma(x)-1)) the per-step
extinction weight per unit density, a site of density z carries
N ~ Poisson(z w_h) surviving clusters of mean density 1/w_h each.  When
z w_h <= 5 the scheme draws that representation directly (N from the uniform,
cluster mass from the exponential), making per-step extinction exact; above
the threshold the frozen-coefficient stable kick is accurate and cheaper.

Replicate r draws from its own counter-based stream Philox(key = seed << 64 | r),
consuming uniforms and exponentials in a fixed block order, so results are
bit-reproducible and independent of any execution partition.  Zero is
absorbing and no replicate shares a stream, so a replicate whose sites are all
exactly zero is dropped from the batch: it draws and branches no further, and
its final state is the zero vector it would have kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import eta

__all__ = [
    "SimConfig",
    "PathStats",
    "sample_positive_stable",
    "step_euler",
    "simulate_paths",
    "conditional_laplace_estimate",
]

_CHUNK_REPLICATES = 2048
_BLOCK_STEPS = 1024


@dataclass(frozen=True)
class SimConfig:
    """Run parameters; the default mass floor is zero because extinction is
    decided by exact per-step thinning, and any positive floor measurably
    biases survival when the minimal stable index is close to 1 (late dust
    carries order-one survival probability)."""

    step_size: float
    horizon: float
    replicates: int
    mass_floor: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.step_size <= 0 or self.horizon <= 0:
            raise ValueError("step_size and horizon must be positive")
        if self.step_size > self.horizon:
            raise ValueError("step_size must not exceed the horizon")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.mass_floor < 0:
            raise ValueError("mass_floor must be nonnegative")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def step_sizes(self):
        """The deterministic step schedule: full steps plus a final remainder."""
        n_full = int(np.floor(self.horizon / self.step_size + 1e-9))
        rem = self.horizon - n_full * self.step_size
        hs = [self.step_size] * n_full
        if rem > 1e-9 * self.step_size:
            hs.append(rem)
        return hs


@dataclass
class PathStats:
    """Ensemble summary: survival counts and survivor functionals X_T(f).

    Run telemetry: live_by_block[i] counts the replicates with a nonzero site
    at the end of draw block i (blocks of 1024 steps), so it never increases;
    its last entry equals survivors unless a state underflows to zero mass.
    cluster_share is the share of live site-steps that took the exact cluster
    branch instead of the stable kick.
    """

    replicates: int
    survivors: int
    functional_values: np.ndarray  # X_T(f) per surviving path, replicate order
    functional_description: str
    final_states: np.ndarray | None = field(default=None, repr=False)
    live_by_block: np.ndarray | None = None
    cluster_share: float | None = None

    def __post_init__(self):
        if self.survivors > self.replicates:
            raise ValueError("survivors cannot exceed replicates")
        if np.any(self.functional_values < 0):
            raise ValueError("functional values must be nonnegative")

    @property
    def survival_rate(self):
        return self.survivors / self.replicates

    @property
    def survival_se(self):
        p = self.survival_rate
        return float(np.sqrt(p * (1.0 - p) / self.replicates))

    @property
    def functional_mean(self):
        """Survivor mean of X_T(f); None when no path survived."""
        if self.survivors == 0:
            return None
        return float(self.functional_values.mean())

    @property
    def functional_se(self):
        if self.survivors < 2:
            return None
        return float(self.functional_values.std(ddof=1) / np.sqrt(self.survivors))

    def laplace_functional(self, scale=1.0):
        """Mean and standard error of exp(-scale X_T(f)) over all replicates.

        Extinct paths contribute exp(0) = 1, so the full-ensemble moments are
        recoverable from the survivor values alone.
        """
        n, s = self.replicates, self.survivors
        vals = np.exp(-scale * self.functional_values)
        total = vals.sum() + (n - s)
        sq = (vals**2).sum() + (n - s)
        mean = total / n
        var = max(sq / n - mean**2, 0.0)
        return float(mean), float(np.sqrt(var / n))


def _stable_consts(gamma_idx):
    gamma_idx = np.asarray(gamma_idx, dtype=float)
    if np.any(gamma_idx <= 1.0) or np.any(gamma_idx >= 2.0):
        raise ValueError("stable index must lie in (1, 2)")
    b = np.pi / 2.0 - np.pi / gamma_idx
    return gamma_idx, b


def _stable_transform(gamma_idx, b, u01, w):
    """Map uniforms/exponentials to standardized spectrally positive increments."""
    u = np.pi * (np.clip(u01, 1e-12, 1.0 - 1e-12) - 0.5)
    w = np.maximum(w, 1e-300)
    t = gamma_idx * (u + b)
    return (
        np.sin(t)
        / np.cos(u) ** (1.0 / gamma_idx)
        * (np.cos(u - t) / w) ** ((1.0 - gamma_idx) / gamma_idx)
    )


def sample_positive_stable(gamma_idx, rng, size=None):
    """Standardized spectrally positive stable increments, log-Laplace u^gamma.

    Uses the trigonometric transformation of a uniform angle and a unit
    exponential; the normalization makes E[exp(-u S)] = exp(u^gamma) for
    u >= 0, which is the exact one-step transform of the compensated stable
    branching noise.  Increments are mean zero and take both signs.
    """
    g, b = _stable_consts(gamma_idx)
    u01 = rng.random(size)
    w = rng.standard_exponential(size)
    return _stable_transform(g, b, u01, w)


class _ReplicateStreams:
    """The streams Philox(key = seed << 64 | r) from one re-keyed bit generator.

    Pointing one Philox instance at a new key yields the same stream as
    constructing Generator(Philox(key)) for the replicate, at a fraction of
    the cost; a replicate's position is carried across draw blocks by saving
    and restoring the bit generator state.
    """

    def __init__(self, seed):
        self.bit_generator = np.random.Philox(key=0)
        self.rng = np.random.Generator(self.bit_generator)
        self._fresh = self.bit_generator.state
        self._key = self._fresh["state"]["key"]  # (low, high) 64-bit words
        self._key[1] = seed

    def start(self, replicate):
        """Position the generator at the start of the replicate's stream."""
        self._key[0] = replicate
        self.bit_generator.state = self._fresh


# Sites with z * w_h at or below this use the exact cluster branch.
_CLUSTER_THRESHOLD = 5.0
_POISSON_KMAX = 64


def _poisson_quantile(lam, u):
    """Elementwise Poisson quantile: smallest N with CDF(N) >= u."""
    pmf = np.exp(-lam)
    cdf = pmf.copy()
    N = np.zeros_like(lam)
    for k in range(1, _POISSON_KMAX + 1):
        todo = u > cdf
        if not todo.any():
            break
        N[todo] += 1.0
        pmf = pmf * lam / k
        cdf = cdf + pmf
    return N


class _StepKernel:
    """Precomputed per-model constants for the hybrid one-step update."""

    def __init__(self, model):
        self.gamma, self.b = _stable_consts(model.mechanism.gamma)
        self.kappa = model.mechanism.kappa
        self.inv_gamma = 1.0 / self.gamma
        self.m = model.m
        self.m_pow = self.m ** ((1.0 - self.gamma) / self.gamma)
        self.drift_matrix = model.mean_adjoint
        # the constants of the stable kick, site by site
        self._site_consts = list(zip(self.gamma, self.b, self.kappa, self.inv_gamma, self.m_pow))

    def extinction_weight(self, h):
        """w_h: per-density one-step extinction weight, per site."""
        g1 = self.gamma - 1.0
        return self.m * (self.kappa * g1 * h) ** (-1.0 / g1)

    @staticmethod
    def _kicked(Zp, u01, w_exp, h, gamma, b, kappa, inv_gamma, m_pow):
        """Zp plus the frozen-coefficient stable kick, before the clamp at 0."""
        S = _stable_transform(gamma, b, u01, w_exp)
        sigma = np.power(kappa * Zp * h, inv_gamma) * m_pow
        return Zp + sigma * S

    def advance(self, Z, u01, w_exp, h):
        """One step for a (B, d) batch; consumes matching (B, d) draw blocks.

        The mean (motion + linear rate) update is applied first and the
        branching outcome is drawn from the post-drift mass, so step inflow is
        subject to extinction thinning like standing mass; otherwise coupled
        dust would be re-seeded deterministically and could never die.  The
        stable transform is evaluated only on the entries that take the kick.
        Returns the new state and the number of entries on the cluster branch.
        """
        Zp = np.clip(Z + h * (Z @ self.drift_matrix.T), 0.0, None)
        w_h = self.extinction_weight(h)
        lam = Zp * w_h
        cluster = lam <= _CLUSTER_THRESHOLD
        branched = np.empty_like(Zp)
        # kick site by site: a site whose entries all kick needs no gather
        for x, consts in enumerate(self._site_consts):
            kick = ~cluster[:, x]
            n_kick = int(np.count_nonzero(kick))
            if n_kick == kick.size:
                branched[:, x] = self._kicked(Zp[:, x], u01[:, x], w_exp[:, x], h, *consts)
            elif n_kick:
                col = branched[:, x]
                col[kick] = self._kicked(
                    Zp[:, x][kick], u01[:, x][kick], w_exp[:, x][kick], h, *consts
                )
        n_cluster = int(np.count_nonzero(cluster))
        if n_cluster:
            N = _poisson_quantile(lam[cluster], u01[cluster])
            branched[cluster] = N * w_exp[cluster] / np.broadcast_to(w_h, Zp.shape)[cluster]
        return np.clip(branched, 0.0, None), n_cluster


def step_euler(model, state, h, rng, mass_floor=0.0):
    """One step of the hybrid scheme from a single state vector.

    Consumes rng.random((1, d)) then rng.standard_exponential((1, d)), the
    same stream layout as the first step of a simulate_paths replicate.
    """
    state = np.asarray(state, dtype=float)
    if state.shape != (model.d,) or np.any(state < 0):
        raise ValueError("state must be a nonnegative vector of length d")
    if h <= 0:
        raise ValueError("step size must be positive")
    kernel = _StepKernel(model)
    u01 = rng.random((1, model.d))
    w = rng.standard_exponential((1, model.d))
    Z, _ = kernel.advance(state[None, :], u01, w, h)
    Z = Z[0]
    if not np.all(np.isfinite(Z)):
        raise FloatingPointError("non-finite state after step (scale misconfiguration)")
    Z[Z * model.m < mass_floor] = 0.0
    return Z


def simulate_paths(model, mu, config, f=None, keep_final_states=False):
    """Run independent replicates of the Euler scheme; record survival and X_T(f).

    mu is the initial density against m; f defaults to the constant field 1
    (so X_T(f) is the total mass).  Zero survivors is reported, not fatal.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (model.d,) or np.any(mu < 0) or mu.sum() == 0:
        raise ValueError("mu must be a nonnegative, nontrivial density vector")
    f = np.ones(model.d) if f is None else np.asarray(f, dtype=float)
    if f.shape != (model.d,):
        raise ValueError(f"f must have shape ({model.d},)")

    d = model.d
    m = model.m
    kernel = _StepKernel(model)
    streams = _ReplicateStreams(config.seed)
    f_weights = f * m
    ones = np.ones(d)
    hs = np.asarray(config.step_sizes)
    n_steps = hs.size
    block_starts = range(0, n_steps, _BLOCK_STEPS)
    # draw buffers, reused by every chunk and block
    draw_shape = (min(_CHUNK_REPLICATES, config.replicates), min(_BLOCK_STEPS, n_steps), d)
    U_all, W_all = np.empty(draw_shape), np.empty(draw_shape)

    survivors = 0
    surv_vals = []
    finals = [] if keep_final_states else None
    live_by_block = np.zeros(len(block_starts), dtype=np.int64)
    cluster_site_steps = live_site_steps = 0

    for start in range(0, config.replicates, _CHUNK_REPLICATES):
        count = min(_CHUNK_REPLICATES, config.replicates - start)
        rows = np.arange(count)  # chunk positions of the live replicates
        saved = None  # their stream states at the last block boundary
        Z = np.broadcast_to(mu, (count, d)).copy()
        for block, step in enumerate(block_starts):
            if rows.size == 0:
                break
            nb = min(_BLOCK_STEPS, n_steps - step)
            more_blocks = step + nb < n_steps
            U, W = U_all[: rows.size, :nb], W_all[: rows.size, :nb]
            states = []
            for j, r in enumerate(rows):
                if saved is None:
                    streams.start(start + r)
                else:
                    streams.bit_generator.state = saved[j]
                streams.rng.random(out=U[j])
                streams.rng.standard_exponential(out=W[j])
                if more_blocks:
                    states.append(streams.bit_generator.state)
            pos = None  # rows of U and W still live; None while all are
            for k in range(nb):
                u01, w_exp = U[:, k], W[:, k]
                if pos is not None:
                    u01, w_exp = u01.take(pos, axis=0), w_exp.take(pos, axis=0)
                Z, n_cluster = kernel.advance(Z, u01, w_exp, hs[step + k])
                cluster_site_steps += n_cluster
                live_site_steps += Z.size
                if config.mass_floor > 0.0:
                    Z[Z * m < config.mass_floor] = 0.0
                live = (Z @ ones) != 0.0  # Z >= 0: zero row sum means all sites zero
                if not live.all():
                    pos = np.flatnonzero(live) if pos is None else pos[live]
                    Z = Z[live]
                    if pos.size == 0:
                        break
            if pos is not None:
                rows = rows[pos]
                if more_blocks:
                    states = [states[i] for i in pos]
            saved = states
            live_by_block[block] += rows.size
        if not np.all(np.isfinite(Z)):
            raise FloatingPointError("non-finite state (scale misconfiguration)")
        # scatter back to the full chunk so the reductions see the same matrix
        # as an uncompacted run: dropped rows are exactly zero
        Z_full = np.zeros((count, d))
        Z_full[rows] = Z
        alive = (Z_full @ m) > 0.0
        survivors += int(np.count_nonzero(alive))
        surv_vals.append((Z_full @ f_weights)[alive])
        if keep_final_states:
            finals.append(Z_full)

    return PathStats(
        replicates=config.replicates,
        survivors=survivors,
        functional_values=np.concatenate(surv_vals),
        functional_description=f"field({np.array2string(f, precision=6, max_line_width=200)})",
        final_states=np.concatenate(finals) if keep_final_states else None,
        live_by_block=live_by_block,
        cluster_share=cluster_site_steps / live_site_steps,
    )


def conditional_laplace_estimate(stats, model, f, theta, T):
    """Survivor average of exp(-theta eta_T X_T(f)) with its standard error.

    stats must come from simulate_paths with the same functional f; requires
    at least 30 survivors for a meaningful error bar.
    """
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    if stats.survivors < 30:
        raise ValueError(f"too few survivors ({stats.survivors} < 30)")
    vals = np.exp(-theta * eta(model, T) * stats.functional_values)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(stats.survivors))
