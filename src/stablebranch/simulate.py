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

import functools
from dataclasses import dataclass, field

import numpy as np

from ._fork import map_forked, worker_count
from ._mapped import mapped_zeros
from .model import ArgumentError, _density

__all__ = [
    "SimConfig",
    "PathStats",
    "simulate_paths",
]

_CHUNK_REPLICATES = 2048
_BLOCK_STEPS = 1024
# scheduled site-steps per worker below which a fork costs more than it saves
_SPLIT_FLOOR = 100_000


@dataclass(frozen=True)
class SimConfig:
    """Run parameters.  A value out of range raises ArgumentError naming the
    field at fault, whose message begins with that name.

    There is no mass floor: extinction is decided by exact per-step thinning,
    and any positive floor measurably biases survival when the minimal stable
    index is close to 1 (late dust carries order-one survival probability)."""

    step_size: float
    horizon: float
    replicates: int
    # keyword-only: a fourth positional value is refused, not taken for a seed
    seed: int = field(default=0, kw_only=True)

    def __post_init__(self):
        # Written so that NaN fails every rule.
        for name in ("step_size", "horizon"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ArgumentError(name, f"{name} must be finite and positive, got {value!r}")
        if self.step_size > self.horizon:
            raise ArgumentError("step_size", "step_size must not exceed the horizon")
        if self.replicates < 1:
            raise ArgumentError("replicates", "replicates must be at least 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ArgumentError("seed", "seed must fit in 64 bits")
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
    site_steps counts the site-steps executed on live replicates, and
    cluster_share is the share of them that took the exact cluster branch
    instead of the stable kick.  All three are sums over all workers, so they
    do not depend on how many ran; workers is that number, the calling
    process included.  simulate_paths fills final_states, X_T per replicate
    with shape (replicates, d) in replicate order; an extinct row is 0.
    """

    replicates: int
    survivors: int
    functional_values: np.ndarray  # X_T(f) per surviving path, replicate order
    final_states: np.ndarray | None = field(default=None, repr=False)
    live_by_block: np.ndarray | None = None
    site_steps: int | None = None
    cluster_share: float | None = None
    workers: int | None = None

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
    """Map uniforms/exponentials to standardized spectrally positive increments.

    The trigonometric transformation of a uniform angle and a unit
    exponential, normalised so that E[exp(-u S)] = exp(u^gamma) for u >= 0;
    the increments have mean zero and take both signs.
    """
    u = np.pi * (np.minimum(np.maximum(u01, 1e-12), 1.0 - 1e-12) - 0.5)
    w = np.maximum(w, 1e-300)
    t = gamma_idx * (u + b)
    return (
        np.sin(t)
        / np.cos(u) ** (1.0 / gamma_idx)
        * (np.cos(u - t) / w) ** ((1.0 - gamma_idx) / gamma_idx)
    )


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
_POISSON_COMPACT_MIN = 1024


def _poisson_quantile(lam, u):
    """Elementwise Poisson quantile of 1-D lam and u: smallest N with CDF(N) >= u.

    The cdf never falls, so an entry once resolved stays resolved.  Each entry
    counts the steps it was unresolved; the search set is compacted when half
    of it has resolved, once it holds at least _POISSON_COMPACT_MIN entries
    (below that, numpy's per-call cost exceeds the arithmetic saved)."""
    N = np.empty_like(lam)
    pos = np.arange(lam.size)
    pmf = np.exp(-lam)
    cdf = pmf.copy()
    n = np.zeros_like(lam)
    for k in range(1, _POISSON_KMAX + 1):
        todo = u > cdf
        n += todo
        left = np.count_nonzero(todo)
        if not left or (2 * left <= pos.size and pos.size >= _POISSON_COMPACT_MIN):
            N[pos] = n
            if not left:
                return N
            pos, lam, u, pmf, cdf, n = (a[todo] for a in (pos, lam, u, pmf, cdf, n))
        pmf = pmf * lam / k
        cdf = cdf + pmf
    N[pos] = n
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
        self._weights = {}  # step size -> extinction_weight

    def extinction_weight(self, h):
        """w_h: per-density one-step extinction weight, per site."""
        w_h = self._weights.get(h)
        if w_h is None:
            g1 = self.gamma - 1.0
            w_h = self._weights[h] = self.m * (self.kappa * g1 * h) ** (-1.0 / g1)
        return w_h

    @staticmethod
    def _kicked(Zp, u01, w_exp, h, gamma, b, kappa, inv_gamma, m_pow):
        """Zp plus the frozen-coefficient stable kick, before the clamp at 0."""
        S = _stable_transform(gamma, b, u01, w_exp)
        sigma = np.power(kappa * Zp * h, inv_gamma) * m_pow
        return Zp + sigma * S

    def advance(self, Z, u01, w_exp, h):
        """One step for a (B, d) batch; consumes matching (B, d) draw blocks.
        The cluster branch indexes them flat, which copies a strided block, so
        callers pass C-contiguous ones.

        The mean (motion + linear rate) update is applied first and the
        branching outcome is drawn from the post-drift mass, so step inflow is
        subject to extinction thinning like standing mass; otherwise coupled
        dust would be re-seeded deterministically and could never die.  The
        stable transform is evaluated only on the entries that take the kick.
        Returns the new state and the number of entries on the cluster branch.
        """
        Zp = np.maximum(Z + h * (Z @ self.drift_matrix.T), 0.0)
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
        idx = np.flatnonzero(cluster)  # C order, as a boolean index reads
        if idx.size:
            N = _poisson_quantile(lam.take(idx), u01.take(idx))
            branched.put(idx, N * w_exp.take(idx) / w_h.take(idx % w_h.size))
        return np.maximum(branched, 0.0), idx.size


def _simulate_chunk(kernel, streams, mu, hs, draws, f_weights, chunk):
    """Simulate the replicates [start, stop) of `chunk` in the draw buffers `draws`.

    Returns the summable parts of the result: the survivor values and final
    states in replicate order, live_by_block, and the cluster and live
    site-step counts.
    """
    start, stop = chunk
    count = stop - start
    d = kernel.m.size
    n_steps = hs.size
    block_starts = range(0, n_steps, _BLOCK_STEPS)
    live_by_block = np.zeros(len(block_starts), dtype=np.int64)
    cluster_site_steps = live_site_steps = 0
    ones = np.ones(d)
    rows = np.arange(count)  # chunk positions of the live replicates
    saved = None  # their stream states at the last block boundary
    Z = np.broadcast_to(mu, (count, d)).copy()
    for block, step in enumerate(block_starts):
        if rows.size == 0:
            break
        nb = min(_BLOCK_STEPS, n_steps - step)
        more_blocks = step + nb < n_steps
        U, W = draws[0, : rows.size, :nb], draws[1, : rows.size, :nb]
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
            # contiguous (rows, d) copies: advance indexes them flat
            if pos is None:
                u01, w_exp = U[:, k].copy(), W[:, k].copy()
            else:
                u01, w_exp = U[:, k].take(pos, axis=0), W[:, k].take(pos, axis=0)
            Z, n_cluster = kernel.advance(Z, u01, w_exp, hs[step + k])
            cluster_site_steps += n_cluster
            live_site_steps += Z.size
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
        live_by_block[block] = rows.size
    if not np.all(np.isfinite(Z)):
        raise FloatingPointError("non-finite state (scale misconfiguration)")
    # scatter back to the full chunk so the reductions see the same matrix
    # as an uncompacted run: dropped rows are exactly zero
    Z_full = np.zeros((count, d))
    Z_full[rows] = Z
    alive = (Z_full @ kernel.m) > 0.0
    return (Z_full @ f_weights)[alive], Z_full, live_by_block, cluster_site_steps, live_site_steps


def simulate_paths(model, mu, config, f=None):
    """Run independent replicates of the Euler scheme; record survival and X_T(f).

    mu is the initial density against m; f, a nonnegative, nontrivial field,
    defaults to the constant field 1 (so X_T(f) is the total mass).  Zero
    survivors is reported, not fatal.

    The replicates are split into equal chunks of at most _CHUNK_REPLICATES
    (2,048), as few as allow a multiple of the worker count, and the chunks
    are dealt out by _fork.map_forked.  The workers are one per CPU in the
    process's affinity mask, but at most one per _SPLIT_FLOOR (100,000)
    scheduled site-steps, replicates x steps x sites: a run of fewer than
    200,000 never forks.  Each replicate draws from its own stream, so the
    result is bit for bit the same for any number of workers.
    """
    mu = _density(mu, model.d)
    f = np.ones(model.d) if f is None else _density(f, model.d, "f")

    n = config.replicates
    hs = np.asarray(config.step_sizes)
    floor = -(-_SPLIT_FLOOR // (hs.size * model.d))  # replicates per worker
    workers = worker_count(max(1, n // floor))
    n_chunks = workers * -(-n // (_CHUNK_REPLICATES * workers))
    bounds = [n * i // n_chunks for i in range(n_chunks + 1)]
    # draw buffers, reused by every chunk and block
    draws = mapped_zeros((2, -(-n // n_chunks), min(_BLOCK_STEPS, hs.size), model.d))
    run = functools.partial(
        _simulate_chunk, _StepKernel(model), _ReplicateStreams(config.seed), mu, hs, draws,
        f * model.m,
    )
    parts, error = map_forked(run, list(zip(bounds, bounds[1:])), workers)
    if error is not None:
        raise error
    values, finals, live_by_block, cluster_site_steps, live_site_steps = zip(*parts)
    site_steps = sum(live_site_steps)
    functional_values = np.concatenate(values)
    return PathStats(
        replicates=n,
        survivors=functional_values.size,
        functional_values=functional_values,
        final_states=np.concatenate(finals),
        live_by_block=np.sum(live_by_block, axis=0),
        site_steps=site_steps,
        cluster_share=sum(cluster_site_steps) / site_steps,
        workers=workers,
    )
