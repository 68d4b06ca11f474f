import hashlib
import os

import numpy as np
import pytest

from stablebranch.cumulant import solve_cumulant, solve_extinction, SolverOptions
from stablebranch._mapped import mapped_zeros
from stablebranch import simulate
from stablebranch.model import (
    ArgumentError,
    BranchingMechanism,
    MotionGenerator,
    StateSpace,
    calibrate_critical,
    eta,
)
from stablebranch.simulate import (
    _CLUSTER_THRESHOLD,
    _POISSON_KMAX,
    _StepKernel,
    _poisson_quantile,
    _stable_consts,
    _stable_transform,
    PathStats,
    SimConfig,
    simulate_paths,
)

from conftest import one_index_model, use_cpus


def replicate_stream(seed, index):
    return np.random.Generator(np.random.Philox(key=(seed << 64) | index))


def stable_draws(gamma, rng, n):
    """n standardized spectrally positive stable increments from rng."""
    return _stable_transform(*_stable_consts(gamma), rng.random(n), rng.standard_exponential(n))


def one_step(model, state, h, rng):
    """One step of the kernel from one state, on rng's next (1, d) uniforms
    and exponentials: the draws of a replicate's first step."""
    u01 = rng.random((1, model.d))
    w_exp = rng.standard_exponential((1, model.d))
    Z, _ = _StepKernel(model).advance(np.asarray(state, dtype=float)[None, :], u01, w_exp, h)
    return Z[0]


def survivor_digest(stats):
    """SHA-256 of the survivor count and survivor functionals, bit for bit."""
    h = hashlib.sha256(np.int64(stats.survivors).tobytes())
    h.update(np.ascontiguousarray(stats.functional_values, dtype="<f8").tobytes())
    return h.hexdigest()


def state_digest(Z):
    return hashlib.sha256(np.ascontiguousarray(Z, dtype="<f8").tobytes()).hexdigest()


class TestStableSampler:
    @pytest.mark.parametrize("gamma", [1.2, 1.5, 1.8])
    def test_transform_oracle(self, gamma, rng):
        S = stable_draws(gamma, rng, 400_000)
        for u in (0.5, 1.0, 2.0):
            e = np.exp(-u * S)
            est = np.log(e.mean())
            se = e.std() / e.mean() / np.sqrt(e.size)
            assert abs(est - u**gamma) <= 4.0 * se

    def test_gaussian_limit_variance(self, rng):
        S = stable_draws(1.99, rng, 10**6)
        assert abs(S.var() / 2.0 - 1.0) <= 0.10

    def test_both_signs(self, rng):
        S = stable_draws(1.5, rng, 10_000)
        neg = (S < 0).mean()
        assert 0.0 < neg < 1.0

    def test_mean_zero(self, rng):
        S = stable_draws(1.7, rng, 10**6)
        se = S.std() / np.sqrt(S.size)
        assert abs(S.mean()) <= 5.0 * se

    def test_index_range(self, rng):
        for bad in (1.0, 2.0, 0.8):
            with pytest.raises(ValueError):
                _stable_consts(bad)


class TestStepEuler:
    def test_zero_is_absorbing(self, two_site_model, rng):
        out = one_step(two_site_model, np.zeros(2), 1e-3, rng)
        assert np.array_equal(out, np.zeros(2))

    def test_one_step_mean_weighted_model(self, weighted_model):
        # adjoint drift and jump-scale m-powers verified against the exact
        # mean; the increment has infinite variance, so the self-normalized
        # statistic is heavy-tailed and the seed is pinned
        h = 1e-3
        mu = np.array([0.8, 0.5])
        cfg = SimConfig(step_size=h, horizon=h, replicates=300_000, seed=6)
        stats = simulate_paths(weighted_model, mu, cfg)
        Z = stats.final_states
        exact = np.clip(mu + h * (weighted_model.mean_adjoint @ mu), 0.0, None)
        z_scores = (Z.mean(axis=0) - exact) / (Z.std(axis=0) / np.sqrt(len(Z)))
        assert np.all(np.abs(z_scores) <= 4.0)

    def test_scalar_critical_mean(self, scalar_model):
        h = 1e-3
        cfg = SimConfig(step_size=h, horizon=h, replicates=200_000, seed=6)
        stats = simulate_paths(scalar_model, np.array([1.0]), cfg)
        Z = stats.final_states[:, 0]
        z = (Z.mean() - 1.0) / (Z.std() / np.sqrt(Z.size))
        assert abs(z) <= 4.0

    def test_nonnegative_states(self, two_site_model, rng):
        state = np.array([1e-6, 2.0])
        for _ in range(200):
            state = one_step(two_site_model, state, 5e-3, rng)
            assert np.all(state >= 0.0)


class TestDeterminism:
    def test_single_step_matches_stream(self, weighted_model):
        h = 2e-3
        mu = np.array([0.4, 1.1])
        cfg = SimConfig(step_size=h, horizon=h, replicates=1, seed=42)
        batch = simulate_paths(weighted_model, mu, cfg)
        direct = one_step(weighted_model, mu, h, replicate_stream(42, 0))
        assert np.array_equal(batch.final_states[0], direct)

    def test_bit_identical_runs(self, two_site_model):
        cfg = SimConfig(step_size=1e-3, horizon=0.1, replicates=3000, seed=7)
        a = simulate_paths(two_site_model, np.array([0.5, 0.5]), cfg, f=np.array([1.0, 2.0]))
        b = simulate_paths(two_site_model, np.array([0.5, 0.5]), cfg, f=np.array([1.0, 2.0]))
        assert a.survivors == b.survivors
        assert np.array_equal(a.functional_values, b.functional_values)

    def test_seed_changes_stream(self, two_site_model):
        base = dict(step_size=1e-3, horizon=0.05, replicates=500)
        a = simulate_paths(two_site_model, np.array([0.5, 0.5]), SimConfig(seed=1, **base))
        b = simulate_paths(two_site_model, np.array([0.5, 0.5]), SimConfig(seed=2, **base))
        assert not np.array_equal(a.functional_values, b.functional_values)


class TestWorkers:
    """Chunks dealt to any number of forked workers give the same result."""

    @pytest.mark.parametrize(
        "mu, step_size, horizon",
        [
            # small mass: extinction, compaction and the cluster branch over two draw blocks
            ([1e-4, 1e-4], 1e-3, 1.03),
            # order-one mass: every replicate survives on the stable kick
            ([0.5, 0.5], 1e-3, 0.2),
        ],
    )
    def test_result_does_not_depend_on_partition(self, two_site_model, monkeypatch,
                                                 mu, step_size, horizon):
        # 5,000 replicates are three chunks of 1,667 or 1,666 on 1 and 3
        # workers, four of 1,250 on 2
        cfg = SimConfig(step_size, horizon, 5000, seed=2718)
        runs = []
        for n in (1, 2, 3):
            use_cpus(monkeypatch, n)
            stats = simulate_paths(two_site_model, np.array(mu), cfg, f=np.array([1.0, 2.0]))
            assert stats.workers == n
            runs.append(stats)
        one = runs[0]
        assert 0 < one.survivors
        for other in runs[1:]:
            assert other.survivors == one.survivors
            assert other.functional_values.tobytes() == one.functional_values.tobytes()
            assert other.final_states.tobytes() == one.final_states.tobytes()
            assert np.array_equal(other.live_by_block, one.live_by_block)
            assert other.site_steps == one.site_steps
            assert other.cluster_share == one.cluster_share

    def test_scalar_chunk_split_over_cpus(self, scalar_model, monkeypatch):
        # 2,048 replicates of 200 steps: one chunk on 1 CPU, two of 1,024 on
        # 2 and four of 512 on 4; most replicates die on the way
        cfg = SimConfig(5e-3, 1.0, 2048, seed=777)
        runs = []
        for n in (1, 2, 4):
            use_cpus(monkeypatch, n)
            stats = simulate_paths(scalar_model, np.array([1.0]), cfg)
            assert stats.workers == n
            runs.append(stats)
        one = runs[0]
        assert 0 < one.survivors < 2048
        for other in runs[1:]:
            assert other.final_states.tobytes() == one.final_states.tobytes()
            assert other.functional_values.tobytes() == one.functional_values.tobytes()
            assert np.array_equal(other.live_by_block, one.live_by_block)
            assert (other.site_steps, other.cluster_share) == (one.site_steps, one.cluster_share)

    def test_single_chunk_runs_in_process(self, two_site_model, monkeypatch):
        # 2,048 replicates x 48 steps x 2 sites is just below the split floor
        # of 2 x 100,000 scheduled site-steps
        use_cpus(monkeypatch, 4)
        monkeypatch.setattr(os, "fork", None)  # calling it would raise TypeError
        stats = simulate_paths(two_site_model, np.array([0.5, 0.5]), SimConfig(1e-2, 0.48, 2048))
        assert stats.workers == 1

    def test_split_floor(self, two_site_model, monkeypatch):
        # one step more crosses the floor: two workers, not one per CPU
        use_cpus(monkeypatch, 4)
        stats = simulate_paths(two_site_model, np.array([0.5, 0.5]), SimConfig(1e-2, 0.49, 2048))
        assert stats.workers == 2

    @pytest.mark.parametrize("failing", ["child", "parent"])
    def test_failing_worker(self, two_site_model, monkeypatch, failing):
        parent = os.getpid()
        advance = _StepKernel.advance

        def poisoned(self, Z, u01, w_exp, h):
            Z, n_cluster = advance(self, Z, u01, w_exp, h)
            if (os.getpid() == parent) == (failing == "parent"):
                Z = np.full_like(Z, np.nan)
            return Z, n_cluster

        monkeypatch.setattr(_StepKernel, "advance", poisoned)
        use_cpus(monkeypatch, 2)
        # 2,100 replicates x 50 steps x 2 sites cross the split floor:
        # chunk 0 runs in a child and chunk 1, the last, here
        cfg = SimConfig(step_size=1e-2, horizon=0.5, replicates=2100)
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            simulate_paths(two_site_model, np.array([0.5, 0.5]), cfg)
        assert os.getpid() == parent  # no child came back here
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every child was reaped


def test_mapped_scratch_is_zeroed_and_writable():
    # feynman_kac_estimate accumulates into such an array from zero
    a = mapped_zeros((3, 4, 2))
    assert a.shape == (3, 4, 2) and a.dtype == np.float64
    assert not a.any()
    a[1] = 2.5
    assert a.sum() == 20.0


def poisson_quantile_reference(lam, u):
    """The search over the whole set until its slowest entry resolves."""
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


@pytest.mark.parametrize("size", [7, 3000])
def test_poisson_quantile_matches_full_search(size):
    # 3,000 entries cross the compaction floor; lam = 300 never resolves
    # within the cap, and u = 0 resolves at N = 0
    rng = np.random.default_rng(size)
    lam = rng.exponential(3.0, size)
    u = rng.random(size)
    lam[:4] = [0.0, 1e-300, 40.0, 300.0]
    u[:4] = [0.0, 1.0 - 1e-16, 0.999, 0.5]
    N = _poisson_quantile(lam, u)
    assert N.tobytes() == poisson_quantile_reference(lam, u).tobytes()
    assert N[0] == 0.0 and N[3] == _POISSON_KMAX


def five_site_model():
    """A five-site ring whose indices run from 1.2 to 1.8."""
    Q = np.zeros((5, 5))
    for x in range(5):
        Q[x, (x + 1) % 5] = Q[x, (x - 1) % 5] = 1.0
        Q[x, x] = -2.0
    mech = BranchingMechanism(beta=[0.0] * 5, kappa=[1.0] * 5, gamma=[1.2, 1.35, 1.5, 1.65, 1.8])
    return calibrate_critical(MotionGenerator(space=StateSpace(d=5), Q=Q), mech)


def test_one_poisson_search_per_step(monkeypatch):
    # the cluster entries of every site go to one _poisson_quantile call
    model = five_site_model()
    calls = []

    def counted(lam, u):
        calls.append(lam.size)
        return _poisson_quantile(lam, u)

    monkeypatch.setattr(simulate, "_poisson_quantile", counted)
    kernel = _StepKernel(model)
    rng = np.random.default_rng(3)
    h = 1e-3
    Z = np.full((400, 5), 1e-3)
    sites_clustered = set()
    for _ in range(20):
        Zp = np.maximum(Z + h * (Z @ model.mean_adjoint.T), 0.0)
        cluster = Zp * kernel.extinction_weight(h) <= _CLUSTER_THRESHOLD
        sites_clustered.update(np.flatnonzero(cluster.any(axis=0)))
        before = len(calls)
        Z, n_cluster = kernel.advance(Z, rng.random(Z.shape), rng.standard_exponential(Z.shape), h)
        assert len(calls) - before == (1 if n_cluster else 0)
        assert n_cluster == np.count_nonzero(cluster)
        if n_cluster:
            assert calls[-1] == n_cluster
    assert len(sites_clustered) >= 3


class TestGoldenDigests:
    """Outputs pinned bit for bit under the per-replicate stream contract.

    The digests were recorded with the full-batch kernel that drew, kicked and
    branched every replicate to the horizon; any rewrite of the replicate loop
    must reproduce them exactly.
    """

    def test_scalar_mostly_extinct(self, scalar_model):
        # 4,000 steps span four draw blocks; 99% of the replicates die
        cfg = SimConfig(step_size=5e-3, horizon=20.0, replicates=512, seed=777)
        stats = simulate_paths(scalar_model, np.array([1.0]), cfg)
        assert stats.survivors == 5
        assert survivor_digest(stats) == (
            "0a7132a5c77771c68ab45f82f9692328ede5cb6abe3ec7ee62c8598f811bb316"
        )

    def test_two_site_small_mass(self, two_site_model):
        # takes the cluster branch and crosses the 2,048-replicate chunk boundary
        cfg = SimConfig(1e-3, 1.0, 2500, seed=4321)
        stats = simulate_paths(two_site_model, np.array([4e-4, 4e-4]), cfg)
        assert stats.survivors == 1257
        assert survivor_digest(stats) == (
            "a8b88bb17bcfabb3e18429a0f588e553c689c3bdf8b5548e8b4c5f0232518795"
        )

    def test_final_states(self, weighted_model):
        cfg = SimConfig(step_size=4e-4, horizon=0.6, replicates=600, seed=99)
        stats = simulate_paths(weighted_model, np.array([2e-3, 1e-3]), cfg)
        Z = stats.final_states
        assert Z.shape == (600, 2)
        assert stats.survivors == 44
        assert np.count_nonzero(Z.any(axis=1)) == 44  # dead rows are exactly zero
        assert survivor_digest(stats) == (
            "e901cc143e738aa39ee557f0c9e2a4657e14d3c0bdb5adacb4bc922422d6b889"
        )
        assert state_digest(Z) == (
            "3fc62f03840b7ddeafacd9e7f94f79fa3037e62a62539f4cde1979332000a9be"
        )

    def test_three_site_cluster_mixed_kick(self, monkeypatch):
        # weakly coupled sites with indices 1.2, 1.5 and 1.8: on some step
        # site 0 is all on the kick, site 1 mixed and site 2 all on the
        # cluster branch, so the per-site kick loop and the flat cluster
        # indexing act on the same step
        r = 1e-3
        motion = MotionGenerator(
            space=StateSpace(d=3), Q=[[-2 * r, r, r], [r, -2 * r, r], [r, r, -2 * r]]
        )
        mech = BranchingMechanism(beta=[0.0] * 3, kappa=[1.0] * 3, gamma=[1.2, 1.5, 1.8])
        model = calibrate_critical(motion, mech)
        patterns = []
        advance = _StepKernel.advance

        def recorded(self, Z, u01, w_exp, h):
            Zp = np.maximum(Z + h * (Z @ self.drift_matrix.T), 0.0)
            cluster = Zp * self.extinction_weight(h) <= _CLUSTER_THRESHOLD
            patterns.append(
                "".join("C" if c.all() else "K" if not c.any() else "M" for c in cluster.T)
            )
            return advance(self, Z, u01, w_exp, h)

        monkeypatch.setattr(_StepKernel, "advance", recorded)
        cfg = SimConfig(1e-2, 0.2, 300, seed=31)
        stats = simulate_paths(model, np.array([1.0, 1e-4, 1e-4]), cfg, f=np.array([1.0, 2.0, 3.0]))
        assert stats.workers == 1 and "KMC" in patterns
        assert survivor_digest(stats) == (
            "83d29562013d16cd612466a8413ef3f267cb21c8a98244f3150fe4fdb0fb85c2"
        )
        assert state_digest(stats.final_states) == (
            "98adbde6e70176669779ec83728498ed3c379d9aa401fdfb4fcdc8a14c7dcfcb"
        )


class TestRunTelemetry:
    def test_live_counts_by_block(self, scalar_model):
        # 2,400 steps in three draw blocks; 2,100 replicates span two chunks
        cfg = SimConfig(step_size=5e-3, horizon=12.0, replicates=2100, seed=5)
        stats = simulate_paths(scalar_model, np.array([1.0]), cfg)
        live = stats.live_by_block
        assert live.shape == (3,)
        assert live[0] <= 2100 and np.all(np.diff(live) <= 0)
        assert live[-1] == stats.survivors

    def test_cluster_share_follows_mass(self, two_site_model):
        # at small mass the gamma = 1.8 site resolves into clusters; order-one
        # mass takes the stable kick almost everywhere
        base = dict(step_size=1e-3, horizon=0.05, replicates=200, seed=3)
        small = simulate_paths(two_site_model, np.array([4e-4, 4e-4]), SimConfig(**base))
        bulk = simulate_paths(two_site_model, np.array([0.5, 0.5]), SimConfig(**base))
        assert 0.0 <= bulk.cluster_share < 0.1 < 0.4 < small.cluster_share <= 1.0

    def test_site_steps_count_live_rows(self, two_site_model, scalar_model):
        # order-one mass: nothing dies, so every scheduled site-step runs
        cfg = SimConfig(step_size=1e-3, horizon=0.05, replicates=300, seed=3)
        bulk = simulate_paths(two_site_model, np.array([0.5, 0.5]), cfg)
        assert bulk.survivors == 300
        assert bulk.site_steps == 300 * 50 * 2
        # scalar dust: dead replicates leave the batch and stop counting
        dust = simulate_paths(scalar_model, np.array([1e-6]), cfg)
        assert dust.survivors < 300
        assert 300 <= dust.site_steps < 300 * 50


class TestAgainstOde:
    def test_laplace_functional_gate(self, two_site_model):
        mu = np.array([0.5, 0.5])
        f = np.ones(2)
        T, h = 1.0, 2e-3
        V = solve_cumulant(two_site_model, f, [T]).values[0]
        oracle = np.exp(-two_site_model.inner_m(mu, V))
        stats = simulate_paths(two_site_model, mu, SimConfig(h, T, 30_000, seed=1234), f=f)
        emp, se = stats.laplace_functional()
        assert abs(emp - oracle) <= 4.0 * se + 2e-3

    def test_survival_gate_small_mass(self, two_site_model, loose_opts):
        mu = np.array([4e-4, 4e-4])
        T, h = 1.0, 5e-4
        v = solve_extinction(two_site_model, [T], loose_opts).values[0]
        oracle = -np.expm1(-two_site_model.inner_m(mu, v))
        stats = simulate_paths(two_site_model, mu, SimConfig(h, T, 30_000, seed=21))
        # weak-order bias at this h is ~0.02 (measured by refinement elsewhere)
        assert abs(stats.survival_rate - oracle) <= 3.0 * stats.survival_se + 0.03

    def test_scalar_extinction_trend(self, scalar_model):
        truth = np.exp(-4.0)
        devs = []
        for h in (4e-3, 1e-3):
            stats = simulate_paths(scalar_model, np.array([1.0]), SimConfig(h, 1.0, 30_000, seed=9))
            devs.append(abs((1.0 - stats.survival_rate) - truth))
        assert devs[1] <= devs[0]


# A probe of the exact compound-Poisson step law read -0.0047 (scalar) and
# -0.0028 (two-site) at h = 4e-3 on these inputs (ROADMAP item 2), within 1.5 se.
BIAS_BOUND = 0.005


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: the stable kick's clamp at 0 and "
                   "the shared cluster exponential bias survival low at gamma0 1.2")
class TestSurvivalBias:
    """Survival at gamma0 = 1.2 against its exact value 1/2, at a fixed h and
    seed, within 3 se plus BIAS_BOUND.  Today's kernel reads -0.105 (scalar)
    and -0.104 (two-site), about 30 se low, until item 2's exact kernel."""

    @staticmethod
    def deviation(model):
        # mu proportional to ones with <mu, v_T>_m = log 2: exact survival 1/2
        v = solve_extinction(model, [1.0], SolverOptions(rel_tol=1e-10)).values[0]
        mu = np.log(2.0) / model.inner_m(np.ones(model.d), v) * np.ones(model.d)
        stats = simulate_paths(model, mu, SimConfig(4e-3, 1.0, 20_000, seed=4321))
        return stats.survival_rate - 0.5, stats.survival_se

    def test_scalar(self):
        model = calibrate_critical(MotionGenerator(space=StateSpace(d=1), Q=[[0.0]]),
                                   BranchingMechanism(beta=[0.0], kappa=[1.0], gamma=[1.2]))
        dev, se = self.deviation(model)
        assert abs(dev) <= 3.0 * se + BIAS_BOUND

    def test_two_site_one_index(self):
        dev, se = self.deviation(one_index_model([[-1.0, 1.0], [0.5, -0.5]], [0.0, 0.3], 1.2, 0.7))
        assert abs(dev) <= 3.0 * se + BIAS_BOUND


class TestPathStats:
    def test_schedule_sums_to_horizon(self):
        cfg = SimConfig(step_size=3e-3, horizon=1.0, replicates=1)
        hs = cfg.step_sizes
        assert sum(hs) == pytest.approx(1.0, abs=1e-12)
        assert max(hs) <= 3e-3 + 1e-15

    def test_laplace_functional_formula(self):
        stats = PathStats(
            replicates=4,
            survivors=2,
            functional_values=np.array([0.5, 2.0]),
        )
        vals = np.array([np.exp(-0.5), np.exp(-2.0), 1.0, 1.0])
        mean, se = stats.laplace_functional()
        assert mean == pytest.approx(vals.mean(), rel=1e-14)
        assert se == pytest.approx(vals.std() / 2.0, rel=1e-12)

    def test_survivor_counting(self):
        stats = PathStats(
            replicates=100,
            survivors=0,
            functional_values=np.empty(0),
        )
        assert stats.survivors == 0
        assert stats.survival_rate == 0.0
        assert stats.functional_values.size == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(step_size=0.0, horizon=1.0, replicates=10)
        with pytest.raises(ValueError):
            SimConfig(step_size=2.0, horizon=1.0, replicates=10)
        with pytest.raises(ValueError):
            SimConfig(step_size=0.1, horizon=1.0, replicates=0)
        with pytest.raises(ValueError):
            SimConfig(step_size=0.1, horizon=1.0, replicates=10, seed=2**64)
        with pytest.raises(TypeError):
            SimConfig(0.1, 1.0, 10, 7)  # the seed is keyword-only

    @pytest.mark.parametrize("value", [2.5, True, 4.0, "8"], ids=["fraction", "bool", "float", "str"])
    def test_config_rejects_non_integer_replicates(self, value):
        with pytest.raises(ArgumentError, match="^replicates must be an integer") as exc:
            SimConfig(0.1, 0.1, value)
        assert exc.value.name == "replicates"

    def test_config_stores_numpy_integer_replicates_as_int(self):
        cfg = SimConfig(0.1, 0.1, np.int64(3))
        assert cfg.replicates == 3 and type(cfg.replicates) is int

    @pytest.mark.parametrize("value", [2.5, True, 4.0, "8"], ids=["fraction", "bool", "float", "str"])
    def test_config_rejects_non_integer_seed(self, value):
        # 2.5 used to run seed 2, and True seed 1
        with pytest.raises(ArgumentError, match="^seed must be an integer") as exc:
            SimConfig(0.1, 0.1, 3, seed=value)
        assert exc.value.name == "seed"
        for seed in (np.uint64(2**64 - 1), np.int64(5)):
            cfg = SimConfig(0.1, 0.1, 3, seed=seed)
            assert cfg.seed == int(seed) and type(cfg.seed) is int
        for seed in (-1, 2**64):
            with pytest.raises(ArgumentError, match="^seed must"):
                SimConfig(0.1, 0.1, 3, seed=seed)

    @pytest.mark.parametrize(
        "field, value",
        [("step_size", np.nan), ("step_size", np.inf), ("horizon", np.nan), ("horizon", np.inf)],
    )
    def test_config_rejects_non_finite(self, field, value):
        kwargs = {"step_size": 0.1, "horizon": 1.0, "replicates": 10, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SimConfig(**kwargs)

    @pytest.mark.parametrize(
        "key, value, match",
        [("mu", [np.nan, 0.5], "non-finite"), ("mu", [np.inf, 0.5], "non-finite"),
         ("mu", [0.0, 0.0], "nontrivial"), ("f", [np.nan, 1.0], "non-finite"),
         ("f", [-1.0, 1.0], "nonnegative")],
        ids=["mu-nan", "mu-inf", "mu-zero", "f-nan", "f-negative"],
    )
    def test_bad_start_or_field_rejected(self, two_site_model, key, value, match):
        # rejected up front, not after a run to the horizon
        args = {"mu": [0.5, 0.5], "f": None, key: value}
        cfg = SimConfig(step_size=1e-2, horizon=0.1, replicates=10)
        with pytest.raises(ValueError, match=match):
            simulate_paths(two_site_model, args["mu"], cfg, f=args["f"])


class TestConditionalLaplace:
    def test_matches_limit_shape_scalar(self, scalar_model):
        # d=1 exactness: survivor transform ~ 1 - G(theta) at moderate T
        from stablebranch.limitlaw import g_closed

        T, h = 5.0, 2e-3
        stats = simulate_paths(
            scalar_model, np.array([1.0]), SimConfig(h, T, 40_000, seed=17), f=np.ones(1)
        )
        assert stats.survivors >= 30
        # survivor average of exp(-theta eta_T X_T) at theta = 1
        vals = np.exp(-eta(scalar_model, T) * stats.functional_values)
        est, se = vals.mean(), vals.std(ddof=1) / np.sqrt(stats.survivors)
        target = 1.0 - g_closed(1.5, 1.0)  # = 0.75
        assert abs(est - target) <= 3.0 * se + 0.02
