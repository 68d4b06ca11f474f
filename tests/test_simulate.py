import hashlib

import numpy as np
import pytest

from stablebranch.cumulant import solve_cumulant, solve_extinction, SolverOptions
from stablebranch.model import eta
from stablebranch.simulate import (
    PathStats,
    SimConfig,
    conditional_laplace_estimate,
    sample_positive_stable,
    simulate_paths,
    step_euler,
)


def replicate_stream(seed, index):
    return np.random.Generator(np.random.Philox(key=(seed << 64) | index))


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
        S = sample_positive_stable(gamma, rng, size=400_000)
        for u in (0.5, 1.0, 2.0):
            e = np.exp(-u * S)
            est = np.log(e.mean())
            se = e.std() / e.mean() / np.sqrt(e.size)
            assert abs(est - u**gamma) <= 4.0 * se

    def test_gaussian_limit_variance(self, rng):
        S = sample_positive_stable(1.99, rng, size=10**6)
        assert abs(S.var() / 2.0 - 1.0) <= 0.10

    def test_both_signs(self, rng):
        S = sample_positive_stable(1.5, rng, size=10_000)
        neg = (S < 0).mean()
        assert 0.0 < neg < 1.0

    def test_mean_zero(self, rng):
        S = sample_positive_stable(1.7, rng, size=10**6)
        se = S.std() / np.sqrt(S.size)
        assert abs(S.mean()) <= 5.0 * se

    def test_index_range(self, rng):
        for bad in (1.0, 2.0, 0.8):
            with pytest.raises(ValueError):
                sample_positive_stable(bad, rng)


class TestStepEuler:
    def test_zero_is_absorbing(self, two_site_model, rng):
        out = step_euler(two_site_model, np.zeros(2), 1e-3, rng)
        assert np.array_equal(out, np.zeros(2))

    def test_one_step_mean_weighted_model(self, weighted_model):
        # adjoint drift and jump-scale m-powers verified against the exact
        # mean; the increment has infinite variance, so the self-normalized
        # statistic is heavy-tailed and the seed is pinned
        h = 1e-3
        mu = np.array([0.8, 0.5])
        cfg = SimConfig(step_size=h, horizon=h, replicates=300_000, seed=6)
        stats = simulate_paths(weighted_model, mu, cfg, keep_final_states=True)
        Z = stats.final_states
        exact = np.clip(mu + h * (weighted_model.mean_adjoint @ mu), 0.0, None)
        z_scores = (Z.mean(axis=0) - exact) / (Z.std(axis=0) / np.sqrt(len(Z)))
        assert np.all(np.abs(z_scores) <= 4.0)

    def test_scalar_critical_mean(self, scalar_model):
        h = 1e-3
        cfg = SimConfig(step_size=h, horizon=h, replicates=200_000, seed=6)
        stats = simulate_paths(scalar_model, np.array([1.0]), cfg, keep_final_states=True)
        Z = stats.final_states[:, 0]
        z = (Z.mean() - 1.0) / (Z.std() / np.sqrt(Z.size))
        assert abs(z) <= 4.0

    def test_nonnegative_states(self, two_site_model, rng):
        state = np.array([1e-6, 2.0])
        for _ in range(200):
            state = step_euler(two_site_model, state, 5e-3, rng)
            assert np.all(state >= 0.0)


class TestDeterminism:
    def test_single_step_matches_stream(self, weighted_model):
        h = 2e-3
        mu = np.array([0.4, 1.1])
        cfg = SimConfig(step_size=h, horizon=h, replicates=1, seed=42)
        batch = simulate_paths(weighted_model, mu, cfg, keep_final_states=True)
        direct = step_euler(weighted_model, mu, h, replicate_stream(42, 0))
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

    @pytest.mark.parametrize(
        "mass_floor, survivors, expected",
        [
            (0.0, 1257, "a8b88bb17bcfabb3e18429a0f588e553c689c3bdf8b5548e8b4c5f0232518795"),
            (1e-5, 124, "e73709958d05a18c59fdfb8fc0cc3786dcdf9d8189d1a0549bed73ae67df26af"),
        ],
    )
    def test_two_site_small_mass(self, two_site_model, mass_floor, survivors, expected):
        # takes the cluster branch and crosses the 2,048-replicate chunk boundary
        cfg = SimConfig(1e-3, 1.0, 2500, seed=4321, mass_floor=mass_floor)
        stats = simulate_paths(two_site_model, np.array([4e-4, 4e-4]), cfg)
        assert stats.survivors == survivors
        assert survivor_digest(stats) == expected

    def test_final_states(self, weighted_model):
        cfg = SimConfig(step_size=4e-4, horizon=0.6, replicates=600, seed=99)
        stats = simulate_paths(weighted_model, np.array([2e-3, 1e-3]), cfg, keep_final_states=True)
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


class TestAgainstOde:
    def test_laplace_functional_gate(self, two_site_model):
        mu = np.array([0.5, 0.5])
        f = np.ones(2)
        T, h = 1.0, 2e-3
        V = solve_cumulant(two_site_model, f, [T]).values[0]
        oracle = np.exp(-two_site_model.mu_pairing(mu, V))
        stats = simulate_paths(two_site_model, mu, SimConfig(h, T, 30_000, seed=1234), f=f)
        emp, se = stats.laplace_functional()
        assert abs(emp - oracle) <= 4.0 * se + 2e-3

    def test_survival_gate_small_mass(self, two_site_model, loose_opts):
        mu = np.array([4e-4, 4e-4])
        T, h = 1.0, 5e-4
        v = solve_extinction(two_site_model, [T], loose_opts).values[0]
        oracle = -np.expm1(-two_site_model.mu_pairing(mu, v))
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
            functional_description="test",
        )
        vals = np.array([np.exp(-0.5), np.exp(-2.0), 1.0, 1.0])
        mean, se = stats.laplace_functional()
        assert mean == pytest.approx(vals.mean(), rel=1e-14)
        assert se == pytest.approx(vals.std() / 2.0, rel=1e-12)

    def test_survivor_counting(self, two_site_model):
        cfg = SimConfig(step_size=1e-2, horizon=0.1, replicates=100, seed=3, mass_floor=10.0)
        stats = simulate_paths(two_site_model, np.array([0.1, 0.1]), cfg)
        # a floor above every reachable mass kills all paths immediately
        assert stats.survivors == 0
        assert stats.survival_rate == 0.0
        assert stats.functional_mean is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(step_size=0.0, horizon=1.0, replicates=10)
        with pytest.raises(ValueError):
            SimConfig(step_size=2.0, horizon=1.0, replicates=10)
        with pytest.raises(ValueError):
            SimConfig(step_size=0.1, horizon=1.0, replicates=0)
        with pytest.raises(ValueError):
            SimConfig(step_size=0.1, horizon=1.0, replicates=10, seed=2**64)


class TestConditionalLaplace:
    def test_theta_zero(self, scalar_model):
        stats = PathStats(
            replicates=100,
            survivors=50,
            functional_values=np.linspace(0.1, 2.0, 50),
            functional_description="test",
        )
        est, se = conditional_laplace_estimate(stats, scalar_model, np.ones(1), 0.0, 5.0)
        assert est == 1.0
        assert se == 0.0

    def test_too_few_survivors(self, scalar_model):
        stats = PathStats(
            replicates=100,
            survivors=10,
            functional_values=np.ones(10),
            functional_description="test",
        )
        with pytest.raises(ValueError, match="survivors"):
            conditional_laplace_estimate(stats, scalar_model, np.ones(1), 1.0, 5.0)

    def test_matches_limit_shape_scalar(self, scalar_model):
        # d=1 exactness: survivor transform ~ 1 - G(theta) at moderate T
        from stablebranch.limitlaw import g_closed

        T, h = 5.0, 2e-3
        stats = simulate_paths(
            scalar_model, np.array([1.0]), SimConfig(h, T, 40_000, seed=17), f=np.ones(1)
        )
        est, se = conditional_laplace_estimate(stats, scalar_model, np.ones(1), 1.0, T)
        target = 1.0 - g_closed(1.5, 1.0)  # = 0.75
        assert abs(est - target) <= 3.0 * se + 0.02
