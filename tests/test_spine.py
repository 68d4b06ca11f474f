import hashlib

import numpy as np
import pytest
import scipy.linalg

from stablebranch.cumulant import SolverOptions, solve_cumulant
from stablebranch.model import CriticalModel, semigroup_apply
from stablebranch.spine import (
    _composite_geometric_nodes,
    _exponent_tables,
    _table_lookup,
    ergodic_average_check,
    feynman_kac_estimate,
    simulate_spine,
    spine_generator,
)

from conftest import normalized_ones


class TestSpineGenerator:
    def test_constant_phi_returns_motion(self, two_site_model):
        chain = spine_generator(two_site_model)
        assert np.allclose(chain.q_phi, two_site_model.motion.Q, atol=1e-12)

    def test_scalar_chain_is_trap(self, scalar_model):
        chain = spine_generator(scalar_model)
        assert np.array_equal(chain.q_phi, [[0.0]])

    def test_rows_sum_to_zero(self, three_site_model):
        chain = spine_generator(three_site_model)
        assert np.abs(chain.q_phi.sum(axis=1)).max() <= 1e-12

    def test_stationary_left_null_vector(self, three_site_model):
        chain = spine_generator(three_site_model)
        left = (chain.stationary * chain.m) @ chain.q_phi
        assert np.abs(left).max() <= 1e-12
        assert float(np.sum(chain.stationary * chain.m)) == pytest.approx(1.0, abs=1e-12)

    def test_kernel_rows_converge_to_stationary(self, three_site_model):
        chain = spine_generator(three_site_model)
        P = scipy.linalg.expm(50.0 * chain.q_phi)
        target = chain.stationary * chain.m
        assert np.abs(P - target[None, :]).max() <= 1e-8

    def test_non_critical_rejected(self, three_site_model):
        broken = CriticalModel(
            motion=three_site_model.motion,
            mechanism=three_site_model.mechanism.shifted(-0.3),
            eigen=three_site_model.eigen,
            c_x=three_site_model.c_x,
            gamma0=three_site_model.gamma0,
        )
        with pytest.raises(ValueError, match="not critical"):
            spine_generator(broken)


class TestSimulateSpine:
    def test_scalar_path_constant(self, scalar_model, rng):
        path = simulate_spine(spine_generator(scalar_model), 0, 100.0, rng)
        assert len(path.jump_times) == 0
        assert path.site_at(50.0) == 0

    def test_fixed_seed_reproducible(self, three_site_model):
        chain = spine_generator(three_site_model)
        a = simulate_spine(chain, 1, 50.0, np.random.default_rng(99))
        b = simulate_spine(chain, 1, 50.0, np.random.default_rng(99))
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.states, b.states)

    def test_occupation_matches_stationary(self, three_site_model, rng):
        chain = spine_generator(three_site_model)
        path = simulate_spine(chain, 0, 2e4, rng)
        occ = path.occupation_fractions(3)
        target = chain.stationary * chain.m
        assert np.abs(occ - target).max() <= 0.02

    def test_site_at_respects_jumps(self, three_site_model, rng):
        chain = spine_generator(three_site_model)
        path = simulate_spine(chain, 2, 10.0, rng)
        if len(path.jump_times):
            t0 = path.jump_times[0]
            assert path.site_at(t0 * 0.5) == 2
            assert path.site_at(t0) == path.states[0]


class TestFeynmanKac:
    def test_matches_cumulant_two_site(self, two_site_model, rng):
        f = normalized_ones(two_site_model)
        theta, T = 1.0, 2.0
        est, se = feynman_kac_estimate(two_site_model, f, theta, T, 20_000, rng)
        ode = solve_cumulant(two_site_model, theta * f, [T]).values[0]
        assert np.all(np.abs(est - ode) <= 4.0 * se)

    def test_matches_scalar_closed_form(self, scalar_model, rng):
        # d=1 paths are all identical, so the estimate is deterministic and
        # the comparison isolates the outer quadrature bias
        theta, T = 2.0, 1.5
        f = normalized_ones(scalar_model)
        est, se = feynman_kac_estimate(scalar_model, f, theta, T, 100, rng)
        exact = (theta ** -0.5 + 0.5 * T) ** -2.0
        assert se[0] <= 1e-12
        assert abs(est[0] - exact) <= 1e-5

    def test_plain_rule_available_but_coarser(self, scalar_model, rng):
        theta, T = 2.0, 1.5
        f = normalized_ones(scalar_model)
        exact = (theta ** -0.5 + 0.5 * T) ** -2.0
        plain, _ = feynman_kac_estimate(
            scalar_model, f, theta, T, 100, rng, r_grid_size=16
        )
        composite, _ = feynman_kac_estimate(scalar_model, f, theta, T, 100, rng)
        assert abs(composite[0] - exact) < abs(plain[0] - exact)

    def test_zero_theta_node_reduces_to_semigroup(self, three_site_model, rng):
        f = np.array([0.6, 1.4, 0.9])
        f = f / three_site_model.inner_m(f, three_site_model.phi_star)
        theta = 1e-8
        est, se = feynman_kac_estimate(
            three_site_model, f, theta, 2.0, 40_000, rng,
            r_nodes=[0.0], r_weights=[theta],
        )
        target = theta * semigroup_apply(three_site_model, 2.0, f)
        assert np.all(np.abs(est - target) <= 4.0 * se + 1e-15)

    def test_theta_monotone(self, two_site_model):
        f = normalized_ones(two_site_model)
        curves = []
        for theta in (0.5, 1.0, 2.0):
            est, _ = feynman_kac_estimate(
                two_site_model, f, theta, 1.0, 5_000, np.random.default_rng(12)
            )
            curves.append(est)
        assert np.all(curves[1] >= curves[0] - 1e-9)
        assert np.all(curves[2] >= curves[1] - 1e-9)

    def test_batched_tables_match_node_solves(self, two_site_model):
        # one (K, d) batch against one solve_cumulant per node
        f = normalized_ones(two_site_model)
        nodes, _ = _composite_geometric_nodes(1.0)
        opts, T = SolverOptions(rel_tol=1e-8), 2.0
        curves = [solve_cumulant(two_site_model, r * f, [T], opts) for r in nodes]
        tau, batch, batch_slopes = _exponent_tables(two_site_model, f, nodes, T, opts, None, 257)
        _, single, single_slopes = _exponent_tables(two_site_model, f, nodes, T, opts, curves, 257)
        assert batch.shape == single.shape == (2, 257, nodes.size)
        assert np.allclose(batch, single, rtol=1e-6, atol=1e-12)
        assert np.allclose(batch_slopes, single_slopes, rtol=1e-6, atol=1e-12)
        for W, S in ((batch, batch_slopes), (single, single_slopes)):
            assert np.all(W[:, 0] == 0.0) and np.all(S[:, -1] == 0.0)
            assert np.array_equal(S[:, :-1], np.diff(W, axis=1) / np.diff(tau)[:, None])

    @pytest.mark.parametrize("T, n_tau", [(2.0, 257), (1.7, 4097), (0.3, 2)])
    def test_table_lookup_is_np_interp(self, two_site_model, T, n_tau):
        # the direct-indexed bracket against np.interp per site and node, bit for bit
        f = normalized_ones(two_site_model)
        nodes, _ = _composite_geometric_nodes(1.0)
        tau, W, S = _exponent_tables(
            two_site_model, f, nodes, T, SolverOptions(rel_tol=1e-8), None, n_tau
        )
        rng = np.random.default_rng(5)
        x = np.concatenate([
            [0.0, T],
            tau,
            np.nextafter(tau, np.inf),
            np.nextafter(tau, -np.inf),
            rng.uniform(0.0, T, 2000),
        ])
        x = x[(x >= 0.0) & (x <= T)]
        sites = rng.integers(0, 2, x.size)
        got = _table_lookup(W, S, tau, sites, x)
        want = np.empty_like(got)
        for y in range(2):
            sel = sites == y
            for k in range(nodes.size):
                want[sel, k] = np.interp(x[sel], tau, W[y, :, k])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_nonpositive_horizon_rejected(self, two_site_model, rng, T):
        f = normalized_ones(two_site_model)
        with pytest.raises(ValueError, match="horizon"):
            feynman_kac_estimate(two_site_model, f, 1.0, T, 100, rng)

    @pytest.mark.parametrize("n_tau", [1, 0])
    def test_short_tau_grid_rejected(self, two_site_model, rng, n_tau):
        # a one-point grid has no exponent to tabulate: theta f with se = 0 is wrong
        f = normalized_ones(two_site_model)
        with pytest.raises(ValueError, match="n_tau"):
            feynman_kac_estimate(two_site_model, f, 1.0, 2.0, 100, rng, n_tau=n_tau)

    def test_supplied_curves_used(self, two_site_model, rng):
        f = normalized_ones(two_site_model)
        theta, T = 0.8, 1.0
        nodes = 0.5 * theta * (np.polynomial.legendre.leggauss(8)[0] + 1.0)
        curves = [solve_cumulant(two_site_model, r * f, [T]) for r in nodes]
        est, se = feynman_kac_estimate(
            two_site_model, f, theta, T, 5_000, rng, r_grid_size=8, curves=curves
        )
        ode = solve_cumulant(two_site_model, theta * f, [T]).values[0]
        assert np.all(np.abs(est - ode) <= 5.0 * se)


def fk_digest(est, se):
    """SHA-256 of a Feynman-Kac (estimate, stderr) pair, bit for bit."""
    h = hashlib.sha256(np.ascontiguousarray(est, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(se, dtype="<f8").tobytes())
    return h.hexdigest()


class TestGoldenDigests:
    """Feynman-Kac outputs pinned bit for bit.

    The digests were recorded with one np.interp call per site, node and wave
    on per-node tables; the stacked, direct-indexed tables must reproduce them.
    """

    def test_default_nodes(self, two_site_model):
        f = normalized_ones(two_site_model)
        out = feynman_kac_estimate(two_site_model, f, 1.0, 2.0, 2000, np.random.default_rng(42))
        assert fk_digest(*out) == (
            "9eb2584ed28aa497934d0eb40bc693b3329bd365c36e545f8d9ffc6ffc8d284c"
        )

    def test_supplied_curves(self, two_site_model):
        f = normalized_ones(two_site_model)
        nodes = 0.5 * (np.polynomial.legendre.leggauss(8)[0] + 1.0)
        curves = [solve_cumulant(two_site_model, r * f, [2.0]) for r in nodes]
        out = feynman_kac_estimate(
            two_site_model, f, 1.0, 2.0, 2000, np.random.default_rng(42),
            r_grid_size=8, curves=curves,
        )
        assert fk_digest(*out) == (
            "7c171ab19a4cd29ccacd0f1416f7ec7ad0b2bcf77eaedd114eab7657bda8a2b0"
        )


class TestErgodicAverage:
    def test_constant_function_exact(self, three_site_model, rng):
        chain = spine_generator(three_site_model)
        est, target, se = ergodic_average_check(
            chain, lambda y, u: np.ones_like(u), 100.0, 200, rng
        )
        assert est == pytest.approx(1.0, abs=1e-10)
        assert target == pytest.approx(1.0, abs=1e-12)
        assert se <= 1e-10

    def test_indicator_targets_stationary_mass(self, three_site_model, rng):
        chain = spine_generator(three_site_model)
        x0 = 1
        est, target, se = ergodic_average_check(
            chain, lambda y, u: (y == x0) * np.ones_like(u), 2000.0, 300, rng
        )
        pi = chain.stationary * chain.m
        assert target == pytest.approx(pi[x0], rel=1e-12)
        assert abs(est - target) <= 4.0 * se

    def test_l2_distance_decays(self, three_site_model):
        chain = spine_generator(three_site_model)
        F = lambda y, u: (y == 0) * np.ones_like(u)
        l2 = []
        for i, T in enumerate((100.0, 1000.0)):
            est, target, se = ergodic_average_check(
                chain, F, T, 400, np.random.default_rng(31 + i)
            )
            n = 400
            sample_var = se**2 * n
            l2.append(np.sqrt(sample_var + (est - target) ** 2))
        assert l2[1] < l2[0]
