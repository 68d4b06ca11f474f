import numpy as np
import pytest
import scipy.linalg

from stablebranch.cumulant import SolverOptions, solve_cumulant
from stablebranch.model import CriticalModel, semigroup_apply
from stablebranch.spine import (
    _composite_geometric_nodes,
    _exponent_tables,
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
        tau, batch = _exponent_tables(two_site_model, f, nodes, T, opts, None, 257)
        _, single = _exponent_tables(two_site_model, f, nodes, T, opts, curves, 257)
        for b, s in zip(batch, single):
            assert np.allclose(b, s, rtol=1e-6, atol=1e-12)

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
