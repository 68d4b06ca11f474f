import hashlib

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import cumulative_simpson

import stablebranch.spine as spine_module
from stablebranch.cumulant import SolverOptions, solve_cumulant
from stablebranch.model import ArgumentError, CriticalModel, semigroup_apply
from stablebranch.spine import (
    SpineChain,
    _batch_paths_accumulate,
    _composite_geometric_nodes,
    _exponent_tables,
    _table_lookup,
    ergodic_average_check,
    feynman_kac_estimate,
    simulate_spine,
    spine_generator,
)

from conftest import NoDraws, no_solver, normalized_ones


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
        )
        with pytest.raises(ValueError, match="not critical"):
            spine_generator(broken)


class TestSimulateSpine:
    def test_scalar_path_constant(self, scalar_model, rng):
        path = simulate_spine(spine_generator(scalar_model), 0, 100.0, rng)
        # no jump: the path sits at its start up to the horizon
        assert len(path.jump_times) == len(path.states) == 0
        assert path.start == 0 and path.horizon == 100.0

    def test_fixed_seed_reproducible(self, three_site_model):
        chain = spine_generator(three_site_model)
        a = simulate_spine(chain, 1, 50.0, np.random.default_rng(99))
        b = simulate_spine(chain, 1, 50.0, np.random.default_rng(99))
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.states, b.states)

    def test_occupation_matches_stationary(self, three_site_model, rng):
        chain = spine_generator(three_site_model)
        path = simulate_spine(chain, 0, 2e4, rng)
        times = np.concatenate([[0.0], path.jump_times, [path.horizon]])
        sites = np.concatenate([[path.start], path.states])
        occ = np.bincount(sites, weights=np.diff(times), minlength=3) / path.horizon
        target = chain.stationary * chain.m
        assert np.abs(occ - target).max() <= 0.02

    def test_jumps_leave_the_current_site(self, three_site_model, rng):
        # the path sits at its start until the first jump time, and each jump
        # moves it to another site, inside (0, T)
        chain = spine_generator(three_site_model)
        path = simulate_spine(chain, 2, 10.0, rng)
        assert path.start == 2 and len(path.jump_times) > 0
        assert 0.0 < path.jump_times[0] and path.jump_times[-1] < 10.0
        assert np.all(np.diff(path.jump_times) > 0)
        assert np.all(np.diff(np.concatenate([[path.start], path.states])) != 0)

    def test_start_outside_sites_rejected(self, three_site_model, rng):
        # a negative x0 must not wrap to the last site
        chain = spine_generator(three_site_model)
        for x0 in (-1, chain.d):
            with pytest.raises(ValueError, match="start site"):
                simulate_spine(chain, x0, 10.0, rng)

    @pytest.mark.parametrize("x0", [1.7, 1.0, True, "1"], ids=["fraction", "float", "bool", "str"])
    def test_start_site_must_be_an_integer(self, three_site_model, x0):
        # 1.7 used to start at site 1; both routes refuse it before any draw
        chain = spine_generator(three_site_model)
        F = lambda y, u: np.ones_like(u)
        for start in (lambda: simulate_spine(chain, x0, 10.0, NoDraws()),
                      lambda: ergodic_average_check(chain, F, 10.0, 20, NoDraws(), x0=x0)):
            with pytest.raises(ArgumentError, match="^start site x0=") as info:
                start()
            assert info.value.name == "x0"
        path = simulate_spine(chain, np.int64(2), 10.0, np.random.default_rng(1))
        assert path.start == 2 and type(path.start) is int


def segment_stream_digest(chain, starts, T, rng):
    """SHA-256 of every wave (sites, t0, t1, idx) and the final sites."""
    h = hashlib.sha256()

    def hook(sites, t0, t1, idx):
        h.update(np.int64(sites.size).tobytes())
        for a, dtype in ((sites, "<i8"), (t0, "<f8"), (t1, "<f8"), (idx, "<i8")):
            h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())

    final = _batch_paths_accumulate(chain, starts, T, rng, hook)
    h.update(np.ascontiguousarray(final, dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("T", [np.nan, np.inf], ids=["nan", "inf"])
def test_path_horizon_must_be_finite(three_site_model, T):
    # a NaN horizon never ended the jump loop of simulate_spine
    chain = spine_generator(three_site_model)
    with pytest.raises(ValueError, match="horizon must be finite"):
        simulate_spine(chain, 0, T, NoDraws())
    with pytest.raises(ValueError, match="horizon must be finite"):
        ergodic_average_check(chain, lambda y, u: np.ones_like(u), T, 10, NoDraws())


class TestBatchPaths:
    def test_segment_stream_pinned(self, three_site_model):
        # recorded with the uncompacted loop that gathered np.nonzero(active)
        # every wave; the draws and the segments must stay bit for bit
        chain = spine_generator(three_site_model)
        digest = segment_stream_digest(
            chain, np.zeros(300, dtype=np.intp), 1e3, np.random.default_rng(100)
        )
        assert digest == "58f8b65c36a45723e95ba8f41b42ae731fc5f5641b7d446878ecbaa21e25ff5b"


class FixedUniform:
    """A generator whose every uniform is u and whose every hold is 0.5."""

    def __init__(self, u):
        self.u = u

    def standard_exponential(self, size=None):
        return 0.5 if size is None else np.full(size, 0.5)

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


def circulant_chain():
    """A conservative 4-site chain whose row x jumps to x+1, x+2 and x+3 (mod
    4) at rates 0.1, 0.3 and 0.2: row 0's running sum of jump probabilities
    ends at 0.9999999999999998, below the top uniform."""
    q = np.zeros((4, 4))
    for k, rate in enumerate((0.1, 0.3, 0.2), start=1):
        q[np.arange(4), (np.arange(4) + k) % 4] = rate
    q -= np.diag(q.sum(axis=1))
    return SpineChain(q_phi=q, stationary=np.full(4, 0.25), m=np.ones(4))


class TestJumpTable:
    def test_live_rows_end_at_exactly_one(self):
        chain = circulant_chain()
        off = chain.q_phi - np.diag(np.diag(chain.q_phi))
        running = np.cumsum(off / off.sum(axis=1)[:, None], axis=1)
        assert running[0, 3] < 1.0 - 2.0**-53
        table = chain.jump_table
        # from the last positive jump probability on, 1.0; before it, the sum
        last = np.array([3, 3, 3, 2])
        for x in range(4):
            assert np.all(table[x, last[x]:] == 1.0)
            assert table[x, :last[x]].tobytes() == running[x, :last[x]].tobytes()

    def test_trap_row_is_zero(self, scalar_model):
        assert spine_generator(scalar_model).jump_table.tolist() == [[0.0]]

    @pytest.mark.parametrize("u, states, waves", [
        # the largest uniform, 1 - 2^-53, lands on a row's last site of
        # positive probability: both simulators raised IndexError from site 0
        (1.0 - 2.0**-53, [3, 2, 3, 2], [[0, 1], [3, 3], [2, 2], [3, 3], [2, 2]]),
        # the smallest, 0, on its first: the batch jumped from site 0 to 0
        (0.0, [1, 0, 1, 0], [[0, 1], [1, 0], [0, 1], [1, 0], [0, 1]]),
    ], ids=["top", "zero"])
    def test_extreme_uniform_lands_on_a_site(self, u, states, waves):
        chain = circulant_chain()
        assert simulate_spine(chain, 0, 4.0, FixedUniform(u)).states.tolist() == states
        seen = []
        final = _batch_paths_accumulate(chain, np.array([0, 1]), 4.0, FixedUniform(u),
                                        lambda sites, t0, t1, idx: seen.append(sites.tolist()))
        assert seen == waves and final.tolist() == waves[-1]


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

    def test_zero_theta_node_reduces_to_semigroup(self, three_site_model, rng, monkeypatch):
        f = np.array([0.6, 1.4, 0.9])
        f = f / three_site_model.inner_m(f, three_site_model.phi_star)
        theta = 1e-8
        # a single node at r = 0 weighted theta: no exponent, only the semigroup
        monkeypatch.setattr(
            spine_module, "_composite_geometric_nodes",
            lambda th: (np.array([0.0]), np.array([th])),
        )
        est, se = feynman_kac_estimate(three_site_model, f, theta, 2.0, 40_000, rng)
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
        # one (K, d) batch against tables built from one solve_cumulant per node
        f = normalized_ones(two_site_model)
        nodes, _ = _composite_geometric_nodes(1.0)
        opts, T = SolverOptions(rel_tol=1e-8), 2.0
        tau, batch, batch_slopes = _exponent_tables(two_site_model, f, nodes, T, opts, 257)
        mech = two_site_model.mechanism
        single = np.empty_like(batch)
        for k, r in enumerate(nodes):
            V = np.maximum(solve_cumulant(two_site_model, r * f, [T], opts).evaluate(tau).T, 0.0)
            g = mech.kappa[:, None] * mech.gamma[:, None] * V ** (mech.gamma[:, None] - 1.0)
            single[:, 1:, k] = cumulative_simpson(g, x=tau, axis=1)
            single[:, 0, k] = 0.0
        single_slopes = np.zeros_like(single)
        single_slopes[:, :-1] = np.diff(single, axis=1) / np.diff(tau)[:, None]
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
        tau, W, S = _exponent_tables(two_site_model, f, nodes, T, SolverOptions(rel_tol=1e-8), n_tau)
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

    def test_table_lookup_into_scratch_is_the_allocating_lookup(self, two_site_model):
        # the FK hook's path: results and second gather written into row
        # slices of reused buffers that hold stale values
        f = normalized_ones(two_site_model)
        nodes, _ = _composite_geometric_nodes(1.0)
        tau, W, S = _exponent_tables(two_site_model, f, nodes, 2.0, SolverOptions(rel_tol=1e-8), 257)
        rng = np.random.default_rng(6)
        x = np.concatenate([[0.0, 2.0], tau, rng.uniform(0.0, 2.0, 1000)])
        sites = rng.integers(0, 2, x.size)
        out, scratch = np.full((2, x.size + 50, nodes.size), np.nan)
        got = _table_lookup(W, S, tau, sites, x, out[:x.size], scratch[:x.size])
        assert np.shares_memory(got, out)
        assert got.tobytes() == _table_lookup(W, S, tau, sites, x).tobytes()

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_nonpositive_horizon_rejected(self, two_site_model, rng, T):
        f = normalized_ones(two_site_model)
        with pytest.raises(ValueError, match="horizon"):
            feynman_kac_estimate(two_site_model, f, 1.0, T, 100, rng)

    @pytest.mark.parametrize(
        "theta, T, match",
        [(1.0, np.nan, "horizon"), (1.0, np.inf, "horizon"),
         (np.nan, 2.0, "theta"), (np.inf, 2.0, "theta"),
         ([1.0, 2.0], 2.0, "theta must be a scalar")],
        ids=["horizon-nan", "horizon-inf", "theta-nan", "theta-inf", "theta-array"],
    )
    def test_non_finite_horizon_or_theta_rejected(self, two_site_model, monkeypatch,
                                                  theta, T, match):
        no_solver(monkeypatch)
        with pytest.raises(ValueError, match=match):
            feynman_kac_estimate(two_site_model, normalized_ones(two_site_model), theta, T,
                                 100, NoDraws())

    @pytest.mark.parametrize(
        "f, match",
        [([np.nan, 1.0], "non-finite"), ([np.inf, 1.0], "non-finite"),
         ([-1.0, 1.0], "nonnegative"), ([0.0, 0.0], "nontrivial"), ([1.0], "length")],
        ids=["nan", "inf", "negative", "zero", "short"],
    )
    def test_bad_field_rejected(self, two_site_model, rng, f, match):
        with pytest.raises(ValueError, match=match):
            feynman_kac_estimate(two_site_model, f, 1.0, 2.0, 100, rng)

    @pytest.mark.parametrize("n_paths", [1, 2.5, 3.0, True], ids=["one-path", "fraction", "float", "bool"])
    def test_bad_count_named_before_solving(self, two_site_model, monkeypatch, n_paths):
        no_solver(monkeypatch)
        with pytest.raises(ArgumentError) as info:
            feynman_kac_estimate(two_site_model, normalized_ones(two_site_model), 1.0, 2.0,
                                 n_paths, NoDraws())
        assert info.value.name == "n_paths"

    def test_numpy_integer_paths(self, two_site_model):
        f = normalized_ones(two_site_model)
        runs = [feynman_kac_estimate(two_site_model, f, 1.0, 1.0, n, np.random.default_rng(5))
                for n in (3, np.int64(3))]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(*runs))


def fk_digest(est, se):
    """SHA-256 of a Feynman-Kac (estimate, stderr) pair, bit for bit."""
    h = hashlib.sha256(np.ascontiguousarray(est, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(se, dtype="<f8").tobytes())
    return h.hexdigest()


class TestGoldenDigests:
    """Feynman-Kac outputs pinned bit for bit.

    The default-node digest was recorded with one np.interp call per site,
    node and wave on per-node tables; the stacked, direct-indexed tables must
    reproduce it.  It was re-recorded when the node batch's Jacobian went to
    dense blocks: the estimate moved by at most 1.1e-16 relative.  It was
    re-recorded when a positive field's tables went to purely relative
    control (no absolute tolerance): the estimate moved by at most 5.6e-14
    relative, its stderr by 8.4e-14, and the node batch's step count held.
    """

    def test_default_nodes(self, two_site_model):
        f = normalized_ones(two_site_model)
        out = feynman_kac_estimate(two_site_model, f, 1.0, 2.0, 2000, np.random.default_rng(42))
        assert fk_digest(*out) == (
            "b47f2d5c609536087507dd30908321bc1e7fa7e2df02daf28145df9c68c66fd3"
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

    def test_start_outside_sites_rejected(self, three_site_model, rng):
        chain = spine_generator(three_site_model)
        F = lambda y, u: np.ones_like(u)
        for x0 in (-1, chain.d):
            with pytest.raises(ValueError, match="start site"):
                ergodic_average_check(chain, F, 10.0, 20, rng, x0=x0)

    @pytest.mark.parametrize("n_paths", [1, 0])
    def test_too_few_paths_rejected(self, three_site_model, rng, n_paths):
        chain = spine_generator(three_site_model)
        with pytest.raises(ArgumentError, match="n_paths must be at least 2") as info:
            ergodic_average_check(chain, lambda y, u: np.ones_like(u), 10.0, n_paths, rng)
        assert info.value.name == "n_paths"

    @pytest.mark.parametrize("n_paths", [2.5, 3.0, True, "3"], ids=["fraction", "float", "bool", "str"])
    def test_non_integer_paths_rejected(self, three_site_model, n_paths):
        chain = spine_generator(three_site_model)
        with pytest.raises(ArgumentError, match="n_paths must be an integer") as info:
            ergodic_average_check(chain, lambda y, u: np.ones_like(u), 10.0, n_paths, NoDraws())
        assert info.value.name == "n_paths"

    def test_numpy_integer_paths(self, three_site_model):
        chain = spine_generator(three_site_model)
        F = lambda y, u: (y == 0) * np.ones_like(u)
        runs = [ergodic_average_check(chain, F, 10.0, n, np.random.default_rng(5))
                for n in (3, np.int64(3))]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "F",
        [
            lambda y, u: 1.0,
            lambda y, u: np.ones(3),
            # right shape for the 1-D target grid, wrong for the (m, nodes) segments
            lambda y, u: np.ones(len(u)),
        ],
        ids=["scalar", "fixed-length", "one-per-row"],
    )
    def test_non_elementwise_F_rejected(self, three_site_model, rng, F):
        chain = spine_generator(three_site_model)
        with pytest.raises(ValueError, match="elementwise"):
            ergodic_average_check(chain, F, 10.0, 20, rng)


def ergodic_digest(out):
    """SHA-256 of an ergodic (estimate, target, stderr) triple, bit for bit."""
    return hashlib.sha256(np.array(out, dtype="<f8").tobytes()).hexdigest()


def _smooth(y, u):
    return np.cos(3.0 * u) * (y + 1.0)


def _site0(y, u):
    return (y == 0) * np.ones_like(u)


# name: (F, T, n_paths, seed, x0, digest, values recorded with the per-wave
# BLAS matrix-vector quadrature, whose rounding depended on wave composition)
ERGODIC_GOLDENS = {
    "indicator": (
        _site0, 1e3, 300, 101, 0,
        "0adc671d776635cbaee0dd6b8ac7744fe298f89ca655f707120f954f39eb2893",
        (0.25797580960215516, 0.2577859959805267, 0.0009099202539084605),
    ),
    "smooth": (
        _smooth, 100.0, 200, 7, 2,
        "490afa061d6a80e8d4ab9a3fac2ed4d7d319e56df9646ccd075bb303343b29f0",
        (0.08652280695782161, 0.09955849645413219, 0.004858403194972086),
    ),
}


class TestErgodicGoldens:
    @pytest.mark.parametrize("name", sorted(ERGODIC_GOLDENS))
    def test_golden_digest(self, three_site_model, name):
        F, T, n, seed, x0, digest, previous = ERGODIC_GOLDENS[name]
        chain = spine_generator(three_site_model)
        out = ergodic_average_check(chain, F, T, n, np.random.default_rng(seed), x0=x0)
        assert np.allclose(out, previous, rtol=1e-12, atol=0.0)
        assert ergodic_digest(out) == digest

    def test_independent_of_flush_size(self, three_site_model, monkeypatch):
        # one wave per flush, several waves per flush, every wave in one flush
        chain = spine_generator(three_site_model)
        digests = set()
        for rows in (1, 100, 10**9):
            monkeypatch.setattr(spine_module, "_ERGODIC_ROWS", rows)
            out = ergodic_average_check(
                chain, _smooth, 100.0, 50, np.random.default_rng(3), x0=1
            )
            digests.add(ergodic_digest(out))
        assert len(digests) == 1
