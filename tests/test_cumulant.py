import os

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from stablebranch import cumulant
from stablebranch._ivp import SolverError
from stablebranch.analysis import kolmogorov_table, yaglom_table
from stablebranch.cumulant import (
    CertificationError,
    CumulantCurve,
    SolverOptions,
    _warm_start,
    conservation_residual,
    solve_cumulant,
    solve_extinction,
    weighted_extinction_norm,
)
from stablebranch.limitlaw import g_closed
from stablebranch.model import (
    ArgumentError,
    BranchingMechanism,
    MotionGenerator,
    StateSpace,
    calibrate_critical,
    eta,
    semigroup_apply,
)

from conftest import count_forks, no_solver, normalized_ones, use_cpus


def scalar_closed_form(c, kappa, gamma, t):
    return (c ** -(gamma - 1.0) + kappa * (gamma - 1.0) * t) ** (-1.0 / (gamma - 1.0))


def make_scalar(kappa, gamma):
    space = StateSpace(d=1)
    motion = MotionGenerator(space=space, Q=[[0.0]])
    return calibrate_critical(
        motion, BranchingMechanism(beta=[0.0], kappa=[kappa], gamma=[gamma])
    )


class TestSolverOptions:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("rel_tol", np.nan), ("rel_tol", np.inf), ("rel_tol", 0.0),
            ("abs_tol", np.nan), ("abs_tol", np.inf), ("abs_tol", -1e-12),
            ("warm_start_time", np.nan), ("warm_start_time", np.inf), ("warm_start_time", 0.0),
        ],
    )
    def test_rejects_value_and_names_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverOptions(**{field: value})

    def test_unbounded_step_and_zero_abs_tol_allowed(self, two_site_model):
        opts = SolverOptions(abs_tol=0.0)
        curve = solve_cumulant(two_site_model, [1.0, 1.0], [0.5, 1.0, 2.0], opts)
        default = solve_cumulant(two_site_model, [1.0, 1.0], [0.5, 1.0, 2.0])
        np.testing.assert_allclose(curve.values, default.values, rtol=1e-8)


class TestSolveCumulant:
    @pytest.mark.parametrize("kappa,gamma,c", [(1.0, 1.5, 1.0), (0.7, 1.3, 2.5), (2.0, 1.8, 0.2)])
    def test_scalar_closed_form(self, kappa, gamma, c):
        model = make_scalar(kappa, gamma)
        times = np.logspace(-3, 3, 25)
        # late-time values decay far below any absolute floor: control purely
        # relatively so the closed form is matched at solver tolerance
        opts = SolverOptions(rel_tol=1e-10, abs_tol=0.0)
        curve = solve_cumulant(model, np.array([c]), times, opts)
        exact = scalar_closed_form(c, kappa, gamma, times)
        assert np.abs(curve.values[:, 0] / exact - 1.0).max() <= 1e-9

    def test_zero_fixed_point(self, two_site_model):
        curve = solve_cumulant(two_site_model, np.zeros(2), [0.5, 1.0, 5.0])
        assert np.all(curve.values == 0.0)

    def test_unit_value_at_one(self, scalar_model):
        curve = solve_cumulant(scalar_model, np.array([1.0]), [1.0])
        assert curve.values[0, 0] == pytest.approx((1.5) ** -2, rel=1e-9)

    def test_monotone_in_initial_data(self, two_site_model):
        rng = np.random.default_rng(4)
        times = np.linspace(0.0, 3.0, 7)
        for _ in range(4):
            f = rng.uniform(0.0, 2.0, 2)
            g = f + rng.uniform(0.0, 1.5, 2)
            vf = solve_cumulant(two_site_model, f, times).values
            vg = solve_cumulant(two_site_model, g, times).values
            assert np.all(vf <= vg + 1e-9)

    def test_dominated_by_mean_flow(self, three_site_model):
        rng = np.random.default_rng(5)
        f = rng.uniform(0.2, 3.0, 3)
        for t in (0.1, 1.0, 4.0):
            vt = solve_cumulant(three_site_model, f, [t]).values[0]
            mean = semigroup_apply(three_site_model, t, f)
            assert np.all(vt <= mean + 1e-10)

    def test_conservation_identity(self, two_site_model):
        f = np.array([0.8, 1.9])
        curve = solve_cumulant(two_site_model, f, np.linspace(0.0, 4.0, 9))
        for s, t in ((0.0, 4.0), (0.5, 2.0), (1.0, 3.5)):
            assert conservation_residual(two_site_model, curve, s, t) <= 1e-8

    def test_rejects_negative_field(self, two_site_model):
        with pytest.raises(ValueError):
            solve_cumulant(two_site_model, np.array([-0.1, 1.0]), [1.0])


class TestSolveExtinction:
    def test_scalar_values(self, scalar_model):
        curve = solve_extinction(scalar_model, [1.0, 100.0])
        assert curve.values[0, 0] == pytest.approx(4.0, rel=1e-8)
        assert curve.values[1, 0] == pytest.approx(4e-4, rel=1e-8)

    def test_scalar_profile(self, scalar_model):
        times = np.logspace(-2, 3, 61)
        curve = solve_extinction(scalar_model, times)
        exact = (0.5 * times) ** -2
        assert np.abs(curve.values[:, 0] / exact - 1.0).max() <= 1e-8

    def test_nonincreasing_per_site(self, three_site_model, loose_opts):
        times = np.geomspace(0.01, 100.0, 40)
        curve = solve_extinction(three_site_model, times, loose_opts)
        assert np.all(np.diff(curve.values, axis=0) <= 0.0)
        assert np.all(curve.values > 0.0)

    def test_matches_large_lambda_solve(self, two_site_model):
        # independent route: the finite-lambda cumulant from a huge constant
        # field approaches the warm-start curve at the lambda^-(gamma0-1) rate
        opts = SolverOptions(rel_tol=1e-8)
        v1 = solve_extinction(two_site_model, [1.0], opts).values[0]
        big = solve_cumulant(two_site_model, np.full(2, 1e30), [1.0], opts).values[0]
        assert np.abs(big / v1 - 1.0).max() < 2e-4
        assert np.all(big <= v1 * (1 + 1e-12))

    def test_certification_raises_for_coarse_warm_start(self):
        model = coarse_warm_start_model()
        with pytest.raises(CertificationError):
            solve_extinction(model, [1e-7, 1e-6])  # early report with default t0

    def test_min_time_precondition(self, scalar_model):
        with pytest.raises(ValueError):
            solve_extinction(scalar_model, [1e-8])


class TestMultiSiteAccuracy:
    """Multi-site extinction curves meet their stated tolerance globally.

    Two independent routes: the weighted conservation identity, and a plain-u
    Radau solve at rtol 1e-12 from the same warm start.
    """

    CASES = [
        ("two_site_model", np.array([0.1, 0.3, 1.0]), 1e-8),
        ("three_site_model", np.geomspace(1e3, 1e6, 4), 1e-7),
    ]

    @staticmethod
    def reference(model, times):
        A, kappa, gamma = model.A, model.mechanism.kappa, model.mechanism.gamma
        t0 = SolverOptions().warm_start_time / 2.0  # the start of the returned run

        def fun(t, u):
            return A @ u - kappa * np.clip(u, 0.0, None) ** gamma

        def jac(t, u):
            return A - np.diag(kappa * gamma * np.clip(u, 0.0, None) ** (gamma - 1.0))

        sol = solve_ivp(fun, (t0, times[-1]), _warm_start(model, t0), method="Radau",
                        t_eval=times, rtol=1e-12, atol=0.0, jac=jac)
        assert sol.status == 0
        return sol.y.T

    @pytest.mark.parametrize("name,times,rel_tol", CASES)
    def test_conservation_and_reference(self, request, name, times, rel_tol):
        model = request.getfixturevalue(name)
        curve = solve_extinction(model, times, SolverOptions(rel_tol=rel_tol))
        s, t = times[0], times[-1]
        base = float(curve.evaluate(s) @ (model.phi_star * model.m))
        assert conservation_residual(model, curve, s, t) / base <= 10 * rel_tol
        ref = self.reference(model, times)
        assert np.abs(curve.values / ref - 1.0).max() <= 10 * rel_tol

    def test_default_quadrature_tolerance_at_long_horizons(self, two_site_model):
        # <v_s, phi*>_m is about 1e-10 here, far below any fixed absolute
        # tolerance: the default scales with it
        times, rel_tol = np.geomspace(1e3, 1e6, 25), 1e-7
        curve = solve_extinction(two_site_model, times, SolverOptions(rel_tol=rel_tol))
        base = float(curve.evaluate(times[0]) @ (two_site_model.phi_star * two_site_model.m))
        res = conservation_residual(two_site_model, curve, times[0], times[-1])
        assert res <= 10 * rel_tol * base

    def test_kink_inside_a_step_raises(self, two_site_model):
        # a dense output that is not smooth inside its one step defeats every rule
        class Kinked:
            t_start, t_end, step_times = 0.0, 1.0, np.array([0.0, 1.0])

            def __call__(self, t):
                return np.multiply.outer(np.abs(np.asarray(t) - 1 / 3), np.ones(2))

        dense = Kinked()
        curve = CumulantCurve(times=np.array([0.0, 1.0]), values=dense(np.array([0.0, 1.0])),
                              _dense=dense)
        with pytest.raises(RuntimeError, match="32 nodes per step"):
            conservation_residual(two_site_model, curve, 0.0, 1.0)


class TestSolverTelemetry:
    def test_extinction_report_and_bound(self, two_site_model):
        opts = SolverOptions(rel_tol=1e-8)
        curve = solve_extinction(two_site_model, [1.0], opts)
        rep = curve.solver_report
        assert rep.engine == "radau" and rep.variable == "z"
        assert rep.accepted > 0 and rep.rejected > 0
        assert rep.nfev > rep.accepted and rep.njev >= 1 and rep.nlu >= 2
        assert 0.0 <= curve.certification_bound <= 10 * opts.rel_tol
        coarse, halved = curve.certification_reports
        for cert in (coarse, halved):
            assert cert.engine == "radau" and cert.variable == "z"
            assert cert.accepted > 0 and cert.nfev > cert.accepted

    def test_cumulant_report(self, two_site_model):
        curve = solve_cumulant(two_site_model, np.array([0.8, 1.9]), [1.0])
        rep = curve.solver_report
        assert rep.engine == "radau" and rep.variable == "u"
        assert rep.accepted > 0 and rep.nfev > rep.accepted
        assert curve.certification_bound is None
        assert curve.certification_reports is None


def coarse_warm_start_model():
    """Fast motion against the default t0: the warm start fails certification early."""
    space = StateSpace(d=2)
    motion = MotionGenerator(space=space, Q=[[-100.0, 100.0], [100.0, -100.0]])
    mech = BranchingMechanism(beta=[0.0, 0.0], kappa=[1.0, 1.0], gamma=[1.2, 1.8])
    return calibrate_critical(motion, mech)


class TestCertificationWorker:
    """The certification runs in a forked worker beside the returned solve when
    the mask has 2 or more CPUs, and in-process before it otherwise."""

    @pytest.mark.parametrize(
        "name, times",
        [
            ("two_site_model", [1e-6, 1e-3, 1.0]),  # t_first <= 100 t0: measured bound
            ("two_site_model", [0.5, 1.0]),  # transported bound
            ("three_site_model", [0.1, 1.0, 10.0]),
        ],
        ids=["measured", "transported", "three-site"],
    )
    def test_same_curve_on_one_and_two_cpus(self, request, monkeypatch, name, times):
        model = request.getfixturevalue(name)
        opts = SolverOptions(rel_tol=1e-8)
        forks = count_forks(monkeypatch)
        curves = []
        for n in (1, 2):
            use_cpus(monkeypatch, n)
            curves.append(solve_extinction(model, times, opts))
            assert len(forks) == n - 1  # no fork on one CPU, one worker on two
        one, two = curves
        assert two.values.tobytes() == one.values.tobytes()
        assert two.certification_bound == one.certification_bound
        assert two.solver_report == one.solver_report
        assert two.certification_reports == one.certification_reports
        assert two.evaluate(0.7 * times[-1]).tobytes() == one.evaluate(0.7 * times[-1]).tobytes()

    def test_serial_without_os_fork(self, two_site_model, monkeypatch):
        use_cpus(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")  # the forking path would raise AttributeError
        curve = solve_extinction(two_site_model, [1.0], SolverOptions(rel_tol=1e-8))
        assert len(curve.certification_reports) == 2

    def test_same_certification_error_on_both_paths(self, monkeypatch):
        model = coarse_warm_start_model()
        messages = []
        for n in (1, 2):
            use_cpus(monkeypatch, n)
            with pytest.raises(CertificationError) as info:
                solve_extinction(model, [1e-7, 1e-6])
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "warm-start certification failed" in messages[0]

    @pytest.mark.parametrize("n", [1, 2])
    def test_certification_error_wins_when_both_fail(self, monkeypatch, n):
        model = coarse_warm_start_model()
        parent = os.getpid()
        returned_runs = []
        solution = cumulant._extinction_solution

        def failing_returned_run(model, t0, t_max, opts, rtol=None):
            if rtol is None:  # the returned run; the certification's runs set rtol
                returned_runs.append(os.getpid())
                raise SolverError("returned solve failed")
            return solution(model, t0, t_max, opts, rtol)

        monkeypatch.setattr(cumulant, "_extinction_solution", failing_returned_run)
        use_cpus(monkeypatch, n)
        with pytest.raises(CertificationError, match="warm-start certification failed"):
            solve_extinction(model, [1e-7, 1e-6])
        # on two CPUs the returned solve ran here and failed too; on one it never started
        assert returned_runs == ([parent] if n == 2 else [])

    @pytest.mark.parametrize("n", [1, 2])
    def test_returned_solve_error_after_passed_certification(self, two_site_model,
                                                              monkeypatch, n):
        solution = cumulant._extinction_solution

        def failing_returned_run(model, t0, t_max, opts, rtol=None):
            if rtol is None:
                raise SolverError("returned solve failed")
            return solution(model, t0, t_max, opts, rtol)

        monkeypatch.setattr(cumulant, "_extinction_solution", failing_returned_run)
        use_cpus(monkeypatch, n)
        with pytest.raises(SolverError, match="returned solve failed") as info:
            solve_extinction(two_site_model, [1.0], SolverOptions(rel_tol=1e-8))
        assert not isinstance(info.value, CertificationError)


def survival(model, mu, t, opts=None):
    """P(mass alive at t) = 1 - exp(-<mu, v_t>), read off the survival route."""
    return float(kolmogorov_table(model, mu, [t], opts).normalized[0] * eta(model, t))


class TestSurvival:
    def test_scalar_values(self, scalar_model):
        assert survival(scalar_model, np.array([1.0]), 1.0) == pytest.approx(
            1.0 - np.exp(-4.0), rel=1e-8
        )
        assert survival(scalar_model, np.array([1.0]), 100.0) == pytest.approx(
            -np.expm1(-4e-4), rel=1e-8
        )

    def test_vanishing_start(self, scalar_model):
        tiny = survival(scalar_model, np.array([1e-12]), 1.0)
        assert tiny == pytest.approx(4e-12, rel=1e-6)

    def test_rejects_trivial_start(self, scalar_model):
        with pytest.raises(ValueError):
            survival(scalar_model, np.array([0.0]), 1.0)

    @pytest.mark.parametrize("mu", [[np.inf, 0.5], [np.nan, 0.5]], ids=["inf", "nan"])
    def test_rejects_non_finite_start(self, two_site_model, mu):
        # an infinite entry used to give a survival probability of 1.0
        with pytest.raises(ValueError, match="non-finite"):
            survival(two_site_model, mu, 1.0)


class TestWeightedNorm:
    def test_scalar_equals_extinction(self, scalar_model):
        val = weighted_extinction_norm(scalar_model, [10.0])
        assert val.shape == (1,)
        assert val[0] == pytest.approx((0.5 * 10.0) ** -2, rel=1e-8)

    def test_ratio_trend_to_one(self, two_site_model, loose_opts):
        ts = np.array([1e2, 1e3, 1e4])
        norms = weighted_extinction_norm(two_site_model, ts, loose_opts)
        ratios = norms / eta(two_site_model, ts)
        devs = np.abs(ratios - 1.0)
        assert np.all(np.diff(devs) < 0)

    def test_strictly_decreasing(self, three_site_model, loose_opts):
        ts = np.geomspace(0.1, 1e3, 25)
        norms = weighted_extinction_norm(three_site_model, ts, loose_opts)
        assert np.all(np.diff(norms) < 0)


def surface(model, f, theta, T, opts=None):
    """x -> V_T(theta eta_T f)(x) / (eta_T phi(x)) for one theta."""
    return yaglom_table(model, f, [theta], T, opts).surface[0]


class TestYaglomSurface:
    def test_scalar_exactness(self, scalar_model):
        f = normalized_ones(scalar_model)
        for T in (1.0, 10.0, 100.0):
            for theta in (0.3, 1.0, 5.0):
                g = surface(scalar_model, f, theta, T)
                assert g[0] == pytest.approx(g_closed(1.5, theta), abs=1e-9)

    def test_zero_theta(self, two_site_model):
        f = normalized_ones(two_site_model)
        assert np.all(surface(two_site_model, f, 0.0, 10.0) == 0.0)

    def test_batch_matches_single_solves(self, two_site_model, loose_opts):
        # the batch runs on a block-diagonal sparse Jacobian, one theta alone
        # on a dense one
        f = normalized_ones(two_site_model)
        thetas = np.array([0.2, 1.0, 4.0])
        batch = yaglom_table(two_site_model, f, thetas, 100.0, loose_opts).surface
        for theta, row in zip(thetas, batch):
            single = surface(two_site_model, f, theta, 100.0, loose_opts)
            assert np.abs(row / single - 1.0).max() <= 1e-5

    def test_unnormalized_rejected(self, two_site_model):
        with pytest.raises(ValueError, match="phi_star"):
            surface(two_site_model, np.ones(2), 1.0, 10.0)

    def test_linear_bound(self, two_site_model, loose_opts):
        f = normalized_ones(two_site_model)
        c_f = np.max(f / two_site_model.phi)
        for theta in (0.2, 1.0, 4.0):
            g = surface(two_site_model, f, theta, 100.0, loose_opts)
            assert np.all(g <= c_f * theta + 1e-9)


def equivalence_gaps(model, times, opts=None):
    """sup_x | (v_t/phi)(x) / <v_t, phi_star>_m - 1 | per time, from one solve."""
    v = solve_extinction(model, times, opts).values
    norms = v @ (model.phi_star * model.m)
    return np.abs(v / model.phi / norms[:, None] - 1.0).max(axis=1)


class TestEquivalenceGap:
    def test_scalar_zero(self, scalar_model):
        assert equivalence_gaps(scalar_model, [5.0])[0] <= 1e-8

    def test_decreasing_with_time(self, three_site_model, loose_opts):
        gaps = equivalence_gaps(three_site_model, [10.0, 1e3], loose_opts)
        assert gaps[1] < gaps[0]

    def test_vanishing_along_decades(self, two_site_model, loose_opts):
        gaps = equivalence_gaps(two_site_model, [10.0, 1e2, 1e3, 1e4], loose_opts)
        assert np.all(np.diff(gaps) < 0)
        assert gaps[-1] < 5e-3


INF, NAN = np.inf, np.nan


class TestNonFiniteTimes:
    """Every solve and reading refuses a NaN or infinite time, horizon or theta
    before it solves; an infinite time used to run the solver without end.  So
    does an extinction grid past the time where eta(t)^-gamma0 overflows."""

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda m: solve_cumulant(m, [1.0, 1.0], [1.0, INF]), "times must be finite"),
            (lambda m: solve_cumulant(m, [1.0, 1.0], [NAN]), "times must be finite"),
            (lambda m: solve_extinction(m, [1.0, INF]), "times must be finite"),
            (lambda m: solve_extinction(m, [1.0, NAN]), "times must be finite"),
            (lambda m: weighted_extinction_norm(m, [1e3, 1e4, INF]), "times must be finite"),
            (lambda m: kolmogorov_table(m, [0.5, 0.5], [1e3, INF]), "times must be finite"),
            (lambda m: kolmogorov_table(m, [0.5, 0.5], [1e3, NAN]), "times must be finite"),
            (lambda m: solve_extinction(m, [1e3, 1e53]), "finite double"),
            (lambda m: yaglom_table(m, normalized_ones(m), [1.0], INF), "horizon"),
            (lambda m: yaglom_table(m, normalized_ones(m), [1.0], NAN), "horizon"),
            (lambda m: yaglom_table(m, normalized_ones(m), [1.0], 0.0), "horizon"),
            (lambda m: yaglom_table(m, normalized_ones(m), [1.0, NAN], 10.0), "theta"),
            (lambda m: yaglom_table(m, normalized_ones(m), [INF], 10.0), "theta"),
            (lambda m: yaglom_table(m, normalized_ones(m), [-1.0], 10.0), "theta"),
        ],
        ids=["cumulant-inf", "cumulant-nan", "extinction-inf", "extinction-nan",
             "norm-inf", "survival-inf", "survival-nan", "extinction-past-double-range",
             "yaglom-horizon-inf", "yaglom-horizon-nan", "yaglom-horizon-zero",
             "yaglom-theta-nan", "yaglom-theta-inf", "yaglom-theta-negative"],
    )
    def test_refused_before_solving(self, two_site_model, monkeypatch, call, match):
        no_solver(monkeypatch)
        with pytest.raises(ValueError, match=match):
            call(two_site_model)

    def test_unsorted_times_refused(self, two_site_model):
        # the weighted norm reads solve_extinction's grid; it no longer sorts
        with pytest.raises(ValueError, match="strictly increasing"):
            weighted_extinction_norm(two_site_model, [1e4, 1e3])

    @pytest.mark.parametrize(
        "call",
        [lambda m: solve_cumulant(m, [1.0, 1.0], [1.0, 1.0]),
         lambda m: solve_extinction(m, [1e3, 1e3, 1e4]),
         lambda m: kolmogorov_table(m, [0.5, 0.5], [1e3, 1e3])],
        ids=["cumulant", "extinction", "survival"],
    )
    def test_repeated_times_refused(self, two_site_model, monkeypatch, call):
        no_solver(monkeypatch)
        with pytest.raises(ArgumentError, match="strictly increasing") as info:
            call(two_site_model)
        assert info.value.name == "times"
