import contextlib
import functools
import importlib
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from stablebranch import _ivp, cli, cumulant
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

from conftest import extinction_run, no_solver, normalized_ones


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
        ],
    )
    def test_rejects_value_and_names_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverOptions(**{field: value})


class TestSolveCumulant:
    @pytest.mark.parametrize("kappa,gamma,c", [(1.0, 1.5, 1.0), (0.7, 1.3, 2.5), (2.0, 1.8, 0.2)])
    def test_scalar_closed_form(self, kappa, gamma, c):
        model = make_scalar(kappa, gamma)
        times = np.logspace(-3, 3, 25)
        # late-time values decay far below 1e-12: a positive field runs
        # purely relatively, so the closed form is matched at rel_tol
        curve = solve_cumulant(model, np.array([c]), times, SolverOptions(rel_tol=1e-10))
        exact = scalar_closed_form(c, kappa, gamma, times)
        assert np.abs(curve.values[:, 0] / exact - 1.0).max() <= 1e-9

    def test_negative_time_refused(self, two_site_model, monkeypatch):
        # V_0 f = f: a grid may start at 0, never before it
        f = np.array([0.8, 1.9])
        assert solve_cumulant(two_site_model, f, [0.0]).values.tolist() == [f.tolist()]
        no_solver(monkeypatch)
        with pytest.raises(ArgumentError, match="nonnegative, got -1") as info:
            solve_cumulant(two_site_model, f, [-1.0, 1.0])
        assert info.value.name == "times"

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

    def test_empty_reading(self, two_site_model, loose_opts):
        # no time, no row, from the u run's reader and the z run's
        curves = (solve_cumulant(two_site_model, [0.8, 1.9], [1.0]),
                  solve_extinction(two_site_model, [1.0], loose_opts))
        for curve in curves:
            assert curve.evaluate([]).shape == (0, 2)

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

    def test_coarse_warm_start_certifies_at_smaller_t0(self):
        # t0 = 1e-8 fails (bound 1.4e-9 against 1e-10); the search certifies
        # at t0 = 1e-9 (1.5e-11) and returns the run from t0/2
        model = coarse_warm_start_model()
        opts = SolverOptions()
        fine = extinction_run(model, 5e-10, 1e-6, opts)
        curve = solve_extinction(model, [1e-7, 1e-6], opts)
        assert curve.t_start == 5e-10
        assert curve.certification_bound <= opts.rel_tol
        assert curve.values.tobytes() == fine(np.array([1e-7, 1e-6])).tobytes()

    def test_reduced_t0_is_a_decimal_power(self, two_site_model, monkeypatch):
        # t0 = 1e-9 and 1e-10 are made to fail and 1e-11 certifies: exactly
        # 1e-11, which 1e-9 / 10 / 10 misses by one ulp
        tried = []
        certify = cumulant._certify

        def failing_above_1e_11(model, t0, t_first, returned, w, opts):
            tried.append(t0)
            if t0 > 1e-11:
                raise CertificationError(f"warm-start certification failed at t0={t0:g}: forced")
            return certify(model, t0, t_first, returned, w, opts)

        monkeypatch.setattr(cumulant, "_certify", failing_above_1e_11)
        curve = solve_extinction(two_site_model, [1e-8, 1.0], SolverOptions(rel_tol=1e-10))
        assert cumulant._warm_start_time(two_site_model, 1e-8, 1e-10) == 1e-9
        assert tried == [1e-9, 1e-10, 1e-11]
        assert 2.0 * curve.t_start == 1e-11

    def test_warm_start_time_rule(self, two_site_model):
        # a power of ten near sqrt(rel_tol t_first / (35 a)), never earlier
        # than min(1e-8, t_first / 10) and never later than t_first / 10
        rule = functools.partial(cumulant._warm_start_time, two_site_model)
        assert rule(1.0, 1e-8) == 1e-5 and rule(1e3, 1e-7) == 1e-3
        assert rule(1e-7, 1e-6) == 1e-8 and rule(1e-8, 1e-10) == 1e-9
        assert rule(1e-3, 1.0) == 1e-4
        assert cumulant._warm_start_time(coarse_warm_start_model(), 1.0, 1e-8) == 1e-6
        for t_first in np.geomspace(1e-12, 1e6, 37):
            for rel_tol in (1e-12, 1e-8, 1e-4):
                t0 = rule(float(t_first), rel_tol)
                assert min(1e-8, t_first / 10.0) <= t0 <= t_first / 10.0
                assert t0 == t_first / 10.0 or t0 == 10.0 ** round(np.log10(t0))

    def test_min_time_precondition(self, scalar_model, monkeypatch):
        # a grid may start at any positive time: t0 = times[0] / 10 below 1e-7
        curve = solve_extinction(scalar_model, [1e-8])
        assert curve.t_start == 5e-10
        assert abs(curve.values[0, 0] / (0.5 * 1e-8) ** -2 - 1.0) <= 1e-8
        no_solver(monkeypatch)
        for times in ([0.0, 1.0], [-1.0, 1.0]):
            with pytest.raises(ArgumentError, match="positive") as info:
                solve_extinction(scalar_model, times)
            assert info.value.name == "times"

    def test_warm_start_overflow_near_gamma0_one(self, monkeypatch):
        # (kappa (gamma-1) t)^(-1/(gamma-1)) at t = 5e-9 overflows for gamma = 1.01
        no_solver(monkeypatch)
        with pytest.raises(CertificationError, match="warm-start certification failed") as info:
            solve_extinction(make_scalar(1.0, 1.01), [1.0, 2.0])
        assert "gamma0=1.01" in str(info.value)

    def test_exhausted_search_names_t0_and_bound(self, monkeypatch):
        # with no reduction allowed the fast-motion model fails at t0 = 1e-8
        monkeypatch.setattr(cumulant, "_WARM_START_REDUCTIONS", 0)
        with pytest.raises(CertificationError) as info:
            solve_extinction(coarse_warm_start_model(), [1e-7, 1e-6])
        message = str(info.value)
        assert message.startswith("warm-start certification failed at t0=1e-08: ")
        assert "change 1.447e-09 at t=1e-07 exceeds 1.0e-10" in message


class TestOneIndexClosedForms:
    """On the one-index family u = c(t) phi, so the extinction curve and the
    cumulant from theta phi are closed forms at every site (ROADMAP item 2).
    Largest errors read: extinction 1.6e-4 and 0.20 rel_tol (two sites, at
    1e-7 and 1e-10), 6.3e-4 and 0.67 (three); cumulant 0.11 and 0.11 (two),
    0.12 and 0.11 (three)."""

    @pytest.mark.parametrize("name", ["two", "three"])
    def test_warm_start(self, one_index_models, name):
        # the quasi-steady balance is exact here, at t0/2 and at t0 (the
        # balance sweeps it replaced were off by 2.0e-6 and 2.7e-6 at 1e-5)
        model = one_index_models[name]
        g1, K = model.gamma0 - 1.0, model.c_x
        exact = np.multiply.outer((K * g1 * np.array([5e-6, 1e-5])) ** (-1.0 / g1), model.phi)
        assert np.abs(_warm_start(model, 5e-6) / exact - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("rel_tol", [1e-7, 1e-10])
    @pytest.mark.parametrize("name", ["two", "three"])
    def test_extinction(self, one_index_models, name, rel_tol):
        model = one_index_models[name]
        g1, K = model.gamma0 - 1.0, model.c_x
        times = np.geomspace(1.0, 1e6, 61)
        curve = solve_extinction(model, times, SolverOptions(rel_tol=rel_tol))
        exact = np.multiply.outer((K * g1 * times) ** (-1.0 / g1), model.phi)
        assert np.abs(curve.values / exact - 1.0).max() <= rel_tol

    @pytest.mark.parametrize("rel_tol", [1e-7, 1e-10])
    @pytest.mark.parametrize("name", ["two", "three"])
    def test_cumulant_from_theta_phi(self, one_index_models, name, rel_tol):
        # theta phi > 0 at every site, so the run is purely relative
        model = one_index_models[name]
        g1, K = model.gamma0 - 1.0, model.c_x
        times = np.geomspace(1e-2, 1e3, 31)
        opts = SolverOptions(rel_tol=rel_tol)
        for theta in (0.1, 1.0, 10.0):
            curve = solve_cumulant(model, theta * model.phi, times, opts)
            c = (theta**-g1 + K * g1 * times) ** (-1.0 / g1)
            assert np.abs(curve.values / np.multiply.outer(c, model.phi) - 1.0).max() <= rel_tol


def scipy_flow(model, u0, t0, times, rtol):
    """The plain-u flow from u0 at t0, read at the times: scipy's Radau with
    no absolute tolerance, a second integrator."""
    A, kappa, gamma = model.A, model.mechanism.kappa, model.mechanism.gamma

    def fun(t, u):
        return A @ u - kappa * np.clip(u, 0.0, None) ** gamma

    def jac(t, u):
        return A - np.diag(kappa * gamma * np.clip(u, 0.0, None) ** (gamma - 1.0))

    sol = solve_ivp(fun, (t0, times[-1]), u0, method="Radau", t_eval=times, rtol=rtol,
                    atol=0.0, jac=jac)
    assert sol.status == 0
    return sol.y.T


@pytest.fixture(scope="class")
def finite_field_references(two_site_model, three_site_model):
    """(model, f, times, V_t f) on geomspace(1e-2, 1e3, 31) at rtol 1e-13, by
    model name."""
    times = np.geomspace(1e-2, 1e3, 31)
    return {name: (model, f, times, scipy_flow(model, f, 0.0, times, 1e-13))
            for name, model, f in [("two", two_site_model, np.array([0.5, 2.0])),
                                   ("three", three_site_model, np.array([0.3, 1.0, 2.0]))]}


class TestFiniteFieldAccuracy:
    """V_t f decays like t^(-1/(gamma0-1)), far below 1e-12 within a few
    decades; a field positive at every site runs purely relatively, so the
    stated rel_tol is the error at every time.  Under an absolute floor of
    1e-12 the two-site run from (0.5, 2) missed 1e-7 by 693 times."""

    @pytest.mark.parametrize("rel_tol", [1e-7, 1e-10])
    @pytest.mark.parametrize("name", ["two", "three"])
    def test_within_rel_tol_of_a_tight_reference(self, finite_field_references, name,
                                                 rel_tol):
        model, f, times, ref = finite_field_references[name]
        curve = solve_cumulant(model, f, times, SolverOptions(rel_tol=rel_tol))
        assert np.abs(curve.values / ref - 1.0).max() <= rel_tol

    def test_zero_site_runs_at_the_floor(self, two_site_model, monkeypatch):
        # relative control is undefined at an exact zero: a field with a zero
        # site keeps the absolute floor and runs without a warning; a positive
        # one has no floor
        atols = []

        class Recording(_ivp._RadauIIA):
            def __init__(self, *args):
                atols.append(args[-1])
                super().__init__(*args)

        monkeypatch.setattr(_ivp, "_RadauIIA", Recording)
        times, opts = np.geomspace(1e-2, 1e3, 31), SolverOptions(rel_tol=1e-7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = solve_cumulant(two_site_model, [1.0, 0.0], times, opts)
            table = yaglom_table(two_site_model, [np.sqrt(2.0), 0.0], [0.1, 1.0, 10.0], 1.0, opts)
            solve_cumulant(two_site_model, [1.0, 1.0], times, opts)
        assert atols == [_ivp._ZERO_SITE_ATOL, _ivp._ZERO_SITE_ATOL, 0.0]
        assert table.solver_report.variable == "u"
        assert np.all(np.isfinite(curve.values)) and np.all(np.isfinite(table.surface))


class TestMultiSiteAccuracy:
    """Multi-site extinction curves meet their stated tolerance globally.

    Two independent routes: the weighted conservation identity, and a plain-u
    Radau solve at rtol 1e-12 from the same warm start.
    """

    CASES = [
        ("two_site_model", np.array([0.1, 0.3, 1.0]), 1e-8),
        ("three_site_model", np.geomspace(1e3, 1e6, 4), 1e-7),
    ]

    @pytest.mark.parametrize("name,times,rel_tol", CASES)
    def test_conservation_and_reference(self, request, name, times, rel_tol):
        model = request.getfixturevalue(name)
        curve = solve_extinction(model, times, SolverOptions(rel_tol=rel_tol))
        s, t = times[0], times[-1]
        base = float(curve.evaluate(s) @ (model.phi_star * model.m))
        assert conservation_residual(model, curve, s, t) / base <= 10 * rel_tol
        # from the warm start at t_start, the returned run's start
        t0 = curve.t_start
        ref = scipy_flow(model, _warm_start(model, t0)[0], t0, times, 1e-12)
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
        assert 0.0 <= curve.certification_bound <= opts.rel_tol

    def test_cumulant_report(self, two_site_model):
        curve = solve_cumulant(two_site_model, np.array([0.8, 1.9]), [1.0])
        rep = curve.solver_report
        assert rep.engine == "radau" and rep.variable == "u"
        assert rep.accepted > 0 and rep.nfev > rep.accepted
        assert curve.certification_bound is None


def coarse_warm_start_model():
    """Fast motion: on [1e-7, 1e-6] the warm start fails certification at
    t0 = 1e-8 and passes at 1e-9."""
    space = StateSpace(d=2)
    motion = MotionGenerator(space=space, Q=[[-100.0, 100.0], [100.0, -100.0]])
    mech = BranchingMechanism(beta=[0.0, 0.0], kappa=[1.0, 1.0], gamma=[1.2, 1.8])
    return calibrate_critical(motion, mech)


def never_certifies(monkeypatch):
    """Make every certification fail, naming its t0; the returned list gains
    the t0 of each certification tried."""
    tried = []

    def failing(model, t0, t_first, returned, w, opts):
        tried.append(t0)
        raise CertificationError(f"warm-start certification failed at t0={t0:g}: forced")

    monkeypatch.setattr(cumulant, "_certify", failing)
    return tried


def record_runs(monkeypatch):
    """Record (t0, t_max) of each extinction run, in the returned list."""
    solution = cumulant._extinction_solution
    runs = []

    def recorded(model, start, t0, t_max, opts):
        runs.append((t0, t_max))
        return solution(model, start, t0, t_max, opts)

    monkeypatch.setattr(cumulant, "_extinction_solution", recorded)
    return runs


class TestCertificationSearch:
    """Each try is one run, from the start at t0/2; its certification reads
    that run and solves nothing."""

    def test_seven_tries_then_the_last_error(self, two_site_model, monkeypatch):
        tried = never_certifies(monkeypatch)
        with pytest.raises(CertificationError) as info:
            solve_extinction(two_site_model, [1e-7, 1e-6])
        # t0 = 1e-8 and six reductions: seven tries, the last at 1e-14
        assert tried == [1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14]
        assert str(info.value).startswith("warm-start certification failed at t0=1e-14")

    @pytest.mark.parametrize("n", [1, 2])
    def test_returned_solve_error_after_passed_certification(self, two_site_model,
                                                              monkeypatch, n):
        # the returned solve runs first, to the last of the n requested times
        # or past it; its error is raised as it happens, and no certification
        # is tried
        tried = never_certifies(monkeypatch)
        solution = cumulant._extinction_solution

        def failing_returned_run(model, start, t0, t_max, opts):
            if t_max >= 1.0:
                raise SolverError("returned solve failed")
            return solution(model, start, t0, t_max, opts)

        monkeypatch.setattr(cumulant, "_extinction_solution", failing_returned_run)
        with pytest.raises(SolverError, match="returned solve failed") as info:
            solve_extinction(two_site_model, np.linspace(1.0 / n, 1.0, n),
                             SolverOptions(rel_tol=1e-8))
        assert not isinstance(info.value, CertificationError)
        assert tried == []

    def test_each_try_is_one_run(self, monkeypatch):
        # the fast-motion model fails at t0 = 1e-8 and certifies at 1e-9: two
        # tries, each exactly one warm start and one run from t0/2 to the last
        # time, and the certification solves nothing
        runs = record_runs(monkeypatch)
        warm_start, starts = cumulant._warm_start, []

        def counted(model, t):
            starts.append(t)
            return warm_start(model, t)

        monkeypatch.setattr(cumulant, "_warm_start", counted)
        model, opts = coarse_warm_start_model(), SolverOptions()
        curve = solve_extinction(model, [1e-7, 1e-6], opts)
        assert runs == [(5e-9, 1e-6), (5e-10, 1e-6)]
        assert starts == [5e-9, 5e-10]
        no_solver(monkeypatch)
        bound = cumulant._certify(model, 1e-9, 1e-7, curve._dense, warm_start(model, 5e-10)[1],
                                  opts)
        assert bound == curve.certification_bound

    def test_rising_start_refused_before_its_run(self, monkeypatch):
        # beyond the motion's time scale the balance's start at t0/2 = 0.05
        # lies below its start at t0 = 0.1 at both sites, the flow there
        # F(w) = (-69.2, +47.8) rises at site 1, and a run from it left the
        # domain of z; the try is refused without a run, and t0 = 0.01
        # certifies with the curve it gave before the refusal.  Its own run's
        # Newton stages leave the domain at rel_tol 0.3 too (a stage read
        # z = -0.73), which the stepper rejects: neither that run alone nor
        # the search warns (the run's np.power warned 5 times before z runs
        # silenced their floating-point warnings)
        model, times, opts = coarse_warm_start_model(), [1e4, 2e4], SolverOptions(rel_tol=0.3)
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            certified = extinction_run(model, 0.005, 2e4, opts)
        runs = record_runs(monkeypatch)
        with warnings.catch_warnings(record=True) as search:
            warnings.simplefilter("always")
            curve = solve_extinction(model, times, opts)
        assert runs == [(0.005, 2e4)]
        assert [str(w.message) for w in alone] == [str(w.message) for w in search] == []
        assert curve.values.tobytes() == certified(np.array(times)).tobytes()
        monkeypatch.setattr(cumulant, "_WARM_START_REDUCTIONS", 0)
        no_solver(monkeypatch)
        with pytest.raises(CertificationError) as info:
            solve_extinction(model, times, opts)
        assert str(info.value) == (
            "warm-start certification failed at t0=0.1: the start at t0/2 does not decrease "
            "at site 0"
        )

    @pytest.mark.parametrize("name,above", [("two_site_model", 2), ("three_site_model", 1)])
    def test_one_time_grid_runs_past_its_time(self, request, name, above):
        # on [1] (the benchmark's ext-two-t1 grid on two sites) the run from
        # t0/2 = 5e-6 lies above the start at t0 = 1e-5 on `above` sites, so
        # the shift s+ is positive and the bound reads the run at 1 + s+: the
        # run goes on to times[0] + t0/2
        model, opts = request.getfixturevalue(name), SolverOptions(rel_tol=1e-8)
        curve = solve_extinction(model, [1.0], opts)
        assert curve.t_start == 5e-6 and curve.t_end == 1.0 + 5e-6
        assert np.sum(curve.evaluate(1e-5) > _warm_start(model, 5e-6)[1]) == above
        assert 0.0 < curve.certification_bound <= opts.rel_tol / 10

    def test_returned_curve_shifted_past_the_bound_fails(self, two_site_model):
        # a time shift of a run is a run: delayed by delta, the two-site curve
        # moves at t = 1 by its own relative change over delta (about
        # 5.5 delta), which the bound must see; at delta = 4e-9 that is twice
        # rel_tol, and the curve is refused
        opts = SolverOptions(rel_tol=1e-8)
        t0, t_first = 1e-5, 1.0
        returned = extinction_run(two_site_model, t0 / 2.0, t_first + t0, opts)
        w = _warm_start(two_site_model, t0 / 2.0)[1]
        bound = cumulant._certify(two_site_model, t0, t_first, returned, w, opts)
        assert bound <= 1e-2 * opts.rel_tol

        def delayed(delta):
            return lambda t: returned(np.asarray(t) - delta)

        def moved(delta):
            return np.max(returned(t_first - delta) / returned(t_first) - 1.0)

        slight = cumulant._certify(two_site_model, t0, t_first, delayed(1e-10), w, opts)
        assert slight == pytest.approx(moved(1e-10), rel=0.05)
        with pytest.raises(CertificationError) as info:
            cumulant._certify(two_site_model, t0, t_first, delayed(4e-9), w, opts)
        found = re.fullmatch(
            r"warm-start certification failed at t0=1e-05: projected relative change "
            r"(\S+) at t=1 exceeds 1\.0e-08",
            str(info.value),
        )
        assert found, str(info.value)
        assert float(found.group(1)) == pytest.approx(moved(4e-9), rel=0.05)
        # advanced by 0.6 t0, the start at t0 lies further back than t0/2
        with pytest.raises(CertificationError, match="t0=1e-05: the run from t0/2 does not bracket"):
            cumulant._certify(two_site_model, t0, t_first, delayed(-0.6 * t0), w, opts)


class StopAtCertification(Exception):
    pass


class TestFirstTry:
    """Every extinction grid of the presets and of the benchmark certifies on
    the first try, at t0 = _warm_start_time(model, times[0], rel_tol), with a
    bound of at most rel_tol / 10: the rule's aim leaves room below the
    certification's threshold of rel_tol.

    Each grid's certifications are found by running its spec or op with a
    certification that records its arguments and stops the run.  The
    certification depends only on the model, t0, times[0], the returned run
    and rel_tol, so each is then run again on its own.
    """

    @staticmethod
    def certifications(runs):
        """(model, t0, t_first, returned, w, opts) of the first certification of each run."""
        found = []

        def recording(model, t0, t_first, returned, w, opts):
            found.append((model, t0, t_first, returned, w, opts))
            raise StopAtCertification

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cumulant, "_certify", recording)
            for run in runs:
                with contextlib.suppress(StopAtCertification):
                    run()
        return found

    @staticmethod
    def assert_first_try(found):
        assert found
        for model, t0, t_first, returned, w, opts in found:
            assert t0 == cumulant._warm_start_time(model, t_first, opts.rel_tol)
            assert returned.t_start == t0 / 2.0
            bound = cumulant._certify(model, t0, t_first, returned, w, opts)
            assert bound <= opts.rel_tol / 10

    def test_preset_grids(self, tmp_path):
        specs = [
            path for name in cli._PRESET_MODELS
            for path in cli.write_preset(name, str(tmp_path / name))[1:]
            if json.loads(Path(path).read_text())["kind"] in ("survival", "rv-fit")
        ]
        assert len(specs) == 4
        runs = [functools.partial(cli.run, cli.ExperimentSpec.from_file(p)) for p in specs]
        found = self.certifications(runs)
        assert len(found) == len(specs)
        self.assert_first_try(found)

    def test_benchmark_grids(self, monkeypatch, tmp_path):
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        ctx = workloads.setup(str(tmp_path))
        ops = [op for size in ("run", "smoke") for op in workloads.build(size)["ode-asymptotics"]]
        runs = [functools.partial(op.run, ctx, workloads.API) for op in ops]
        for name, mu, T in workloads.LIVE_SHARE_INPUTS.values():
            runs.append(functools.partial(workloads.live_share, ctx.models[name], mu, T))
        found = self.certifications(runs)
        # ext-two-t1, rvfit-two, rvfit-three and cli-scalar-survival at each
        # size, and the three live shares
        assert len(found) == 11
        self.assert_first_try(found)


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
        # the batch runs on a stack of dense Jacobian blocks, one theta alone
        # on one dense Jacobian
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
            (lambda m: yaglom_table(m, normalized_ones(m), [[1.0, 2.0]], 10.0),
             "theta must be a scalar or a 1-d grid"),
        ],
        ids=["cumulant-inf", "cumulant-nan", "extinction-inf", "extinction-nan",
             "norm-inf", "survival-inf", "survival-nan", "extinction-past-double-range",
             "yaglom-horizon-inf", "yaglom-horizon-nan", "yaglom-horizon-zero",
             "yaglom-theta-nan", "yaglom-theta-inf", "yaglom-theta-negative",
             "yaglom-theta-2d"],
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
