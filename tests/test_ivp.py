"""The Radau engine against scipy's stock Radau, its step rule and accuracy, and
ODE outputs pinned bit for bit."""

import hashlib
import warnings

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate._ivp import radau
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from stablebranch import _ivp
from stablebranch._ivp import _radau, solve_branching_ode
from stablebranch.analysis import kolmogorov_table, yaglom_table
from stablebranch.cumulant import (
    SolverOptions,
    _extinction_solution,
    _warm_start,
    solve_extinction,
    weighted_extinction_norm,
)

from conftest import normalized_ones


def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def bits(a):
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


def ode_args(model):
    return model.A, model.mechanism.kappa, model.mechanism.gamma


# Each case returns (solve_branching_ode arguments, keyword arguments).
def extinction_two_site(models):
    model = models["two"]
    t0 = 1e-8
    return (*ode_args(model), _warm_start(model, t0), (t0, 1.0)), dict(rtol=1e-8, _bernoulli=True)


def field_three_site(models):
    return (*ode_args(models["three"]), [0.8, 1.9, 0.5], (0.0, 5.0)), dict(rtol=1e-8)


def scalar(models):
    return (*ode_args(models["scalar"]), [2.0], (0.0, 10.0)), dict(rtol=1e-9)


def batch_two_site(models):
    model = models["two"]
    kappa = model.mechanism.kappa * np.array([[0.1], [1.0], [3.0], [10.0]])
    u0 = np.broadcast_to([0.5, 1.5], (4, 2))
    return (model.A, kappa, model.mechanism.gamma, u0, (0.0, 20.0)), dict(rtol=1e-8)


CASES = [extinction_two_site, field_three_site, scalar, batch_two_site]


@pytest.fixture(scope="module")
def models(scalar_model, two_site_model, three_site_model):
    return {"scalar": scalar_model, "two": two_site_model, "three": three_site_model}


def stock_radau(monkeypatch):
    """Solve with scipy's own LU wrappers and the same step rule, so that a
    comparison isolates `_DirectLU`."""
    engine = type("_StockLU", (_ivp._NoGrowthAfterReject, scipy.integrate.Radau), {})
    monkeypatch.setattr(_ivp, "_radau", lambda: engine)


class TestDirectLapack:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__)
    def test_same_solution_and_counts_as_stock_radau(self, case, models, monkeypatch):
        args, kwargs = case(models)
        sol = solve_branching_ode(*args, **kwargs)
        grid = np.linspace(sol.t_start, sol.t_end, 97)
        stock_radau(monkeypatch)
        ref = solve_branching_ode(*args, **kwargs)
        assert bits(sol(grid)) == bits(ref(grid))
        assert sol.report == ref.report
        assert sol.report.accepted > 0 and sol.report.nlu >= 2

    def test_dense_path_never_calls_scipy_lu_wrappers(self, models, monkeypatch):
        # a scipy release that renames Radau's lu/solve_lu would route the
        # dense path back through these wrappers and fail here
        def refuse(*args, **kwargs):
            raise AssertionError("scipy's LU wrapper was called")

        monkeypatch.setattr(radau, "lu_factor", refuse)
        monkeypatch.setattr(radau, "lu_solve", refuse)
        args, kwargs = extinction_two_site(models)
        assert solve_branching_ode(*args, **kwargs).report.nlu > 0
        stock_radau(monkeypatch)
        with pytest.raises(AssertionError, match="wrapper was called"):
            solve_branching_ode(*args, **kwargs)

    def test_batch_still_factors_with_splu(self, models, monkeypatch):
        calls = []
        real_splu = radau.splu

        def counting_splu(a):
            calls.append(a.shape)
            return real_splu(a)

        monkeypatch.setattr(radau, "splu", counting_splu)
        args, kwargs = batch_two_site(models)
        sol = solve_branching_ode(*args, **kwargs)
        assert len(calls) == sol.report.nlu > 0
        assert calls[0] == (8, 8)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_routines_match_scipy_wrappers(self, dtype, rng):
        solver = _radau()(lambda t, y: -y, 0.0, np.ones(3), 1.0, jac=lambda t, y: -np.eye(3))
        a = rng.standard_normal((3, 3)).astype(dtype)
        b = rng.standard_normal(3).astype(dtype)
        if dtype is np.complex128:
            a += 1j * rng.standard_normal((3, 3))
            b += 1j * rng.standard_normal(3)
        lu = solver._getrf(a.copy())
        ref = lu_factor(a.copy(), overwrite_a=True)
        assert lu[0].tobytes() == ref[0].tobytes() and np.array_equal(lu[1], ref[1])
        x = solver._getrs(lu, b.copy())
        assert x.tobytes() == lu_solve(ref, b.copy(), overwrite_b=True).tobytes()
        assert solver.nlu == 1

    def test_routines_keep_wrapper_errors_and_warning(self):
        solver = _radau()(lambda t, y: -y, 0.0, np.ones(2), 1.0, jac=lambda t, y: -np.eye(2))
        with pytest.raises(ValueError, match="infs or NaNs"):
            solver._getrf(np.array([[1.0, np.nan], [0.0, 1.0]]))
        lu = solver._getrf(np.eye(2))
        with pytest.raises(ValueError, match="infs or NaNs"):
            solver._getrs(lu, np.array([np.inf, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", LinAlgWarning)
            with pytest.raises(LinAlgWarning, match="exactly zero"):
                solver._getrf(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert solver.nlu == 3

    @pytest.mark.parametrize("engine", ["direct", "stock"])
    @pytest.mark.parametrize("bernoulli", [False, True], ids=["u", "z"])
    def test_nan_rtol_raises(self, engine, bernoulli, models, monkeypatch):
        if engine == "stock":
            stock_radau(monkeypatch)
        with pytest.raises(ValueError):
            solve_branching_ode(
                *ode_args(models["two"]), [1.0, 2.0], (0.0, 1.0), rtol=np.nan, _bernoulli=bernoulli
            )


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__)
def test_step_times_bound_every_step(case, models):
    args, kwargs = case(models)
    sol = solve_branching_ode(*args, **kwargs)
    steps = sol.step_times
    assert steps.size == sol.report.accepted + 1 and np.all(np.diff(steps) > 0)
    assert (steps[0], steps[-1]) == (sol.t_start, sol.t_end)


class _StepLog:
    """Engine mixin logging each accepted step: (a Newton solve failed in it,
    its size, the size proposed next, it ended the solve)."""

    def _step_impl(self):
        t = self.t
        self.failed.clear()
        success, message = super()._step_impl()
        self.log.append((any(self.failed), self.t - t, self.h_abs, self.t == self.t_bound))
        return success, message


def logged_steps(monkeypatch, models, mixins):
    failed = []
    solve = radau.solve_collocation_system

    def counted(*args, **kwargs):
        out = solve(*args, **kwargs)
        failed.append(not out[0])
        return out

    monkeypatch.setattr(radau, "solve_collocation_system", counted)
    engine = type("_Logged", (_StepLog, *mixins, scipy.integrate.Radau),
                  {"log": [], "failed": failed})
    monkeypatch.setattr(_ivp, "_radau", lambda: engine)
    args, kwargs = extinction_two_site(models)
    solve_branching_ode(*args, **kwargs)
    return engine.log


@pytest.fixture(scope="module")
def tight_extinction(models):
    """The returned extinction solve of each model at rel_tol 1e-11."""
    return {
        name: _extinction_solution(models[name], 5e-9, 1e6, SolverOptions(rel_tol=1e-11))
        for name in ("two", "three")
    }


class TestStepRule:
    """RADAU5's rule: a step accepted after a rejection is not followed by a
    larger one (Hairer & Wanner, Solving ODEs II, section IV.8)."""

    def test_no_growth_after_a_newton_failure(self, models, monkeypatch):
        log = logged_steps(monkeypatch, models, [_ivp._NoGrowthAfterReject])
        after_failure = [(taken, proposed) for failed, taken, proposed, last in log
                         if failed and not last]
        assert len(after_failure) > 100
        assert all(proposed <= taken for taken, proposed in after_failure)

    def test_stock_radau_grows_again(self, models, monkeypatch):
        # what the rule takes away: scipy proposes a larger step straight after
        # a step that a Newton failure cut
        log = logged_steps(monkeypatch, models, [])
        assert sum(proposed > taken for failed, taken, proposed, last in log if failed) > 100

    @pytest.mark.parametrize("rel_tol", [1e-7, 1e-8])
    @pytest.mark.parametrize("name", ["two", "three"])
    def test_returned_extinction_solve_within_rel_tol(self, models, tight_extinction, name,
                                                       rel_tol):
        # the stated tolerance is the error the caller gets: solve_extinction's
        # returned run against a 1e-11 run, relative, from 1e-7 to 1e6
        model = models[name]
        grid = np.geomspace(1e-7, 1e6, 40)
        sol = _extinction_solution(model, 5e-9, 1e6, SolverOptions(rel_tol=rel_tol))
        err = np.max(np.abs(sol(grid) / tight_extinction[name](grid) - 1.0))
        assert err <= rel_tol


class TestOdeGoldenDigests:
    """ODE outputs pinned bit for bit; recorded with the engine's Radau, scipy's
    under the no-growth-after-rejection rule (scipy 1.17.1, numpy 2.4.6).  Any
    change to the engine's arithmetic, the step control or the warm start shows
    here.  The Yaglom surface's solve never accepts a step after a rejection,
    so the rule left its digest as scipy's stock Radau recorded it."""

    def test_two_site_extinction(self, two_site_model):
        curve = solve_extinction(two_site_model, [1.0], SolverOptions(rel_tol=1e-8))
        assert digest(curve.values) == (
            "ed3f1dcee450b5df4f81e9f2fddb1689f2f1d8f14bd5d02474459c4c78951291"
        )

    def test_two_site_weighted_norm(self, two_site_model):
        values = weighted_extinction_norm(
            two_site_model, np.geomspace(1e3, 1e6, 25), SolverOptions(rel_tol=1e-7)
        )
        assert digest(values) == (
            "14e09aa02f6613be7201504738ecbbbef4d608359bbdda4f0f14e1547f18c389"
        )

    def test_three_site_survival(self, three_site_model):
        # the three-site preset's survival spec: its mu and times grid at 1e-7
        table = kolmogorov_table(
            three_site_model, [0.4, 0.3, 0.3], np.geomspace(1e3, 1e5, 9),
            SolverOptions(rel_tol=1e-7),
        )
        assert digest(table.normalized) == (
            "00f0b4db8efd40b6e881cc35c0cec57520a5818e7554559ab824426a24fa24f7"
        )

    def test_two_site_yaglom_surface(self, two_site_model):
        # 21 thetas in one batch: the sparse splu path
        table = yaglom_table(
            two_site_model, normalized_ones(two_site_model), np.geomspace(0.1, 10.0, 21),
            1e3, SolverOptions(rel_tol=1e-7),
        )
        assert digest(table.surface) == (
            "5d8f53a704a94bde95c1d85ea61ca95aa1ea0fb3ed296d12acee0fba41db3b18"
        )
