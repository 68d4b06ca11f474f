"""The Radau engine against scipy's stock Radau, its step rule and accuracy, and
ODE outputs pinned bit for bit."""

import hashlib
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse.linalg
from scipy.integrate._ivp import radau
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from stablebranch import _ivp
from stablebranch._ivp import solve_branching_ode
from stablebranch.analysis import kolmogorov_table, yaglom_table
from stablebranch.cumulant import (
    SolverOptions,
    _warm_start,
    solve_cumulant,
    solve_extinction,
    weighted_extinction_norm,
)
from stablebranch.model import eta

from conftest import extinction_run, normalized_ones, reflecting_diffusion


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
    return (*ode_args(model), _warm_start(model, t0)[0], (t0, 1.0)), dict(rtol=1e-8, _bernoulli=True)


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
def models(scalar_model, two_site_model, three_site_model, close_index_model, diffusion_model):
    return {"scalar": scalar_model, "two": two_site_model, "three": three_site_model,
            "close": close_index_model, "diffusion": diffusion_model}


class _NoGrowthAfterReject:
    """Mixin for scipy's Radau: RADAU5's rule that a step accepted after a
    rejection is not followed by a larger one.  A step was rejected when the
    step taken is not the one first tried, t + h_abs; the last step, clipped
    to t_bound, ends the solve and does not count."""

    def _step_impl(self):
        t, tried = self.t, min(self.h_abs, self.max_step)
        success, message = super()._step_impl()
        if success and self.t != self.t_bound and self.t != t + self.direction * tried:
            self.h_abs = min(self.h_abs, abs(self.t - t))
        return success, message


def capture_system(monkeypatch):
    """Record the right-hand side, Jacobian, span and tolerances each
    solve_branching_ode call hands its stepper, in the returned dict."""
    system = {}

    class Capturing(_ivp._RadauIIA):
        def __init__(self, fun, jac, t0, y0, t_bound, rtol, atol):
            system.update(fun=fun, jac=jac, t_span=(t0, t_bound), y0=y0, rtol=rtol, atol=atol)
            super().__init__(fun, jac, t0, y0, t_bound, rtol, atol)

    monkeypatch.setattr(_ivp, "_RadauIIA", Capturing)
    return system


def scipy_reference(system, mixins=(_NoGrowthAfterReject,)):
    """The same system through scipy's own Radau and solve_ivp: one stage per
    right-hand-side call, scipy's LU wrappers and scipy's dense output."""
    fun, jac = system["fun"], system["jac"]
    return scipy.integrate.solve_ivp(
        lambda t, y: fun(y), system["t_span"], system["y0"],
        method=type("_Reference", (*mixins, scipy.integrate.Radau), {}),
        dense_output=True, jac=lambda t, y: jac(y), rtol=system["rtol"], atol=system["atol"],
    )


def zero_length(models):
    return (*ode_args(models["two"]), [0.5, 1.5], (0.0, 0.0)), {}


def scalar_large_start(models):
    # a start far above the flow's scale: a step fails the error test
    return (*ode_args(models["scalar"]), [1e6], (0.0, 10.0)), dict(rtol=1e-9)


def scalar_tiny_rtol(models):
    # rtol below 100 eps is raised to it, but the Newton tolerance is not
    return (*ode_args(models["scalar"]), [2.0], (0.0, 1.0)), dict(rtol=1e-16)


def extinction_three_site(models):
    # a long three-site z run at rtol 1e-7, from the warm start at 5e-9 to 1e6
    model = models["three"]
    t0 = 5e-9
    return (*ode_args(model), _warm_start(model, t0)[0], (t0, 1e6)), dict(rtol=1e-7, _bernoulli=True)


def yaglom_two_site(models):
    # the two-site yaglom run's rescaled flow at T = 1e4: 21 thetas at 1e-7
    model = models["two"]
    T, thetas = 1e4, np.geomspace(0.1, 10.0, 21)
    gamma = model.mechanism.gamma
    kappa = model.mechanism.kappa * np.power(thetas[:, None] * eta(model, T), gamma - 1.0)
    u0 = np.broadcast_to(normalized_ones(model), (thetas.size, 2))
    return (model.A, kappa, gamma, u0, (0.0, T)), dict(rtol=1e-7)


def large_batch(models):
    # a diffusion with one cell more than the dense rule admits, 3 members
    model = reflecting_diffusion(_ivp._DENSE_BLOCK_SITES + 1)
    B = 3
    kappa = model.mechanism.kappa * np.geomspace(0.1, 10.0, B)[:, None]
    u0 = np.broadcast_to(normalized_ones(model), (B, model.d))
    return (model.A, kappa, model.mechanism.gamma, u0, (0.0, 1.0)), dict(rtol=1e-6)


def batch_scalar_yaglom(models):
    # the scalar yaglom run's rescaled flow: 21 thetas of a d = 1 model in one
    # batch at the default rtol
    model = models["scalar"]
    T, thetas = 10.0, np.geomspace(0.1, 10.0, 21)
    gamma = model.mechanism.gamma
    kappa = model.mechanism.kappa * np.power(thetas[:, None] * eta(model, T), gamma - 1.0)
    u0 = np.broadcast_to(normalized_ones(model), (thetas.size, 1))
    return (model.A, kappa, gamma, u0, (0.0, T)), dict(rtol=1e-10)


class TestDirectLapack:
    """The stepper is scipy's Radau ported with its arithmetic unchanged: LAPACK
    getrf/getrs called directly, the three stages in one right-hand-side call,
    and RADAU5's no-growth rule.  Every solve but a small batch's is bit for
    bit scipy's stock Radau under that rule."""

    @pytest.mark.parametrize("case", [extinction_two_site, field_three_site, scalar, zero_length,
                                      scalar_large_start, scalar_tiny_rtol,
                                      extinction_three_site],
                             ids=lambda c: c.__name__)
    @pytest.mark.filterwarnings("ignore:.*rtol.*too small")
    def test_same_solution_and_counts_as_stock_radau(self, case, models, monkeypatch):
        args, kwargs = case(models)
        system = capture_system(monkeypatch)
        sol = solve_branching_ode(*args, **kwargs)
        attempts = []
        solve = radau.solve_collocation_system

        def logged(fun, t, y, h, *rest):
            attempts.append((t, h))
            return solve(fun, t, y, h, *rest)

        monkeypatch.setattr(radau, "solve_collocation_system", logged)
        ref = scipy_reference(system)
        assert bits(sol.step_times) == bits(ref.t)
        # scipy reading one time at a time; a step boundary takes the earlier
        # step's polynomial, as in scipy
        for grid in (np.linspace(sol.t_start, sol.t_end, 97), sol.step_times):
            assert bits(sol._cubic(grid)) == bits([ref.sol(t) for t in grid])
        rep = sol.report
        assert (rep.accepted, rep.nfev, rep.njev, rep.nlu) == (
            ref.t.size - 1, ref.nfev, ref.njev, ref.nlu
        )
        # every step attempt tries a new (t, h), and a retry under a fresh
        # Jacobian repeats it: the attempts not accepted are the rejected ones
        # (a zero-length run attempts no step)
        tried = sum(1 for k, a in enumerate(attempts) if k == 0 or a != attempts[k - 1])
        assert rep.rejected == (tried - rep.accepted if attempts else 0)

    def test_zero_previous_step_as_stock_radau(self, models, monkeypatch):
        # the two-site Yaglom u system at T = 1e-6, theta = 1, on [0, 2e-11],
        # from (3, 0): under the absolute floor of a zero site an error norm
        # underflows to 0, which makes a zero factor, and the two-step rule
        # divided by the zero step (ZeroDivisionError) two steps later;
        # scipy's numpy scalars take the one-step rule
        model = models["two"]
        gamma = model.mechanism.gamma
        kappa = model.mechanism.kappa * np.power(eta(model, 1e-6), gamma - 1.0)
        zero_steps, predict = [], _ivp._predict_factor

        def recorded(h_abs, h_abs_old, *errors):
            zero_steps.append(h_abs_old == 0.0)
            return predict(h_abs, h_abs_old, *errors)

        monkeypatch.setattr(_ivp, "_predict_factor", recorded)
        system = capture_system(monkeypatch)
        sol = solve_branching_ode(model.A, kappa, gamma, [3.0, 0.0], (0.0, 2e-11))
        assert any(zero_steps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # scipy's division by zero
            ref = scipy_reference(system)
        assert bits(sol.step_times) == bits(ref.t)
        rep = sol.report
        assert (rep.accepted, rep.nfev, rep.njev, rep.nlu) == (
            ref.t.size - 1, ref.nfev, ref.njev, ref.nlu
        )

    def test_dense_path_never_calls_scipy_lu_wrappers(self, models, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scipy's LU wrapper was called")

        calls = []
        getrf = _ivp._getrf
        monkeypatch.setattr(scipy.linalg, "lu_factor", refuse)
        monkeypatch.setattr(scipy.linalg, "lu_solve", refuse)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
        monkeypatch.setattr(_ivp, "_getrf", lambda a: calls.append(a.shape) or getrf(a))
        args, kwargs = extinction_two_site(models)
        nlu = solve_branching_ode(*args, **kwargs).report.nlu
        assert len(calls) == nlu > 0

    def test_solve_never_enters_numpy_wrappers(self, models, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a numpy wrapper was called")

        cases = [case(models) for case in (extinction_two_site, batch_two_site)]
        monkeypatch.setattr(np.linalg, "norm", refuse)
        monkeypatch.setattr(np, "errstate", refuse)
        monkeypatch.setattr(np, "tile", refuse)
        for args, kwargs in cases:
            sol = solve_branching_ode(*args, **kwargs)
            sol(np.linspace(sol.t_start, sol.t_end, 9))

    def test_batch_still_factors_with_splu(self, models, monkeypatch):
        # a batch of blocks above the dense rule, and any batch at it
        calls = []
        real_splu = scipy.sparse.linalg.splu

        def counting_splu(a):
            calls.append(a.shape)
            return real_splu(a)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
        args, kwargs = large_batch(models)
        n = args[3].size
        sol = solve_branching_ode(*args, **kwargs)
        assert len(calls) == sol.report.nlu > 0
        assert calls[0] == (n, n)
        d = _ivp._DENSE_BLOCK_SITES
        for B in (2, 63, 1000):
            limit = np.zeros((B, d, d))
            assert _ivp._assemble(limit) is limit
        assert scipy.sparse.issparse(_ivp._assemble(np.zeros((2, d + 1, d + 1))))

    @pytest.mark.parametrize("case", [batch_two_site, batch_scalar_yaglom, yaglom_two_site],
                             ids=lambda c: c.__name__)
    def test_dense_blocks_match_stock_radau_with_splu(self, case, models, monkeypatch):
        # the solve never calls splu; scipy's Radau, which bound its own splu
        # on import, on the same right-hand side with the blocks'
        # block-diagonal sparse Jacobian: the counts agree, and the steps and
        # values up to rounding (the error estimate's rounding moves a step
        # time by up to 6.3e-8 of the span, batch_scalar_yaglom)
        def refuse(*args, **kwargs):
            raise AssertionError("splu was called")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
        args, kwargs = case(models)
        system = capture_system(monkeypatch)
        sol = solve_branching_ode(*args, **kwargs)
        jac = system["jac"]
        assert jac(system["y0"]).ndim == 3
        system["jac"] = lambda y: scipy.sparse.block_diag(jac(y), format="csc")
        ref = scipy_reference(system)
        rep = sol.report
        assert (rep.accepted, rep.nfev, rep.njev, rep.nlu) == (
            ref.t.size - 1, ref.nfev, ref.njev, ref.nlu
        )
        assert np.max(np.abs(sol.step_times - ref.t)) <= 1e-6 * sol.t_end
        grid = np.linspace(sol.t_start, sol.t_end, 97)
        ref_values = ref.sol(grid)
        assert np.max(np.abs(sol._cubic(grid) / ref_values.T - 1.0)) <= 1e-13

    def test_scales_of_one_are_the_unscaled_batch(self, models):
        args, kwargs = batch_two_site(models)
        plain = solve_branching_ode(*args, **kwargs)
        scaled = solve_branching_ode(*args, **kwargs, _scale=np.ones(4))
        assert bits(scaled.step_times) == bits(plain.step_times)
        grid = np.linspace(0.0, plain.t_end, 97)
        assert bits(scaled._cubic(grid)) == bits(plain._cubic(grid))
        assert scaled.report == plain.report

    def test_scaled_member_is_the_member_at_its_own_horizon(self, models):
        # member b on [0, T] with scale s_b is the unscaled member on [0, s_b T]
        args, kwargs = batch_two_site(models)
        A, kappa, gamma, u0, _ = args
        scale = np.array([0.01, 0.1, 0.5, 1.0])
        sol = solve_branching_ode(A, kappa, gamma, u0, (0.0, 20.0), _scale=scale, **kwargs)
        for b in range(4):
            alone = solve_branching_ode(A, kappa[b], gamma, u0[b], (0.0, 20.0 * scale[b]), **kwargs)
            assert np.max(np.abs(sol(20.0)[b] / alone(20.0 * scale[b]) - 1.0)) <= 1e-7

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_routines_match_scipy_wrappers(self, dtype, rng):
        a = rng.standard_normal((3, 3)).astype(dtype)
        b = rng.standard_normal(3).astype(dtype)
        if dtype is np.complex128:
            a += 1j * rng.standard_normal((3, 3))
            b += 1j * rng.standard_normal(3)
        lu = _ivp._getrf(a.copy())
        ref = lu_factor(a.copy(), overwrite_a=True)
        assert lu[0].tobytes() == ref[0].tobytes() and np.array_equal(lu[1], ref[1])
        x = _ivp._getrs(lu, b.copy())
        assert x.tobytes() == lu_solve(ref, b.copy(), overwrite_b=True).tobytes()

    def test_routines_keep_wrapper_errors_and_warning(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            _ivp._getrf(np.array([[1.0, np.nan], [0.0, 1.0]]))
        lu = _ivp._getrf(np.eye(2))
        with pytest.raises(ValueError, match="infs or NaNs"):
            _ivp._getrs(lu, np.array([np.inf, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", LinAlgWarning)
            with pytest.raises(LinAlgWarning, match="exactly zero"):
                _ivp._getrf(np.array([[1.0, 2.0], [2.0, 4.0]]))

    @pytest.mark.parametrize("engine", ["direct", "stock"])
    @pytest.mark.parametrize("bernoulli", [False, True], ids=["u", "z"])
    def test_nan_rtol_raises(self, engine, bernoulli, models, monkeypatch):
        system = capture_system(monkeypatch)
        with pytest.raises(ValueError):
            solve_branching_ode(
                *ode_args(models["two"]), [1.0, 2.0], (0.0, 1.0), rtol=np.nan, _bernoulli=bernoulli
            )
        if engine == "stock":
            with pytest.raises(ValueError):
                scipy_reference(system)


class TestStepHelpers:
    """The stepper's helpers give what the numpy calls they replace gave."""

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e200], ids=["random", "tiny", "huge"])
    def test_norm_is_numpy_norm(self, scale, rng):
        for n in (1, 2, 3, 21, 42):
            x = rng.standard_normal((3, n)) * scale
            with np.errstate(over="ignore"):  # the huge squares overflow in both
                assert bits([_ivp._norm(x)]) == bits([np.linalg.norm(x) / x.size ** 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_finite_raises_on_infs_and_nans(self, dtype, bad):
        a = np.ones((2, 3), dtype=dtype)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            _ivp._finite(a)
        if dtype is np.complex128:
            a[1, 2] = complex(1.0, bad)
            with pytest.raises(ValueError, match="infs or NaNs"):
                _ivp._finite(a)

    def test_finite_passes_entries_whose_sum_overflows(self):
        # the full scan passes them; numpy reports the sum's overflow
        with np.errstate(over="ignore"):
            _ivp._finite(np.array([1e308, 1e308]))
            _ivp._finite(np.array([1e308, 1e308]) * (1 + 1j))

    def test_predict_factor_of_a_zero_error_is_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _ivp._predict_factor(0.1, 0.2, 0.0, 0.5) == np.inf
            assert _ivp._predict_factor(0.1, None, 0.0, None) == np.inf


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__)
def test_step_times_bound_every_step(case, models):
    args, kwargs = case(models)
    sol = solve_branching_ode(*args, **kwargs)
    steps = sol.step_times
    assert steps.size == sol.report.accepted + 1 and np.all(np.diff(steps) > 0)
    assert (steps[0], steps[-1]) == (sol.t_start, sol.t_end)


@pytest.mark.parametrize("d", [None, 10, 40], ids=["three", "diffusion-10", "diffusion-40"])
def test_reading_depends_only_on_its_time(d, models):
    # a u run read at 2,000 times in one call, against each time read alone:
    # BLAS rounds a product over several times of one step otherwise than a
    # product over one, which moved single rows by an ulp
    model = models["three"] if d is None else reflecting_diffusion(d)
    curve = solve_cumulant(model, np.ones(model.d), [100.0], SolverOptions(rel_tol=1e-6))
    grid = np.linspace(50.0, 100.0, 2000)
    assert bits(curve.evaluate(grid)) == bits([curve.evaluate(t) for t in grid])


class _LoggedStepper(_ivp._RadauIIA):
    """The engine's stepper, logging each accepted step: (a Newton solve
    failed in it, its size, the size proposed next, it ended the solve)."""

    def solve_collocation_system(self, *args):
        out = super().solve_collocation_system(*args)
        self.failed |= not out[0]
        return out

    def step(self):
        t, self.failed = self.t, False
        super().step()
        self.log.append((self.failed, self.t - t, self.h_abs, self.t == self.t_bound))


class _ScipyStepLog:
    """The same log for scipy's Radau, whose collocation outcomes go to `failed`."""

    def _step_impl(self):
        t = self.t
        self.failed.clear()
        success, message = super()._step_impl()
        self.log.append((any(self.failed), self.t - t, self.h_abs, self.t == self.t_bound))
        return success, message


@pytest.fixture(scope="module")
def tight_extinction(models):
    """The returned extinction solve of each model at rel_tol 1e-11."""
    return {
        name: extinction_run(models[name], 5e-9, 1e6, SolverOptions(rel_tol=1e-11))
        for name in ("two", "three")
    }


class TestStepRule:
    """RADAU5's rule: a step accepted after a rejection is not followed by a
    larger one (Hairer & Wanner, Solving ODEs II, section IV.8)."""

    def test_no_growth_after_a_newton_failure(self, models, monkeypatch):
        logger = type("_Logged", (_LoggedStepper,), {"log": []})
        monkeypatch.setattr(_ivp, "_RadauIIA", logger)
        args, kwargs = extinction_two_site(models)
        solve_branching_ode(*args, **kwargs)
        after_failure = [(taken, proposed) for failed, taken, proposed, last in logger.log
                         if failed and not last]
        assert len(after_failure) > 100
        assert all(proposed <= taken for taken, proposed in after_failure)

    def test_stock_radau_grows_again(self, models, monkeypatch):
        # what the rule takes away: scipy proposes a larger step straight after
        # a step that a Newton failure cut
        failed = []
        solve = radau.solve_collocation_system

        def counted(*args, **kwargs):
            out = solve(*args, **kwargs)
            failed.append(not out[0])
            return out

        system = capture_system(monkeypatch)
        args, kwargs = extinction_two_site(models)
        solve_branching_ode(*args, **kwargs)
        monkeypatch.setattr(radau, "solve_collocation_system", counted)
        logger = type("_Logged", (_ScipyStepLog,), {"log": [], "failed": failed})
        scipy_reference(system, mixins=(logger,))
        assert sum(proposed > taken for failed, taken, proposed, last in logger.log if failed) > 100

    @pytest.mark.parametrize("rel_tol", [1e-7, 1e-8])
    @pytest.mark.parametrize("name", ["two", "three"])
    def test_returned_extinction_solve_within_rel_tol(self, models, tight_extinction, name,
                                                       rel_tol):
        # the stated tolerance is the error the caller gets: solve_extinction's
        # returned run against a 1e-11 run, relative, from 1e-7 to 1e6
        model = models[name]
        grid = np.geomspace(1e-7, 1e6, 40)
        sol = extinction_run(model, 5e-9, 1e6, SolverOptions(rel_tol=rel_tol))
        err = np.max(np.abs(sol(grid) / tight_extinction[name](grid) - 1.0))
        assert err <= rel_tol


class TestExtinctionAccuracy:
    """The error a caller of solve_extinction gets, its warm start included:
    the returned curve against a 1e-11 run from 5e-9, relative, on 2,000
    geometric points over [times[0], T].  On the close-index and diffusion
    models the certified bound does not follow the t0^2 law that
    _warm_start_time assumes."""

    CASES = [
        ("two", [1.0], 1e-8),
        ("two", np.geomspace(1e3, 1e6, 25), 1e-7),
        ("three", np.geomspace(1e3, 1e6, 25), 1e-7),
        ("close", [1.0], 1e-8),
        ("diffusion", [1.0], 1e-8),
    ]

    @pytest.mark.parametrize("name,times,rel_tol", CASES)
    def test_solve_extinction_within_rel_tol(self, models, tight_extinction, name, times,
                                             rel_tol):
        model, T = models[name], times[-1]
        if T == 1e6:  # the runs tight_extinction holds
            reference = tight_extinction[name]
        else:
            reference = extinction_run(model, 5e-9, T, SolverOptions(rel_tol=1e-11))
        curve = solve_extinction(model, times, SolverOptions(rel_tol=rel_tol))
        grid = np.geomspace(times[0], T, 2000)
        err = np.max(np.abs(curve.evaluate(grid) / reference(grid) - 1.0))
        assert err <= rel_tol

    @pytest.mark.parametrize("rel_tol", [1e-7, 1e-8])
    @pytest.mark.parametrize("name", ["two", "three"])
    def test_between_the_stages(self, models, tight_extinction, name, rel_tol):
        # the returned run at 9 points inside each of its steps from 1e-7 to
        # 1e6; scipy's cubic in z read up to 3.2 rel_tol there on three sites
        sol = extinction_run(models[name], 5e-9, 1e6, SolverOptions(rel_tol=rel_tol))
        ends = sol.step_times[sol.step_times >= 1e-7]
        grid = (ends[:-1, None] + np.diff(ends)[:, None] * np.linspace(0.1, 0.9, 9)).ravel()
        err = np.max(np.abs(sol(grid) / tight_extinction[name](grid) - 1.0))
        assert err <= rel_tol


class TestOdeGoldenDigests:
    """ODE outputs pinned bit for bit; recorded with the engine's Radau, scipy's
    under the no-growth-after-rejection rule (scipy 1.17.1, numpy 2.4.6).  Any
    change to the engine's arithmetic, the step control or the warm start shows
    here.  The Yaglom surface's digest was re-recorded when small batches went
    to dense blocks (its values moved by at most 7.8e-16 relative), and again
    when a Yaglom run from a positive f went to z (0.0022 rel_tol from a
    1e-13 run).  The four
    extinction digests were re-recorded when the warm start became the flow's
    quasi-steady balance, the run from t0 went and z runs took the log-log
    dense output.  test_digests_do_not_depend_on_blas_threads checks four of
    them, and the Feynman-Kac digest whose tables read a u run at many times
    per step, on 2 BLAS threads and on one (`taskset -c 0` or
    OPENBLAS_NUM_THREADS=1).  OpenBLAS zgetrs returns other bits on one
    thread, and the weighted-norm run meets them: its digest holds on the
    default threads only."""

    def test_digests_do_not_depend_on_blas_threads(self):
        # OpenBLAS reads its thread count when it loads, so each setting runs
        # five digest tests in a fresh process: one thread, and the library's
        # default (one per CPU)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.dirname(os.path.dirname(_ivp.__file__))
        cases = [
            f"tests/test_ivp.py::TestOdeGoldenDigests::{case}"
            for case in ("test_two_site_extinction", "test_three_site_survival",
                         "test_two_site_live_share_grid", "test_two_site_yaglom_surface")
        ] + ["tests/test_spine.py::TestGoldenDigests::test_default_nodes"]
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *cases],
                capture_output=True, text=True, timeout=300, env=env, cwd=root,
            )
            assert proc.returncode == 0, (threads, proc.stdout[-2000:])
            assert "5 passed" in proc.stdout, (threads, proc.stdout[-2000:])

    def test_two_site_extinction(self, two_site_model):
        curve = solve_extinction(two_site_model, [1.0], SolverOptions(rel_tol=1e-8))
        assert digest(curve.values) == (
            "3fab8c0ea3992b23f028ce975b8874c77322fb26818b33fd8f8f99cd09d72c0d"
        )

    def test_two_site_weighted_norm(self, two_site_model):
        values = weighted_extinction_norm(
            two_site_model, np.geomspace(1e3, 1e6, 25), SolverOptions(rel_tol=1e-7)
        )
        assert digest(values) == (
            "107a889dfa59e4aa2ec3876fc79b7dcbc5fcc96f2d6f8e5a5ef618f52066b36a"
        )

    def test_three_site_survival(self, three_site_model):
        # the three-site preset's survival spec: its mu and times grid at 1e-7
        table = kolmogorov_table(
            three_site_model, [0.4, 0.3, 0.3], np.geomspace(1e3, 1e5, 9),
            SolverOptions(rel_tol=1e-7),
        )
        assert digest(table.normalized) == (
            "fd26817627140928bbb562de75ed2598bce3209f4c86b7b84c8b6dfe1232170b"
        )

    def test_two_site_live_share_grid(self, two_site_model):
        # the benchmark's live-share grid: a grid from 1e-7 keeps t0 = 1e-8,
        # and its bits, from before t0 came from _warm_start_time
        curve = solve_extinction(
            two_site_model, np.geomspace(1e-7, 1.0, 2001), SolverOptions(rel_tol=1e-6)
        )
        assert curve.t_start == 5e-9
        assert digest(curve.values) == (
            "6cc265eda6eb3cf5f8e50a03c21f5d9af91506aca6242e758e1cb011105b9c5c"
        )

    def test_two_site_yaglom_surface(self, two_site_model):
        # 21 thetas in one batch in z: the dense-block path
        table = yaglom_table(
            two_site_model, normalized_ones(two_site_model), np.geomspace(0.1, 10.0, 21),
            1e3, SolverOptions(rel_tol=1e-7),
        )
        assert digest(table.surface) == (
            "c9bb0ba718444bb6136d5efd3fc27d248369c1e42128852cd82539924f84cfc5"
        )
