import numpy as np
import pytest

from stablebranch import limitlaw
from stablebranch.limitlaw import (
    DelayEquationProblem,
    ZolotarevLaw,
    g_closed,
    laplace,
    mean_diagnostic,
    solve_delay_equation,
)
from stablebranch.model import ArgumentError


class TestLaplace:
    def test_alpha_one_is_unit_mean_exponential(self):
        law = ZolotarevLaw(alpha=1.0)
        for u in (0.0, 0.3, 1.0, 10.0):
            assert laplace(law, u) == pytest.approx(1.0 / (1.0 + u), rel=1e-14)

    def test_total_mass_at_zero(self):
        assert laplace(ZolotarevLaw(alpha=0.3), 0.0) == 1.0

    def test_half_point(self):
        assert laplace(ZolotarevLaw(alpha=0.5), 1.0) == pytest.approx(0.75, rel=1e-14)

    def test_strictly_decreasing(self):
        law = ZolotarevLaw(alpha=0.4)
        u = np.linspace(0.0, 50.0, 2001)
        assert np.all(np.diff(laplace(law, u)) < 0)

    def test_complement_stable_at_tiny_u(self):
        # 1 - laplace(u) for alpha = 0.2 is g_closed at gamma0 = 1.2
        val = g_closed(1.2, 1e-20)
        # complement ~ u * (1 - u^alpha/alpha) near 0: positive and tiny
        assert 0 < val < 1e-19
        assert val == pytest.approx(1e-20 * np.exp(-np.log1p(1e-4) / 0.2), rel=1e-12)

    def test_alpha_range(self):
        for bad in (0.0, 1.2, -0.5):
            with pytest.raises(ValueError):
                ZolotarevLaw(alpha=bad)

    def test_complete_monotonicity_spot_check(self):
        law = ZolotarevLaw(alpha=0.6)
        u = np.linspace(0.5, 8.0, 401)
        vals = laplace(law, u)
        d1 = np.diff(vals)
        d2 = np.diff(d1)
        d3 = np.diff(d2)
        assert np.all(d1 < 0)
        assert np.all(d2 > 0)
        assert np.all(d3 < 0)


class TestGClosed:
    def test_half_value(self):
        assert g_closed(1.5, 1.0) == pytest.approx(0.25, rel=1e-14)

    def test_boundary_zero(self):
        assert g_closed(1.7, 0.0) == 0.0

    def test_limit_one(self):
        # (1 + theta^-0.5)^-2 = 1 - 2 theta^-0.5 + O(theta^-1)
        assert abs(g_closed(1.5, 1e8) - 1.0) < 2.1e-4
        assert abs(g_closed(1.5, 1e13) - 1.0) < 1e-6

    def test_strictly_increasing(self):
        th = np.linspace(0.0, 30.0, 1501)
        assert np.all(np.diff(g_closed(1.3, th)) > 0)

    @pytest.mark.parametrize("gamma0", [1.2, 1.5, 1.8])
    def test_complementarity_identity(self, gamma0):
        th = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 1000)])
        law = ZolotarevLaw(alpha=gamma0 - 1.0)
        total = g_closed(gamma0, th) + laplace(law, th)
        assert np.abs(total - 1.0).max() <= 1e-14


class TestDelayEquation:
    @pytest.mark.parametrize("a,sup_tol", [(1.5, 1e-8), (1.2, 1e-7), (1.8, 1e-7)])
    def test_against_closed_form(self, a, sup_tol):
        grid = np.round(np.arange(0.0, 10.0001, 0.01), 10)
        sol = solve_delay_equation(DelayEquationProblem(a=a, theta_grid=grid, tol=1e-10))
        err = np.abs(sol.values - g_closed(a, grid))
        assert err.max() <= sup_tol

    def test_point_value(self):
        grid = np.round(np.arange(0.0, 2.0001, 0.01), 10)
        sol = solve_delay_equation(DelayEquationProblem(a=1.5, theta_grid=grid, tol=1e-10))
        i = int(np.argmin(np.abs(grid - 1.0)))
        assert sol.values[i] == pytest.approx(0.25, abs=1e-8)

    def test_dominated_by_identity(self):
        grid = np.round(np.arange(0.0, 10.0001, 0.01), 10)
        sol = solve_delay_equation(DelayEquationProblem(a=1.3, theta_grid=grid, tol=1e-10))
        assert np.all(sol.values <= grid + 1e-12)
        assert np.all(sol.values >= 0.0)

    def test_contraction_geometric_beyond_five(self):
        grid = np.round(np.arange(0.0, 10.0001, 0.01), 10)
        sol = solve_delay_equation(DelayEquationProblem(a=1.5, theta_grid=grid, tol=1e-12))
        changes = sol.sup_changes
        assert len(changes) > 6
        ratios = changes[6:] / changes[5:-1]
        assert ratios.max() < 0.5

    def test_inner_integrand_regularity(self):
        # G(r u^(1/(a-1)))^(a-1) / u at u = 1e-8 must approach r^(a-1)
        a = 1.6
        u = 1e-8
        r = np.array([0.5, 1.0, 3.0])
        tiny = r * u ** (1.0 / (a - 1.0))
        grid = np.round(np.arange(0.0, 5.0001, 0.005), 10)
        grid = np.concatenate([[0.0], tiny, grid[1:]])  # the thetas wanted join the grid
        sol = solve_delay_equation(DelayEquationProblem(a=a, theta_grid=grid, tol=1e-10))
        val = sol.values[1:4] ** (a - 1.0) / u
        np.testing.assert_allclose(val, r ** (a - 1.0), rtol=1e-6)

    def test_values_independent_of_other_thetas(self):
        # the quadrature grid depends on the last theta alone, so adding
        # thetas between the nodes leaves the value at every node unchanged
        grid = np.round(np.arange(0.0, 3.0001, 0.01), 10)
        fine = np.round(np.arange(0.0, 3.0001, 0.0025), 10)
        coarse = solve_delay_equation(DelayEquationProblem(a=1.4, theta_grid=grid, tol=1e-10))
        both = solve_delay_equation(DelayEquationProblem(a=1.4, theta_grid=fine, tol=1e-10))
        assert np.array_equal(both.values[::4], coarse.values)

    def test_bad_problems_rejected(self):
        with pytest.raises(ValueError):
            DelayEquationProblem(a=2.5, theta_grid=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            DelayEquationProblem(a=1.5, theta_grid=np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            DelayEquationProblem(a=1.5, theta_grid=np.array([0.0, 1.0]), tol=0.0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"a": np.nan}, "a"), ({"tol": np.nan}, "tol"), ({"tol": np.inf}, "tol"),
         ({"tol": -1.0}, "tol"), ({"theta_grid": np.array([0.0, 1.0, 1.0])}, "theta_grid")],
        ids=["a-nan", "tol-nan", "tol-inf", "tol-negative", "grid-repeated"],
    )
    def test_bad_argument_named(self, kwargs, name):
        # a NaN tol used to run the Picard cap out before failing
        args = {"a": 1.5, "theta_grid": np.array([0.0, 1.0]), **kwargs}
        with pytest.raises(ArgumentError) as info:
            DelayEquationProblem(**args)
        assert info.value.name == name


class TestMeanDiagnostic:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 1.0, 0.05, 0.85])
    def test_unit_mean_contract(self, alpha):
        assert mean_diagnostic(ZolotarevLaw(alpha)) == pytest.approx(1.0, abs=1e-3)

    def test_exponential_case_tight(self):
        assert mean_diagnostic(ZolotarevLaw(1.0)) == pytest.approx(1.0, abs=1e-6)

    def test_reads_the_code_g_closed_runs(self, monkeypatch):
        # a 1% error in the complement g_closed evaluates must show in the check
        complement = limitlaw._stable_complement
        monkeypatch.setattr(
            limitlaw, "_stable_complement", lambda alpha, u: 1.01 * complement(alpha, u)
        )
        assert abs(g_closed(1.5, 1.0) - 0.2525) < 1e-12
        for alpha in (0.2, 0.5, 1.0):
            assert abs(mean_diagnostic(ZolotarevLaw(alpha)) - 1.0) > 5e-3
