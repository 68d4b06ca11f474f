import numpy as np
import pytest

from stablebranch.limitlaw import DelayEquationProblem, g_closed, solve_delay_equation
from stablebranch.model import ArgumentError


def transform(alpha, u):
    """E exp(-u Z) for the law of index alpha: 1 - G with G = g_closed(alpha + 1, u)."""
    return 1.0 - g_closed(alpha + 1.0, u)


class TestLaplace:
    """The law's Laplace transform, read through its complement g_closed."""

    def test_total_mass_at_zero(self):
        assert transform(0.3, 0.0) == 1.0

    def test_half_point(self):
        assert transform(0.5, 1.0) == pytest.approx(0.75, rel=1e-14)

    def test_strictly_decreasing(self):
        u = np.linspace(0.0, 50.0, 2001)
        assert np.all(np.diff(transform(0.4, u)) < 0)

    def test_complement_stable_at_tiny_u(self):
        # 1 - transform(0.2, u) is g_closed at gamma0 = 1.2
        val = g_closed(1.2, 1e-20)
        # complement ~ u * (1 - u^alpha/alpha) near 0: positive and tiny
        assert 0 < val < 1e-19
        assert val == pytest.approx(1e-20 * np.exp(-np.log1p(1e-4) / 0.2), rel=1e-12)

    def test_alpha_range(self):
        # alpha = 1 is gamma0 = 2, which no model reaches
        for bad in (0.0, 1.0, 1.2, -0.5):
            with pytest.raises(ArgumentError) as info:
                transform(bad, 1.0)
            assert info.value.name == "gamma0"

    def test_complete_monotonicity_spot_check(self):
        # the transform's differences alternate -, +, -; its complement's +, -, +
        u = np.linspace(0.5, 8.0, 401)
        d1 = np.diff(g_closed(1.6, u))
        d2 = np.diff(d1)
        d3 = np.diff(d2)
        assert np.all(d1 > 0)
        assert np.all(d2 < 0)
        assert np.all(d3 > 0)


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
        a = gamma0 - 1.0
        with np.errstate(divide="ignore"):
            textbook = 1.0 - (1.0 + th**-a) ** (-1.0 / a)  # E exp(-theta Z), 1 at 0
        assert np.abs(g_closed(gamma0, th) + textbook - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("gamma0", [1.05, 1.2, 1.5, 1.8, 1.95])
    def test_at_most_one(self, gamma0):
        # the complement of a Laplace transform; it reads exactly 1 once
        # theta^-a / a, its distance from 1 to first order, is below half an ulp
        th = np.geomspace(1.0, 1.7e308, 2001)
        g = g_closed(gamma0, th)
        assert np.all(g <= 1.0)
        a = gamma0 - 1.0
        assert np.all(g[th**-a / a < 1e-17] == 1.0)

    def test_gamma0_nan_named(self):
        with pytest.raises(ArgumentError) as info:
            g_closed(np.nan, 1.0)
        assert info.value.name == "gamma0"


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
         ({"tol": -1.0}, "tol"), ({"theta_grid": np.array([0.0, 1.0, 1.0])}, "theta_grid"),
         ({"theta_grid": np.array([0.0, 1.0, np.inf])}, "theta_grid")],
        ids=["a-nan", "tol-nan", "tol-inf", "tol-negative", "grid-repeated", "grid-inf"],
    )
    def test_bad_argument_named(self, kwargs, name):
        # a NaN tol or an infinite theta would run the Picard cap out on NaN
        args = {"a": 1.5, "theta_grid": np.array([0.0, 1.0]), **kwargs}
        with pytest.raises(ArgumentError) as info:
            DelayEquationProblem(**args)
        assert info.value.name == name


class TestMeanDiagnostic:
    """The law's unit mean: G(theta)/theta -> 1 as theta -> 0, read off g_closed
    at theta^alpha = 1e-8, where it is 1 - 1e-8/alpha to first order."""

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.05, 0.85])
    def test_unit_mean_contract(self, alpha):
        theta = 1e-8 ** (1.0 / alpha)
        mean = g_closed(alpha + 1.0, theta) / theta
        assert mean == pytest.approx(1.0, abs=1e-3)
        assert mean == pytest.approx(1.0 - 1e-8 / alpha, rel=1e-12)
