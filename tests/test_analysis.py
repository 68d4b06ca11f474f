import hashlib
import warnings

import numpy as np
import pytest

from stablebranch.analysis import (
    kolmogorov_table,
    rv_index_fit,
    yaglom_table,
    yaglom_tables,
)
from stablebranch.cumulant import SolverOptions, solve_extinction
from stablebranch.model import ArgumentError, eta

from conftest import no_solver, normalized_ones


class TestRVFit:
    def test_exact_power_law(self):
        t = np.geomspace(1.0, 1e4, 40)
        est = rv_index_fit(t, 3.7 * t**-2.0)
        assert est.slope == pytest.approx(-2.0, abs=1e-12)
        assert est.stderr <= 1e-12
        assert est.point_count >= 3

    def test_scalar_extinction_slope(self, scalar_model):
        from stablebranch.cumulant import weighted_extinction_norm

        t = np.geomspace(1e2, 1e5, 31)
        vals = weighted_extinction_norm(scalar_model, t)
        est = rv_index_fit(t, vals)
        assert est.slope == pytest.approx(-2.0, abs=1e-6)

    def test_window_default_top_two_decades(self):
        t = np.geomspace(1.0, 1e4, 41)
        vals = t**-1.0
        est = rv_index_fit(t, vals)
        assert est.window == (1e2, 1e4)
        assert est.point_count == int(np.sum(t >= 1e2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rv_index_fit(np.array([1.0, 2.0, 3.0]), np.array([1.0, -1.0, 0.5]))

    @pytest.mark.parametrize(
        "times",
        [[1e3, 1e4, np.nan, 1e5, 1e6], [1e3, 1e4, 1e4, 1e5, 1e6], [1e3, 1e5, 1e4, 1e6, 1e7]],
        ids=["nan", "repeated", "unsorted"],
    )
    def test_time_grid_rules_are_the_solvers(self, times):
        # a NaN time used to be dropped from the fit
        with pytest.raises(ArgumentError) as info:
            rv_index_fit(times, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert info.value.name == "times"

    def test_short_window_names_times(self):
        with pytest.raises(ArgumentError, match="fit window") as info:
            rv_index_fit([1e3, 1e4], [1.0, 0.5])
        assert info.value.name == "times"


class TestKolmogorovTable:
    def test_scalar_ratio_values(self, scalar_model):
        table = kolmogorov_table(scalar_model, np.array([1.0]), np.array([1.0, 100.0]))
        # eta = v for the scalar homogeneous case
        assert table.normalized[0] == pytest.approx((1 - np.exp(-4.0)) / 4.0, rel=1e-7)
        assert table.normalized[0] == pytest.approx(0.24542, abs=5e-6)
        assert table.normalized[1] == pytest.approx(0.99980, abs=5e-6)
        assert table.target == pytest.approx(1.0)

    @pytest.mark.parametrize("mu", [[np.nan, 0.5], [np.inf, 0.5]], ids=["nan", "inf"])
    def test_non_finite_start_rejected(self, two_site_model, mu):
        # a NaN entry used to give a table of NaN
        with pytest.raises(ValueError, match="non-finite"):
            kolmogorov_table(two_site_model, mu, np.array([1.0, 10.0]))

    def test_linear_in_mass(self, scalar_model):
        t = np.array([2.0, 20.0])
        base = kolmogorov_table(scalar_model, np.array([1e-6]), t)
        scaled = kolmogorov_table(scalar_model, np.array([3e-6]), t)
        # for masses this small the survival is linear in mu
        assert np.allclose(scaled.normalized, 3.0 * base.normalized, rtol=1e-5)
        assert scaled.target == pytest.approx(3.0 * base.target, rel=1e-12)

    def test_cross_check_composition(self, scalar_model):
        mu = np.array([0.7])
        t = 3.0
        table = kolmogorov_table(scalar_model, mu, np.array([t, 2 * t]))
        # 1 - exp(-<mu, v_t>) from a solve at t alone
        mu_v = solve_extinction(scalar_model, [t]).values[0] @ (mu * scalar_model.m)
        direct = -np.expm1(-mu_v) / eta(scalar_model, t)
        assert table.normalized[0] == pytest.approx(direct, rel=1e-9)

    def test_three_site_convergence(self, three_site_model, loose_opts):
        mu = np.array([0.4, 0.3, 0.3])
        table = kolmogorov_table(
            three_site_model, mu, np.array([1e3, 1e4, 1e5]), loose_opts
        )
        devs = np.abs(table.ratio - 1.0)
        assert np.all(np.diff(devs) < 0)
        assert devs[-1] <= 0.05
        assert table.monotone


class TestYaglomTable:
    def test_scalar_anchor(self, scalar_model):
        f = normalized_ones(scalar_model)
        thetas = np.concatenate([[0.0], np.geomspace(0.1, 10.0, 15)])
        for T in (1.0, 50.0):
            table = yaglom_table(scalar_model, f, thetas, T)
            assert table.sup_error.max() <= 1e-9
            assert table.sup_error[0] == 0.0  # theta = 0 row

    def test_two_site_trend(self, two_site_model, loose_opts):
        f = normalized_ones(two_site_model)
        thetas = np.geomspace(0.1, 10.0, 15)
        sups = [
            yaglom_table(two_site_model, f, thetas, T, loose_opts).sup_error.max()
            for T in (1e2, 1e3)
        ]
        assert sups[1] < sups[0]


class TestYaglomTables:
    """Every horizon in one batched solve, on time rescaled to the longest."""

    THETAS = np.geomspace(0.1, 10.0, 21)

    @pytest.mark.parametrize("rel_tol", [1e-7, 1e-10])
    @pytest.mark.parametrize("name", ["two", "three"])
    def test_one_index_surface_is_the_limit_at_every_horizon(self, one_index_models, name,
                                                             rel_tol):
        # from f = phi the surface equals g_closed at every T, not only in the
        # limit; the run is in z, where this flow is linear, and read 1e-4
        # rel_tol at most (0.027 and 0.0077 in w)
        model = one_index_models[name]
        tables = yaglom_tables(model, model.phi, self.THETAS, [1.0, 10.0, 100.0],
                               SolverOptions(rel_tol=rel_tol))
        assert len(tables) == 3
        for table in tables:
            assert table.solver_report is tables[0].solver_report
            assert np.max(np.abs(table.surface / table.limit[:, None] - 1.0)) <= 0.1 * rel_tol

    def test_scalar_exact_at_every_horizon(self, scalar_model):
        f = normalized_ones(scalar_model)
        thetas = np.concatenate([[0.0], self.THETAS])
        tables = yaglom_tables(scalar_model, f, thetas, [1.0, 10.0, 100.0])
        for table in tables:
            assert table.sup_error.max() <= 10.0 * SolverOptions().rel_tol
            assert table.sup_error[0] == 0.0  # theta = 0 row

    @pytest.mark.parametrize("T", [1e-9, 1e-6])
    def test_one_step_run_from_zero_read_at_its_end(self, scalar_model, T):
        # the run in z is one step from s = 0, where log s is unbounded: the
        # surface is read on z's cubic, quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = yaglom_table(scalar_model, normalized_ones(scalar_model), [1.0], T)
        assert (table.solver_report.variable, table.solver_report.accepted) == ("z", 1)
        assert table.sup_error.max() <= 10.0 * SolverOptions().rel_tol

    def test_field_with_a_zero_site_stays_in_u(self, two_site_model):
        # z = w^(1-gamma0) is infinite at a zero site at s = 0: the run is the
        # u run of before z, bit for bit
        f = np.array([1.0, 0.0]) / two_site_model.inner_m([1.0, 0.0], two_site_model.phi_star)
        tables = yaglom_tables(two_site_model, f, self.THETAS, [1e2, 1e3],
                               SolverOptions(rel_tol=1e-7))
        assert tables[0].solver_report.variable == "u"
        surfaces = np.ascontiguousarray([t.surface for t in tables], dtype="<f8")
        assert hashlib.sha256(surfaces.tobytes()).hexdigest() == (
            "08188f50de925cedb82fbc6f0bbb51e1e81ef80787fa88f2179ba019b2c38fb3"
        )

    @pytest.mark.parametrize("name, horizons, rel_tol", [
        ("scalar", [1.0, 10.0, 100.0], 1e-10),
        ("two", [1e2, 1e3, 1e4], 1e-7),
        ("three", [1e2, 1e3, 1e4], 1e-7),
    ])
    def test_within_rel_tol_of_one_solve_per_horizon(self, scalar_model, two_site_model,
                                                     three_site_model, name, horizons, rel_tol):
        model = {"scalar": scalar_model, "two": two_site_model, "three": three_site_model}[name]
        f, opts = normalized_ones(model), SolverOptions(rel_tol=rel_tol)
        tables = yaglom_tables(model, f, self.THETAS, horizons, opts)
        singles = [yaglom_table(model, f, self.THETAS, T, opts) for T in horizons]
        for table, single in zip(tables, singles):
            assert np.max(np.abs(table.surface / single.surface - 1.0)) <= rel_tol
        # the one run takes fewer steps than the three
        assert tables[0].solver_report.accepted < sum(t.solver_report.accepted for t in singles)

    @pytest.mark.parametrize("horizons", [[], [1.0, np.inf], [np.nan], [10.0, 0.0],
                                          [[1.0, 2.0]]])
    def test_bad_horizons_refused_before_any_solve(self, two_site_model, horizons, monkeypatch):
        no_solver(monkeypatch)
        with pytest.raises(ArgumentError) as err:
            yaglom_tables(two_site_model, normalized_ones(two_site_model), [1.0], horizons)
        assert err.value.name == "horizon"
