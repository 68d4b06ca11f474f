import json
import pickle

import numpy as np
import pytest
import scipy.linalg

import stablebranch.model as model_mod
from stablebranch.analysis import rv_index_fit
from stablebranch.limitlaw import g_closed
from stablebranch.model import (
    ArgumentError,
    BranchingMechanism,
    EigenData,
    MotionGenerator,
    ReducibleMatrixError,
    StateSpace,
    build_feynman_kac_matrix,
    calibrate_critical,
    eta,
    model_hash,
    model_to_dict,
    principal_eigen,
    read_model,
    save_calibrated_model,
    semigroup_apply,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def make_motion(Q, m=None):
    Q = np.asarray(Q, dtype=float)
    return MotionGenerator(space=StateSpace(d=Q.shape[0], m=m), Q=Q)


class TestBuildMatrix:
    def test_zero_shift(self):
        motion = make_motion([[-1.0, 1.0], [1.0, -1.0]])
        mech = BranchingMechanism(beta=[0.0, 0.0], kappa=[1.0, 1.0], gamma=[1.5, 1.5])
        assert np.array_equal(
            build_feynman_kac_matrix(motion, mech), [[-1.0, 1.0], [1.0, -1.0]]
        )

    def test_diagonal_addition(self):
        motion = make_motion([[-1.0, 1.0], [1.0, -1.0]])
        mech = BranchingMechanism(beta=[0.5, -0.5], kappa=[1.0, 1.0], gamma=[1.5, 1.5])
        assert np.allclose(
            build_feynman_kac_matrix(motion, mech), [[-0.5, 1.0], [1.0, -1.5]]
        )

    def test_scalar(self):
        motion = make_motion([[0.0]])
        mech = BranchingMechanism(beta=[-2.0], kappa=[1.0], gamma=[1.5])
        assert np.array_equal(build_feynman_kac_matrix(motion, mech), [[-2.0]])

    def test_dimension_mismatch(self):
        motion = make_motion([[-1.0, 1.0], [1.0, -1.0]])
        mech = BranchingMechanism(beta=[0.0], kappa=[1.0], gamma=[1.5])
        with pytest.raises(ValueError, match="mismatch"):
            build_feynman_kac_matrix(motion, mech)


class TestValidation:
    def test_negative_off_diagonal(self):
        with pytest.raises(ValueError, match="off-diagonal"):
            make_motion([[-1.0, -0.1], [1.0, -1.0]])

    def test_positive_row_sum(self):
        with pytest.raises(ValueError, match="row sums"):
            make_motion([[0.5, 1.0], [1.0, -1.0]])

    def test_killing_rows_allowed(self):
        motion = make_motion([[-2.0, 1.0], [1.0, -1.0]])  # row 0 loses mass
        assert motion.Q[0].sum() == -1.0

    def test_reducible_rejected(self):
        with pytest.raises(ReducibleMatrixError):
            make_motion([[-1.0, 0.0], [0.0, -1.0]])

    def test_gamma_range(self):
        for bad in (1.0, 2.0, 0.5, 2.5):
            with pytest.raises(ValueError):
                BranchingMechanism(beta=[0.0], kappa=[1.0], gamma=[bad])

    def test_kappa_positive(self):
        with pytest.raises(ValueError):
            BranchingMechanism(beta=[0.0], kappa=[0.0], gamma=[1.5])

    def test_state_space_weights(self):
        with pytest.raises(ValueError):
            StateSpace(d=2, m=[1.0, 0.0])

    @pytest.mark.parametrize("d", [2.5, True, "3", 0, None])
    def test_state_space_count_not_truncated(self, d):
        # a count is an integer, never a truncated 2.5, True or "3"
        with pytest.raises(ArgumentError, match="^d must be") as info:
            StateSpace(d=d)
        assert info.value.name == "d"

    def test_state_space_takes_numpy_integer(self):
        space = StateSpace(d=np.int64(3))
        assert type(space.d) is int and space.d == 3 and space.m.tolist() == [1.0] * 3

    def test_argument_error_names_argument_and_pickles(self):
        with pytest.raises(ArgumentError) as info:
            StateSpace(d=2, m=[1.0, np.nan])
        assert (info.value.name, str(info.value)) == ("m", "m contains non-finite entries")
        copy = pickle.loads(pickle.dumps(info.value))
        assert (type(copy), copy.args) == (ArgumentError, info.value.args)
        assert isinstance(copy, ValueError)

    def test_eigendata_positivity(self):
        with pytest.raises(ValueError):
            EigenData(lam=0.0, phi=[1.0, -1.0], phi_star=[1.0, 1.0])


class TestPrincipalEigen:
    def test_symmetric_two_site(self):
        eig = principal_eigen(np.array([[-1.0, 1.0], [1.0, -1.0]]), np.ones(2))
        assert abs(eig.lam) < 1e-12
        assert np.allclose(eig.phi, INV_SQRT2, atol=1e-12)
        assert np.allclose(eig.phi_star, INV_SQRT2, atol=1e-12)

    def test_scalar(self):
        eig = principal_eigen(np.array([[-3.7]]), np.ones(1))
        assert eig.lam == pytest.approx(-3.7, abs=1e-14)
        assert eig.phi[0] == pytest.approx(1.0)
        assert eig.phi_star[0] == pytest.approx(1.0)

    def test_random_metzler_against_full_spectrum(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            A = rng.uniform(0.1, 2.0, (4, 4))
            np.fill_diagonal(A, rng.uniform(-3.0, 0.0, 4))
            m = rng.uniform(0.5, 2.0, 4)
            eig = principal_eigen(A, m)
            brute = np.linalg.eigvals(A).real.max()
            assert abs(eig.lam - brute) <= 1e-10
            # normalization identities
            assert np.sum(eig.phi**2 * m) == pytest.approx(1.0, abs=1e-12)
            assert np.sum(eig.phi * eig.phi_star * m) == pytest.approx(1.0, abs=1e-12)
            # eigen residuals
            assert np.allclose(A @ eig.phi, eig.lam * eig.phi, atol=1e-9)
            assert np.allclose(
                A.T @ (m * eig.phi_star), eig.lam * (m * eig.phi_star), atol=1e-9
            )

    def test_near_orthogonality_warning(self, monkeypatch):
        monkeypatch.setattr(model_mod, "NEAR_ORTHOGONAL_WARN", 2.0)
        with pytest.warns(RuntimeWarning, match="nearly m-orthogonal"):
            principal_eigen(np.array([[-1.0, 1.0], [1.0, -1.0]]), np.ones(2))


class TestCalibration:
    def test_uniform_shift_cancels(self):
        motion = make_motion([[-1.0, 1.0], [1.0, -1.0]])
        mech = BranchingMechanism(beta=[0.3, 0.3], kappa=[1.0, 1.0], gamma=[1.5, 1.5])
        model = calibrate_critical(motion, mech)
        assert np.allclose(model.mechanism.beta, 0.0, atol=1e-13)
        assert abs(model.eigen.lam) <= 1e-12

    def test_scalar_perron_data(self):
        motion = make_motion([[0.0]])
        mech = BranchingMechanism(beta=[1.7], kappa=[1.0], gamma=[1.5])
        model = calibrate_critical(motion, mech)
        assert model.mechanism.beta[0] == pytest.approx(0.0, abs=1e-14)
        assert model.phi[0] == pytest.approx(1.0)
        assert model.phi_star[0] == pytest.approx(1.0)
        assert model.c_x == pytest.approx(1.0)

    def test_two_site_front_constant(self, two_site_model):
        # only the gamma = 1.2 site counts: C_X = (2^-1/2)^1.2 * 2^-1/2 = 2^-1.1
        assert two_site_model.gamma0 == pytest.approx(1.2)
        assert two_site_model.c_x == pytest.approx(2.0**-1.1, rel=1e-12)

    def test_gamma_tie_includes_all_minimal_sites(self, three_site_model):
        m = three_site_model
        tied = m.mechanism.gamma <= m.gamma0 + 1e-12
        expected = float(
            np.sum(
                m.mechanism.kappa[tied]
                * m.phi[tied] ** m.gamma0
                * m.phi_star[tied]
                * m.m[tied]
            )
        )
        assert m.c_x == pytest.approx(expected, rel=1e-14)
        assert m.c_x > 0

    def test_slowly_mixing_chain_calibrates(self, tmp_path):
        # 600-site nearest-neighbour chain under a weak cosine potential: |lambda_2 /
        # lambda_1| is close to 1, so power iteration would not converge here
        d = 600
        Q = np.diag(np.ones(d - 1), 1) + np.diag(np.ones(d - 1), -1)
        Q -= np.diag(Q.sum(axis=1))
        beta = 1e-3 * np.cos(2 * np.pi * np.arange(d) / d)
        mech = BranchingMechanism(beta=beta, kappa=np.ones(d), gamma=np.full(d, 1.5))
        model = calibrate_critical(make_motion(Q), mech)
        assert abs(model.eigen.lam) <= 1e-12 * 2.0
        assert np.allclose(model.A @ model.phi, 0.0, atol=1e-12)
        path = tmp_path / "chain.json"
        save_calibrated_model(path, model)
        loaded, _ = read_model(path)
        assert np.array_equal(loaded.phi, model.phi) and loaded.c_x == model.c_x


class TestEta:
    def test_scalar_plugin(self, scalar_model):
        assert eta(scalar_model, 1.0) == pytest.approx(4.0, rel=1e-13)

    def test_unit_argument(self, scalar_model):
        t_unit = 1.0 / (scalar_model.c_x * (scalar_model.gamma0 - 1.0))
        assert eta(scalar_model, t_unit) == pytest.approx(1.0, rel=1e-13)

    def test_two_site_plugin(self, two_site_model):
        # C_X (gamma0-1) t = 2^-1.1 * 2 = 2^-0.1 at t = 10, so eta = 2^0.5
        assert eta(two_site_model, 10.0) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_scaling_identity(self, three_site_model):
        g1 = three_site_model.gamma0 - 1.0
        for u in (0.5, 2.0, 17.0):
            for t in (0.3, 4.0, 900.0):
                lhs = eta(three_site_model, u * t)
                rhs = u ** (-1.0 / g1) * eta(three_site_model, t)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_nonpositive(self, scalar_model):
        with pytest.raises(ValueError):
            eta(scalar_model, 0.0)


class TestReadersRefuse:
    """Public readers refuse NaN and out-of-range values with an ArgumentError
    naming the value; each of these rows returned 0.0, NaN or a NaN slope, or
    raised a bare ValueError."""

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda model: g_closed(1.5, np.nan), "theta"),
            (lambda model: g_closed(1.5, [0.5, np.inf]), "theta"),
            (lambda model: eta(model, np.nan), "t"),
            (lambda model: eta(model, 0.0), "t"),
            (lambda model: semigroup_apply(model, np.nan, [1.0, 1.0]), "t"),
            (lambda model: rv_index_fit([1e3, 1e4, 1e5], [1.0, np.nan, 0.5]), "values"),
        ],
        ids=["g-closed-nan", "g-closed-inf", "eta-nan", "eta-zero", "semigroup-nan", "rv-fit-nan"],
    )
    def test_names_the_value(self, two_site_model, call, name):
        with pytest.raises(ArgumentError) as info:
            call(two_site_model)
        assert info.value.name == name


class TestSemigroup:
    def test_identity_at_zero(self, two_site_model):
        f = np.array([0.3, 1.7])
        assert np.array_equal(semigroup_apply(two_site_model, 0.0, f), f)

    def test_phi_invariance(self, three_site_model):
        for t in (0.1, 1.0, 10.0):
            out = semigroup_apply(three_site_model, t, three_site_model.phi)
            assert np.allclose(out, three_site_model.phi, atol=1e-10)

    def test_taylor_series_oracle(self, two_site_model):
        rng = np.random.default_rng(11)
        f = rng.uniform(0.1, 2.0, 2)
        A = two_site_model.A
        term = f.copy()
        total = f.copy()
        for k in range(1, 60):
            term = A @ term / k
            total += term
        assert np.allclose(semigroup_apply(two_site_model, 1.0, f), total, atol=1e-10)

    def test_positivity_of_kernel(self, three_site_model):
        for t in (0.01, 0.5, 5.0):
            P = scipy.linalg.expm(t * three_site_model.A)
            assert P.min() > 0


def mixing_gap(model, t):
    """sup over (x, y) of |p_t(x, y) / (phi(x) phi_star(y)) - 1|, with p_t the
    density of exp(t A) against m."""
    P = scipy.linalg.expm(t * model.A) / model.m[None, :]
    return float(np.abs(P / np.outer(model.phi, model.phi_star) - 1.0).max())


class TestMixingGap:
    def test_scalar_gap_zero(self, scalar_model):
        for t in (0.1, 1.0, 50.0):
            assert mixing_gap(scalar_model, t) <= 1e-12

    def test_two_site_closed_form(self, two_site_model):
        # symmetric chain: gap(t) = exp(-2t)
        for t in (0.5, 1.0, 3.0):
            assert mixing_gap(two_site_model, t) == pytest.approx(
                np.exp(-2.0 * t), rel=1e-8
            )

    def test_halving_monotone_past_crossover(self, three_site_model):
        gaps = {t: mixing_gap(three_site_model, t) for t in (1.0, 2.0, 4.0, 8.0)}
        assert gaps[2.0] <= gaps[1.0]
        assert gaps[4.0] <= gaps[2.0]
        assert gaps[8.0] <= gaps[4.0]

    def test_log_gap_affine_tail(self, three_site_model):
        ts = np.linspace(2.0, 10.0, 17)
        gaps = np.array([mixing_gap(three_site_model, t) for t in ts])
        y = np.log(gaps)
        slope, intercept = np.polyfit(ts, y, 1)
        fitted = intercept + slope * ts
        r2 = 1.0 - np.sum((y - fitted) ** 2) / np.sum((y - y.mean()) ** 2)
        assert slope < 0
        assert r2 >= 0.999


class TestModelFiles:
    def test_calibrated_round_trip_identical(self, tmp_path, three_site_model):
        path = tmp_path / "model.json"
        save_calibrated_model(path, three_site_model)
        loaded, _ = read_model(path)
        assert np.array_equal(loaded.phi, three_site_model.phi)
        assert np.array_equal(loaded.phi_star, three_site_model.phi_star)
        assert np.array_equal(loaded.motion.Q, three_site_model.motion.Q)
        assert loaded.c_x == three_site_model.c_x
        assert loaded.eigen.lam == three_site_model.eigen.lam

    def test_hash_canonical(self, three_site_model):
        data = model_to_dict(three_site_model.motion, three_site_model.mechanism)
        shuffled = json.loads(json.dumps(data))
        assert model_hash(data) == model_hash(shuffled)

    def test_read_base_file_calibrates(self, tmp_path, three_site_model):
        data = model_to_dict(three_site_model.motion, three_site_model.mechanism)
        path = tmp_path / "base.json"
        path.write_text(json.dumps(data))
        loaded, digest = read_model(path)
        assert digest == model_hash(data)
        assert np.array_equal(loaded.phi, three_site_model.phi)
        assert loaded.c_x == three_site_model.c_x

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("gamma0", 1.5, "gamma0"),
            ("C_X", 123.0, "C_X"),
            ("phi", [0.9, 0.1], "eigenvector"),
            ("phiStar", [0.1, 0.9], "eigenvector"),
            ("lambda", 1e-3, "not critical"),
            ("beta", [0.1, 0.1], "eigenvector"),
            ("phi", [0.5, 0.5], "phi, phi"),
            ("gamma0", None, "missing"),
        ],
        ids=["gamma0", "C_X", "phi", "phiStar", "lambda", "beta", "phi-scale", "no-gamma0"],
    )
    def test_tampered_calibrated_file_rejected(self, key, value, match, tmp_path, two_site_model):
        path = tmp_path / "model.json"
        save_calibrated_model(path, two_site_model)
        data = json.loads(path.read_text())
        if value is None:
            del data[key]
        else:
            data[key] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=match):
            read_model(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"d": 1, "m": [1.0]}))
        with pytest.raises(ValueError, match="missing"):
            read_model(path)
