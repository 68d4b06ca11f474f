"""Finite-state model: spatial motion, branching mechanism, spectral calibration.

The spatial motion is an irreducible continuous-time Markov chain on d sites
with rate matrix Q, carrying a strictly positive reference weight vector m.
The branching mechanism is site-indexed, psi(x, z) = -beta(x) z + kappa(x) z**gamma(x)
with 1 < gamma(x) < 2.  The mean evolution of the resulting measure-valued
process is driven by the weighted semigroup exp(t*A) with A = Q + diag(beta);
calibration shifts beta so that the principal eigenvalue of A is zero.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.sparse import csgraph, csr_matrix

__all__ = [
    "StateSpace",
    "MotionGenerator",
    "BranchingMechanism",
    "EigenData",
    "CriticalModel",
    "ArgumentError",
    "ReducibleMatrixError",
    "EigenSolverError",
    "build_feynman_kac_matrix",
    "principal_eigen",
    "calibrate_critical",
    "eta",
    "semigroup_apply",
    "read_model",
    "save_calibrated_model",
    "model_hash",
]

# Sites with gamma(x) - gamma0 below this count toward the minimal-index set
# when assembling the front constant; exact float equality on user input is fragile.
GAMMA_TIE_TOL = 1e-12

# Relative residual bound on |lambda| after the rank-one calibration shift.
CRITICALITY_RTOL = 1e-12

# Unit-normalized right/left principal vectors with m-inner product below this
# are flagged: the joint normalization is then badly conditioned.
NEAR_ORTHOGONAL_WARN = 1e-8

# A calibrated file read back must satisfy its eigen equations, relative to
# max(1, |A|max), and its two normalizations to this tolerance.
CALIBRATED_FILE_RTOL = 1e-9


class ArgumentError(ValueError):
    """An argument out of its range; `name` is the argument at fault.

    exc.args is (name, message), so that it pickles like any ValueError, and
    str(exc) is the message.
    """

    def __init__(self, name, message):
        super().__init__(name, message)

    @property
    def name(self):
        return self.args[0]

    def __str__(self):
        return self.args[1]


class ReducibleMatrixError(ValueError):
    """Raised when the positive off-diagonal graph is not strongly connected."""


class EigenSolverError(RuntimeError):
    """Raised when the principal-eigenpair computation fails to converge."""


def _as_vector(values, d=None, name="values"):
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1:
        raise ArgumentError(name, f"{name} must be one-dimensional, got shape {arr.shape}")
    if d is not None and arr.shape[0] != d:
        raise ArgumentError(name, f"{name} has length {arr.shape[0]}, expected {d}")
    if not np.all(np.isfinite(arr)):
        raise ArgumentError(name, f"{name} contains non-finite entries")
    return arr


def _density(values, d, name="mu"):
    """values as a finite, nonnegative, nontrivial density vector of length d."""
    arr = _as_vector(values, d, name)
    if np.any(arr < 0) or arr.sum() == 0:
        raise ArgumentError(name, f"{name} must be a nonnegative, nontrivial density vector")
    return arr


def _is_integer(value):
    """Whether value is a Python or numpy integer that is not a bool."""
    # a bool is an int to Python, but not a count
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _count(value, name, minimum):
    """value as an int: a Python or numpy integer, not a bool, at least minimum."""
    if not _is_integer(value):
        raise ArgumentError(name, f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ArgumentError(name, f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class StateSpace:
    """d sites with strictly positive reference weights m."""

    d: int
    m: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "d", _count(self.d, "d", 1))
        m = np.ones(self.d) if self.m is None else _as_vector(self.m, self.d, "m")
        if np.any(m <= 0):
            raise ValueError("reference weights m must be strictly positive")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)


@dataclass(frozen=True)
class MotionGenerator:
    """Rate matrix Q of the spatial chain over a StateSpace.

    Off-diagonal entries are nonnegative; row sums may be negative (killing,
    i.e. finite lifetime) but never positive.  The positive off-diagonal graph
    must be strongly connected.
    """

    space: StateSpace
    Q: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        d = self.space.d
        if Q.shape != (d, d):
            raise ValueError(f"Q has shape {Q.shape}, expected {(d, d)}")
        if not np.all(np.isfinite(Q)):
            raise ValueError("Q contains non-finite entries")
        off = Q - np.diag(np.diag(Q))
        scale = max(1.0, float(np.abs(Q).max()))
        if off.min() < -1e-12 * scale:
            raise ValueError("off-diagonal rates must be nonnegative")
        rows = Q.sum(axis=1)
        if rows.max() > 1e-10 * scale:
            raise ValueError("row sums must be <= 0 (killing allowed, creation not)")
        _require_irreducible(Q)
        Q = Q.copy()
        Q.setflags(write=False)
        object.__setattr__(self, "Q", Q)

    @property
    def d(self):
        return self.space.d

    @property
    def m(self):
        return self.space.m


@dataclass(frozen=True)
class BranchingMechanism:
    """Site-indexed (beta, kappa, gamma) for psi(x,z) = -beta x z + kappa x z^gamma(x)."""

    beta: np.ndarray
    kappa: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        beta = _as_vector(self.beta, None, "beta")
        d = beta.shape[0]
        kappa = _as_vector(self.kappa, d, "kappa")
        gamma = _as_vector(self.gamma, d, "gamma")
        if np.any(kappa <= 0):
            raise ValueError("kappa must be strictly positive")
        if np.any(gamma <= 1) or np.any(gamma >= 2):
            raise ValueError("gamma must lie in the open interval (1, 2)")
        for arr in (beta, kappa, gamma):
            arr.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "gamma", gamma)

    @property
    def d(self):
        return self.beta.shape[0]

    @property
    def gamma0(self):
        return float(self.gamma.min())

    def shifted(self, delta):
        """New mechanism with beta uniformly shifted by -delta."""
        return BranchingMechanism(self.beta - delta, self.kappa, self.gamma)


@dataclass(frozen=True)
class EigenData:
    """Principal triple (lambda, phi, phi_star) of A = Q + diag(beta).

    phi solves A phi = lambda phi; phi_star solves the m-adjoint problem,
    equivalently A^T (m*phi_star) = lambda (m*phi_star).  Normalization:
    sum(phi^2 m) = 1 and sum(phi phi_star m) = 1; both vectors strictly positive.
    """

    lam: float
    phi: np.ndarray
    phi_star: np.ndarray

    def __post_init__(self):
        phi = _as_vector(self.phi, None, "phi")
        phi_star = _as_vector(self.phi_star, phi.shape[0], "phi_star")
        if phi.min() <= 0 or phi_star.min() <= 0:
            raise ValueError("principal eigenvectors must be strictly positive")
        phi.setflags(write=False)
        phi_star.setflags(write=False)
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "phi_star", phi_star)


@dataclass(frozen=True)
class CriticalModel:
    """Calibrated model: motion + mechanism + certified spectral data.

    Invariant: |lam| <= CRITICALITY_RTOL * max(1, ||A||).  gamma0 and the
    front constant c_x are computed from the mechanism and the eigenvectors.
    """

    motion: MotionGenerator
    mechanism: BranchingMechanism
    eigen: EigenData

    def __post_init__(self):
        if self.motion.d != self.mechanism.d:
            raise ValueError("motion and mechanism dimensions disagree")

    @property
    def d(self):
        return self.motion.d

    @property
    def m(self):
        return self.motion.m

    @property
    def phi(self):
        return self.eigen.phi

    @property
    def phi_star(self):
        return self.eigen.phi_star

    @cached_property
    def gamma0(self):
        """The minimal stable index min(gamma)."""
        return self.mechanism.gamma0

    @cached_property
    def c_x(self):
        """The front constant C_X of eta (see _front_constant)."""
        return _front_constant(self.mechanism, self.eigen, self.m)

    @cached_property
    def A(self):
        A = build_feynman_kac_matrix(self.motion, self.mechanism)
        A.setflags(write=False)
        return A

    @cached_property
    def mean_adjoint(self):
        """Matrix of the m-adjoint of A, acting on density vectors: diag(1/m) A^T diag(m)."""
        m = self.m
        M = (self.A.T * m[None, :]) / m[:, None]
        M.setflags(write=False)
        return M

    def inner_m(self, f, g):
        """Weighted inner product sum(f * g * m)."""
        return float(np.sum(np.asarray(f, float) * np.asarray(g, float) * self.m))


def _require_irreducible(Q):
    graph = csr_matrix((np.abs(Q) > 0) & ~np.eye(Q.shape[0], dtype=bool))
    n, _ = csgraph.connected_components(graph, directed=True, connection="strong")
    if Q.shape[0] > 1 and n != 1:
        raise ReducibleMatrixError(
            "positive off-diagonal graph is not strongly connected"
        )


def build_feynman_kac_matrix(motion, mech):
    """Generator of the weighted mean semigroup: A = Q + diag(beta)."""
    if motion.d != mech.d:
        raise ValueError(
            f"dimension mismatch: motion has {motion.d} sites, mechanism {mech.d}"
        )
    return motion.Q + np.diag(mech.beta)


def _dense_principal(A):
    w, vl, vr = scipy.linalg.eig(A, left=True, right=True)
    i = int(np.argmax(w.real))
    lam = w[i]
    scale = max(1.0, float(np.abs(A).max()))
    if abs(lam.imag) > 1e-9 * scale:
        raise EigenSolverError(f"principal eigenvalue not real: {lam}")
    phi = vr[:, i]
    left = vl[:, i]
    if np.abs(phi.imag).max() > 1e-9 or np.abs(left.imag).max() > 1e-9:
        raise EigenSolverError("principal eigenvectors have non-negligible imaginary parts")
    return float(lam.real), phi.real.copy(), left.real.copy()


def principal_eigen(A, m):
    """Principal triple of an irreducible Metzler matrix under m-weighting.

    Returns EigenData with the normalization sum(phi^2 m) = 1 and
    sum(phi phi_star m) = 1.  phi_star is the left Perron vector rescaled by 1/m,
    so that it is the principal eigenvector of the m-adjoint of A.

    Raises ReducibleMatrixError when A is reducible (no unique positive pair) and
    EigenSolverError on solver failure.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    d = A.shape[0]
    m = _as_vector(m, d, "m")
    off = A - np.diag(np.diag(A))
    if off.min() < -1e-12 * max(1.0, float(np.abs(A).max())):
        raise ValueError("A must have nonnegative off-diagonal entries")
    _require_irreducible(A)

    lam, phi, left = _dense_principal(A)

    # The Perron vector is positive up to a global sign; flip and verify.
    for vec in (phi, left):
        if vec.sum() < 0:
            vec *= -1.0
    floor = 1e-12 * max(np.abs(phi).max(), 1e-300)
    if phi.min() <= floor or left.min() <= 1e-12 * max(np.abs(left).max(), 1e-300):
        raise ReducibleMatrixError(
            "principal eigenvector is not strictly positive; matrix is numerically reducible"
        )

    phi_star = left / m
    phi_unit = phi / np.sqrt(np.sum(phi**2 * m))
    star_unit = phi_star / np.sqrt(np.sum(phi_star**2 * m))
    overlap = float(np.sum(phi_unit * star_unit * m))
    if overlap < NEAR_ORTHOGONAL_WARN:
        warnings.warn(
            f"right/left principal vectors nearly m-orthogonal (overlap {overlap:.3e}); "
            "joint normalization is ill-conditioned",
            RuntimeWarning,
            stacklevel=2,
        )
    phi = phi_unit
    phi_star = phi_star / np.sum(phi * phi_star * m)
    return EigenData(lam=lam, phi=phi, phi_star=phi_star)


def calibrate_critical(motion, mech):
    """Shift beta so the principal eigenvalue vanishes; return the CriticalModel.

    The shift beta -> beta - lambda0 is exact (rank-one), so the residual
    eigenvalue is eigensolver error only; it is asserted against
    CRITICALITY_RTOL relative to ||A||.
    """
    A0 = build_feynman_kac_matrix(motion, mech)
    lam0 = principal_eigen(A0, motion.m).lam
    mech_crit = mech.shifted(lam0)
    A = build_feynman_kac_matrix(motion, mech_crit)
    eigen = principal_eigen(A, motion.m)
    scale = max(1.0, float(np.abs(A).max()))
    if abs(eigen.lam) > CRITICALITY_RTOL * scale:
        raise EigenSolverError(
            f"calibration residual |lambda| = {abs(eigen.lam):.3e} exceeds tolerance"
        )
    return CriticalModel(motion=motion, mechanism=mech_crit, eigen=eigen)


def _front_constant(mech, eigen, m):
    """C_X: the kappa phi^gamma0 phi* m-mass of the minimal-index sites."""
    gamma0 = mech.gamma0
    tied = mech.gamma <= gamma0 + GAMMA_TIE_TOL
    return float(
        np.sum(mech.kappa[tied] * eigen.phi[tied] ** gamma0 * eigen.phi_star[tied] * m[tied])
    )


def eta(model, t):
    """Survival normalization (c_x (gamma0 - 1) t) ** (-1 / (gamma0 - 1)).

    Accepts scalar or array t, each finite and positive.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr > 0.0) & (t_arr < np.inf)):  # NaN fails both
        raise ArgumentError("t", f"t must be finite and positive, got {t!r}")
    g1 = model.gamma0 - 1.0
    out = (model.c_x * g1 * t_arr) ** (-1.0 / g1)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def semigroup_apply(model, t, f):
    """Apply the mean semigroup: exp(t A) f, for a finite t >= 0."""
    if not 0.0 <= t < np.inf:  # written so that NaN fails
        raise ArgumentError("t", f"t must be finite and nonnegative, got {t!r}")
    f = _as_vector(f, model.d, "f")
    if t == 0:
        return f.copy()
    return scipy.linalg.expm(t * model.A) @ f


# ---------------------------------------------------------------------------
# File schema
# ---------------------------------------------------------------------------

_BASE_KEYS = ("d", "m", "Q", "beta", "kappa", "gamma")
_SPECTRAL_KEYS = ("lambda", "phi", "phiStar", "C_X", "gamma0")


def model_to_dict(motion, mech, model=None):
    data = {
        "d": motion.d,
        "m": motion.m.tolist(),
        "Q": motion.Q.tolist(),
        "beta": mech.beta.tolist(),
        "kappa": mech.kappa.tolist(),
        "gamma": mech.gamma.tolist(),
    }
    if model is not None:
        data.update(
            {
                "lambda": model.eigen.lam,
                "phi": model.phi.tolist(),
                "phiStar": model.phi_star.tolist(),
                "C_X": model.c_x,
                "gamma0": model.gamma0,
            }
        )
    return data


def model_hash(data):
    """Stable sha256 over the canonical JSON encoding of a model dict."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _atomic_write_text(path, text):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_calibrated_model(path, model):
    data = model_to_dict(model.motion, model.mechanism, model)
    _atomic_write_text(path, json.dumps(data, indent=2))


def read_model(path):
    """Parse the model file at `path` once; returns (CriticalModel, model_hash).

    A base file is calibrated by `calibrate_critical`.  A file that carries any
    of the calibrated keys must carry all of them; it is rebuilt from its
    stored lambda, phi and phiStar, with no eigensolve, once
    `_check_calibrated` accepts it.  Its gamma0 and C_X are computed from
    those, so they must agree with the file's keys.  An
    unreadable, malformed or invalid file raises OSError, ValueError or TypeError.
    """
    # fspath refuses an integer, which open() would take for a file descriptor.
    with open(os.fspath(path), encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("a model file holds one JSON object")
    calibrated = any(k in data for k in _SPECTRAL_KEYS)
    keys = _BASE_KEYS + (_SPECTRAL_KEYS if calibrated else ())
    missing = [k for k in keys if k not in data]
    if missing:
        raise ValueError(f"model file missing keys: {missing}")
    d = data["d"]
    # asarray keeps a null m an error instead of StateSpace's unit default.
    motion = MotionGenerator(space=StateSpace(d=d, m=np.asarray(data["m"], float)), Q=data["Q"])
    mech = BranchingMechanism(beta=data["beta"], kappa=data["kappa"], gamma=data["gamma"])
    if mech.d != d:
        raise ValueError("mechanism length disagrees with d")
    if not calibrated:
        return calibrate_critical(motion, mech), model_hash(data)
    model = CriticalModel(
        motion=motion,
        mechanism=mech,
        eigen=EigenData(lam=data["lambda"], phi=data["phi"], phi_star=data["phiStar"]),
    )
    _check_calibrated(model, float(data["gamma0"]), float(data["C_X"]))
    return model, model_hash(data)


def _check_calibrated(model, gamma0, c_x):
    """Raise ValueError unless the stored spectral data are those of the model.

    The checks: |lambda| within CRITICALITY_RTOL, the right and m-adjoint eigen
    equations and both normalizations within CALIBRATED_FILE_RTOL, the file's
    gamma0 equal to min(gamma), and its C_X equal to the front constant of the
    stored vectors.
    """
    A, m, phi, star, lam = model.A, model.m, model.phi, model.phi_star, model.eigen.lam
    scale = max(1.0, float(np.abs(A).max()))
    if abs(lam) > CRITICALITY_RTOL * scale:
        raise ValueError(f"lambda = {lam:.3e} is not zero: the model is not critical")
    resid = max(
        np.abs(A @ phi - lam * phi).max() / phi.max(),
        np.abs(A.T @ (m * star) - lam * (m * star)).max() / (m * star).max(),
    )
    if resid > CALIBRATED_FILE_RTOL * scale:
        raise ValueError(f"phi or phiStar is no eigenvector of Q + diag(beta) ({resid:.3e})")
    norms = np.array([model.inner_m(phi, phi), model.inner_m(phi, star)])
    if np.abs(norms - 1.0).max() > CALIBRATED_FILE_RTOL:
        raise ValueError(f"<phi, phi>_m and <phi, phiStar>_m are {norms.tolist()}, not 1")
    if gamma0 != model.gamma0:
        raise ValueError(f"gamma0 = {gamma0} is not min(gamma) = {model.gamma0}")
    if abs(c_x - model.c_x) > CALIBRATED_FILE_RTOL * model.c_x:
        raise ValueError(f"C_X = {c_x} is not {model.c_x}, the front constant of phi and phiStar")
