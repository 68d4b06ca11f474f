import os

import numpy as np
import pytest

from stablebranch import cumulant
from stablebranch.cumulant import SolverOptions
from stablebranch.model import (
    BranchingMechanism,
    MotionGenerator,
    StateSpace,
    calibrate_critical,
)


@pytest.fixture(scope="session")
def scalar_model():
    """d=1, kappa=1, gamma=1.5, calibrated to beta=0; closed forms available."""
    space = StateSpace(d=1)
    motion = MotionGenerator(space=space, Q=[[0.0]])
    mech = BranchingMechanism(beta=[0.25], kappa=[1.0], gamma=[1.5])
    return calibrate_critical(motion, mech)


@pytest.fixture(scope="session")
def two_site_model():
    """Symmetric two-site chain with gamma = (1.2, 1.8); phi = phi* = 1/sqrt(2)."""
    space = StateSpace(d=2)
    motion = MotionGenerator(space=space, Q=[[-1.0, 1.0], [1.0, -1.0]])
    mech = BranchingMechanism(beta=[0.0, 0.0], kappa=[1.0, 1.0], gamma=[1.2, 1.8])
    return calibrate_critical(motion, mech)


@pytest.fixture(scope="session")
def three_site_model():
    """Asymmetric three-site chain with gamma = (1.3, 1.3, 1.7)."""
    space = StateSpace(d=3)
    motion = MotionGenerator(
        space=space,
        Q=[[-1.2, 0.8, 0.4], [0.5, -0.9, 0.4], [0.3, 0.6, -0.9]],
    )
    mech = BranchingMechanism(
        beta=[0.1, -0.05, 0.2], kappa=[1.0, 0.8, 1.2], gamma=[1.3, 1.3, 1.7]
    )
    return calibrate_critical(motion, mech)


@pytest.fixture(scope="session")
def weighted_model():
    """Two sites with non-uniform reference weights; exercises every m-scaling."""
    space = StateSpace(d=2, m=[1.0, 2.5])
    motion = MotionGenerator(space=space, Q=[[-1.2, 1.2], [0.7, -0.7]])
    mech = BranchingMechanism(beta=[0.3, -0.2], kappa=[1.0, 0.8], gamma=[1.4, 1.7])
    return calibrate_critical(motion, mech)


@pytest.fixture(scope="session")
def close_index_model():
    """Symmetric two-site chain with gamma = (1.5, 1.6): the indices nearly
    tie, so the approach to the limits is slow (correction exponent 0.2)."""
    space = StateSpace(d=2)
    motion = MotionGenerator(space=space, Q=[[-1.0, 1.0], [1.0, -1.0]])
    mech = BranchingMechanism(beta=[0.0, 0.0], kappa=[1.0, 1.0], gamma=[1.5, 1.6])
    return calibrate_critical(motion, mech)


def reflecting_diffusion(d):
    """Reflecting diffusion on [0, 1] discretised on d cells: nearest-neighbour
    rates D = 0.05 d^2, m = 1/d, kappa 1 and gamma(x) = 1.3 + 1.6 (x - 0.5)^2
    at the cell centres.  The gap above gamma0 shrinks like d^-2."""
    rate = 0.05 * d * d
    Q = np.diag(np.full(d - 1, rate), 1) + np.diag(np.full(d - 1, rate), -1)
    Q -= np.diag(Q.sum(axis=1))
    x = (np.arange(d) + 0.5) / d
    space = StateSpace(d=d, m=np.full(d, 1.0 / d))
    mech = BranchingMechanism(
        beta=np.zeros(d), kappa=np.ones(d), gamma=1.3 + 1.6 * (x - 0.5) ** 2
    )
    return calibrate_critical(MotionGenerator(space=space, Q=Q), mech)


def one_index_model(Q, beta, gamma, K, m=None):
    """A model with one stable index gamma at every site and kappa = K phi^(1-gamma).

    Calibration does not read kappa: the first, at kappa = 1, gives phi; the
    second sets kappa.  Then A phi = 0 and kappa phi^gamma = K phi, so from
    u(0) = c0 phi the flow is u = c(t) phi with c' = -K c^gamma, and C_X = K.
    In closed form, eta(t) = (K (gamma-1) t)^(-1/(gamma-1)), and the Yaglom
    surface from f = phi equals g_closed(gamma, theta) at every horizon.
    """
    d = len(beta)
    space = StateSpace(d=d) if m is None else StateSpace(d=d, m=m)
    motion = MotionGenerator(space=space, Q=Q)
    gammas = np.full(d, float(gamma))
    unit = calibrate_critical(motion, BranchingMechanism(beta=beta, kappa=np.ones(d), gamma=gammas))
    kappa = K * unit.phi ** (1.0 - gamma)
    return calibrate_critical(motion, BranchingMechanism(beta=beta, kappa=kappa, gamma=gammas))


@pytest.fixture(scope="session")
def one_index_models():
    """The one-index family on two sites (gamma 1.2) and on three (gamma 1.3,
    non-uniform m)."""
    return {
        "two": one_index_model([[-1.0, 1.0], [0.5, -0.5]], [0.0, 0.3], 1.2, 0.7),
        "three": one_index_model(
            [[-1.2, 0.8, 0.4], [0.5, -0.9, 0.4], [0.3, 0.6, -0.9]], [0.1, -0.05, 0.2], 1.3,
            1.4, m=[1.0, 0.5, 2.0],
        ),
    }


@pytest.fixture(scope="session")
def diffusion_model():
    """The reflecting diffusion on d = 10 cells; gamma0 1.304, next index 1.336."""
    return reflecting_diffusion(10)


@pytest.fixture(scope="session")
def loose_opts():
    """Tolerance profile for long-horizon asymptotic runs."""
    return SolverOptions(rel_tol=1e-7)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)


def normalized_ones(model):
    ones = np.ones(model.d)
    return ones / model.inner_m(ones, model.phi_star)


def extinction_run(model, t0, t_max, opts):
    """solve_extinction's run from the balance's start at t0 to t_max."""
    return cumulant._extinction_solution(model, cumulant._warm_start(model, t0)[0], t0, t_max,
                                         opts)


def use_cpus(monkeypatch, n):
    """Make the affinity mask read as n CPUs, so that forking code uses up to n workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def no_solver(monkeypatch):
    """Make every ODE solve fail at once: an input that a check should refuse
    then fails fast, never hangs in the solver, when the check is missing."""

    def reached(*args, **kwargs):
        raise AssertionError("the ODE solver was reached")

    monkeypatch.setattr(cumulant, "solve_branching_ode", reached)


class NoDraws:
    """A random generator that fails on its first use, for the same purpose."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} was used")


@pytest.fixture(autouse=True)
def no_unreaped_children():
    """Fail a test that leaves a child process (a forked worker) unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped (waitpid read pid {pid})")
