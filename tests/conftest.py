import numpy as np
import pytest

from relshock import riemann
from relshock.fluid import EosParams


@pytest.fixture
def eos():
    return EosParams()


@pytest.fixture
def rng():
    return np.random.default_rng(20100326)


def random_states(rng, count, rho_lo=1e-6, rho_hi=1e12, v_max=0.999):
    """Log-uniform densities and uniform velocities over the test sweep."""
    rho = 10.0 ** rng.uniform(np.log10(rho_lo), np.log10(rho_hi), count)
    v = rng.uniform(-v_max, v_max, count)
    return rho, v


def solve_one(left, right, eos, eps=1e-10):
    """One Riemann problem, (rho, v) on each side, as a row of two cells."""
    return riemann.solve_interfaces(np.array([left[0], right[0]]),
                                    np.array([left[1], right[1]]), eos, eps)


def pair_row(rho_l, v_l, rho_r, v_r):
    """The row rho_l[0], rho_r[0], rho_l[1], rho_r[1], ... (and likewise v):
    its even interfaces 2k are the independent problems (left k, right k)."""
    return (np.column_stack((rho_l, rho_r)).ravel(),
            np.column_stack((v_l, v_r)).ravel())


def solve_pairs(rho_l, v_l, rho_r, v_r, eos, eps=1e-10):
    """Independent Riemann problems solved in one row (see pair_row); the
    result keeps the even interfaces only, so entry k is problem k."""
    row = riemann.solve_interfaces(*pair_row(rho_l, v_l, rho_r, v_r), eos, eps)
    sol = object.__new__(riemann.RiemannGridSolution)
    sol.eos = eos
    legs = ("w1", "w2", "leg_speed", "leg_beta")
    for name in riemann.RiemannGridSolution.__slots__[1:]:
        if name not in legs:
            setattr(sol, name, getattr(row, name)[::2])
    # keep the legs on even interfaces, renumbered to their problem
    even = np.concatenate((row.w1, row.w2)) % 2 == 0
    m = row.w1.size
    sol.w1, sol.w2 = row.w1[even[:m]] // 2, row.w2[even[m:]] // 2
    sol.leg_speed, sol.leg_beta = row.leg_speed[even], row.leg_beta[even]
    return sol
