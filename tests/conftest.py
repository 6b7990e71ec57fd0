"""Shared builders for randomized test cases. All randomness is seeded by the
caller so every test is reproducible."""

import numpy as np

import compatamg as cm
from compatamg.linalg import lu_solver

# numpy.exceptions exists from numpy 1.25; before it, the class is numpy's own
COMPLEX_WARNING = "numpy.exceptions.ComplexWarning" if hasattr(np, "exceptions") \
    else "numpy.ComplexWarning"


def pytest_configure(config):
    # a complex value cast to real drops its imaginary part with only a
    # warning; in the suite that cast is an error
    config.addinivalue_line("filterwarnings", f"error::{COMPLEX_WARNING}")
    # so are a division by zero, an overflow or an invalid operation that
    # numpy reports only as a warning, and a deprecated call
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning")


# The 1D kinds, whose A is tridiagonal, a diagonally dominant tridiagonal A
# with random entries, whose diagonals are not constant, and the splittings
# and orders on which the store's blocks read off A's diagonals are checked
# against gathered ones.
TRIDIAGONAL_KINDS = ("advection1d", "laplacian1d", "advdiff1d", "randomtridiagonal")
SPLITS = ("alternate", "firsthalf", "random")
ORDERS = (3, 4, 5, 17, 64)


def tridiagonal_problem(kind, n):
    if kind == "randomtridiagonal":
        rng = np.random.default_rng(n)
        dl, du = rng.uniform(-1.0, 1.0, (2, n - 1))
        return np.diag(3.0 + rng.random(n)) + np.diag(dl, -1) + np.diag(du, 1)
    return cm.generate(cm.ProblemSpec(kind, n=n, **({"epsilon": 0.01} if kind == "advdiff1d" else {})))


class GatheringStore(cm.ProblemStore):
    """A ProblemStore that gathers every block of A by np.ix_ and factors the
    gathered A_ff and A_cc, as a store of a dense A does: the reference for
    the blocks a store reads off a tridiagonal A's diagonals."""

    def block(self, rows, cols):
        return self.A[np.ix_(rows, cols)]

    def _block_solver(self, idx, what):
        return lu_solver(self.A[np.ix_(idx, idx)], what)


class DenseStore(GatheringStore):
    """A GatheringStore that does not report A as tridiagonal, so it holds
    every ideal block as an array and forms K densely: the reference for
    the compact blocks a store holds on a tridiagonal A."""

    def tridiagonal(self):
        return None


def assert_same_array(X, Y):
    """X and Y have the same values, bit for bit, and the same memory order."""
    assert np.array_equal(X, Y)
    assert (X.flags.c_contiguous, X.flags.f_contiguous) == (Y.flags.c_contiguous, Y.flags.f_contiguous)


def random_spd(rng, n, shift=0.1):
    G = rng.standard_normal((n, n))
    return G @ G.T / n + shift * np.eye(n)


def random_stable(rng, n):
    """Nonsymmetric matrix whose symmetric part is SPD (hence nonsingular)."""
    K = rng.standard_normal((n, n))
    return random_spd(rng, n) + (K - K.T) / 2.0


def random_nonsingular(rng, n, max_cond=1e6):
    while True:
        A = rng.standard_normal((n, n))
        if np.linalg.cond(A) < max_cond:
            return A


def random_partition(rng, n):
    while True:
        mask = rng.random(n) < 0.5
        k = int(mask.sum())
        if 0 < k < n:
            return cm.CFPartition(
                n,
                tuple(np.flatnonzero(~mask)),
                tuple(np.flatnonzero(mask)),
            )


def random_pair_case(rng, n=12, scale=0.7, max_cond=1e4, max_pi_norm=200.0):
    """A (nonsymmetric A, SPD M, random classical pair) triple with a
    well-conditioned coarse operator and a moderately oblique correction."""
    part = cm.default_splitting(n, "alternate")
    while True:
        A = random_stable(rng, n)
        M = random_spd(rng, n, shift=0.5)
        Z = scale * rng.standard_normal((part.nf, part.nc))
        W = scale * rng.standard_normal((part.nf, part.nc))
        pair = cm.make_pair(part, Z, W)
        if np.linalg.cond(pair.R.T @ A @ pair.P) >= max_cond:
            continue
        pi, _ = cm.build_pi(A, pair)
        if np.linalg.norm(pi, 2) <= max_pi_norm:
            return A, M, pair
