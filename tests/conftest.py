"""Shared builders for randomized test cases. All randomness is seeded by the
caller so every test is reproducible."""

import numpy as np

import compatamg as cm


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
