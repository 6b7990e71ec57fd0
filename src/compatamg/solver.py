"""Relaxation schemes, two-grid error propagators, convergence factors, and
the C-point error property of ideal restriction.

The smoother matrix is called N throughout (error propagator I - N^{-1} A);
Q is reserved for the companion matrices of transfer-operator construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, lu_solver, solve_checked
from .projection import build_pi

__all__ = [
    "RelaxSpec",
    "TwoGridSpec",
    "relax_propagator",
    "two_grid_propagator",
    "conv_factor",
    "air_cpoint_residual",
    "iterate",
    "observed_rate",
    "RELAX_KINDS",
]

RELAX_KINDS = ("none", "jacobi", "fjacobi", "fexact")

# Window over which the asymptotic contraction is measured from a residual
# history: geometric mean of the per-iteration ratios on iterations 10..25.
RATE_WINDOW = (10, 25)


@dataclass(frozen=True)
class RelaxSpec:
    """One relaxation scheme: weighted Jacobi, its F-point restriction to the
    fine points only, an exact F-point solve, or nothing."""

    kind: str = "none"
    omega: float = 2.0 / 3.0
    sweeps: int = 1

    def __post_init__(self):
        key = str(self.kind).replace("-", "").replace("_", "").lower()
        if key not in RELAX_KINDS:
            raise ValueError(f"unknown relaxation kind {self.kind!r}; expected one of {RELAX_KINDS}")
        object.__setattr__(self, "kind", key)
        if not 0.0 < self.omega < 2.0:
            raise ValueError("omega must lie in (0, 2)")
        if self.sweeps < 0:
            raise ValueError("sweeps must be >= 0")


@dataclass(frozen=True)
class TwoGridSpec:
    """A two-grid method: transfer pair plus pre- and post-relaxation.

    pair may be None for a relaxation-only method (no coarse correction).
    """

    pair: object = None
    pre: RelaxSpec = RelaxSpec("none")
    post: RelaxSpec = RelaxSpec("none")


def _n_inverse(A, spec, part):
    """Approximate inverse N^{-1} applied by one sweep of the relaxation."""
    A = as_matrix(A, "A")
    n = A.shape[0]
    if spec.kind == "none":
        return np.zeros((n, n))
    if spec.kind == "jacobi":
        d = np.diag(A)
        if np.any(d == 0.0):
            raise ValueError("Jacobi relaxation needs a zero-free diagonal")
        return np.diag(spec.omega / d)
    if part is None:
        raise ValueError(f"relaxation kind {spec.kind!r} needs a CF partition")
    f = list(part.fpoints)
    Ninv = np.zeros((n, n))
    if spec.kind == "fjacobi":
        d = np.diag(A)[f]
        if np.any(d == 0.0):
            raise ValueError("F-Jacobi relaxation needs a zero-free F-point diagonal")
        Ninv[f, f] = spec.omega / d
        return Ninv
    # fexact: solve on the F-block exactly, identity on C-points
    Aff = A[np.ix_(f, f)]
    Ninv[np.ix_(f, f)] = solve_checked(Aff, np.eye(len(f)), "A_ff")
    return Ninv


def _is_identity(spec):
    """True when the relaxation leaves the error unchanged."""
    return spec.kind == "none" or spec.sweeps == 0


def relax_propagator(A, spec, part=None):
    """Error propagator (I - N^{-1} A)^sweeps of a relaxation scheme.

    part is required for the F-point kinds and ignored otherwise.
    """
    A = as_matrix(A, "A")
    n = A.shape[0]
    if _is_identity(spec):
        return np.eye(n)
    E1 = np.eye(n) - _n_inverse(A, spec, part) @ A
    return np.linalg.matrix_power(E1, spec.sweeps)


def two_grid_propagator(A, spec):
    """Full two-grid error propagator E_post (I - Pi) E_pre.

    A relaxation that is the identity (kind none or zero sweeps) is left out
    of the product; the others associate as (E_post (I - Pi)) E_pre.
    """
    A = as_matrix(A, "A")
    n = A.shape[0]
    part = spec.pair.part if spec.pair is not None else None
    E = np.eye(n) - build_pi(A, spec.pair)[0] if spec.pair is not None else np.eye(n)
    if not _is_identity(spec.post):
        E = relax_propagator(A, spec.post, part) @ E
    if not _is_identity(spec.pre):
        E = E @ relax_propagator(A, spec.pre, part)
    return E


def conv_factor(E):
    """Spectral radius of a propagator, via dense eigenvalues."""
    E = as_matrix(E, "E")
    if E.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(E))))


def air_cpoint_residual(A, pair, e):
    """Largest C-point entry of the corrected error (I - Pi) e.

    With ideal restriction on A this vanishes to round-off for every e: the
    correction leaves error only on F-points.
    """
    A = as_matrix(A, "A")
    e = np.asarray(e, dtype=float).ravel()
    pi, _ = build_pi(A, pair)
    v = e - pi @ e
    return float(np.max(np.abs(v[list(pair.part.cpoints)])))


def iterate(A, spec, b, x0, iters):
    """Run the two-grid iteration in solution space; returns the residual history.

    History entry k is ||b - A x_k||_2, with entry 0 the initial residual.
    Relaxation sweeps apply x <- x + N^{-1}(b - A x); coarse-grid correction
    applies x <- x + P (R* A P)^{-1} R* (b - A x).

    Every matrix is guarded and factored once per call: each N^{-1} is
    formed once and K = R*AP is factored once, so an iteration costs
    products and the two triangular solves of the coarse correction. A
    tridiagonal K is factored by tridiagonal elimination, which gives the
    same bits as solving with scipy.linalg.solve on every iteration.
    """
    A = as_matrix(A, "A")
    b = np.asarray(b, dtype=float).ravel()
    x = np.array(x0, dtype=float).ravel()
    if iters < 0:
        raise ValueError("iters must be >= 0")
    part = spec.pair.part if spec.pair is not None else None
    pre = None if _is_identity(spec.pre) else _n_inverse(A, spec.pre, part)
    post = None if _is_identity(spec.post) else _n_inverse(A, spec.post, part)
    if spec.pair is not None:
        R, P = spec.pair.R, spec.pair.P
        solve_k = lu_solver(R.T @ A @ P, "coarse operator R*AP", structured=True)
        coarse = lambda r: P @ solve_k(R.T @ r)
    else:
        coarse = None

    history = [float(np.linalg.norm(b - A @ x))]
    for _ in range(iters):
        if pre is not None:
            for _ in range(spec.pre.sweeps):
                x = x + pre @ (b - A @ x)
        if coarse is not None:
            x = x + coarse(b - A @ x)
        if post is not None:
            for _ in range(spec.post.sweeps):
                x = x + post @ (b - A @ x)
        history.append(float(np.linalg.norm(b - A @ x)))
    return np.array(history)


def observed_rate(history, window=RATE_WINDOW):
    """Asymptotic contraction factor measured from a residual history.

    Geometric mean of the per-iteration ratios over the window (clipped to
    the available iterations); nan when the window is empty, 0 when the
    residual has already hit zero.
    """
    h = np.asarray(history, dtype=float)
    lo, hi = window
    hi = min(hi, len(h) - 1)
    if hi <= lo:
        lo = max(0, hi - 1)
    if hi <= lo:
        return float("nan")
    if h[lo] == 0.0:
        return 0.0
    if h[hi] == 0.0:
        return 0.0
    return float((h[hi] / h[lo]) ** (1.0 / (hi - lo)))
