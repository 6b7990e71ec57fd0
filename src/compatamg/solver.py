"""Relaxation schemes, two-grid error propagators, convergence factors, and
the C-point error property of ideal restriction.

The smoother matrix is called N throughout (error propagator I - N^{-1} A);
Q is reserved for the companion matrices of transfer-operator construction.

Convergence factors. two_grid_conv_factor takes the spectral radius of a
two-grid method. An exact F-relaxation is S = P_ideal [0 I], with
P_ideal = [W_ideal; I] and W_ideal = -A_ff^{-1} A_fc, so with a classical
pair R = [Z; I], P = [W; I] and S before, after or on both sides of the
correction, E has the nonzero spectrum of one n_c x n_c matrix,

    T = K^{-1} (R*A)_F (W_ideal - W),    K = R*AP,

where (R*A)_F are the F-point columns of R*A (Manteuffel, Ruge & Southworth,
SISC 40, 2018; Manteuffel, Muenzenmaier, Ruge & Southworth, SISC 41, 2019).
T is formed in that difference form from n x n_c and n_c x n_c products;
neither Pi nor E is formed, and there is no I - (~I) cancellation. Jacobi
and F-Jacobi relaxations, relaxation-only methods and pairs with C-point
blocks take the dense path, conv_factor(two_grid_propagator(A, spec)),
which also serves as the oracle for the reduced one.

PreparedTwoGrid binds a method to its matrix, so that two_grid_conv_factor
and iterate on it guard and factor K and guard A_ff once between them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .linalg import (
    SingularMatrixError,
    _tag_key,
    as_matrix,
    lu_solver,
    require_nonsingular,
    solve_checked,
)
from .projection import INCOMPATIBLE, build_pi

__all__ = [
    "RelaxSpec",
    "TwoGridSpec",
    "PreparedTwoGrid",
    "relax_propagator",
    "two_grid_propagator",
    "conv_factor",
    "two_grid_conv_factor",
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
        key = _tag_key(self.kind)
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


@dataclass(frozen=True, eq=False)
class PreparedTwoGrid(TwoGridSpec):
    """A TwoGridSpec bound to one matrix A, with the guards it needs made once.

    Building PreparedTwoGrid(pair, pre, post, A=A) guards and factors
    K = R*AP (as in build_pi, a singular K raises SingularMatrixError naming
    the pair incompatible) and then, when a relaxation is an exact F-solve,
    guards A_ff. two_grid_conv_factor and iterate on it share both.

    coarse is (R*A, solve with K), or None without a pair. K is factored as
    iterate has always factored it, so residual histories keep their bits.
    solve_ff(B) gives A_ff^{-1} B as solve_checked does, or is None.
    """

    A: np.ndarray = field(kw_only=True)
    coarse: tuple | None = field(init=False, repr=False)
    solve_ff: Callable | None = field(init=False, repr=False)

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        object.__setattr__(self, "A", A)
        coarse = solve_ff = None
        if self.pair is not None:
            RA = self.pair.R.T @ A
            try:
                coarse = RA, lu_solver(RA @ self.pair.P, "coarse operator R*AP", structured=True)
            except SingularMatrixError as e:
                raise SingularMatrixError(f"{INCOMPATIBLE}: {e}") from e
            if any(s.kind == "fexact" and not _is_identity(s) for s in (self.pre, self.post)):
                f = list(self.pair.part.fpoints)
                Aff = A[np.ix_(f, f)]
                require_nonsingular(Aff, "A_ff")
                solve_ff = lambda B: scipy.linalg.solve(Aff, np.asarray(B, dtype=float))
        object.__setattr__(self, "coarse", coarse)
        object.__setattr__(self, "solve_ff", solve_ff)


def _prepared(A, spec):
    """spec itself when it is already bound to A, else a fresh binding."""
    if isinstance(spec, PreparedTwoGrid) and spec.A is A:
        return spec
    return PreparedTwoGrid(spec.pair, spec.pre, spec.post, A=A)


def _n_inverse(A, spec, part, solve_ff=None):
    """Approximate inverse N^{-1} applied by one sweep of the relaxation.

    solve_ff(B) = A_ff^{-1} B serves the exact F-solve; by default A_ff is
    guarded and solved with solve_checked.
    """
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
    if solve_ff is None:
        solve_ff = lambda B: solve_checked(A[np.ix_(f, f)], B, "A_ff")
    Ninv[np.ix_(f, f)] = solve_ff(np.eye(len(f)))
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


def _spectral_radius(E):
    if E.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(E))))


def conv_factor(E):
    """Spectral radius of a propagator, via dense eigenvalues."""
    return _spectral_radius(as_matrix(E, "E"))


def _reduces(spec):
    """True when two_grid_conv_factor reads rho from the n_c x n_c matrix T:
    a classical pair, with exact F-relaxation on one side or both and no
    relaxation on the other."""
    sides = [s for s in (spec.pre, spec.post) if not _is_identity(s)]
    return (
        spec.pair is not None
        and spec.pair.cblocks is None
        and bool(sides)
        and all(s.kind == "fexact" for s in sides)
    )


def two_grid_conv_factor(A, spec):
    """Spectral radius of the two-grid error propagator of spec on A.

    With a classical pair and exact F-relaxation on one side or both (and no
    relaxation on the other) rho is read from the n_c x n_c matrix
    T = K^{-1} (R*A)_F (W_ideal - W) (see the module docstring). S is a
    projection, so its sweep count does not matter. Every other method gives
    exactly conv_factor(two_grid_propagator(A, spec)).

    A singular K raises SingularMatrixError as build_pi does, before A_ff is
    guarded.
    """
    A = as_matrix(A, "A")
    if not _reduces(spec):
        return conv_factor(two_grid_propagator(A, spec))
    pair = spec.pair
    if A.shape[0] != pair.n:
        raise ValueError(f"A is {A.shape[0]}x{A.shape[1]} but pair has n={pair.n}")
    method = _prepared(A, spec)
    RA, solve_k = method.coarse
    f, c = list(pair.part.fpoints), list(pair.part.cpoints)
    # W_ideal - W, with W_ideal formed as transfer.ideal_w forms it
    D = -method.solve_ff(A[np.ix_(f, c)]) - pair.W
    return _spectral_radius(solve_k(RA[:, f] @ D))


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
    same bits as solving with scipy.linalg.solve on every iteration. A
    PreparedTwoGrid bound to A already holds the guards and the factor of
    K, and they are used instead of new ones.
    """
    A = as_matrix(A, "A")
    b = np.asarray(b, dtype=float).ravel()
    x = np.array(x0, dtype=float).ravel()
    if iters < 0:
        raise ValueError("iters must be >= 0")
    method = _prepared(A, spec)
    part = spec.pair.part if spec.pair is not None else None
    pre = None if _is_identity(spec.pre) else _n_inverse(A, spec.pre, part, method.solve_ff)
    post = None if _is_identity(spec.post) else _n_inverse(A, spec.post, part, method.solve_ff)
    if spec.pair is not None:
        R, P = spec.pair.R, spec.pair.P
        _, solve_k = method.coarse
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
