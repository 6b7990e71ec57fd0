"""Relaxation schemes, two-grid error propagators, convergence factors, and
the C-point error property of ideal restriction.

The smoother matrix is called N throughout (error propagator I - N^{-1} A);
Q is reserved for the companion matrices of transfer-operator construction.

Convergence factors. two_grid_conv_factor takes the spectral radius of a
two-grid method. An exact F-relaxation is S = P_ideal [0 I], with
P_ideal = [W_ideal; I] and W_ideal = -A_ff^{-1} A_fc, so with a classical
pair R = [Z; I], P = [W; I] and S before, after or on both sides of the
correction, E has the nonzero spectrum of one n_c x n_c matrix,

    T = K^{-1} (R*A)_F (W_ideal - W) = K^{-1} (Z - Z_ideal)* A_ff (W_ideal - W),

with K = R*AP and (R*A)_F the F-point columns of R*A, which equal
(Z - Z_ideal)* A_ff since Z_ideal* = -A_cf A_ff^{-1} (Manteuffel, Ruge &
Southworth, SISC 40, 2018; Manteuffel, Muenzenmaier, Ruge & Southworth,
SISC 41, 2019). T is formed in that two-sided form from n_f x n_c and
n_c x n_c products; neither Pi nor E is formed, and there is no I - (~I)
cancellation. T vanishes when either operator is ideal for A: then the
method is a direct one, and rho = 0 is returned without an eigensolve.
Jacobi and F-Jacobi relaxations, relaxation-only methods and pairs with
C-point blocks take the dense path, conv_factor(two_grid_propagator(A, spec)),
which also serves as the oracle for the reduced one.

PreparedTwoGrid binds a method to its matrix and to A's ProblemStore, so
that two_grid_conv_factor, two_grid_propagator and iterate on it guard and
factor K and A_ff once between them. A_ff is factored once per store: the
ideal blocks of A, the exact F-relaxation and its dense oracle all solve
with the store's A_ff solver. iterate applies each relaxation to the
residual as an operator, a diagonal scaling or an F-block solve, and forms
no N^{-1}. The dense path forms Pi = P K^{-1} R*A with the prepared solve,
which gives the bits of build_pi for a general or a tridiagonal K. scipy
solves an exactly symmetric, triangular or diagonal K by a dedicated solver
instead, so there rho may differ from build_pi's propagator in the last
bits.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .linalg import ProblemStore, SingularMatrixError, _tag_key, as_matrix, lu_solver
from .projection import INCOMPATIBLE, _galerkin, build_pi
from .transfer import _ideal_block

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

    Building PreparedTwoGrid(pair, pre, post, A=A, store=store) validates A,
    forms R*A and K = R*AP as build_pi does (projection._galerkin), guards
    and factors K (as in build_pi, a singular K raises SingularMatrixError
    naming the pair incompatible) and then, when a relaxation is an exact
    F-solve, takes the store's A_ff solver, guarded as "A_ff". store is A's
    ProblemStore, one of its own by default; two_grid_conv_factor reads the
    ideal blocks of A from it. two_grid_conv_factor, two_grid_propagator and
    iterate on a binding to the very same A share all of this and skip the
    finiteness scan of A, which was made here.

    coarse is (R*A, solve with K), or None without a pair. K is factored as
    iterate has always factored it, so residual histories keep their bits.
    solve_ff(B) gives A_ff^{-1} B against the store's LU factor, or is None.
    """

    A: np.ndarray = field(kw_only=True)
    store: ProblemStore | None = field(default=None, kw_only=True, repr=False)
    coarse: tuple | None = field(init=False, repr=False)
    solve_ff: Callable | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.store is None:
            store = ProblemStore(self.A)
            A = store.A
        else:
            store, A = self.store, as_matrix(self.A, "A")
            if store.A is not A:
                raise ValueError("store must be the ProblemStore of this very A")
        coarse = solve_ff = None
        if self.pair is not None:
            if A.shape[0] != self.pair.n:
                raise ValueError(f"A is {A.shape[0]}x{A.shape[1]} but pair has n={self.pair.n}")
            RA, K = _galerkin(A, self.pair)
            try:
                coarse = RA, lu_solver(K, "coarse operator R*AP", structured=True)
            except SingularMatrixError as e:
                raise SingularMatrixError(f"{INCOMPATIBLE}: {e}") from e
            if any(s.kind == "fexact" and not _is_identity(s) for s in (self.pre, self.post)):
                solve_ff = store.ff_solve(self.pair.part)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "store", store)
        object.__setattr__(self, "coarse", coarse)
        object.__setattr__(self, "solve_ff", solve_ff)


def _bind(A, spec):
    """(A, method) for spec on A: spec itself when it is bound to this very A,
    which it scanned at binding, else a fresh binding, which validates A."""
    if isinstance(spec, PreparedTwoGrid) and spec.A is A:
        return A, spec
    method = PreparedTwoGrid(spec.pair, spec.pre, spec.post, A=A)
    return method.A, method


def _relaxation(A, spec, part, solve_ff=None):
    """One sweep of a relaxation as (rows, apply): N^{-1} r is apply(r[rows])
    on the rows, and zero elsewhere.

    spec is not the identity (see _is_identity). rows are all points for
    Jacobi and the F-points otherwise. apply scales by omega / diag(A), or
    solves with A_ff for the exact F-solve: by solve_ff, by default on a
    guard of A_ff of its own.
    """
    if spec.kind == "jacobi":
        d = np.diag(A)
        if np.any(d == 0.0):
            raise ValueError("Jacobi relaxation needs a zero-free diagonal")
        w = spec.omega / d
        return np.arange(A.shape[0]), lambda r: w * r
    if part is None:
        raise ValueError(f"relaxation kind {spec.kind!r} needs a CF partition")
    f = list(part.fpoints)
    if spec.kind == "fjacobi":
        d = np.diag(A)[f]
        if np.any(d == 0.0):
            raise ValueError("F-Jacobi relaxation needs a zero-free F-point diagonal")
        w = spec.omega / d
        return f, lambda r: w * r
    if solve_ff is None:
        solve_ff = ProblemStore(A).ff_solve(part)
    return f, solve_ff


def _n_inverse(A, spec, part, solve_ff=None):
    """Approximate inverse N^{-1} applied by one sweep of the relaxation, as an
    n x n matrix; only the dense propagator forms it.

    solve_ff(B) = A_ff^{-1} B serves the exact F-solve, as in _relaxation.
    """
    rows, apply = _relaxation(A, spec, part, solve_ff)
    Ninv = np.zeros(A.shape)
    Ninv[np.ix_(rows, rows)] = apply(np.eye(len(rows)))
    return Ninv


def _is_identity(spec):
    """True when the relaxation leaves the error unchanged."""
    return spec.kind == "none" or spec.sweeps == 0


def relax_propagator(A, spec, part=None):
    """Error propagator (I - N^{-1} A)^sweeps of a relaxation scheme.

    part is required for the F-point kinds and ignored otherwise. An exact
    F-solve solves with the LU factor of A_ff, as a PreparedTwoGrid does.
    """
    A = as_matrix(A, "A")
    n = A.shape[0]
    if _is_identity(spec):
        return np.eye(n)
    return _sweeps(A, spec, part)


def _sweeps(A, spec, part, solve_ff=None):
    """(I - N^{-1} A)^sweeps, with solve_ff serving an exact F-solve."""
    E1 = np.eye(A.shape[0]) - _n_inverse(A, spec, part, solve_ff) @ A
    return np.linalg.matrix_power(E1, spec.sweeps)


def two_grid_propagator(A, spec):
    """Full two-grid error propagator E_post (I - Pi) E_pre.

    A relaxation that is the identity (kind none or zero sweeps) is left out
    of the product; the others associate as (E_post (I - Pi)) E_pre. Pi and
    an exact F-solve are formed with the guards and factors of a
    PreparedTwoGrid bound to A, made here when spec is not one.
    """
    A, method = _bind(A, spec)
    n = A.shape[0]
    part = spec.pair.part if spec.pair is not None else None
    E = np.eye(n)
    if spec.pair is not None:
        RA, solve_k = method.coarse
        E -= spec.pair.P @ solve_k(RA)
    if not _is_identity(spec.post):
        E = _sweeps(A, spec.post, part, method.solve_ff) @ E
    if not _is_identity(spec.pre):
        E = E @ _sweeps(A, spec.pre, part, method.solve_ff)
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
    T = K^{-1} (Z - Z_ideal)* A_ff (W_ideal - W) (see the module docstring),
    with Z_ideal and W_ideal of A from the binding's ProblemStore. When
    Z = Z_ideal or W = W_ideal exactly, as for an ideal block of A built
    through a store, rho is 0.0 and no eigensolve is made. S is a
    projection, so its sweep count does not matter. Every other method gives
    exactly conv_factor(two_grid_propagator(A, spec)).

    A singular K raises SingularMatrixError as build_pi does, before A_ff is
    guarded.
    """
    A, method = _bind(A, spec)
    if not _reduces(spec):
        return _spectral_radius(two_grid_propagator(A, method))
    pair = spec.pair
    part = pair.part
    dZ = pair.Z - _ideal_block(method.store, part, "A", "Z")
    if not dZ.any():
        return 0.0
    dW = _ideal_block(method.store, part, "A", "W") - pair.W
    if not dW.any():
        return 0.0
    f = list(part.fpoints)
    _, solve_k = method.coarse
    return _spectral_radius(solve_k(dZ.T @ (A[np.ix_(f, f)] @ dW)))


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

    Every matrix is guarded and factored once per call, or taken from a
    PreparedTwoGrid bound to A. N^{-1} is never formed: a sweep scales the
    residual by omega / diag(A) (Jacobi, or its F-point rows for F-Jacobi)
    or solves with A_ff against its LU factor on the F-points. K = R*AP is
    factored once, so the coarse correction costs products and two
    triangular solves; a tridiagonal K is factored by tridiagonal
    elimination, which gives the same bits as solving with
    scipy.linalg.solve on every iteration. The residual of each update
    serves the next update and the history, so an iteration makes one
    product with A per update.
    """
    A, method = _bind(A, spec)
    b = np.asarray(b, dtype=float).ravel()
    x = np.array(x0, dtype=float).ravel()
    if iters < 0:
        raise ValueError("iters must be >= 0")
    part = spec.pair.part if spec.pair is not None else None
    steps = []  # (rows, apply): x[rows] += apply(r[rows]), or x += apply(r) for rows None
    if not _is_identity(spec.pre):
        steps += [_relaxation(A, spec.pre, part, method.solve_ff)] * spec.pre.sweeps
    if spec.pair is not None:
        R, P = spec.pair.R, spec.pair.P
        _, solve_k = method.coarse
        steps.append((None, lambda r: P @ solve_k(R.T @ r)))
    if not _is_identity(spec.post):
        steps += [_relaxation(A, spec.post, part, method.solve_ff)] * spec.post.sweeps

    r = b - A @ x
    history = [float(np.linalg.norm(r))]
    for _ in range(iters):
        for rows, apply in steps:
            if rows is None:
                x = x + apply(r)
            else:
                x[rows] += apply(r[rows])
            r = b - A @ x
        history.append(float(np.linalg.norm(r)))
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
