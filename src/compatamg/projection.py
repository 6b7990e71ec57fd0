"""Coarse-grid correction projections and everything measurable about them:
induced M-norms, orthogonality conditions, the non-orthogonality measure over
the M-orthogonal complement of the range, and minimal canonical angles.

How Pi = P (R*AP)^{-1} R*A is measured. Write the SPD norm as M = G*G. Then
G Pi G^{-1} is the oblique projection onto U = range(G P) along the orthogonal
complement of V = range(G^{-*} A* R), so ||Pi||_M = 1 / cos(theta_max), where
theta_max is the largest canonical angle between U and V (Szyld, Numer.
Algorithms 42, 2006). The non-orthogonality sup is tan(theta_max) and the
minimal canonical angle between range(Pi) and null(Pi) is pi/2 - theta_max.
One kernel, canonical_angles, takes bases of U and V. It makes a thin QR
Qu of the first and a Householder QR of the second, kept as its reflectors
H, and reflects Qu into that frame: the rows of H* Qu below the first
dim V lie outside V, and the sines of the angles are their singular values
(Bjorck & Golub, Math. Comp. 27, 1973), so a correction close to
M-orthogonal is measured without cancellation. G comes from
realize_norm(..., factored=True):

    identity        I
    AstarA          A, through one LU
    A, Asym         L* from the Cholesky factor L of A or (A + A*)/2
    AstarAsymInvA   L^{-1} A
    SqrtAstarA      Sigma^{1/2} V* from the SVD A = U Sigma V*
    Custom          L* from the Cholesky factor of the payload

Every measure takes the pair's CoarseCorrection (coarse_correction), which
reaches the kernel with bases G P and G^{-*} A* R: neither Pi nor M is
formed and no n x n matrix is decomposed. For G = A and G = L^{-1} A the
factor holds H = G^{-*} A* by algebra, I and L* respectively, so the second
basis is H R without a solve with A; the other norms solve with G* against
A* R. A dense SPD M is taken through its Cholesky factor. Any other input
than a correction raises TypeError. K = R*AP is formed and guarded in one
place, _coarse, which build_pi, coarse_correction and the solver's
binding of a two-grid method share; every function here takes the store
for A. On a tridiagonal A, K and R*A are rows of A [W; I] or A* [Z; I],
formed by the one row kernel of A's _Diagonals (rows), and K is its own
_Diagonals where the pair's one nonzero block is compact.
R*A is formed only where K is made from it, and otherwise when the
correction first reads it, so the two-grid iteration, which reads neither,
forms no n x n_c array on a tridiagonal A.

The rest of a case is measured from the same correction. The compatibility
equation M P = A* R B holds exactly when range(M P) = range(A* R), that is
range(G P) = range(G^{-*} A* R), and it is read off the kernel's reflection:
the part of G P outside range(G^{-*} A* R) is those same rows times the
n_c x n_c R factor of G P. Of the four orthogonality conditions,
range(M Pi) = range(Pi*) is that same G-space condition, so it is read off
the kernel's canonical angles; neither decision costs cond(M) = cond(G)^2 in
round-off. M Pi = Pi* M is read in the kernel's frame too, and the other
two conditions are checked on the thin factors Pi = P B, with
B = (R*AP)^{-1} R*A. One verify-pairs case, with k = n_c, thus makes:

    K = R*AP             for a classical pair [Z; I], [W; I] from Z and W
                         only, and one guarded factor of K
    R*A                  when first read, unless K was made from it
    G P, G^{-*} A* R     products, or triangular or LU solves (see above)
    the kernel           one thin QR of G P, one Householder QR of
                         G^{-*} A* R and one application of its reflectors
    sin(theta_max)       the top eigenpair of one k x k Gram matrix
    compat_eq            one product with the k x k R factor of G P
    range_match          read off the angles
    matches_m_adjoint    one k x k solve with K, products of k columns
    m_pi_hermitian       B = K^{-1} R*A and the n x n product (M P) B
    probes_orthogonal    products with an n x 64 block

The cosines are a k x k SVD of their own, made only when theta_max reaches
pi/4, and the full sines an SVD made only when read. build_pi forms the
dense Pi, which no function of the package reads; it serves the tests as
an oracle.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .linalg import (
    RANK_RTOL,
    SingularMatrixError,
    _CompactBlock,
    _Diagonals,
    _norm1,
    _store_for,
    as_norm_factor,
    lu_solver,
)

__all__ = [
    "CanonicalAngles",
    "CoarseCorrection",
    "OrthogonalityChecks",
    "build_pi",
    "coarse_correction",
    "canonical_angles",
    "pi_m_norm",
    "nonorth_measure",
    "min_canonical_angle",
    "orthogonality_checks",
    "verify_compat_equation",
    "projection_report",
]

# Message prefix of a pair whose coarse operator R*AP the guard rejects.
INCOMPATIBLE = "R and P incompatible with A on this splitting"

# Bilinear-form orthogonality is probed on a fixed pseudorandom sample so
# results are reproducible across runs and platforms.
PROBE_COUNT = 64
PROBE_SEED = 1729

@dataclass(frozen=True)
class CanonicalAngles:
    """Canonical angles between two subspaces of equal dimension k.

    For orthonormal bases Qu and Qv, outside holds the coordinates of the
    part of Qu outside range(Qv) in an orthonormal frame, and inner is
    Qu* Qv. The sines are the singular values of outside and the cosines
    those of inner, each sorted descending and computed only when read. The
    largest sine is ||outside v|| for the top eigenvector v of the k x k
    Gram matrix outside* outside, which keeps its relative accuracy. The
    largest angle theta_max is read from its sine below pi/4 and from its
    cosine above, so it is accurate in both regimes, and the cosines are
    read only above.
    """

    outside: np.ndarray = field(repr=False, compare=False)
    inner: np.ndarray = field(repr=False, compare=False)

    @property
    def k(self):
        return self.inner.shape[0]

    @cached_property
    def sines(self):
        """Singular values of outside, sorted descending; zero past its row count."""
        sines = np.zeros(self.k)
        s = np.linalg.svd(self.outside, compute_uv=False)
        sines[: s.size] = np.clip(s, 0.0, 1.0)
        return sines

    @cached_property
    def cosines(self):
        """Singular values of Qu* Qv, sorted descending."""
        return np.clip(np.linalg.svd(self.inner, compute_uv=False), 0.0, 1.0)

    @cached_property
    def sine_top(self):
        """sin theta_max, as ||E v|| for the top eigenvector v of the Gram matrix E* E."""
        k = self.k
        if k == 0:
            return 0.0
        E = self.outside
        _, v = scipy.linalg.eigh(E.T @ E, subset_by_index=[k - 1, k - 1])
        return min(float(np.linalg.norm(E @ v)), 1.0)

    @property
    def _extreme(self):
        """(sin, cos) of theta_max: read from the sine below pi/4, the cosine above.

        Below pi/4 the cosine is sqrt(1 - s*s), which rounds to exactly 1 for
        every s <= 2^-27, so an exact pair reads pi_norm 1.0; the factored
        form (1 - s)(1 + s) puts such pairs at 1 +- 1 ulp.
        """
        if self.k == 0:
            return 0.0, 1.0
        s = self.sine_top
        if s * s <= 0.5:
            return s, math.sqrt(1.0 - s * s)
        c = float(self.cosines[-1])
        return math.sqrt((1.0 - c) * (1.0 + c)), c

    @property
    def sin_max(self):
        """sin(theta_max)."""
        return self._extreme[0]

    @property
    def cos_max(self):
        """cos(theta_max)."""
        return self._extreme[1]

    @property
    def pi_norm(self):
        """1 / cos(theta_max): the norm of the oblique projection onto U along V-perp.

        Zero when the subspaces are {0}: the projection itself is zero.
        """
        if self.k == 0:
            return 0.0
        c = self.cos_max
        return math.inf if c == 0.0 else 1.0 / c

    @property
    def nonorth_sup(self):
        """tan(theta_max), with pi_norm^2 = 1 + nonorth_sup^2."""
        c = self.cos_max
        return math.inf if c == 0.0 else self.sin_max / c

    @property
    def min_angle(self):
        """pi/2 - theta_max, the minimal angle between range and null space."""
        return math.atan2(self.cos_max, self.sin_max)


def _reflect(h, tau, C):
    """H* C for the Householder reflectors (h, tau) of a raw QR, by LAPACK dormqr.

    C is overwritten when it is Fortran-ordered, as scipy's thin Q is.
    """
    lwork = int(lapack.dormqr("L", "T", h, tau, C, -1, overwrite_c=1)[1][0])
    return lapack.dormqr("L", "T", h, tau, C, max(lwork, 1), overwrite_c=1)[0]


def _kernel(X, Y):
    """(canonical_angles(X, Y), Ru, Rv) on the Householder frame H of range(Y).

    Qu Ru is the thin QR of X and Y = H [Rv; 0] the Householder QR of Y, kept
    as its reflectors, so Qv, the first k columns of H, is never formed. In
    Z = H* Qu the top k rows are Qv* Qu, so inner = Qu* Qv is their
    transpose, and E = Z[k:], the angles' outside block, holds the
    coordinates of Qu outside range(Y): the sines are its singular values
    (Bjorck & Golub, Math. Comp. 27, 1973) and the part of X outside range(Y)
    is H [0; E Ru]. When k > n/2, E has only n - k rows, and the other
    2k - n sines are zero.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape != Y.shape:
        raise ValueError(f"bases must have the same shape, got {X.shape} and {Y.shape}")
    k = X.shape[1]
    if k == 0:
        empty = np.zeros((0, 0))
        return CanonicalAngles(X, empty), empty, empty
    Qu, Ru = scipy.linalg.qr(X, mode="economic")
    (h, tau), Rv = scipy.linalg.qr(Y, mode="raw")
    Z = _reflect(h, tau, Qu)  # overwrites Qu
    del h
    return CanonicalAngles(Z[k:], Z[:k].T), Ru, Rv


def canonical_angles(X, Y):
    """Canonical angles between range(X) and range(Y), both of full column rank k.

    A thin QR Qu of X is reflected into the Householder frame of Y's QR; the
    sines are the singular values of the rows that fall outside range(Y),
    and the cosines, those of Qu* Qv, are left to the first read.
    """
    return _kernel(X, Y)[0]


def _within(outside, whole):
    """Whether each column of outside is at most RANK_RTOL times that of whole, in 2-norm.

    outside is the part of a block that lies outside a subspace and whole the
    block itself, or any matrix with the same column norms.
    """
    return bool(np.all(np.linalg.norm(outside, axis=0)
                       <= RANK_RTOL * np.linalg.norm(whole, axis=0)))


def _blocks(factor, A, pair, corr=None):
    """The kernel's bases G P and G^{-*} A* R for the factor G.

    G^{-*} A* R is H R, with the factor's H = G^{-*} A*, when it was
    realized on this A (NormFactor.h_on): R itself for G = A, L* R for
    G = L^{-1} A. Otherwise it is a solve with G* against A* R, read as the
    transpose of the R* A of the pair's CoarseCorrection corr when given.
    """
    GP = factor.apply(pair.P)
    H = factor.h_on(A)
    if H is not None:
        return GP, H.apply(pair.R)
    return GP, factor.solve_adj(A.T @ pair.R if corr is None else corr.RA.T)


@dataclass(frozen=True)
class _Frame:
    """The kernel's output for one correction and one factor G.

    GP = G P = Qu Ru and G^{-*} A* R = H [Rv; 0]; the angles hold
    Z = H* Qu as inner = Z[:k]* and outside = Z[k:], and compat_eq is
    decided from the part of G P outside range(G^{-*} A* R), H [0; E Ru].
    """

    GP: np.ndarray
    angles: CanonicalAngles
    Ru: np.ndarray
    Rv: np.ndarray
    compat_eq: bool


def _frame(factor, A, pair, corr=None):
    """The kernel's _Frame for the pair on A and the factor G; corr as in _blocks."""
    GP, GAR = _blocks(factor, A, pair, corr)
    angles, Ru, Rv = _kernel(GP, GAR)
    del GAR
    return _Frame(GP, angles, Ru, Rv, _within(angles.outside @ Ru, Ru))


@dataclass(frozen=True)
class CoarseCorrection:
    """The coarse-grid correction of a pair on A, held through the pair.

    Pi = P (R*AP)^{-1} R*A is never formed. Built by _coarse, which rejects a
    singular coarse operator and keeps the store's reader of the dense A as
    dense_a, the guard's factor of K = R*AP as solve, the diagonals of A
    that K was formed on, if any, and R*A as ra if K was formed from it. It
    holds no ProblemStore, so a store that keeps it as an entry is still
    freed by reference counting.
    """

    dense_a: Callable = field(repr=False, compare=False)  # () -> A, the store's array
    pair: object
    solve: object = field(repr=False, compare=False)      # X -> K^{-1} X
    diags: tuple | None = field(repr=False, compare=False)
    ra: np.ndarray | None = field(repr=False, compare=False)
    # [factor, _Frame] of the last factor, so that every measure of one case
    # shares one kernel call
    _last: list = field(default_factory=list, init=False, repr=False, compare=False)

    @property
    def A(self):
        """The dense A, the store's array: on a tridiagonal A held by its
        diagonals it is built on the first read, by a measure."""
        return self.dense_a()

    @cached_property
    def RA(self):
        """R* A, n_c x n: ra, else formed on first read, so a consumer that
        reads only solve and the pair's blocks, as the two-grid iteration
        does, never forms it. That is A[C, :] for Z = 0, scattered from A's
        diagonals when K was formed on them, else (A* R)* on A's diagonals
        and Z, with R itself left unassembled."""
        if self.ra is not None:
            return self.ra
        part = self.pair.part
        if self.pair.zero_blocks[0]:
            if self.diags is None:
                return self.A[part.cidx]
            return self.diags.block(part.cidx, np.arange(part.n))
        return self.diags.rows(part, self.pair.Z, np.arange(part.n), trans=1).T

    @cached_property
    def B(self):
        """(R*AP)^{-1} R*A, so that Pi = P B."""
        return self.solve(self.RA)

    def frame(self, factor):
        """The kernel's _Frame for the factor G, computed once per factor."""
        if not (self._last and self._last[0] is factor):
            self._last.clear()  # not held while the next frame is built
            self._last[:] = [factor, _frame(factor, self.A, self.pair, self)]
        return self._last[1]

    def angles(self, factor):
        """Canonical angles between range(G P) and range(G^{-*} A* R) for the factor G."""
        return self.frame(factor).angles

    def compat_eq(self, factor):
        """Whether range(G P) lies in range(G^{-*} A* R), by verify_compat_equation's rule.

        Read off the kernel, which runs here unless it has run for this factor.
        """
        return self.frame(factor).compat_eq

    def adjoint_defect(self, factor):
        """(||X - X*||_F, ||X||_F) for X = G Pi G^{-1}, from the kernel's frame.

        X = Qu S Qv* with S = Ru K^{-1} Rv*, one k x k solve with K. In the
        frame H of range(G^{-*} A* R), H* X H = [Z1 S, 0; E S, 0], so
        ||X - X*||^2 = ||Z1 S - (Z1 S)*||^2 + 2 ||E S||^2 and
        ||X||^2 = ||Z1 S||^2 + ||E S||^2; no n x n matrix is formed.
        """
        f = self.frame(factor)
        S = f.Ru @ self.solve(f.Rv.T)
        T = f.angles.inner.T @ S
        es = float(np.linalg.norm(f.angles.outside @ S))
        asym = math.hypot(float(np.linalg.norm(T - T.T)), math.sqrt(2.0) * es)
        return asym, math.hypot(float(np.linalg.norm(T)), es)


def _galerkin(store, pair, diags):
    """(R* A or None, K = R* A P) for a pair on the ProblemStore store's A
    and A's diagonals diags, or None.

    R* A is returned where K is formed from it, and None where K is formed
    without it; CoarseCorrection.RA then forms it on demand with the same
    bits. A classical
    pair R = [Z; I], P = [W; I] skips the products with its identity blocks,
    and with a block its zero_blocks finds exactly zero, which would add only
    exact zeros. With Z = W = 0, K is A_cc, read by the store's block. With
    Z = 0, K is the C rows of A P, A[C, F] W + A[C, C];
    for a tridiagonal A with Z != 0, R* A is (A* R)*, so K is read off the
    F and C rows of A* R. Those rows, and the C rows of A P, come from the
    row kernel on A's diagonals and the block (_Diagonals.rows), in
    O(n n_c), so on a tridiagonal A no n x n_c array is formed. Where the
    one nonzero block is a _CompactBlock, K is tridiagonal, and the kernel
    forms its three diagonals, with the bits of those rows, in O(n)
    (_Diagonals.compact_coarse).
    A dense A with Z != 0 forms
    R* A = Z* A[F, :] + A[C, :] and K = (R* A)[:, F] W + (R* A)[:, C]. Each
    operand has the values and memory order that the full R* A gave, so K
    keeps its bits.
    """
    if pair.cblocks is not None:
        RA = pair.R.T @ store.A
        return RA, RA @ pair.P
    part = pair.part
    f, c = part.fidx, part.cidx
    zero_z, zero_w = pair.zero_blocks
    Z, W = pair.blocks
    if diags is not None and zero_z != zero_w:
        # the C rows of A [W; I], or the transpose of those of A* [Z; I]
        B, trans = (W, 0) if zero_z else (Z, 1)
        if isinstance(B, _CompactBlock):
            return None, diags.compact_coarse(part, B, trans)
        K = diags.rows(part, B, c, trans)
        return None, K.T if trans else K
    if zero_z:
        if zero_w:
            return None, store.block(c, c)
        # A[C, F] gathered in Fortran order, the order of (R*A)[:, F] below,
        # so the GEMM sums alike
        A = store.A
        return None, A.T[np.ix_(f, c)].T @ pair.W + A[np.ix_(c, c)]
    if diags is not None:
        # (A* R)[F]* and (A* R)[C]* are the F and C columns of R* A, in its order
        RAf, RAc = (diags.rows(part, pair.Z, rows, trans=1).T for rows in (f, c))
        return None, RAf @ pair.W + RAc
    A = store.A
    RA = pair.Z.T @ A[f]
    RA += A[c]
    if zero_w:
        return RA, RA[:, c]
    return RA, RA[:, f] @ pair.W + RA[:, c]



def _scale(store, pair):
    """||R*||_1 ||A||_1 ||P||_1, which bounds ||K||_1 for K = R*AP.

    For a classical pair ||R*||_1 = max(1, ||Z||_inf) and
    ||P||_1 = 1 + ||W||_1, each 1 for a block its zero_blocks finds zero;
    ||A||_1 is the store's. Every norm is a LAPACK dlange on the block as it
    is held, so no temporary of its size is made, or, on a _CompactBlock,
    the sums of its nonzeros, with dlange's values.
    """
    if pair.cblocks is not None:
        r, p = _norm1(pair.R.T), _norm1(pair.P)
    else:
        (zero_z, zero_w), (Z, W) = pair.zero_blocks, pair.blocks
        r = 1.0 if zero_z else max(1.0, Z.row_norm() if isinstance(Z, _CompactBlock) else _norm1(Z.T))
        p = 1.0 if zero_w else 1.0 + (W.column_norm() if isinstance(W, _CompactBlock) else _norm1(W))
    return r * store.norm1() * p


def _coarse(store, pair):
    """(CoarseCorrection, K) of a pair on the ProblemStore store: the one guard of K = R*AP.

    K is formed by _galerkin on A's three diagonals when the store finds A
    tridiagonal (a pair with C-blocks, or with Z = W = 0, reads none), and
    guarded and factored by lu_solver against ||R*||_1 ||A||_1 ||P||_1
    (_scale), not ||K||_1: a K that is round-off relative to its factors,
    as when R*AP cancels, is singular however well conditioned it is on its
    own scale. R*A is left to the correction's first read unless K was
    formed from it. A singular K raises SingularMatrixError, its message
    prefixed with INCOMPATIBLE. K is returned as formed: an array, or the
    _Diagonals of a tridiagonal K.
    """
    if store.n != pair.n:
        raise ValueError(f"A is {store.shape[0]}x{store.shape[1]} but pair has n={pair.n}")
    diags = None if pair.cblocks is not None or all(pair.zero_blocks) else store.tridiagonal()
    RA, K = _galerkin(store, pair, diags)
    try:
        solve = lu_solver(K, "coarse operator R*AP", norm=_scale(store, pair))
    except SingularMatrixError as e:
        raise SingularMatrixError(f"{INCOMPATIBLE}: {e}") from e
    return CoarseCorrection(store._dense, pair, solve, diags, RA), K


def coarse_correction(A, pair):
    """The pair's coarse-grid correction on A, after the guard on K = R*AP.

    A is the matrix or its ProblemStore. A singular K raises
    SingularMatrixError naming the pair incompatible.
    """
    return _coarse(_store_for(A), pair)[0]


def build_pi(A, pair):
    """Materialize the coarse-grid correction projection and coarse operator.

    Returns (Pi, K) with K = R* A P and Pi = P K^{-1} R* A, from the
    correction coarse_correction(A, pair) holds; A is the matrix or its
    ProblemStore. Pi is idempotent up to round-off whenever K is well
    conditioned. No function of the package forms Pi; the dense projection
    serves the tests as an oracle.
    """
    corr, K = _coarse(_store_for(A), pair)
    return pair.P @ corr.B, K.dense() if isinstance(K, _Diagonals) else K


def _angles(pi, M):
    """The kernel's canonical angles of the correction pi in the norm M.

    M is a NormFactor or a dense SPD matrix. Any pi other than a
    CoarseCorrection raises TypeError.
    """
    if not isinstance(pi, CoarseCorrection):
        raise TypeError(
            f"expected a CoarseCorrection, got {type(pi).__name__}: "
            "measure coarse_correction(A, pair)"
        )
    return pi.angles(as_norm_factor(M))


def pi_m_norm(pi, M):
    """Induced M-norm of the correction; equals the norm of its complement."""
    return _angles(pi, M).pi_norm


def nonorth_measure(pi, M):
    """Amplification of the correction over the M-orthogonal complement of its range.

    The largest value of ||Pi x||_M / ||x||_M over range(Pi)^{perp_M}, which is
    tan(theta_max). Zero exactly when the projection is M-orthogonal.
    """
    return _angles(pi, M).nonorth_sup


def min_canonical_angle(pi, M):
    """Minimal canonical angle between range(Pi) and null(Pi) in the M-inner product.

    The projection's M-norm equals 1/sin of this angle; an M-orthogonal
    projection gives pi/2.
    """
    return _angles(pi, M).min_angle


@dataclass(frozen=True)
class OrthogonalityChecks:
    """Four equivalent M-orthogonality conditions, each evaluated to a tolerance.

    For a true projection these agree: either all hold or none do.
    """

    m_pi_hermitian: bool      # M Pi = (M Pi)*
    matches_m_adjoint: bool   # Pi = M^{-1} Pi* M, tested as G Pi G^{-1} symmetric
    range_match: bool         # range(M Pi) = range(Pi*), for a correction in G-space
    probes_orthogonal: bool   # <Pi x, (I - Pi) y>_M ~ 0 on random probes

    @property
    def all_true(self):
        return self.m_pi_hermitian and self.matches_m_adjoint \
            and self.range_match and self.probes_orthogonal

    @property
    def agree(self):
        vals = self.as_dict().values()
        return all(vals) or not any(vals)

    def as_dict(self):
        return {
            "m_pi_hermitian": self.m_pi_hermitian,
            "matches_m_adjoint": self.matches_m_adjoint,
            "range_match": self.range_match,
            "probes_orthogonal": self.probes_orthogonal,
        }


def _one_range(angles):
    """Whether two r-dimensional subspaces at these canonical angles are one.

    That is rank [Qu Qv] = r for orthonormal bases Qu, Qv of the two. The
    stack's singular values are sqrt(1 + cos t_i) and sqrt(1 - cos t_i) =
    sin t_i / sqrt(1 + cos t_i) over the angles t_i, so its numerical rank is
    r exactly when the largest trailing value, at the largest angle, is at
    most RANK_RTOL times the leading one, sqrt(1 + cos t_min). That can hold
    only for theta_max < 2 RANK_RTOL, where cos t_min is within one ulp of 1,
    so the leading value is taken as sqrt(2). theta_max is read as the kernel
    reads it, so the cosines are computed only when theta_max >= pi/4.
    """
    if angles.k == 0:
        return True
    return angles.sin_max / math.sqrt(1.0 + angles.cos_max) <= RANK_RTOL * math.sqrt(2.0)


def orthogonality_checks(pi, M, tol=1e-8):
    """Evaluate the four equivalent M-orthogonality conditions on a correction.

    pi is a CoarseCorrection; M is a dense SPD matrix or a NormFactor,
    validated once, and a factor is used as given. Three conditions are
    checked on the thin factors Pi = P B, with B = (R*AP)^{-1} R*A and the
    kernel's block G P. range_match is decided in G-space from the kernel's
    canonical angles, which pi_m_norm has already computed for the case, and
    matches_m_adjoint in the kernel's frame (CoarseCorrection.adjoint_defect):
    no QR or SVD is made here once the kernel has run.
    """
    G = as_norm_factor(M)
    angles = _angles(pi, G)
    tiny = np.finfo(float).tiny
    P, B, GP = pi.pair.P, pi.B, pi.frame(G).GP
    # Pi = M^{-1} Pi* M exactly when X = G Pi G^{-1} is symmetric; X costs
    # one cond(G) in round-off where M^{-1} would cost cond(M) = cond(G)^2
    asym, xnorm = pi.adjoint_defect(G)
    adj_ok = asym <= tol * max(xnorm, tiny)

    MP = G.apply_adj(GP) @ B
    scale = max(float(np.linalg.norm(MP)), tiny)
    herm = float(np.linalg.norm(MP - MP.T)) <= tol * scale
    del MP

    # range(M Pi) = range(M P) and range(Pi*) = range(A* R), which are one
    # exactly when range(G P) = range(G^{-*} A* R): the kernel's subspaces
    range_ok = _one_range(angles)

    # probe pairs x_k, y_k drawn in the order x_0, y_0, x_1, y_1, ...
    probes = np.random.default_rng(PROBE_SEED).standard_normal((PROBE_COUNT, 2, B.shape[1]))
    X, Y = probes[:, 0].T, probes[:, 1].T
    GU = G.apply(P @ (B @ X))
    GV = G.apply(Y - P @ (B @ Y))
    num = np.abs(np.sum(GU * GV, axis=0))
    den = np.linalg.norm(GU, axis=0) * np.linalg.norm(GV, axis=0)
    live = den > tiny
    worst = float(np.max(num[live] / den[live])) if np.any(live) else 0.0
    probes_ok = worst <= tol

    return OrthogonalityChecks(herm, adj_ok, range_ok, probes_ok)


def verify_compat_equation(A, M, pair):
    """Range form of the compatibility condition: range(M P) = range(A* R).

    This is the paper's compatibility equation M P = A* R B, equivalent to
    M-orthogonality of the coarse-grid correction built from the pair. With
    M = G*G it holds exactly when range(G P) = range(G^{-*} A* R), and it is
    decided there: true iff every column of G P lies in the range of
    G^{-*} A* R to relative residual RANK_RTOL, read off the kernel as the
    part E Ru of G P outside that range. The test is invariant to column
    scalings of P and to any nonsingular right-scaling of R. A is the matrix
    or its ProblemStore; M is a dense SPD matrix or a NormFactor; pair is a
    TransferPair, or its CoarseCorrection on A, whose kernel is then reused,
    so once the kernel has run for M no further decomposition is made. A
    pair is not guarded, so a pair whose R*AP is singular still gets a
    verdict.
    """
    factor = as_norm_factor(M)
    if isinstance(pair, CoarseCorrection):
        return pair.compat_eq(factor)
    return _frame(factor, _store_for(A).A, pair).compat_eq


def projection_report(A, pair, M, tol=1e-8):
    """Everything measured about one pair's coarse-grid correction in the norm M.

    A is the matrix or its ProblemStore, and M a NormFactor or a dense SPD
    matrix. Returns the measurement fields of a verify-pairs record:
    pi_norm, nonorth_sup, min_angle, compat_eq and the four
    orthogonality_checks, all from one CoarseCorrection, so Pi is never
    formed. A singular R*AP raises SingularMatrixError.
    """
    factor = as_norm_factor(M)
    corr = coarse_correction(A, pair)
    return {
        "pi_norm": float(pi_m_norm(corr, factor)),
        "nonorth_sup": float(nonorth_measure(corr, factor)),
        "min_angle": float(min_canonical_angle(corr, factor)),
        "compat_eq": verify_compat_equation(A, factor, corr),
        "orthogonality_checks": orthogonality_checks(corr, factor, tol).as_dict(),
    }
