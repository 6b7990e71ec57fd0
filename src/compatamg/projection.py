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

A pair reaches the kernel as a CoarseCorrection, with bases G P and
G^{-*} A* R: neither Pi nor M is formed and no n x n matrix is decomposed.
A dense projection reaches it through one SVD, which gives range(Pi) and
range(Pi*), and a dense SPD M through its Cholesky factor.

The rest of a case is measured from the same correction. The compatibility
equation M P = A* R B holds exactly when range(M P) = range(A* R), that is
range(G P) = range(G^{-*} A* R), and it is read off the kernel's reflection:
the part of G P outside range(G^{-*} A* R) is those same rows times the R
factor of G P, an n_c x n_c product. Of the four orthogonality conditions,
range(M Pi) = range(Pi*) is that same G-space condition, so it is read off
the kernel's canonical angles; neither decision costs cond(M) = cond(G)^2 in
round-off. The other three are checked on the thin factors Pi = P B, with
B = (R*AP)^{-1} R*A, and decompose nothing. One case thus makes one thin QR,
one Householder QR, one application of its reflectors and one n_c x n_c SVD
in all; the kernel's cosines are an SVD of their own, made only when read:
theta_max below pi/4 is decided by the sines. A dense projection is checked
in the original space, on pivoted-QR bases of range(M Pi) and range(Pi*); it
is the reference the tests compare the correction against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .linalg import (
    RANK_RTOL,
    SingularMatrixError,
    as_matrix,
    as_norm_factor,
    lu_solver,
    orth_basis,
    solve_checked,
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

def build_pi(A, pair):
    """Materialize the coarse-grid correction projection and coarse operator.

    Returns (Pi, K) with K = R* A P and Pi = P K^{-1} R* A. Pi is idempotent
    up to round-off whenever K is well conditioned. The measurements take a
    CoarseCorrection instead and never form Pi; the dense projection serves
    the dense two-grid propagator and, as an oracle, the tests.
    """
    A = as_matrix(A, "A")
    if A.shape[0] != pair.n:
        raise ValueError(f"A is {A.shape[0]}x{A.shape[1]} but pair has n={pair.n}")
    K = pair.R.T @ A @ pair.P
    try:
        Pi = pair.P @ solve_checked(K, pair.R.T @ A, "coarse operator R*AP")
    except SingularMatrixError as e:
        raise SingularMatrixError(f"{INCOMPATIBLE}: {e}") from e
    return Pi, K


@dataclass(frozen=True)
class CanonicalAngles:
    """Canonical angles between two subspaces of equal dimension.

    For orthonormal bases Qu and Qv, sines are the singular values of the
    part of Qu outside range(Qv), sorted descending, and inner is Qu* Qv.
    cosines, the singular values of inner, are computed on first read. The
    largest angle theta_max is read from its sine below pi/4 and from its
    cosine above, so it is accurate in both regimes, and the cosines are read
    only above.
    """

    sines: np.ndarray
    inner: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def cosines(self):
        """Singular values of Qu* Qv, sorted descending."""
        return np.clip(np.linalg.svd(self.inner, compute_uv=False), 0.0, 1.0)

    @property
    def _extreme(self):
        """(sin, cos) of theta_max: read from the sine below pi/4, the cosine above."""
        if self.sines.size == 0:
            return 0.0, 1.0
        s = float(self.sines[0])
        if s * s <= 0.5:
            return s, math.sqrt((1.0 - s) * (1.0 + s))
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
        if self.sines.size == 0:
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
    """(canonical_angles(X, Y), E, Ru) on the Householder frame H of range(Y).

    Qu Ru is the thin QR of X and Y = H [Rv; 0] the Householder QR of Y, kept
    as its reflectors, so Qv, the first k columns of H, is never formed. In
    Z = H* Qu the top k rows are Qv* Qu, so inner = Qu* Qv is their
    transpose, and E = Z[k:] holds the coordinates of Qu outside range(Y):
    the sines are its singular values (Bjorck & Golub, Math. Comp. 27, 1973)
    and the part of X outside range(Y) is H [0; E Ru]. When k > n/2, E has
    only n - k rows, and the other 2k - n sines are zero.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape != Y.shape:
        raise ValueError(f"bases must have the same shape, got {X.shape} and {Y.shape}")
    k = X.shape[1]
    if k == 0:
        return CanonicalAngles(np.zeros(0), np.zeros((0, 0))), X, np.zeros((0, 0))
    # the one array the angles keep is made before the n x k temporaries, so
    # that it does not hold the heap above them once they are freed
    inner = np.empty((k, k))
    Qu, Ru = scipy.linalg.qr(X, mode="economic")
    (h, tau), _ = scipy.linalg.qr(Y, mode="raw")
    Z = _reflect(h, tau, Qu)  # overwrites Qu
    del h
    E = Z[k:]
    sines = np.zeros(k)
    s = np.linalg.svd(E, compute_uv=False)
    sines[: s.size] = np.clip(s, 0.0, 1.0)
    inner[...] = Z[:k].T
    return CanonicalAngles(sines, inner), E, Ru


def _orthonormal_angles(Qu, Qv):
    """Canonical angles between the ranges of orthonormal bases Qu and Qv."""
    C = Qu.T @ Qv
    sines = np.clip(np.linalg.svd(Qv - Qu @ C, compute_uv=False), 0.0, 1.0)
    return CanonicalAngles(sines, C)


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


def _blocks(factor, P, AstarR):
    """The kernel's bases G P and G^{-*} A* R for the factor G."""
    return factor.apply(P), factor.solve_adj(AstarR)


@dataclass(frozen=True)
class CoarseCorrection:
    """The coarse-grid correction of a pair on A, held through the pair.

    Pi = P (R*AP)^{-1} R*A is never formed. Built by coarse_correction, which
    rejects a singular coarse operator the way build_pi does and keeps the
    guard's LU factor of K = R*AP as solve.
    """

    A: np.ndarray
    pair: object
    RA: np.ndarray = field(repr=False, compare=False)     # R* A, n_c x n
    solve: object = field(repr=False, compare=False)      # X -> K^{-1} X
    # [factor, (G P, G^{-*} A* R), angles, compat_eq] of the last factor, so
    # that every measure of one case shares one set of blocks and one kernel
    # call
    _last: list = field(default_factory=list, init=False, repr=False, compare=False)

    @cached_property
    def B(self):
        """(R*AP)^{-1} R*A, so that Pi = P B."""
        return self.solve(self.RA)

    def blocks(self, factor):
        """(G P, G^{-*} A* R) for the factor G, formed once per factor.

        A* R is read as the transpose of the R* A the correction holds.
        """
        if not (self._last and self._last[0] is factor):
            self._last[:] = [factor, _blocks(factor, self.pair.P, self.RA.T), None, None]
        return self._last[1]

    def angles(self, factor):
        """Canonical angles between range(G P) and range(G^{-*} A* R) for the factor G.

        The kernel's reflection of G P also decides compat_eq, which is kept.
        """
        blocks = self.blocks(factor)
        if self._last[2] is None:
            angles, E, Ru = _kernel(*blocks)
            # G P = Qu Ru, whose part outside range(G^{-*} A* R) is H [0; E Ru]
            self._last[2:] = [angles, _within(E @ Ru, Ru)]
        return self._last[2]

    def compat_eq(self, factor):
        """Whether range(G P) lies in range(G^{-*} A* R), by verify_compat_equation's rule.

        Read off the kernel, which runs here unless it has run for this factor.
        """
        self.angles(factor)
        return self._last[3]


def coarse_correction(A, pair):
    """The pair's coarse-grid correction on A, after the guard on K = R*AP.

    A singular K raises the same SingularMatrixError as build_pi.
    """
    A = as_matrix(A, "A")
    if A.shape[0] != pair.n:
        raise ValueError(f"A is {A.shape[0]}x{A.shape[1]} but pair has n={pair.n}")
    RA = pair.R.T @ A
    try:
        solve = lu_solver(RA @ pair.P, "coarse operator R*AP")
    except SingularMatrixError as e:
        raise SingularMatrixError(f"{INCOMPATIBLE}: {e}") from e
    return CoarseCorrection(A, pair, RA, solve)


def _angles(pi, M):
    """Canonical angles that measure the projection pi in the norm M.

    pi is a CoarseCorrection or a dense projection; M is a NormFactor or a
    dense SPD matrix. A dense projection of rank zero has no angles.
    """
    factor = as_norm_factor(M)
    if isinstance(pi, CoarseCorrection):
        return pi.angles(factor)
    pi = as_matrix(pi, "pi")
    U, s, Vt = np.linalg.svd(pi, full_matrices=False)
    rank = 0 if s.size == 0 or s[0] == 0.0 else int(np.count_nonzero(s > RANK_RTOL * s[0]))
    return canonical_angles(factor.apply(U[:, :rank]), factor.solve_adj(Vt[:rank].T))


def pi_m_norm(pi, M):
    """Induced M-norm of the projection; equals the norm of its complement."""
    return _angles(pi, M).pi_norm


def nonorth_measure(pi, M):
    """Amplification of the projection over the M-orthogonal complement of its range.

    The largest value of ||pi x||_M / ||x||_M over range(pi)^{perp_M}, which is
    tan(theta_max). Zero exactly when the projection is M-orthogonal.
    """
    return _angles(pi, M).nonorth_sup


def min_canonical_angle(pi, M):
    """Minimal canonical angle between range(pi) and null(pi) in the M-inner product.

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
    most RANK_RTOL times the leading one, sqrt(1 + cos t_min). cos t_min is
    read off the smallest sine and theta_max as the kernel reads it, so the
    cosines are computed only when theta_max >= pi/4.
    """
    if angles.sines.size == 0:
        return True
    s = float(angles.sines[-1])
    cos_min = math.sqrt((1.0 - s) * (1.0 + s))
    return angles.sin_max / math.sqrt(1.0 + angles.cos_max) \
        <= RANK_RTOL * math.sqrt(1.0 + cos_min)


def orthogonality_checks(pi, M, tol=1e-8):
    """Evaluate the four equivalent M-orthogonality conditions on a projection.

    pi is a CoarseCorrection or a dense projection; M is a dense SPD matrix or
    a NormFactor, validated once, and a factor is used as given. Three
    conditions are checked on thin factors Pi = L B, L n x r and B r x n. A
    correction gives L = P and B = (R*AP)^{-1} R*A, lends its block G P, and
    decides range_match in G-space from the kernel's canonical angles, which
    pi_m_norm has already computed for the case: no QR or SVD is made here
    once the kernel has run. A dense projection gives L = orth_basis(pi) and
    B = L* pi, and decides range_match in the original space, from the angles
    between pivoted-QR bases of range(M Pi) and range(Pi*).
    """
    G = as_norm_factor(M)
    tiny = np.finfo(float).tiny
    if isinstance(pi, CoarseCorrection):
        L, B = pi.pair.P, pi.B
        GL, GAR = pi.blocks(G)
        # G^{-*} B* = (G^{-*} A* R) K^{-*}, an n_c x n_c solve
        GBt = pi.solve(GAR.T).T
    else:
        pi = as_matrix(pi, "pi")
        L = orth_basis(pi)
        B = L.T @ pi
        GL = G.apply(L)
        GBt = G.solve_adj(B.T)

    # Pi = M^{-1} Pi* M exactly when X = G Pi G^{-1} = (G L)(G^{-*} B*)* is
    # symmetric; forming X costs one cond(G) in round-off where M^{-1} would
    # cost cond(M) = cond(G)^2
    X = GL @ GBt.T
    del GBt
    xscale = max(float(np.linalg.norm(X)), tiny)
    adj_ok = float(np.linalg.norm(X - X.T)) <= tol * xscale
    del X  # so that only one n x n product, with its asymmetry, is live at a time

    ML = G.apply_adj(GL)
    MP = ML @ B
    scale = max(float(np.linalg.norm(MP)), tiny)
    herm = float(np.linalg.norm(MP - MP.T)) <= tol * scale
    del MP

    if isinstance(pi, CoarseCorrection):
        # range(M Pi) = range(M P) and range(Pi*) = range(A* R), which are one
        # exactly when range(G P) = range(G^{-*} A* R): the kernel's subspaces
        range_ok = _one_range(pi.angles(G))
    else:
        # pivoted-QR bases: range(Pi*) = range(B*), so U2's column count is
        # the rank r of Pi; the rows of Pi lie in range(U2), so
        # M Pi = (M L)(B U2) U2* and U1 is a basis of the n x r matrix
        # (M L)(B U2). They are orthonormal already and go to the rule as they
        # are.
        U2 = orth_basis(B.T)
        U1 = orth_basis(ML @ (B @ U2))
        range_ok = U1.shape[1] == U2.shape[1] and _one_range(_orthonormal_angles(U2, U1))

    # probe pairs x_k, y_k drawn in the order x_0, y_0, x_1, y_1, ...
    probes = np.random.default_rng(PROBE_SEED).standard_normal((PROBE_COUNT, 2, B.shape[1]))
    X, Y = probes[:, 0].T, probes[:, 1].T
    GU = G.apply(L @ (B @ X))
    GV = G.apply(Y - L @ (B @ Y))
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
    G^{-*} A* R to relative residual RANK_RTOL. The test is invariant to
    column scalings of P and to any nonsingular right-scaling of R. M is a
    dense SPD matrix or a NormFactor; pair is a TransferPair, or its
    CoarseCorrection on A, whose blocks are then reused. On a correction the
    residual is the kernel's E Ru, an n_c x n_c product, so once the kernel
    has run for M no further decomposition is made. On a pair it is taken
    against an orthonormal basis of G^{-*} A* R from one thin QR.
    """
    factor = as_norm_factor(M)
    if isinstance(pair, CoarseCorrection):
        return pair.compat_eq(factor)
    GP, GAR = _blocks(factor, pair.P, as_matrix(A, "A").T @ pair.R)
    Q = scipy.linalg.qr(GAR, mode="economic")[0]
    return _within(GP - Q @ (Q.T @ GP), GP)


def projection_report(A, pair, M, tol=1e-8):
    """Everything measured about one pair's coarse-grid correction in the norm M.

    M is a NormFactor or a dense SPD matrix. Returns the measurement fields of
    a verify-pairs record: pi_norm, nonorth_sup, min_angle, compat_eq and the
    four orthogonality_checks, all from one CoarseCorrection, so Pi is never
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
