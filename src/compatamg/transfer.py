"""Construction of restriction/interpolation pairs.

Provides ideal F-point blocks W and Z for an arbitrary companion matrix,
closed-form compatible W-from-Z and Z-from-W solves for the identity and A*A
norms, an anchored pair constructor that makes the coarse-grid correction
orthogonal in any chosen SPD norm, and an exhaustive catalog sweep over the
standard norm/companion combinations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import (
    CFPartition,
    NormSpec,
    SingularMatrixError,
    _frozen,
    as_matrix,
    inv_checked,
    numerical_rank,
    partition,
    realize_norm,
    require_nonsingular,
    solve_checked,
)

__all__ = [
    "TransferPair",
    "QChoice",
    "realize_q",
    "make_pair",
    "ideal_w",
    "ideal_z",
    "p_ideal",
    "r_ideal",
    "compatible_w_from_z",
    "compatible_z_from_w",
    "compatible_w_from_z_general",
    "ideal_pair",
    "CatalogEntry",
    "catalog_pairs",
    "change_of_basis_pair",
    "SINGLE_OPERATOR_PAIRS",
    "single_operator_pair",
    "CATALOG_NORMS",
    "CATALOG_QS",
]


@dataclass(frozen=True)
class TransferPair:
    """Restriction R and interpolation P, each n x n_c, over one CF partition.

    Without cblocks, the C-point rows of both operators are identity matrices
    (classical CF-AMG form). With cblocks = (Y, V), the C-point rows of R and
    P are Y and V instead; the induced coarse-grid projection is unchanged by
    any nonsingular right-scaling, so this is a change of basis only. Y and V
    must be n_c x n_c and equal the C-point rows of R and P exactly.
    """

    R: np.ndarray
    P: np.ndarray
    part: CFPartition
    cblocks: tuple | None = None

    def __post_init__(self):
        R = as_matrix(self.R, "R")
        P = as_matrix(self.P, "P")
        n, nc = self.part.n, self.part.nc
        if R.shape != (n, nc) or P.shape != (n, nc):
            raise ValueError(
                f"R and P must be {n}x{nc}, got R {R.shape} and P {P.shape}"
            )
        if numerical_rank(R) < nc:
            raise ValueError("R must have full column rank")
        if numerical_rank(P) < nc:
            raise ValueError("P must have full column rank")
        if self.cblocks is None:
            eye = np.eye(nc)
            if not (
                np.array_equal(self.part.c_rows(R), eye)
                and np.array_equal(self.part.c_rows(P), eye)
            ):
                raise ValueError(
                    "C-point rows of R and P must be identity when cblocks is None"
                )
        else:
            Y, V = (as_matrix(B, name) for B, name in zip(self.cblocks, "YV"))
            if Y.shape != (nc, nc) or V.shape != (nc, nc):
                raise ValueError(
                    f"cblocks Y and V must be {nc}x{nc}, got Y {Y.shape} and V {V.shape}"
                )
            if not (
                np.array_equal(self.part.c_rows(R), Y)
                and np.array_equal(self.part.c_rows(P), V)
            ):
                raise ValueError("cblocks Y and V must equal the C-point rows of R and P")
            object.__setattr__(self, "cblocks", (_frozen(Y), _frozen(V)))
        object.__setattr__(self, "R", _frozen(R))
        object.__setattr__(self, "P", _frozen(P))

    @property
    def n(self):
        return self.part.n

    @property
    def nc(self):
        return self.part.nc

    @property
    def Z(self):
        """F-point block of R (equals Z Y when a C-block Y is present)."""
        return self.part.f_rows(self.R)

    @property
    def W(self):
        """F-point block of P (equals W V when a C-block V is present)."""
        return self.part.f_rows(self.P)


def make_pair(part, Z, W):
    """Assemble the classical pair R = [Z; I], P = [W; I] in natural ordering."""
    eye = np.eye(part.nc)
    R = part.assemble_rows(Z, eye)
    P = part.assemble_rows(W, eye)
    return TransferPair(R, P, part)


_Q_TAGS = ("identity", "A", "Asym", "AstarA", "AAstar", "AinvStar", "Ainv", "Custom")
_Q_ALIASES = {
    "i": "identity",
    "id": "identity",
    "identity": "identity",
    "a": "A",
    "aop": "A",
    "asym": "Asym",
    "astara": "AstarA",
    "aastar": "AAstar",
    "ainvstar": "AinvStar",
    "ainv": "Ainv",
    "custom": "Custom",
}


@dataclass(frozen=True)
class QChoice:
    """Companion-matrix choice for ideal transfer operators.

    Tags: identity | A | Asym | AstarA | AAstar | AinvStar | Ainv | Custom.
    """

    tag: str
    payload: np.ndarray | None = None

    def __post_init__(self):
        key = str(self.tag).replace("-", "").replace(" ", "").lower()
        if key not in _Q_ALIASES:
            raise ValueError(f"unknown Q tag {self.tag!r}; expected one of {_Q_TAGS}")
        object.__setattr__(self, "tag", _Q_ALIASES[key])
        if self.tag == "Custom":
            if self.payload is None:
                raise ValueError("Custom Q requires a payload matrix")
            object.__setattr__(self, "payload", _frozen(as_matrix(self.payload)))
        elif self.payload is not None:
            raise ValueError(f"Q tag {self.tag!r} does not take a payload")


def realize_q(choice, A):
    """Build the companion matrix selected by a QChoice (or bare tag) for A."""
    if not isinstance(choice, QChoice):
        choice = QChoice(choice)
    A = as_matrix(A, "A")
    n = A.shape[0]
    tag = choice.tag
    if tag == "identity":
        return np.eye(n)
    if tag == "A":
        return A.copy()
    if tag == "Asym":
        return (A + A.T) / 2.0
    if tag == "AstarA":
        return A.T @ A
    if tag == "AAstar":
        return A @ A.T
    if tag == "AinvStar":
        return inv_checked(A, "A").T
    if tag == "Ainv":
        return inv_checked(A, "A")
    if tag == "Custom":
        Q = np.array(choice.payload, dtype=float)
        if Q.shape != (n, n):
            raise ValueError(f"custom Q has shape {Q.shape}, expected {(n, n)}")
        return Q
    raise AssertionError(f"unhandled Q tag {tag!r}")


def ideal_w(Q):
    """Ideal interpolation F-block of a partitioned companion: -Q_ff^{-1} Q_fc.

    The F-point rows of Q [W; I] vanish and the C-point rows equal the Schur
    complement of Q onto the C-block.
    """
    return -solve_checked(Q.ff, Q.fc, "ff-block of companion")


def ideal_z(Q):
    """Ideal restriction F-block of a partitioned companion.

    Returns Z with Z* = -Q_cf Q_ff^{-1}, so [Z; I]* Q has vanishing F-point
    columns and C-point columns equal to the Schur complement of Q.
    """
    return -solve_checked(Q.ff.T, Q.cf.T, "ff-block of companion")


def p_ideal(Q):
    """Full ideal interpolation operator [W_ideal(Q); I] in natural ordering."""
    return Q.part.assemble_rows(ideal_w(Q), np.eye(Q.part.nc))


def r_ideal(Q):
    """Full ideal restriction operator [Z_ideal(Q); I] in natural ordering."""
    return Q.part.assemble_rows(ideal_z(Q), np.eye(Q.part.nc))


_NO_W = "no compatible W exists for this Z (singular coefficient matrix)"
_NO_Z = "no compatible Z exists for this W (singular coefficient matrix)"


def _closed_form_tag(norm):
    tag = norm.tag if isinstance(norm, NormSpec) else NormSpec(norm).tag
    if tag not in ("identity", "AstarA"):
        raise ValueError(
            "closed-form compatible solves exist only for the identity and A*A "
            f"norms, not {tag!r}"
        )
    return tag


def compatible_w_from_z(A, Z, norm="identity"):
    """Interpolation F-block W making the correction orthogonal, given Z.

    For the identity norm W solves (Z* A_fc + A_cc) W* = Z* A_ff + A_cf; for
    the A*A norm it solves (A_ff - Z A_cf) W = Z A_cc - A_fc.
    """
    Z = as_matrix(Z, "Z")
    tag = _closed_form_tag(norm)
    try:
        if tag == "identity":
            C = Z.T @ A.fc + A.cc
            return solve_checked(C, Z.T @ A.ff + A.cf, "coefficient matrix").T
        C = A.ff - Z @ A.cf
        return solve_checked(C, Z @ A.cc - A.fc, "coefficient matrix")
    except SingularMatrixError as e:
        raise SingularMatrixError(f"{_NO_W}: {e}") from e


def compatible_z_from_w(A, W, norm="identity"):
    """Restriction F-block Z making the correction orthogonal, given W.

    Inverse companion of compatible_w_from_z: for the identity norm Z solves
    Z* (A_ff - A_fc W*) = A_cc W* - A_cf, and for the A*A norm it solves
    Z (A_cf W + A_cc) = A_ff W + A_fc. Round-tripping through
    compatible_w_from_z reproduces the input.
    """
    W = as_matrix(W, "W")
    tag = _closed_form_tag(norm)
    try:
        if tag == "identity":
            C = A.ff - A.fc @ W.T
            return solve_checked(C.T, (A.cc @ W.T - A.cf).T, "coefficient matrix")
        C = A.cf @ W + A.cc
        return solve_checked(C.T, (A.ff @ W + A.fc).T, "coefficient matrix").T
    except SingularMatrixError as e:
        raise SingularMatrixError(f"{_NO_Z}: {e}") from e


def compatible_w_from_z_general(A, Z, M):
    """Experimental: W from Z for an arbitrary SPD norm matrix M.

    Solves the rank-compatibility condition M [W; I] = A* [Z; I] B_R for W and
    the free coarse scaling B_R jointly (one square linear system per coarse
    column, with the interpolation-side scaling pinned to the identity).
    Whether a solution exists for every (Z, M) admitting one is not settled;
    prefer the closed forms or ideal_pair when they apply.
    """
    Z = as_matrix(Z, "Z")
    part = A.part
    nf, nc = part.nf, part.nc
    Mf = part.to_ffirst(as_matrix(M, "M"))
    Af = part.to_ffirst(A.base)
    Rf = np.vstack([Z, np.eye(nc)])
    G = Af.T @ Rf
    K = np.hstack([Mf[:, :nf], -G])
    try:
        X = solve_checked(K, -Mf[:, nf:], "compatibility system")
    except SingularMatrixError as e:
        raise SingularMatrixError(f"{_NO_W}: {e}") from e
    W, B_R = X[:nf], X[nf:]
    try:
        require_nonsingular(B_R, "coarse scaling")
    except SingularMatrixError as e:
        raise SingularMatrixError(f"{_NO_W}: {e}") from e
    return W


def _companion(A, M, Qm, anchor):
    """Companion matrix whose ideal operator completes an anchored pair."""
    if anchor == "P":
        # pair P_ideal(Q) with R_ideal(A M^{-1} Q*)
        return A @ scipy.linalg.solve(M, Qm.T, assume_a="pos")
    # pair R_ideal(Q) with P_ideal(Q* A^{-*} M)
    return Qm.T @ solve_checked(A.T, M, "A")


def _anchor_tag(anchor):
    a = str(anchor).upper()
    if a in ("P", "PFROMQ", "P_FROM_Q"):
        return "P"
    if a in ("R", "RFROMQ", "R_FROM_Q"):
        return "R"
    raise ValueError(f"anchor must be 'P' or 'R', got {anchor!r}")


def ideal_pair(A, part, norm, q, anchor="P"):
    """Build a pair whose coarse-grid correction is orthogonal in the chosen norm.

    anchor="P" fixes P = P_ideal(Q) and derives the unique compatible
    restriction R = R_ideal(A M^{-1} Q*); anchor="R" fixes R = R_ideal(Q) and
    derives P = P_ideal(Q* A^{-*} M). Companions are formed densely.
    """
    A = as_matrix(A, "A")
    require_nonsingular(A, "A")
    anchor = _anchor_tag(anchor)
    M = realize_norm(norm, A)
    Qm = realize_q(q, A)
    Qp = partition(Qm, part)
    comp = partition(_companion(A, M, Qm, anchor), part)
    try:
        if anchor == "P":
            W = ideal_w(Qp)
            Zc = ideal_z(comp)
            return make_pair(part, Zc, W)
        Zq = ideal_z(Qp)
        Wc = ideal_w(comp)
        return make_pair(part, Zq, Wc)
    except SingularMatrixError as e:
        raise SingularMatrixError(
            f"ideal companion undefined for this splitting: {e}"
        ) from e


# Norm rows and companion columns of the two catalog tables, in row-major order.
CATALOG_NORMS = ("identity", "A", "Asym", "AstarA", "AstarAsymInvA")
CATALOG_QS = ("identity", "A", "Asym", "AstarA", "AAstar")

# Reduced algebraic expressions for the companion A M^{-1} Q* (interpolation
# anchored) and Q* A^{-*} M (restriction anchored), keyed by (norm, q).
_T1_EXPR = {
    ("identity", "identity"): "A",
    ("identity", "A"): "A A*",
    ("identity", "Asym"): "A Asym",
    ("identity", "AstarA"): "A A* A",
    ("identity", "AAstar"): "A A A*",
    ("A", "identity"): "I",
    ("A", "A"): "A",
    ("A", "Asym"): "A",
    ("A", "AstarA"): "A^2",
    ("A", "AAstar"): "A^2",
    ("Asym", "identity"): "A Asym^-1",
    ("Asym", "A"): "A Asym^-1 A*",
    ("Asym", "Asym"): "A",
    ("Asym", "AstarA"): "A Asym^-1 A* A",
    ("Asym", "AAstar"): "A Asym^-1 A A*",
    ("AstarA", "identity"): "A^-*",
    ("AstarA", "A"): "I",
    ("AstarA", "Asym"): "A^-* Asym",
    ("AstarA", "AstarA"): "A",
    ("AstarA", "AAstar"): "A^-* A A*",
    ("AstarAsymInvA", "identity"): "Asym A^-*",
    ("AstarAsymInvA", "A"): "Asym",
    ("AstarAsymInvA", "Asym"): "Asym A^-* Asym",
    ("AstarAsymInvA", "AstarA"): "Asym A",
    ("AstarAsymInvA", "AAstar"): "Asym A^-* A A*",
}
_T2_EXPR = {
    ("identity", "identity"): "A^-*",
    ("identity", "A"): "I",
    ("identity", "Asym"): "Asym A^-*",
    ("identity", "AstarA"): "A* A A^-*",
    ("identity", "AAstar"): "A",
    ("A", "identity"): "I",
    ("A", "A"): "A",
    ("A", "Asym"): "A",
    ("A", "AstarA"): "A^2",
    ("A", "AAstar"): "A^2",
    ("Asym", "identity"): "A^-* Asym",
    ("Asym", "A"): "Asym",
    ("Asym", "Asym"): "Asym A^-* Asym",
    ("Asym", "AstarA"): "A* A A^-* Asym",
    ("Asym", "AAstar"): "A Asym",
    ("AstarA", "identity"): "A",
    ("AstarA", "A"): "A* A",
    ("AstarA", "Asym"): "Asym A",
    ("AstarA", "AstarA"): "A* A^2",
    ("AstarA", "AAstar"): "A A* A",
    ("AstarAsymInvA", "identity"): "Asym^-1 A",
    ("AstarAsymInvA", "A"): "A* Asym^-1 A",
    ("AstarAsymInvA", "Asym"): "A",
    ("AstarAsymInvA", "AstarA"): "A* A Asym^-1 A",
    ("AstarAsymInvA", "AAstar"): "A A* Asym^-1 A",
}

# Cells where both operators come from a single companion matrix.
_T1_SINGLE = {
    ("identity", "identity"),
    ("A", "identity"),
    ("A", "A"),
    ("A", "Asym"),
    ("Asym", "Asym"),
    ("AstarA", "A"),
    ("AstarA", "AstarA"),
    ("AstarAsymInvA", "A"),
}
_T2_SINGLE = {
    ("identity", "A"),
    ("identity", "AAstar"),
    ("A", "identity"),
    ("A", "A"),
    ("A", "Asym"),
    ("Asym", "A"),
    ("AstarA", "identity"),
    ("AstarAsymInvA", "Asym"),
}


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog cell: an anchored norm/companion combination.

    table 1 anchors interpolation (P ideal on Q, R derived), table 2 anchors
    restriction. label is "single" when both operators come from one
    companion matrix. Skipped cells carry a reason and no pair.
    """

    table: int
    norm: str
    q: str
    anchor: str
    companion_expr: str
    label: str | None = None
    pair: TransferPair | None = None
    companion: np.ndarray | None = None
    skipped: bool = False
    reason: str | None = None


def catalog_pairs(A, part):
    """Enumerate every catalog cell that is computable densely.

    Cells whose prerequisites fail (for example an SPD requirement on A or on
    its symmetric part, or a singular companion ff-block) are emitted as skip
    records with the failure reason rather than raising, so a sweep completes
    on any nonsingular input. Output order is fixed: table 1 then table 2,
    row-major in (norm, q).
    """
    A = as_matrix(A, "A")
    require_nonsingular(A, "A")
    entries = []
    for table, anchor, exprs, singles in (
        (1, "P", _T1_EXPR, _T1_SINGLE),
        (2, "R", _T2_EXPR, _T2_SINGLE),
    ):
        for norm in CATALOG_NORMS:
            for q in CATALOG_QS:
                label = "single" if (norm, q) in singles else None
                expr = exprs[(norm, q)]
                try:
                    M = realize_norm(norm, A)
                    Qm = realize_q(q, A)
                    comp = _companion(A, M, Qm, anchor)
                    pair = ideal_pair(A, part, norm, q, anchor)
                except (ValueError, SingularMatrixError) as e:
                    entries.append(
                        CatalogEntry(
                            table=table,
                            norm=norm,
                            q=q,
                            anchor=anchor,
                            companion_expr=expr,
                            label=label,
                            skipped=True,
                            reason=str(e),
                        )
                    )
                    continue
                entries.append(
                    CatalogEntry(
                        table=table,
                        norm=norm,
                        q=q,
                        anchor=anchor,
                        companion_expr=expr,
                        label=label,
                        pair=pair,
                        companion=comp,
                    )
                )
    return entries


def change_of_basis_pair(A, part):
    """Pair spanning the inverse-companion ideal operators without inverting A_cc.

    The classical-form operators built on the inverse of A carry dense
    A_cc^{-1} / A_cc^{-*} factors; right-scaling by the C-point blocks
    Y = A_cc* and V = A_cc removes them, giving R = [A_cf*; A_cc*] and
    P = [A_fc; A_cc]. The induced coarse-grid projection is identical to the
    classical-form pair's.
    """
    Ap = partition(A, part)
    require_nonsingular(Ap.cc, "A_cc")
    R = part.assemble_rows(Ap.cf.T, Ap.cc.T)
    P = part.assemble_rows(Ap.fc, Ap.cc)
    return TransferPair(R, P, part, cblocks=(Ap.cc.T, Ap.cc))


# The four norm/companion combinations where both ideal operators involve a
# single matrix each, in enumeration order.
SINGLE_OPERATOR_PAIRS = (
    {"name": "single1", "norm": "identity", "p_q": "identity", "r_q": "A"},
    {"name": "single2", "norm": "Asym", "p_q": "Asym", "r_q": "A"},
    {"name": "single3", "norm": "AstarA", "p_q": "A", "r_q": "identity"},
    {"name": "single4", "norm": "AstarAsymInvA", "p_q": "A", "r_q": "Asym"},
)


def single_operator_pair(A, part, item):
    """Build single-operator pair 1..4 (or by name); returns (pair, norm_tag)."""
    if isinstance(item, int):
        if not 1 <= item <= len(SINGLE_OPERATOR_PAIRS):
            raise ValueError(f"single-operator pair index must be 1..4, got {item}")
        rec = SINGLE_OPERATOR_PAIRS[item - 1]
    else:
        matches = [r for r in SINGLE_OPERATOR_PAIRS if r["name"] == str(item)]
        if not matches:
            raise ValueError(f"unknown single-operator pair {item!r}")
        rec = matches[0]
    A = as_matrix(A, "A")
    Z = ideal_z(partition(realize_q(rec["r_q"], A), part))
    W = ideal_w(partition(realize_q(rec["p_q"], A), part))
    return make_pair(part, Z, W), rec["norm"]
