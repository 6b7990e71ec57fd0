# The symmetry between ideal restriction and ideal interpolation.
#
# Ideal operators can be formed on any nonsingular companion matrix Q, not
# just on A. Pairing R_ideal on one companion with P_ideal on another gives
# an orthogonal correction whenever the companions match through the chosen
# norm. Ten such pairings (grouped by the norm they are orthogonal in) are
# checked here on a random nonsymmetric matrix and on an SPD Laplacian; the
# A-norm rows need an SPD matrix and are skipped on the nonsymmetric one.

import compatamg as cm
from compatamg.cli import FIGURE_EDGES
from compatamg.linalg import partition


def run(label, A, part):
    print(f"\n{label}")
    print(f"  {'group':8s} {'restriction':14s} {'interpolation':14s} "
          f"{'norm':10s} {'|  ||Pi||_M - 1  |':>18s}")
    for style, norm, r_q, p_q in FIGURE_EDGES:
        try:
            M = cm.realize_norm(norm, A)
        except ValueError as e:
            print(f"  {style:8s} R_ideal({r_q:8s}) P_ideal({p_q:8s})  skipped: {e}")
            continue
        Z = cm.ideal_z(partition(cm.realize_q(r_q, A), part))
        W = cm.ideal_w(partition(cm.realize_q(p_q, A), part))
        corr = cm.coarse_correction(A, cm.make_pair(part, Z, W))
        err = abs(cm.pi_m_norm(corr, M) - 1.0)
        print(f"  {style:8s} R_ideal({r_q:8s}) P_ideal({p_q:8s})  {norm:10s} {err:18.3e}")


A = cm.generate(cm.ProblemSpec("random", n=30, seed=0))
run("random nonsymmetric matrix, n=30 (symmetric part SPD)",
    A, cm.default_splitting(30, "alternate"))

L = cm.generate(cm.ProblemSpec("laplacian1d", n=32))
run("SPD 1D Laplacian, n=32 (all ten pairings verifiable)",
    L, cm.default_splitting(32, "alternate"))
