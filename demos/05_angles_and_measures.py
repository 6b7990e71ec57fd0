# Measuring how far a correction is from orthogonal.
#
# Three equivalent diagnostics quantify the obliqueness of a projection in
# an SPD norm M:
#   * the induced norm ||Pi||_M (equal to ||I - Pi||_M),
#   * the amplification over the M-orthogonal complement of range(Pi),
#     with ||Pi||_M^2 = 1 + sup^2, and
#   * the minimal canonical angle theta between range(Pi) and null(Pi),
#     with ||Pi||_M = 1 / sin(theta).
# Each is measured on the pair's coarse-grid correction, which never forms
# Pi. This demo sweeps a pair from compatible to random and watches all three.

import numpy as np

import compatamg as cm

n = 24
A = cm.generate(cm.ProblemSpec("random", n=n, seed=5))
part = cm.default_splitting(n, "alternate")
Ap = cm.partition(A, part)
M = np.eye(n)

Z = cm.ideal_z(Ap)                       # compatible: W from the closed form
W_good = cm.compatible_w_from_z(Ap, Z, "identity")
rng = np.random.default_rng(2)
W_bad = rng.standard_normal(W_good.shape)

print(f"{'blend':>6s} {'||Pi||_M':>12s} {'sqrt(1+sup^2)':>14s} "
      f"{'1/sin(theta)':>13s} {'theta (deg)':>12s} {'orthogonal?':>12s}")
for t in (0.0, 1e-6, 1e-3, 0.1, 0.5, 1.0):
    W = (1 - t) * W_good + t * W_bad
    pair = cm.make_pair(part, Z, W)
    corr = cm.coarse_correction(A, pair)
    nrm = cm.pi_m_norm(corr, M)
    sup = cm.nonorth_measure(corr, M)
    ang = cm.min_canonical_angle(corr, M)
    ok = cm.orthogonality_checks(corr, M).all_true
    print(f"{t:6.0e} {nrm:12.6f} {np.sqrt(1 + sup**2):14.6f} "
          f"{1/np.sin(ang):13.6f} {np.degrees(ang):12.4f} {str(ok):>12s}")

# The same pair can be orthogonal in many norms at once: ideal restriction
# with a zero interpolation block works for every block-diagonal SPD M.
pair = cm.make_pair(part, Z, np.zeros_like(W_good))
corr = cm.coarse_correction(A, pair)
print("\nideal restriction + zero interpolation block, block-diagonal norms:")
for seed in range(3):
    r = np.random.default_rng(seed)
    Gf = r.standard_normal((part.nf, part.nf))
    Gc = r.standard_normal((part.nc, part.nc))
    Mf = np.zeros((n, n))
    Mf[: part.nf, : part.nf] = Gf @ Gf.T / part.nf + 0.1 * np.eye(part.nf)
    Mf[part.nf :, part.nf :] = Gc @ Gc.T / part.nc + 0.1 * np.eye(part.nc)
    Mbd = part.from_ffirst(Mf)
    print(f"  draw {seed}: ||Pi||_M = {cm.pi_m_norm(corr, Mbd):.12f}")
