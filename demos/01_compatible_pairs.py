# Compatible restriction/interpolation pairs on an advection problem.
#
# A coarse-grid correction Pi = P (R*AP)^{-1} R*A built from an arbitrary
# pair of transfer operators almost certainly amplifies some error mode:
# ||Pi|| > 1 in every standard norm. This demo builds the four pair recipes
# where both operators come from a single companion matrix each, and shows
# that each one produces ||Pi||_M = 1 exactly (to round-off) in its norm.

import numpy as np

import compatamg as cm

n = 64
A = cm.generate(cm.ProblemSpec("advection1d", n=n))
part = cm.default_splitting(n, "alternate")

print(f"upwind advection, n={n}, alternate CF splitting "
      f"({part.nf} F-points, {part.nc} C-points)\n")

print(f"{'pair':8s} {'norm':14s} {'||Pi||_M':>22s} {'orthogonal?':>12s}")
for rec in cm.SINGLE_OPERATOR_PAIRS:
    pair, tag = cm.single_operator_pair(A, part, rec["name"])
    # the norm is applied through a factor G with M = G*G; M is never formed
    M = cm.realize_norm(tag, A, factored=True)
    report = cm.projection_report(A, pair, M)
    orthogonal = all(report["orthogonality_checks"].values())
    print(f"{rec['name']:8s} {tag:14s} {report['pi_norm']:22.16f} {str(orthogonal):>12s}")

# Contrast: a random pair on the same problem is badly non-orthogonal.
rng = np.random.default_rng(1)
bad = cm.make_pair(part,
                   rng.standard_normal((part.nf, part.nc)),
                   rng.standard_normal((part.nf, part.nc)))
rep = cm.projection_report(A, bad, np.eye(n))
print(f"\nrandom pair: ||Pi||_I = {rep['pi_norm']:.3f}, "
      f"complement amplification = {rep['nonorth_sup']:.3f}, "
      f"minimal canonical angle = {np.degrees(rep['min_angle']):.2f} degrees")
