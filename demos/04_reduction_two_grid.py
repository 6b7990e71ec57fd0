# Ideal restriction as a reduction method: C-point exactness and F-relaxation.
#
# When R is ideal on A, the corrected error (I - Pi) e vanishes at every
# C-point, no matter what e was: all remaining error lives on F-points.
# Pairing that with an exact F-point solve gives a two-level direct method.
# With an approximate restriction the C-point error grows smoothly from
# zero, which is why F-relaxation complements this style of coarsening.

import numpy as np

import compatamg as cm

n = 64
A = cm.generate(cm.ProblemSpec("advection1d", n=n))
part = cm.default_splitting(n, "alternate")
pair, _ = cm.single_operator_pair(A, part, 1)   # R ideal on A, W = 0

rng = np.random.default_rng(0)
e = rng.standard_normal(n)
print("C-point error after correction, ideal restriction: "
      f"{cm.air_cpoint_residual(A, pair, e):.2e}  (||e|| = {np.linalg.norm(e):.2f})")

Z = cm.ideal_z(cm.partition(A, part))
noise = rng.standard_normal(Z.shape)
print("\nperturbing the restriction away from ideal:")
for delta in (1e-8, 1e-4, 1e-2):
    perturbed = cm.make_pair(part, Z + delta * noise, np.zeros_like(Z))
    res = cm.air_cpoint_residual(A, perturbed, e)
    print(f"  delta = {delta:8.0e}: max C-point error = {res:.3e}")

# With an exact F-solve, rho is read from one n_c x n_c matrix,
# T = K^{-1} (R*A)_F (W_ideal - W); the n x n propagator is never formed.
spec = cm.TwoGridSpec(pair=pair, post=cm.RelaxSpec("fexact"))
rho = cm.two_grid_conv_factor(A, spec)
print(f"\ntwo-grid spectral radius with post F-solve: {rho:.2e} (direct method)")

b = rng.standard_normal(n)
hist = cm.iterate(A, spec, b, np.zeros(n), 3)
print("residual history:", "  ".join(f"{r:.2e}" for r in hist))

# A non-trivial solver for comparison: symmetric pair + weighted Jacobi on
# the Laplacian, where the observed rate tracks the spectral radius.
L = cm.generate(cm.ProblemSpec("laplacian1d", n=32))
lpart = cm.default_splitting(32, "alternate")
W = cm.ideal_w(cm.partition(L, lpart))
P = lpart.assemble_rows(W, np.eye(lpart.nc))
galerkin = cm.TransferPair(P, P, lpart)
spec = cm.TwoGridSpec(pair=galerkin, pre=cm.RelaxSpec("jacobi"),
                      post=cm.RelaxSpec("jacobi"))
hist = cm.iterate(L, spec, rng.standard_normal(32), np.zeros(32), 14)
print(f"\nLaplacian two-grid: rho = "
      f"{cm.two_grid_conv_factor(L, spec):.4f}, "
      f"observed rate = {cm.observed_rate(hist):.4f}")
