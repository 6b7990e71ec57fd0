# Sweep of the full norm/companion catalog.
#
# For each norm M and each companion Q, anchoring interpolation to
# P_ideal(Q) forces a unique compatible restriction R_ideal(A M^{-1} Q*),
# and anchoring restriction to R_ideal(Q) forces P_ideal(Q* A^{-*} M).
# catalog_pairs enumerates all fifty cells; cells whose prerequisites fail
# (here the A-norm rows, since A is nonsymmetric) are skipped with reasons.

import compatamg as cm

A = cm.generate(cm.ProblemSpec("random", n=24, seed=0))
part = cm.default_splitting(24, "alternate")

passed = skipped = 0
for entry in cm.catalog_pairs(A, part):
    head = (f"t{entry.table} M={entry.norm:13s} Q={entry.q:8s} "
            f"companion = {entry.companion_expr:18s}")
    if entry.skipped:
        skipped += 1
        print(f"{head} SKIP ({entry.reason})")
        continue
    M = cm.realize_norm(entry.norm, A)
    corr = cm.coarse_correction(A, entry.pair)
    err = abs(cm.pi_m_norm(corr, M) - 1.0)
    ranged = cm.verify_compat_equation(A, M, entry.pair)
    tag = " single-operator" if entry.label == "single" else ""
    print(f"{head} |norm-1| = {err:8.1e}  range-match = {ranged}{tag}")
    passed += err <= 1e-8 and ranged

print(f"\n{passed} cells verified, {skipped} skipped")
