"""
Parity factorization of the sine-kernel determinant
===================================================

On a symmetric interval the sine kernel commutes with reflection, so its
determinant factors into an even and an odd part, D+ and D-.  Writing
D+-(L) for the block determinants on an interval of length L, the three
classical gap probabilities all hang off this one pair:

    E2(s) = D+(s) . D-(s)
    E1(s) = D+(2s)
    E4(s) = (D+(2s) + D-(2s)) / 2

The same split can be recovered without any eigendecomposition at all,
from E2 alone, by Gaudin's log-derivative construction.  Both are shown.
"""

import numpy as np

from spacing_lab import (
    Interval,
    e1_bulk_det,
    e2_bulk_det,
    e4_bulk_det,
    fredholm_det,
    gaudin_split,
    parity_split,
    sine_bulk,
)

for s in (0.5, 1.0, 1.5):
    d_plus, d_minus = parity_split(Interval(-s / 2.0, s / 2.0))
    full = fredholm_det(sine_bulk(), Interval(-s / 2.0, s / 2.0))
    print(f"s = {s}")
    print(f"  D+          = {d_plus:.15f}")
    print(f"  D-          = {d_minus:.15f}")
    print(f"  D+ * D-     = {d_plus * d_minus:.15f}")
    print(f"  full det    = {full:.15f}")
    print(f"  product gap = {abs(d_plus * d_minus - full):.2e}")

# ------------------------------------------------------------------
# Gaudin's route: split E2 using only evaluations of E2 itself
# ------------------------------------------------------------------

# gaudin_split differentiates log E2 numerically, so it needs a profile
# callable, not a precomputed number; it calls it once, on an array of
# interval lengths.  Any smooth log-concave profile works; here it is the
# determinant evaluator itself, which takes arrays and gives 1 at s = 0.

print("\nGaudin split vs parity split:")
for s in (0.5, 1.0):
    g_plus, g_minus = gaudin_split(e2_bulk_det, s)
    p_plus, p_minus = parity_split(Interval(-s / 2.0, s / 2.0))
    print(f"  s = {s}:  |D+ diff| = {abs(g_plus - p_plus):.2e}"
          f"   |D- diff| = {abs(g_minus - p_minus):.2e}")

# ------------------------------------------------------------------
# The three symmetry classes from one decomposition
# ------------------------------------------------------------------

print("\ns       E1              E2              E4(s)")
for s in np.arange(0.5, 2.01, 0.5):
    print(f"{s:4.2f}    {e1_bulk_det(float(s)):.12f}  "
          f"{e2_bulk_det(float(s)):.12f}  {e4_bulk_det(float(s)):.12f}")

# Spot check of the identities stated at the top, at s = 0.75:
s = 0.75
dp2, dm2 = parity_split(Interval(-s, s))
print(f"\nE1({s}) - D+({2 * s}):            "
      f"{abs(e1_bulk_det(s) - dp2):.2e}")
print(f"E4({s}) - (D+ + D-)({2 * s})/2:  "
      f"{abs(e4_bulk_det(s) - 0.5 * (dp2 + dm2)):.2e}")
