"""
Level-spacing densities and the Wigner surmise
==============================================

p1, p2, p4 are the nearest-neighbour spacing densities of the three
classical ensembles, here computed from Painleve transcendents rather
than by differentiating gap probabilities numerically.  The Wigner
surmise is the 2x2 guess for the same curves; its accuracy (a couple of
percent for beta = 1) is what makes it the standard quick reference.
"""

import sys

import numpy as np
from scipy.integrate import quad

from spacing_lab import (
    p1_direct,
    p1_gap1,
    p1_spacing1_approx,
    p2_direct,
    p4_det,
    p4_direct,
    solve_ansatz,
    wigner_surmise,
)

grid = np.arange(0.2, 3.01, 0.2)

print("s      p1(exact)   p1(surmise)   p2(exact)   p2(surmise)"
      "   p4(exact)   p4(surmise)")
worst = {1: 0.0, 2: 0.0, 4: 0.0}
for s in grid:
    s = float(s)
    exact = {1: p1_direct(s), 2: p2_direct(s), 4: p4_direct(s)}
    approx = {b: wigner_surmise(b, s) for b in (1, 2, 4)}
    for b in (1, 2, 4):
        worst[b] = max(worst[b], abs(exact[b] - approx[b]))
    print(f"{s:4.2f}   {exact[1]:.6f}    {approx[1]:.6f}      "
          f"{exact[2]:.6f}    {approx[2]:.6f}      "
          f"{exact[4]:.6f}    {approx[4]:.6f}")

print("\nsup-norm error of the surmise on this grid:")
for b in (1, 2, 4):
    print(f"  beta = {b}:  {worst[b]:.4f}")

# ------------------------------------------------------------------
# Where the surmise coefficients come from
# ------------------------------------------------------------------

# Imposing unit mass and unit mean on c1 * s^beta * exp(-c2 * s^(beta+1))
# fixes both constants in closed form for any beta > -1.
for beta in (0.0, 1.0, 2.0, 4.0):
    c = solve_ansatz(beta)
    print(f"beta = {beta}:  c1 = {c.c1:.10f}   c2 = {c.c2:.10f}")

# beta = 0 collapses to exp(-s), the Poisson spacing law: no repulsion.

# ------------------------------------------------------------------
# Next-nearest spacings in the orthogonal ensemble
# ------------------------------------------------------------------

# The spacing between every second eigenvalue has its own density.  A
# rescaled beta = 4 surmise approximates it, for the same interlacing
# reason that E4 is built from the orthogonal parity blocks.
# the density is ~1e-13 by s = 8, so the integrals can stop there
mass, _ = quad(p1_gap1, 0.0, 8.0, limit=200)
mean, _ = quad(lambda s: s * p1_gap1(s), 0.0, 8.0, limit=200)
print(f"\np1 spacing-1 density: mass = {mass:.9f}, mean = {mean:.9f}")

tail = np.arange(0.5, 3.51, 0.25)
worst = np.max(np.abs(p1_gap1(tail) - p1_spacing1_approx(tail)))
print(f"rescaled surmise error on [0.5, 3.5]: {worst:.4f}")

# ------------------------------------------------------------------
# The determinant route where the density is tiny
# ------------------------------------------------------------------

# p4 ~ (16 pi^4 / 135) s^4 near s = 0.  The Fredholm density is an exact
# second derivative of the parity determinants (Jacobi's formula), so it
# keeps its relative accuracy there; the demo fails if the two routes part.
print("\ns        p4 (Painleve)          p4 (Fredholm)          relative")
worst = 0.0
for s in (0.001, 0.5):
    painleve_value, fredholm_value = p4_direct(s), p4_det(s)
    relative = abs(fredholm_value - painleve_value) / abs(painleve_value)
    worst = max(worst, relative)
    print(f"{s:<8g} {painleve_value:<22.15g} {fredholm_value:<22.15g} "
          f"{relative:.2g}")
if worst > 1e-4:
    sys.exit(f"p4 routes differ by relative {worst:.3g} > 1e-4")
