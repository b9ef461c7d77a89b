"""
Gap probabilities by two independent routes
===========================================

The probability E2(s) that an interval of length s in the unfolded
unitary-ensemble bulk contains no eigenvalue can be computed two ways:
as a Fredholm determinant of the sine kernel, discretized by a
Gauss-Legendre Nystrom rule, or by integrating the Jimbo-Miwa-Mori-Sato
sigma equation.  The routes share no code beyond the quadrature module,
so agreement to many digits is a strong correctness check.
"""

import numpy as np

from spacing_lab import (
    Interval,
    e2_bulk,
    e2_bulk_det,
    gap_n,
    nystrom_spectrum,
    poisson_p,
    sine_bulk,
)

# ------------------------------------------------------------------
# E2(s) on a grid: determinant route vs sigma route
# ------------------------------------------------------------------

grid = np.arange(0.25, 2.01, 0.25)

print("s       E2 (determinant)      E2 (sigma)            diff")
worst = 0.0
for s in grid:
    det_value = e2_bulk_det(float(s))
    ode_value = e2_bulk(float(s))
    diff = abs(det_value - ode_value)
    worst = max(worst, diff)
    print(f"{s:4.2f}    {det_value:.15f}     {ode_value:.15f}     {diff:.2e}")

print(f"\nmax |determinant - sigma| = {worst:.2e}")

# ------------------------------------------------------------------
# The ladder E(n; s): probability of exactly n eigenvalues in the interval
# ------------------------------------------------------------------

# One eigendecomposition serves every n.  E(n) follows from the Fredholm
# eigenvalues through an elementary-symmetric-function recurrence, so the
# ladder costs barely more than the n = 0 term.
s = 1.5
spectrum = nystrom_spectrum(sine_bulk(), Interval(-s / 2.0, s / 2.0), 240)

print(f"\nladder at s = {s} (Poisson values for comparison):")
total = 0.0
for n in range(6):
    e_n = gap_n(spectrum, n)
    total += e_n
    print(f"  E({n}) = {e_n:.12f}    Poisson {poisson_p(n, s):.12f}")

# the ladder is a probability distribution over n, so it sums to one
for n in range(6, 31):
    total += gap_n(spectrum, n)
print(f"\nsum over n <= 30: {total:.15f}")

# The repulsion built into the kernel shows up immediately: compared with
# the Poisson column the eigenvalue count concentrates near its mean, so
# E(0) and E(3) are depleted while E(1) and E(2) are enhanced.
