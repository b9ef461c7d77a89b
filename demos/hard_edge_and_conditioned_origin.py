"""
Hard-edge gaps and spacings conditioned on an eigenvalue
========================================================

Near the smallest eigenvalue of a Wishart-type matrix the kernel is
built from Bessel functions, with the index a set by the rectangularity.
The same dual-route check as in the bulk applies: Nystrom determinant on
one side, a sigma-form transcendent on the other.  Conditioning the bulk
on an eigenvalue sitting at the origin is the a = 1 member of the same
family, and yields the nearest-neighbour spacing density directly.
"""

import math

from scipy.integrate import quad

from spacing_lab import (
    Interval,
    am5_identity_residual,
    e2_hard,
    enn_det,
    enn_generating,
    p2_nn,
    parity_split,
)

# At half-integer index the Bessel functions collapse to trigonometry,
# and the hard-edge operator on (0, t) becomes the even or odd block of
# the bulk sine kernel on a symmetric interval of length 2 sqrt(t)/pi.
# That gives a smooth determinant route for a = -1/2 and a = +1/2; the
# raw Bessel kernel's inverse-fourth-root singularity at the origin
# would otherwise stall the quadrature well short of full precision.
print("hard-edge E(0; (0,t)), parity-block determinant vs sigma route:")
print("t       a = -1/2 diff   a = +1/2 diff")
for t in (0.5, 1.0, 2.0, 4.0):
    u = 2.0 * math.sqrt(t) / math.pi
    d_plus, d_minus = parity_split(Interval(-u / 2.0, u / 2.0))
    print(f"{t:4.2f}    {abs(d_plus - e2_hard(t, -0.5)):.2e}"
          f"        {abs(d_minus - e2_hard(t, 0.5)):.2e}")

# ------------------------------------------------------------------
# A derivative identity tying the transcendent to its own boundary data
# ------------------------------------------------------------------

# The sigma function satisfies a first-integral relation; its residual is
# a direct measure of integration quality, with no second route needed.
for a in (-0.5, 0.5):
    print(f"first-integral residual at s = 1, a = {a:+.1f}: "
          f"{am5_identity_residual(1.0, a):.2e}")

# ------------------------------------------------------------------
# Conditioned origin: nearest-neighbour spacing in the unitary bulk
# ------------------------------------------------------------------

print("\nE(no eigenvalue within s of one at the origin):")
print("s      determinant       sigma             diff")
for s in (0.25, 0.5, 1.0):
    det_value = enn_det(s)
    ode_value = enn_generating(s)
    print(f"{s:4.2f}   {det_value:.12f}    {ode_value:.12f}    "
          f"{abs(det_value - ode_value):.2e}")

# differentiating that gap gives the nearest-neighbour density, which
# must carry unit mass like any spacing law
mass, _ = quad(p2_nn, 0.0, 4.0, limit=200)
print(f"\nnearest-neighbour density mass on (0, 4): {mass:.9f}")

# repulsion from the conditioning eigenvalue empties small s
# quadratically, with limiting coefficient 2 pi^2 / 3 = 6.5797
for s in (0.02, 0.04):
    print(f"p2nn({s}) / s^2 = {p2_nn(s) / s**2:.4f}")
