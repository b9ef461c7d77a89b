"""
Sampling the orthogonal ensemble and testing its spacings
=========================================================

A tridiagonal matrix with independent entries has the same eigenvalue
law as a dense Gaussian orthogonal matrix, so rank-13 spectra can be
drawn by the thousand in milliseconds.  After unfolding to unit mean
density, the central spacing of each spectrum is collected into a
histogram and tested against the transcendent curve with chi-square.
"""

import numpy as np

from spacing_lab import (
    Interval,
    build_histogram,
    central_spacings,
    chi_square_test,
    p1_direct,
    sample_ensemble,
    unfold,
    wigner_surmise,
)

RANK = 13
REPS = 2000
SEED = 42

spectra = sample_ensemble(RANK, REPS, seed=SEED)    # one spectrum per row
spacings = central_spacings(unfold(spectra), order=0).ravel()
print(f"{REPS} spectra of rank {RANK}, {spacings.size} central spacings")
print(f"mean spacing: {spacings.mean():.4f}  (unfolding targets 1)")

hist = build_histogram(spacings, bin_width=0.1, rng=Interval(0.0, 4.0))

# chi-square against the exact beta = 1 density and against the surmise;
# both should be accepted, the exact one comfortably
for label, density in (("exact p1", p1_direct),
                       ("surmise ", lambda s: wigner_surmise(1, s))):
    stat, p_value, dof = chi_square_test(hist, density)
    print(f"{label}: chi2 = {stat:6.2f} on {dof} dof, p = {p_value:.3f}")

# ------------------------------------------------------------------
# A few histogram bins against the model, by eye
# ------------------------------------------------------------------

centers = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
print("\nbin      observed   expected")
for k in range(4, 17, 3):
    lo, hi = hist.bin_edges[k], hist.bin_edges[k + 1]
    print(f"{lo:.1f}-{hi:.1f}    {hist.density[k]:.4f}     "
          f"{p1_direct(float(centers[k])):.4f}")

# ------------------------------------------------------------------
# Determinism: the seed fixes every draw, worker count does not matter
# ------------------------------------------------------------------

again = sample_ensemble(RANK, REPS, seed=SEED, workers=4)
identical = np.array_equal(spectra, again)
print(f"\nre-run with 4 workers reproduces every spectrum: {identical}")
