"""Eigenvalue spacing distributions by mutually validating routes.

Gap probabilities E(n; s) and spacing densities p(n; s) of the classical
random-matrix symmetry classes, each computable two or three independent
ways: Fredholm determinants of integral-operator spectra (``fredholm``),
nonlinear-ODE sigma representations (``painleve``), closed-form surmises
(``surmise``), sampled tridiagonal ensembles (``montecarlo``) and
number-theoretic point sequences (``sequences``).  The ``verify`` module
cross-checks the routes against each other; the ``cli`` module exposes
everything as the ``spacing-lab`` command.
"""

__version__ = "1.0.0"

from .errors import (ArgumentError, ConsistencyError, DerivationError,
                     FormatError, NumericError, SpacingLabError,
                     StiffnessError, UnsupportedError)
from .quadrature import (FredholmSpectrum, Interval, QuadratureRule,
                         gauss_legendre, nystrom_spectrum)
from .kernels import (KernelSpec, kernel_matrix, sine_bulk, sine_even,
                      sine_odd, spectrum_singularity)
from .fredholm import (SpacingTable, e1_bulk_det, e2_bulk_det, e4_bulk_det,
                       en_bulk_det, enn_det, fredholm_det, gap_n,
                       gaudin_split, generating_value, p1_det, p1_gap1_det,
                       p2_det, p2_nn_det, p4_det, parity_split)
from .painleve import (EQUATION_IDS, PainleveProblem, PainleveSolution,
                       SIGMA_HARD, SIGMA_JMMS, SIGMA_NN,
                       am5_identity_residual, build_problem, e1_bulk,
                       e2_bulk, e2_hard, e4_bulk, enn_generating,
                       integrate, p1_direct, p1_gap1, p2_direct, p2_nn,
                       p4_direct, series_residual)
from .surmise import (SurmiseCoefficients, gaussian_class_coefficients,
                      p1_spacing1_approx, poisson_p, solve_ansatz,
                      wigner_surmise)
from .montecarlo import (Histogram, build_histogram, central_spacings,
                         chi_square_test, sample_ensemble, semicircle_density,
                         unfold)
from .sequences import (PrimeWindow, ZeroDataset, histogram_ks_distance,
                        ks_distance, load_zeros, nn_statistic,
                        poisson_nn_density, prime_spacing_histogram,
                        primes_from, unfold_zeros)
from .verify import CriterionResult, run_all

__all__ = [
    "__version__",
    # errors
    "SpacingLabError", "ArgumentError", "UnsupportedError", "NumericError",
    "FormatError", "ConsistencyError", "StiffnessError", "DerivationError",
    # quadrature
    "Interval", "QuadratureRule", "FredholmSpectrum", "gauss_legendre",
    "nystrom_spectrum",
    # kernels
    "KernelSpec", "sine_bulk", "sine_even", "sine_odd",
    "spectrum_singularity", "kernel_matrix",
    # fredholm
    "SpacingTable", "generating_value", "gap_n", "fredholm_det",
    "parity_split", "gaudin_split", "e2_bulk_det", "e1_bulk_det",
    "e4_bulk_det", "enn_det", "en_bulk_det", "p1_det", "p2_det", "p4_det",
    "p1_gap1_det", "p2_nn_det",
    # painleve
    "EQUATION_IDS", "SIGMA_JMMS", "SIGMA_HARD", "SIGMA_NN",
    "PainleveProblem", "PainleveSolution",
    "build_problem", "integrate", "series_residual",
    "e2_bulk", "e2_hard", "e1_bulk", "e4_bulk", "enn_generating", "p2_nn",
    "p1_direct", "p2_direct", "p4_direct", "p1_gap1",
    "am5_identity_residual",
    # surmise
    "SurmiseCoefficients", "poisson_p", "solve_ansatz",
    "gaussian_class_coefficients", "wigner_surmise", "p1_spacing1_approx",
    # montecarlo
    "Histogram", "sample_ensemble", "semicircle_density", "unfold",
    "central_spacings", "build_histogram", "chi_square_test",
    # sequences
    "PrimeWindow", "ZeroDataset", "primes_from",
    "prime_spacing_histogram", "load_zeros", "unfold_zeros", "nn_statistic",
    "poisson_nn_density", "ks_distance", "histogram_ks_distance",
    # verify
    "CriterionResult", "run_all",
]
