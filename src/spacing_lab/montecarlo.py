"""Empirical route: tridiagonal Gaussian-ensemble sampling and histograms.

The characteristic-polynomial recurrence with N(0,1) diagonal and
Gamma(k/2, 1) squared off-diagonal entries is realized directly as a
symmetric tridiagonal matrix; its eigenvalues are the polynomial's zeros
but come from a tridiagonal eigensolver instead of root finding.  Spectra
are unfolded by the semicircle density at spacing midpoints, and central
spacings are histogrammed for comparison with the analytic densities.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import chdtrc

from .errors import ArgumentError, NumericError, UnsupportedError
from .quadrature import Interval

log = logging.getLogger(__name__)

CHUNK = 256          # replicas per RNG stream; fixed so worker count is moot
_DENSITY_FLOOR = 1e-12


@dataclass(frozen=True)
class SpectrumSample:
    """One sampled spectrum; ``unfolded`` is filled by unfold()."""

    n: int
    raw: np.ndarray
    unfolded: np.ndarray | None = None


@dataclass(frozen=True)
class Histogram:
    bin_edges: np.ndarray
    counts: np.ndarray
    density: np.ndarray
    overflow: int = 0

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])

    def to_csv(self, stream, metadata=None) -> None:
        close = False
        if isinstance(stream, (str, bytes)):
            stream, close = open(stream, "w", encoding="utf-8"), True
        try:
            for key, value in (metadata or {}).items():
                stream.write(f"# {key}: {value}\n")
            stream.write("bin_left,bin_right,count,density\n")
            for left, right, c, d in zip(self.bin_edges[:-1],
                                         self.bin_edges[1:],
                                         self.counts, self.density):
                stream.write(f"{left:.17g},{right:.17g},{int(c)},{d:.17g}\n")
        finally:
            if close:
                stream.close()


def _rng_for(seed, chunk=None):
    entropy = int(seed) if chunk is None else (int(seed), int(chunk))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _draw_sample(n: int, rng) -> SpectrumSample:
    # draw order (diagonal first, then off-diagonal) is part of the
    # reproducibility contract
    diag = rng.standard_normal(n)
    if n == 1:
        return SpectrumSample(n=1, raw=diag)
    off = np.sqrt(rng.gamma(shape=np.arange(1, n) / 2.0, scale=1.0))
    try:
        values = eigh_tridiagonal(diag, off, eigvals_only=True)
    except Exception as exc:
        raise NumericError("tridiagonal eigensolver failed to converge",
                           context={"n": n}) from exc
    return SpectrumSample(n=n, raw=np.sort(values))


def sample_goe(n: int, rng_seed: int) -> SpectrumSample:
    """One spectrum of the rank-n tridiagonal ensemble, deterministic in seed."""
    if n < 1:
        raise ArgumentError(f"matrix rank must be >= 1, got {n}")
    return _draw_sample(n, _rng_for(rng_seed))


def sample_ensemble(n: int, reps: int, seed: int, workers: int | None = None):
    """reps independent spectra.

    Replicas are grouped in fixed chunks of CHUNK, each chunk drawing from
    its own counter-based stream keyed by (seed, chunk index), so the result
    is bit-identical for any worker count.
    """
    if reps < 1:
        raise ArgumentError(f"reps must be >= 1, got {reps}")
    n_chunks = (reps + CHUNK - 1) // CHUNK

    def run_chunk(c):
        rng = _rng_for(seed, c)
        take = min(CHUNK, reps - c * CHUNK)
        return [_draw_sample(n, rng) for _ in range(take)]

    if workers is None or workers <= 1 or n_chunks == 1:
        chunks = [run_chunk(c) for c in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run_chunk, range(n_chunks)))
    return [s for chunk in chunks for s in chunk]


def semicircle_density(x, n: int):
    """Bulk eigenvalue density sqrt(2n - x^2)/pi on (-sqrt(2n), sqrt(2n))."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.maximum(2.0 * n - x * x, 0.0)) / math.pi


def unfold(sample: SpectrumSample, density=None) -> SpectrumSample:
    """Rescale each spacing by the local density at its midpoint.

    Default density is the semicircle for the sample's rank.  Eigenvalues
    outside the support are clipped to the edge (count logged); the density
    is floored at a tiny positive value so the unfolded sequence stays
    strictly ascending even at the clipped edge.
    """
    if sample.n < 2:
        raise ArgumentError("need at least 2 eigenvalues to unfold")
    raw = sample.raw
    if density is None:
        edge = math.sqrt(2.0 * sample.n)
        clipped = int(np.count_nonzero((raw < -edge) | (raw > edge)))
        if clipped:
            log.info("unfold: clipped %d eigenvalues to the support edge",
                     clipped)
        work = np.clip(raw, -edge, edge)
        dens_fn = lambda x: semicircle_density(x, sample.n)
    else:
        work = raw
        dens_fn = density
    mids = 0.5 * (work[1:] + work[:-1])
    rho = np.maximum(np.asarray(dens_fn(mids), dtype=float), _DENSITY_FLOOR)
    scaled = np.diff(work) * rho
    unfolded = np.concatenate(([work[0]], work[0] + np.cumsum(scaled)))
    return SpectrumSample(n=sample.n, raw=raw, unfolded=unfolded)


def central_spacing(sample: SpectrumSample, order: int = 0) -> np.ndarray:
    """Unfolded spacings around the middle eigenvalue.

    order=0: the two gaps flanking the middle index, both returned (they are
    pooled by callers).  order=1: the single span across them.
    """
    if order not in (0, 1):
        raise UnsupportedError(f"central spacing order must be 0 or 1, got {order}")
    if sample.n % 2 == 0 or sample.n < 2 * order + 3:
        raise ArgumentError(
            f"rank must be odd and >= {2 * order + 3}, got {sample.n}")
    if sample.unfolded is None:
        raise ArgumentError("sample must be unfolded first")
    u = sample.unfolded
    m = sample.n // 2
    if order == 0:
        return np.array([u[m] - u[m - 1], u[m + 1] - u[m]])
    return np.array([u[m + 1] - u[m - 1]])


def build_histogram(data, bin_width: float, rng: Interval) -> Histogram:
    """Fixed-width histogram on rng; out-of-range points go to overflow."""
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise ArgumentError("cannot histogram empty data")
    if bin_width <= 0.0:
        raise ArgumentError(f"bin width must be > 0, got {bin_width}")
    n_bins = max(1, int(math.ceil((rng.hi - rng.lo) / bin_width - 1e-12)))
    edges = rng.lo + bin_width * np.arange(n_bins + 1)
    counts, _ = np.histogram(data, bins=edges)
    inside = int(counts.sum())
    density = (counts / (inside * bin_width) if inside
               else np.zeros_like(counts, dtype=float))
    return Histogram(bin_edges=edges, counts=counts, density=density,
                     overflow=int(data.size - inside))


def chi_square_test(hist: Histogram, density_fn, min_expected: float = 5.0):
    """(statistic, p_value, dof) of the histogram against an analytic density.

    Expected counts integrate density_fn over each bin (Simpson); the mass
    beyond the last edge absorbs the overflow tally.  Adjacent bins are
    merged left to right until every expected count reaches min_expected.
    """
    edges = hist.bin_edges
    total = int(hist.counts.sum()) + hist.overflow
    if total == 0:
        raise ArgumentError("histogram holds no data")
    expected = np.array([_simpson_bin(density_fn, a, b)
                         for a, b in zip(edges[:-1], edges[1:])])
    tail = max(1.0 - expected.sum(), 0.0)
    observed = np.append(hist.counts.astype(float), float(hist.overflow))
    expected = np.append(expected, tail) * total

    merged_obs, merged_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 and merged_exp:
        merged_obs[-1] += acc_o
        merged_exp[-1] += acc_e
    if len(merged_exp) < 2:
        raise ArgumentError("too few populated bins for a chi-square test")
    merged_obs = np.array(merged_obs)
    merged_exp = np.array(merged_exp)
    stat = float(np.sum((merged_obs - merged_exp) ** 2 / merged_exp))
    dof = len(merged_exp) - 1
    return stat, float(chdtrc(dof, stat)), dof


def _simpson_bin(f, a, b):
    x = np.linspace(a, b, 5)
    y = np.array([f(float(v)) for v in x])
    return float((b - a) / 12.0 * (y[0] + 4 * y[1] + 2 * y[2] + 4 * y[3] + y[4]))
