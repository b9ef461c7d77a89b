"""Deterministic-sequence spacing statistics: prime gaps and zeta zeros.

Primes come from a segmented odds-only sieve.  Zero ordinates are ingested
from text files and unfolded by the smooth counting function; the
nearest-neighbour statistic is the minimum of the two flanking gaps at each
interior point.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .errors import ArgumentError, FormatError
from .montecarlo import Histogram, build_histogram
from .quadrature import Interval

_UINT63 = 2 ** 63
DEFAULT_SEGMENT = 1 << 20   # odd numbers sieved per segment
_SLICE_BELOW = 1 << 13      # base primes below this strike one slice each
_BASE_GRAIN = (1 << 12) - 1  # or-ed into the base-prime limit, so that
                             # neighbouring segments share one cached sieve
_DIRECT_BASE_MAX = 1 << 16   # base primes up to here: one byte per integer
                             # (no slower than segments, and ends recursion)


@dataclass(frozen=True)
class PrimeWindow:
    start: int
    primes: np.ndarray
    count: int

    def to_csv(self, stream, metadata=None) -> None:
        """Columns index, prime, gap (gap to the next prime; 0 on the last row)."""
        gaps = np.append(np.diff(self.primes), 0)
        write_csv(stream, ["index", "prime", "gap"],
                  [range(len(gaps)), self.primes, gaps], metadata)


@functools.lru_cache(maxsize=1)
def _odd_base_primes(limit: int) -> np.ndarray:
    """Odd primes <= limit, read-only; cached because the segments of one
    window ask for the same rounded-up limit.

    Up to _DIRECT_BASE_MAX one byte per integer is sieved directly; above
    it the primes come segment by segment from _sieve_range, whose own base
    primes stop at sqrt(limit), so memory stays at one segment."""
    if limit > _DIRECT_BASE_MAX:
        primes = _sieve_range(3, limit + 1)
    else:
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p::p] = False
        primes = np.flatnonzero(sieve)[1:]
    primes.setflags(write=False)
    return primes


def _sieve_range(lo: int, hi: int) -> np.ndarray:
    """All primes in [lo, hi) by odds-only sieving, DEFAULT_SEGMENT odd
    numbers at a time."""
    found = [np.array([2], dtype=np.int64)] if lo <= 2 < hi else []
    odd_base = _odd_base_primes(math.isqrt(max(hi - 1, 0)) | _BASE_GRAIN)
    seg_lo = max(lo, 3) | 1          # first odd candidate
    while seg_lo < hi:
        seg_hi = min(seg_lo + 2 * DEFAULT_SEGMENT, hi)
        flags = np.ones((seg_hi - seg_lo + 1) // 2, dtype=bool)   # odds
        # base primes with p^2 < seg_hi; offsets from seg_lo of the first
        # odd multiple >= max(p^2, seg_lo), kept small so int64 holds them
        base = odd_base[:np.searchsorted(odd_base, math.isqrt(seg_hi - 1),
                                         side="right")]
        first = (-seg_lo) % base
        first += base * (first & 1)
        first = np.maximum(first, base * base - seg_lo) // 2
        few = np.searchsorted(base, _SLICE_BELOW)
        for p, i in zip(base[:few].tolist(), first[:few].tolist()):
            flags[i::p] = False
        # the larger primes strike a few times each, one pass per multiple:
        # ordered by multiples left in the segment, pass j strikes the
        # prefix of those with more than j left
        step, hit = base[few:], first[few:]
        left = (flags.size - hit + step - 1) // step
        order = np.argsort(-left)
        step, hit, left = step[order], hit[order], left[order]
        for k in np.searchsorted(-left, -np.arange(left.max(initial=0)),
                                 side="left").tolist():
            flags[hit[:k]] = False
            hit[:k] += step[:k]
        found.append(seg_lo + 2 * np.flatnonzero(flags))
        seg_lo = seg_hi if seg_hi % 2 else seg_hi + 1
    return np.concatenate(found) if found else np.empty(0, dtype=np.int64)


def primes_from(start: int, count: int) -> PrimeWindow:
    """First `count` primes >= start.

    Sieves forward one segment of DEFAULT_SEGMENT odd numbers at a time and
    stops in the segment that holds the `count`-th prime.
    """
    if start < 2:
        raise ArgumentError(f"start must be >= 2, got {start}")
    if count < 1:
        raise ArgumentError(f"count must be >= 1, got {count}")
    found, total, lo = [], 0, start
    while total < count:
        hi = lo + 2 * DEFAULT_SEGMENT
        if hi >= _UINT63:
            raise ArgumentError(
                f"window [{start}, {hi}) risks 64-bit overflow")
        found.append(_sieve_range(lo, hi))
        total += found[-1].size
        lo = hi
    primes = np.concatenate(found)[:count]
    return PrimeWindow(start=start, primes=primes, count=count)


def prime_spacing_histogram(window: PrimeWindow, order: int,
                            bin_width: float | None = None) -> Histogram:
    """Histogram of s = t / log(start) for gaps of the given order.

    order=0 uses consecutive primes, order=1 skips one.  Default bin width
    2/log(start): gaps between odd primes live on multiples of 2, and the
    first edge sits half a lattice cell below the smallest possible gap so
    that the default bars are centered on those multiples.
    """
    if order not in (0, 1):
        raise ArgumentError(f"order must be 0 or 1, got {order}")
    if len(window.primes) < order + 2:
        raise ArgumentError("window too small for the requested order")
    scale = math.log(window.start)
    t = window.primes[order + 1:] - window.primes[:-(order + 1)]
    s = t / scale
    if bin_width is None:
        bin_width = 2.0 / scale
    lo = 1.0 / scale
    hi = float(np.max(s)) + bin_width
    return build_histogram(s, bin_width, Interval(lo, hi))


def histogram_ks_distance(hist: Histogram, cdf) -> float:
    """Kolmogorov-Smirnov distance between binned data and an analytic law.

    The binned mass is read as a piecewise-linear CDF (each bin's content
    spread over the bin) and compared to ``cdf`` at the bin centers; ``cdf``
    is called once, on the array of centers, and must return the CDF at
    each of them.  For lattice-valued data histogrammed with cells centered
    on the lattice this is the mid-distribution convention, which removes
    the spurious half-cell jump a raw-sample comparison would report.
    Overflow mass counts as lying above the last edge.
    """
    total = int(hist.counts.sum()) + hist.overflow
    if total == 0:
        raise ArgumentError("empty histogram")
    weight = hist.counts / total
    cum = np.cumsum(weight)
    mid = cum - 0.5 * weight
    reference = np.asarray(cdf(hist.centers), dtype=float)
    return float(np.max(np.abs(mid - reference)))


@dataclass(frozen=True)
class ZeroDataset:
    ordinates: np.ndarray
    source_path: str
    sha256: str = ""            # of the file's bytes, as load_zeros read them


def load_zeros(path: str) -> ZeroDataset:
    """Read ascending zero ordinates, one per line; '#' lines are comments."""
    import hashlib      # here, not at import: it loads OpenSSL (about 3 MB)
    ordinates = []
    last = None
    with open(path, "rb") as f:
        content = f.read()
    with io.TextIOWrapper(io.BytesIO(content), encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = float(line)
            except ValueError:
                raise FormatError(f"unparseable ordinate {line!r}",
                                  line=lineno) from None
            if not math.isfinite(value) or value <= 0.0:
                raise FormatError(f"ordinate must be a positive number, got {line!r}",
                                  line=lineno)
            if last is not None and value <= last:
                raise FormatError(
                    f"ordinates must be strictly ascending; {value} after {last}",
                    line=lineno)
            ordinates.append(value)
            last = value
    if not ordinates:
        raise FormatError(f"no ordinates found in {path}")
    return ZeroDataset(ordinates=np.array(ordinates), source_path=str(path),
                       sha256=hashlib.sha256(content).hexdigest())


def unfold_zeros(data: ZeroDataset) -> np.ndarray:
    """Map ordinates through the smooth counting function.

    u(g) = (g/2pi)(log(g/2pi) - 1) + 7/8, whose derivative log(g/2pi)/(2pi)
    is the smooth density of ordinates; consecutive unfolded values then
    have local mean spacing 1.
    """
    g = data.ordinates
    if np.min(g) <= 14.0:
        raise ArgumentError("unfolding needs ordinates above 14")
    w = g / (2.0 * math.pi)
    return w * (np.log(w) - 1.0) + 0.875


def nn_statistic(points) -> np.ndarray:
    """min(left gap, right gap) at each interior point of an ascending list."""
    pts = np.asarray(points, dtype=float)
    if pts.size < 3:
        raise ArgumentError("need at least 3 points")
    gaps = np.diff(pts)
    if np.any(gaps <= 0.0):
        raise ArgumentError("points must be strictly ascending")
    return np.minimum(gaps[:-1], gaps[1:])


def poisson_nn_density(s) -> np.ndarray:
    """Nearest-neighbour law of a unit-density Poisson process: 2 e^(-2s)."""
    return 2.0 * np.exp(-2.0 * np.asarray(s, dtype=float))


def ks_distance(values, cdf) -> float:
    """Kolmogorov-Smirnov sup distance between a sample and a CDF.

    ``cdf`` is called once, on the array of sorted values, and must
    return the CDF at each of them.
    """
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ArgumentError("empty sample")
    f = np.asarray(cdf(v), dtype=float)
    n = v.size
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))
