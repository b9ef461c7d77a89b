"""Empirical route: tridiagonal Gaussian-ensemble sampling and histograms.

The characteristic-polynomial recurrence with N(0,1) diagonal and
Gamma(k/2, 1) squared off-diagonal entries is realized directly as a
symmetric tridiagonal matrix; its eigenvalues are the polynomial's zeros
but come from a tridiagonal eigensolver instead of root finding: numpy's
eigvalsh on a stack of such matrices, which gives LAPACK sterf's bits.
The spectra of an ensemble are the rows of one array, unfolded as a whole
by the semicircle density at spacing midpoints, and central spacings are
histogrammed and tested against the analytic densities with a chi-square
tail in closed form.  The module needs numpy alone.

sample_ensemble draws its replicas in fixed chunks, each from two
counter-based streams of its own, one for the diagonals and one for the
squared off-diagonals, each drawn in one call per chunk.  With two
streams a replica's draws do not depend on how many replicas follow it, so
an ensemble is a prefix of any larger one of the same seed.  The chunks
are split into contiguous blocks, one per process: the caller draws the
first block itself while a child forked for each other block draws that
one and pipes it back, and the blocks are joined in chunk order, so the
output is bit-identical for any worker count.  The stacked eigvalsh, not
the drawing, is the cost: on a shared 2-CPU Xeon (Python 3.11, numpy 2.4,
one BLAS thread), 20000 rank-13 replicas took 0.11 s with 2 processes
against 0.16 s serially, and with a busy process on the other CPU 0.16 s
against 0.17-0.20 s (medians of 7).  A ProcessPoolExecutor, whose caller
idles while its workers draw and whose start costs about 15 ms, took
0.14 s and 0.21-0.25 s.  No more processes start than there are chunks or
usable CPUs, and the serial path runs where the platform cannot fork.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import pickle
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .errors import ArgumentError, NumericError, UnsupportedError
from .quadrature import Interval

log = logging.getLogger(__name__)

CHUNK = 256          # replicas per stream pair; fixed so worker count is moot
# a stacked band is (rows, n, n) float64, dense though only two diagonals
# are read: a whole chunk fits up to n = 64, one row at a time from n = 725
_BAND_BYTES = 8 << 20
_DENSITY_FLOOR = 1e-12
_MIN_EXPECTED = 5.0  # chi_square_test merges bins up to this expected count


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

    def to_csv(self, stream, metadata=None, overlays=None) -> None:
        """bin_left,bin_right,count,density, then one float column per
        ``overlays`` entry (name -> values at the bin centers)."""
        overlays = overlays or {}
        write_csv(stream,
                  ["bin_left", "bin_right", "count", "density", *overlays],
                  [self.bin_edges[:-1], self.bin_edges[1:], self.counts,
                   self.density,
                   *(np.asarray(v, dtype=float) for v in overlays.values())],
                  metadata)


def _rng_for(seed, chunk, kind):
    # 3-tuple keys: SeedSequence drops trailing zero words, so (s, c) and
    # (s, c, 0) would name the same stream
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence((int(seed), int(chunk), int(kind)))))


def _draw_spectra(spectra: np.ndarray, seed: int, chunk: int) -> None:
    """Fill each row of ``spectra`` (k, n) with one ascending spectrum of
    the given chunk of an ensemble.

    The reproducibility contract: the diagonals are the first k * n normals
    of the stream keyed (seed, chunk, 0), row after row, and the squared
    off-diagonals are Gamma((1..n-1)/2, 1) draws of the stream keyed (seed,
    chunk, 1), row after row.  Each stream is drawn in one call, and row i
    depends only on rows <= i, so the first rows of a chunk are the same
    whatever k is.  The rows are then solved in stacks, each by one
    eigvalsh on the rows' lower bands (diagonal and subdiagonal, zeros
    elsewhere) and each no larger than _BAND_BYTES unless one row is.  The
    tridiagonal reduction of syevd leaves such a matrix as it is, so its
    eigenvalues are those of LAPACK sterf, bit for bit, and come back
    ascending.
    """
    k, n = spectra.shape
    _rng_for(seed, chunk, 0).standard_normal(out=spectra)
    off = np.sqrt(_rng_for(seed, chunk, 1).standard_gamma(
        np.arange(1, n) / 2.0, size=(k, n - 1)))
    step = max(1, _BAND_BYTES // (8 * n * n))
    band = np.zeros((min(k, step), n, n))
    on, below = np.arange(n), np.arange(1, n)
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        stack = band[:hi - lo]
        stack[:, on, on] = spectra[lo:hi]
        stack[:, below, below - 1] = off[lo:hi]
        try:
            spectra[lo:hi] = np.linalg.eigvalsh(stack, UPLO="L")
        except np.linalg.LinAlgError as exc:
            raise NumericError("tridiagonal eigensolver failed to converge",
                               context={"n": n}) from exc


def _process_count(workers: int | None, n_chunks: int) -> int:
    """Processes sample_ensemble uses: min(workers, n_chunks, usable CPUs),
    and 1 where the platform cannot fork."""
    if (workers is None or workers <= 1 or n_chunks <= 1
            or not hasattr(os, "fork")):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(workers, n_chunks, cpus))


def _draw_chunks(n: int, reps: int, seed: int, first: int, stop: int):
    """The (rows, n) spectra of chunks first..stop-1 of an ensemble."""
    block = np.empty((min(stop * CHUNK, reps) - first * CHUNK, n))
    for c in range(first, stop):
        lo = (c - first) * CHUNK
        _draw_spectra(block[lo:lo + CHUNK], seed, c)
    return block


def _fork_join(tasks):
    """[task() for task in tasks]: tasks[0] runs in this process while each
    other task runs in a child forked for it.

    A child pipes back its pickled result, or the exception it raised, and
    leaves by os._exit, so it runs no exit handler and flushes none of the
    buffers it shares with this process.  Every pipe is drained and every
    child reaped, also when tasks[0] raises.  Then a child's exception is
    raised here as it was raised there (a NumericError keeps its context),
    and a child that exits without writing raises ChildProcessError.
    """
    children = []
    try:
        for task in tasks[1:]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _child(task, write_end)
            os.close(write_end)
            children.append((pid, read_end))
        results = [tasks[0]()]
    finally:
        replies = [_reap(pid, read_end) for pid, read_end in children]
    for pid, status, reply in replies:
        if status or not reply:
            raise ChildProcessError(
                f"sampling process {pid} exited with status {status} "
                "and no result")
        ok, value = pickle.loads(reply)
        if not ok:
            raise value
        results.append(value)
    return results


def _child(task, write_end: int):
    """Run task in a forked child, write (ok, result or exception) to the
    pipe and exit: status 0 once the reply is written, 1 otherwise."""
    status = 1
    try:
        try:
            reply = (True, task())
        except Exception as exc:        # raised again in the parent
            reply = (False, exc)
        with os.fdopen(write_end, "wb") as pipe:
            pickle.dump(reply, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, read_end: int):
    """(pid, exit status, bytes written) of a child, once it has exited."""
    with os.fdopen(read_end, "rb") as pipe:
        reply = pipe.read()
    return pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), reply


def sample_ensemble(n: int, reps: int, seed: int, workers: int | None = None):
    """reps independent spectra, the ascending rows of a (reps, n) array.

    Replicas are grouped in fixed chunks of CHUNK, each chunk drawing from
    its own two counter-based streams keyed by (seed, chunk index, kind)
    into its own rows, so the result is bit-identical for any worker count,
    and is the first reps rows of any larger ensemble of the same seed.
    With ``workers`` > 1 the chunks are drawn in up to that many processes,
    this one and forked children (never more than the chunks or the usable
    CPUs).
    """
    if n < 1:
        raise ArgumentError(f"matrix rank must be >= 1, got {n}")
    if reps < 1:
        raise ArgumentError(f"reps must be >= 1, got {reps}")
    n_chunks = (reps + CHUNK - 1) // CHUNK
    processes = _process_count(workers, n_chunks)
    bounds = [n_chunks * k // processes for k in range(processes + 1)]
    blocks = _fork_join([
        functools.partial(_draw_chunks, n, reps, seed, first, stop)
        for first, stop in zip(bounds, bounds[1:])])
    return blocks[0] if processes == 1 else np.concatenate(blocks)


def semicircle_density(x, n: int):
    """Bulk eigenvalue density sqrt(2n - x^2)/pi on (-sqrt(2n), sqrt(2n))."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.maximum(2.0 * n - x * x, 0.0)) / math.pi


def unfold(spectra, density=None) -> np.ndarray:
    """Unfold each spectrum along the last axis of ``spectra`` (one
    spectrum, or a stack of them along the leading axes).

    Each spacing is rescaled by the local density at its midpoint.  Default
    density is the semicircle for the rank (the length of the last axis);
    eigenvalues outside its support are clipped to the edge (count logged).
    The density is floored at a tiny positive value so each unfolded
    sequence stays strictly ascending even at the clipped edge.  A custom
    ``density`` is called once, on the array of all midpoints, and must
    return the density at each of them.
    """
    raw = np.asarray(spectra, dtype=float)
    n = raw.shape[-1]
    if n < 2:
        raise ArgumentError("need at least 2 eigenvalues to unfold")
    if density is None:
        edge = math.sqrt(2.0 * n)
        clipped = int(np.count_nonzero((raw < -edge) | (raw > edge)))
        if clipped:
            log.info("unfold: clipped %d eigenvalues to the support edge",
                     clipped)
        work = np.clip(raw, -edge, edge)
        density = functools.partial(semicircle_density, n=n)
    else:
        work = raw
    mids = 0.5 * (work[..., 1:] + work[..., :-1])
    rho = np.maximum(np.asarray(density(mids), dtype=float), _DENSITY_FLOOR)
    scaled = np.diff(work, axis=-1) * rho
    first = work[..., :1]
    return np.concatenate((first, first + np.cumsum(scaled, axis=-1)),
                          axis=-1)


def check_rank(n: int, order: int) -> None:
    """Raise unless rank-n spectra have central spacings of this order:
    order 0 or 1, and n odd and >= 2 * order + 3."""
    if order not in (0, 1):
        raise UnsupportedError(f"central spacing order must be 0 or 1, got {order}")
    if n % 2 == 0 or n < 2 * order + 3:
        raise ArgumentError(f"rank must be odd and >= {2 * order + 3}, got {n}")


def central_spacings(unfolded, order: int = 0) -> np.ndarray:
    """Spacings around the middle of each unfolded spectrum (last axis).

    order=0: the two gaps flanking the middle index, both returned in a
    last axis of length 2 (they are pooled by callers).  order=1: the
    single span across them, in a last axis of length 1.
    """
    u = np.asarray(unfolded, dtype=float)
    n = u.shape[-1]
    check_rank(n, order)
    m = n // 2
    if order == 0:
        return np.diff(u[..., m - 1:m + 2], axis=-1)
    return u[..., m + 1:m + 2] - u[..., m - 1:m]


def check_bin_width(bin_width: float) -> None:
    """Raise unless bin_width is a finite positive number."""
    if not 0.0 < bin_width < math.inf:
        raise ArgumentError(
            f"bin width must be finite and > 0, got {bin_width}")


def build_histogram(data, bin_width: float, rng: Interval) -> Histogram:
    """Fixed-width histogram on rng; out-of-range points go to overflow."""
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise ArgumentError("cannot histogram empty data")
    check_bin_width(bin_width)
    n_bins = max(1, int(math.ceil((rng.hi - rng.lo) / bin_width - 1e-12)))
    edges = rng.lo + bin_width * np.arange(n_bins + 1)
    counts, _ = np.histogram(data, bins=edges)
    inside = int(counts.sum())
    density = (counts / (inside * bin_width) if inside
               else np.zeros_like(counts, dtype=float))
    return Histogram(bin_edges=edges, counts=counts, density=density,
                     overflow=int(data.size - inside))


def chi_square_test(hist: Histogram, density_fn):
    """(statistic, p_value, dof) of the histogram against an analytic density.

    Expected counts integrate density_fn over each bin by Simpson's rule
    on five points; density_fn is called once, on the (bins, 5) array of
    all of them, and must return the density at each.  The mass beyond the
    last edge absorbs the overflow tally.  Adjacent bins are merged left to
    right until every expected count reaches _MIN_EXPECTED.
    """
    edges = hist.bin_edges
    total = int(hist.counts.sum()) + hist.overflow
    if total == 0:
        raise ArgumentError("histogram holds no data")
    y = np.asarray(density_fn(np.linspace(edges[:-1], edges[1:], 5, axis=-1)),
                   dtype=float)
    expected = (np.diff(edges) / 12.0 * (y[:, 0] + 4 * y[:, 1] + 2 * y[:, 2]
                                          + 4 * y[:, 3] + y[:, 4]))
    tail = max(1.0 - expected.sum(), 0.0)
    observed = np.append(hist.counts.astype(float), float(hist.overflow))
    expected = np.append(expected, tail) * total

    merged_obs, merged_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= _MIN_EXPECTED:
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
    return stat, _chi_square_tail(dof, stat), dof


def _chi_square_tail(dof: int, x: float) -> float:
    """P(X > x) for X chi-square with an integer dof >= 1: Q(dof/2, x/2).

    With h = x/2, even dof gives e^-h sum_{j<dof/2} h^j/j!, and odd dof
    erfc(sqrt h) plus e^-h sum_{j<(dof-1)/2} h^(j+1/2)/Gamma(j+3/2); each
    term is the last times h/(j+1) or h/(j+3/2).  Past h = 700, where e^-h
    would leave the normal floats, each term is the exp of its logarithm.
    """
    h = 0.5 * float(x)
    if h <= 0.0:
        return 1.0
    if h == math.inf:
        return 0.0
    half = 0.5 * (dof % 2)
    head = math.erfc(math.sqrt(h)) if half else 0.0
    if h > 700.0:
        log_h = math.log(h)
        return head + sum(math.exp((j + half) * log_h - h
                                   - math.lgamma(j + 1 + half))
                          for j in range(dof // 2))
    term = math.exp(-h) * (2.0 * math.sqrt(h / math.pi) if half else 1.0)
    total = 0.0
    for j in range(dof // 2):
        total += term
        term *= h / (j + 1 + half)
    return head + total
