"""Tridiagonal ensemble sampling, unfolding, and histogram statistics."""

import io
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import eigh_tridiagonal
from scipy.special import chdtrc

from spacing_lab import (ArgumentError, Interval, NumericError,
                         UnsupportedError, montecarlo)
from spacing_lab.montecarlo import (
    build_histogram,
    central_spacings,
    chi_square_test,
    sample_ensemble,
    semicircle_density,
    unfold,
)


def _reference_spectrum(n, diagonal, off_diagonal):
    # one replica drawn from its chunk's two streams and solved on its own
    diag = diagonal.standard_normal(n)
    off = np.sqrt(off_diagonal.gamma(shape=np.arange(1, n) / 2.0, scale=1.0))
    if n == 1:
        return diag
    return np.sort(eigh_tridiagonal(diag, off, eigvals_only=True))


def _reference_unfold(raw, density=None):
    # the per-spectrum unfolding loop the array path replaced
    n = raw.size
    if density is None:
        edge = math.sqrt(2.0 * n)
        work = np.clip(raw, -edge, edge)
        density = lambda x: semicircle_density(x, n)
    else:
        work = raw
    mids = 0.5 * (work[1:] + work[:-1])
    rho = np.maximum(np.asarray(density(mids), dtype=float), 1e-12)
    return np.concatenate(([work[0]], work[0] + np.cumsum(np.diff(work) * rho)))


def _pooled_central_spacings(n, reps, seed, order=0):
    out = []
    for raw in sample_ensemble(n, reps, seed):
        out.extend(central_spacings(unfold(raw), order))
    return np.asarray(out)


def _one_spectrum(n, seed):
    return sample_ensemble(n, 1, seed)[0]


class TestSampling:
    def test_deterministic_in_seed(self):
        assert np.array_equal(_one_spectrum(13, 7), _one_spectrum(13, 7))

    def test_rank_one_moments(self):
        # a rank-1 draw is a single standard normal
        values = sample_ensemble(1, 100_000, 7)[:, 0]
        assert abs(values.mean()) <= 0.02
        assert abs(values.var() - 1.0) <= 0.02

    def test_raw_spectrum_ascending(self):
        assert np.all(np.diff(_one_spectrum(25, 3)) > 0.0)

    def test_rank_validation(self):
        with pytest.raises(ArgumentError):
            sample_ensemble(0, 1, 1)

    def test_ensemble_worker_count_invisible(self):
        serial = sample_ensemble(13, 600, 11, workers=1)
        threaded = sample_ensemble(13, 600, 11, workers=4)
        assert serial.shape == (600, 13)
        assert np.array_equal(serial, threaded)

    def test_rank_two_spacing_vanishes_linearly(self):
        # log-log slope of the small-spacing histogram; the weighted fit
        # keeps the sparse leftmost bins from dominating
        samples = sample_ensemble(2, 150_000, 42)
        spacings = samples[:, 1] - samples[:, 0]
        counts, edges = np.histogram(spacings[spacings < 0.4], bins=8,
                                     range=(0.0, 0.4))
        centers = 0.5 * (edges[1:] + edges[:-1])
        slope = np.polyfit(np.log(centers), np.log(counts), 1,
                           w=np.sqrt(counts))[0]
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_semicircle_profile(self):
        # bulk bins only: at rank 13 the spectrum edge is genuinely fuzzy,
        # so the outermost bins reflect finite-size spill, not error
        n = 13
        limit = math.sqrt(2.0 * n)
        eigenvalues = sample_ensemble(n, 10_000, 3).ravel()
        hist = build_histogram(eigenvalues, 0.25, Interval(-limit, limit))
        averaged = np.empty(hist.counts.size)
        for i, (a, b) in enumerate(zip(hist.bin_edges[:-1],
                                       hist.bin_edges[1:])):
            xs = np.linspace(a, b, 21)[1::2]
            averaged[i] = np.mean(semicircle_density(xs, n)) / n
        bulk = np.abs(hist.centers) <= 4.5
        deviation = np.max(np.abs(hist.density - averaged)[bulk])
        peak = limit / math.pi / n
        assert deviation <= 0.05 * peak

    def test_gamma_draw_moments(self):
        # the off-diagonal entries square to these draws
        rng = montecarlo._rng_for(99, 0, 1)
        for shape in (0.5, 1.0, 5.0):
            draws = rng.gamma(shape=shape, scale=1.0, size=1_000_000)
            assert abs(draws.mean() - shape) <= 0.01 * shape
            assert abs(draws.var() - shape) <= 0.01 * shape


class TestBatchedSampler:
    @pytest.mark.parametrize("n", [1, 2, 13])
    def test_rows_match_replica_loop(self, n):
        # 300 replicas cross the chunk boundary at CHUNK = 256
        expected = _replica_loop(n, 300, 11)
        for workers in (1, 3):
            rows = sample_ensemble(n, 300, 11, workers=workers)
            assert np.array_equal(rows, expected)

    @pytest.mark.parametrize("n", [1, 2, 13])
    def test_smaller_ensemble_is_a_prefix(self, n):
        # the second chunk holds 44 rows in one and 256 in the other, so a
        # chunk drawing both kinds from one stream would fail from n = 2
        assert np.array_equal(sample_ensemble(n, 300, 7),
                              sample_ensemble(n, 600, 7)[:300])

    def test_streams_of_every_chunk_and_kind_differ(self):
        # (seed, chunk) and (seed, chunk, 0) would key the same stream
        firsts = {montecarlo._rng_for(4, chunk, kind).integers(1 << 62)
                  for chunk in range(3) for kind in (0, 1)}
        assert len(firsts) == 6

    def test_large_rank_solves_in_bounded_stacks(self):
        # one 256-row band at rank 201 would be 83 MB
        tracemalloc.start()
        try:
            rows = sample_ensemble(201, 260, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        assert np.array_equal(rows, _replica_loop(201, 260, 3))

    def test_single_spectrum_matches_replica_loop(self):
        assert np.array_equal(_one_spectrum(13, 5), _replica_loop(13, 1, 5)[0])

    def test_rank_validation(self):
        with pytest.raises(ArgumentError):
            sample_ensemble(0, 10, 1)


def _replica_loop(n, reps, seed):
    # every chunk's replicas drawn from its two streams and solved one by
    # one, chunk after chunk
    rows = []
    for c in range((reps + montecarlo.CHUNK - 1) // montecarlo.CHUNK):
        diagonal = montecarlo._rng_for(seed, c, 0)
        off_diagonal = montecarlo._rng_for(seed, c, 1)
        take = min(montecarlo.CHUNK, reps - c * montecarlo.CHUNK)
        rows.extend(_reference_spectrum(n, diagonal, off_diagonal)
                    for _ in range(take))
    return np.array(rows)


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count that sizes the process pool."""
    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)), raising=False)
    return use


@pytest.mark.skipif(not hasattr(os, "fork"),
                    reason="sampling in more than one process needs os.fork")
class TestProcessPool:
    # no test starts more than 3 processes: the CPU count is stubbed to 3
    @pytest.mark.parametrize("reps", [100, 300, 1000])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_rows_match_replica_loop(self, cpus, reps, workers):
        # 100: one chunk; 1000: 4 chunks in blocks of 1, 1 and 2
        cpus(3)
        assert np.array_equal(sample_ensemble(13, reps, 21, workers),
                              _replica_loop(13, reps, 21))

    def test_more_workers_than_chunks(self, cpus):
        cpus(3)
        assert np.array_equal(sample_ensemble(13, 300, 8, 16),
                              sample_ensemble(13, 300, 8, 1))

    def test_process_count_rule(self, cpus, monkeypatch):
        count = montecarlo._process_count
        cpus(2)
        assert count(None, 10) == 1
        assert count(1, 10) == 1
        assert count(4, 1) == 1
        assert count(4, 10) == 2
        cpus(8)
        assert count(3, 10) == 3
        assert count(8, 3) == 3
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert count(8, 10) == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert count(8, 10) == 1

    def test_worker_numeric_error_reaches_caller(self, cpus, monkeypatch):
        # the stub is in place before the fork; only the child's block fails
        parent, solve = os.getpid(), np.linalg.eigvalsh

        def child_fails(a, UPLO="L"):
            if os.getpid() != parent:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return solve(a, UPLO=UPLO)

        cpus(2)
        monkeypatch.setattr(np.linalg, "eigvalsh", child_fails)
        with pytest.raises(NumericError) as caught:
            sample_ensemble(13, 600, 1, workers=2)
        assert caught.value.context == {"n": 13}

    def test_serial_without_fork(self, cpus, monkeypatch):
        cpus(2)
        monkeypatch.delattr(os, "fork")
        assert np.array_equal(sample_ensemble(13, 600, 3, 2),
                              _replica_loop(13, 600, 3))

    @pytest.mark.parametrize("failing", ["parent", "child"])
    def test_every_child_is_reaped(self, cpus, monkeypatch, failing):
        parent, draw = os.getpid(), montecarlo._draw_spectra

        def draw_or_fail(spectra, seed, chunk):
            if (os.getpid() == parent) == (failing == "parent"):
                raise NumericError("stub failure", context={"chunk": chunk})
            draw(spectra, seed, chunk)

        cpus(3)
        sample_ensemble(13, 1000, 2, workers=3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        monkeypatch.setattr(montecarlo, "_draw_spectra", draw_or_fail)
        with pytest.raises(NumericError) as caught:
            sample_ensemble(13, 1000, 2, workers=3)
        # a child's error is the first failing block's: chunk 1 of 0..3
        assert caught.value.context == {"chunk": 0 if failing == "parent"
                                        else 1}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_exiting_without_a_result_raises(self, cpus, monkeypatch):
        parent, draw = os.getpid(), montecarlo._draw_spectra

        def child_exits(spectra, seed, chunk):
            if os.getpid() != parent:
                os._exit(0)
            draw(spectra, seed, chunk)

        cpus(2)
        monkeypatch.setattr(montecarlo, "_draw_spectra", child_exits)
        with pytest.raises(ChildProcessError, match="no result"):
            sample_ensemble(13, 600, 4, workers=2)

    def test_children_leave_the_callers_stdout_alone(self):
        # a block-buffered stdout holds a line when the children fork; a
        # child leaving by a normal exit would flush it a second time, and
        # one returning into the command would write the CSV again
        script = textwrap.dedent("""
            import os, sys
            os.sched_getaffinity = lambda pid: {0, 1}
            from spacing_lab.cli import main
            print("# before sampling")
            sys.exit(main(["sample", "--n", "13", "--reps", "600",
                           "--workers", "2"]))
        """)
        root = Path(__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("# before sampling") == 1
        assert proc.stdout.count("bin_left") == 1


def test_no_process_pool_machinery_is_imported():
    script = ("import sys, spacing_lab.cli; "
              "print(sorted({'multiprocessing', 'concurrent.futures'} "
              "& set(sys.modules)))")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "[]", proc.stderr


class TestArrayUnfold:
    @pytest.mark.parametrize("density", [
        None, lambda x: 0.25 + 0.01 * x * x])
    def test_matches_per_spectrum_loop(self, density):
        raw = sample_ensemble(13, 300, 4)
        raw[0, -1] = 10.0          # beyond the semicircle edge: clipped
        expected = np.array([_reference_unfold(r, density) for r in raw])
        assert np.array_equal(unfold(raw, density), expected)
        for i in (0, 1, 299):
            assert np.array_equal(unfold(raw[i], density), expected[i])

    def test_density_called_once_on_all_midpoints(self):
        raw = sample_ensemble(13, 5, 4)
        calls = []
        unfold(raw, lambda x: calls.append(x.shape) or np.ones_like(x))
        assert calls == [(5, 12)]

    def test_spacings_match_per_spectrum(self):
        raw = sample_ensemble(13, 300, 4)
        unfolded = unfold(raw)
        m = 6
        order0 = central_spacings(unfolded, 0)
        order1 = central_spacings(unfolded, 1)
        assert order0.shape == (300, 2) and order1.shape == (300, 1)
        for u, gaps, span in zip(unfolded, order0, order1):
            assert np.array_equal(gaps, [u[m] - u[m - 1], u[m + 1] - u[m]])
            assert np.array_equal(span, [u[m + 1] - u[m - 1]])
            assert np.array_equal(central_spacings(u, 0), gaps)
            assert np.array_equal(central_spacings(u, 1), span)


class TestUnfold:
    def test_constant_density_is_identity(self):
        raw = np.array([0.3, 0.9, 1.4, 2.0])
        unfolded = unfold(raw, density=lambda x: np.ones_like(x))
        assert np.allclose(unfolded, raw, atol=1e-15)

    def test_mean_central_spacing_is_unity(self):
        spacings = _pooled_central_spacings(13, 2000, 42)
        assert 0.95 <= spacings.mean() <= 1.05

    def test_rank_doubling_leaves_histogram_unchanged(self):
        # bulk universality: the central-spacing law does not depend on
        # rank once the ensembles are unfolded (two-sample chi-square)
        a = _pooled_central_spacings(13, 2000, 5)
        b = _pooled_central_spacings(27, 2000, 6)
        edges = np.arange(0.0, 3.2, 0.2)
        ca, _ = np.histogram(a, edges)
        cb, _ = np.histogram(b, edges)
        ca[-1] += int((a >= edges[-1]).sum())
        cb[-1] += int((b >= edges[-1]).sum())
        keep = (ca + cb) >= 10
        ca, cb = ca[keep], cb[keep]
        ra = math.sqrt(cb.sum() / ca.sum())
        stat = float(np.sum((ca * ra - cb / ra) ** 2 / (ca + cb)))
        assert stats.chi2.sf(stat, keep.sum() - 1) > 0.01

    def test_too_small_rank(self):
        with pytest.raises(ArgumentError):
            unfold(np.array([0.0]))


class TestCentralSpacing:
    def test_order_zero_flanks_the_middle(self):
        u = np.arange(13.0) ** 1.1
        gaps = central_spacings(u, 0)
        assert gaps == pytest.approx([u[6] - u[5], u[7] - u[6]])

    def test_order_one_telescopes(self):
        u = np.cumsum(np.linspace(0.5, 1.5, 13))
        assert central_spacings(u, 1)[0] == pytest.approx(
            np.sum(central_spacings(u, 0)), rel=1e-15)

    def test_positive(self):
        unfolded = unfold(_one_spectrum(13, 21))
        assert np.all(central_spacings(unfolded, 0) > 0.0)

    def test_rank_constraints(self):
        with pytest.raises(ArgumentError):
            central_spacings(np.arange(12.0), 0)
        with pytest.raises(ArgumentError):
            central_spacings(np.arange(3.0), 1)
        with pytest.raises(UnsupportedError):
            central_spacings(np.arange(13.0), 2)

    def test_frozen_sample(self):
        # regression pin for the rank-13 seed-1 draw of the two-stream
        # contract
        unfolded = unfold(_one_spectrum(13, 1))
        assert central_spacings(unfolded, 0) == pytest.approx(
            [1.82312770, 1.27246121], abs=1e-6)
        assert central_spacings(unfolded, 1) == pytest.approx([3.09558891],
                                                              abs=1e-6)


class TestHistogram:
    def test_single_point(self):
        hist = build_histogram([0.5], 1.0, Interval(0.0, 2.0))
        assert hist.counts.tolist() == [1, 0]
        assert hist.density.tolist() == [1.0, 0.0]

    def test_density_normalized(self):
        rng = np.random.default_rng(8)
        hist = build_histogram(rng.uniform(0.0, 3.0, 1000), 0.4,
                               Interval(0.0, 3.0))
        assert np.sum(hist.density * hist.bin_width) == pytest.approx(
            1.0, abs=1e-12)

    def test_overflow_tally(self):
        hist = build_histogram([0.5, 1.5, 9.0], 1.0, Interval(0.0, 2.0))
        assert hist.overflow == 1
        assert int(hist.counts.sum()) == 2

    def test_empty_data_rejected(self):
        with pytest.raises(ArgumentError):
            build_histogram([], 0.1, Interval(0.0, 1.0))

    @pytest.mark.parametrize("width", [-1.0, math.inf])
    def test_bin_width_must_be_finite_and_positive(self, width):
        with pytest.raises(ArgumentError):
            montecarlo.check_bin_width(width)

    def test_csv_columns(self):
        hist = build_histogram([0.5, 1.2], 1.0, Interval(0.0, 2.0))
        out = io.StringIO()
        hist.to_csv(out, metadata={"seed": 42})
        lines = out.getvalue().splitlines()
        assert lines[0] == "# seed: 42"
        assert lines[1] == "bin_left,bin_right,count,density"
        assert len(lines) == 4


class TestChiSquare:
    @pytest.mark.parametrize("dof", range(1, 121))
    def test_tail_matches_chdtrc(self, dof):
        # 3 dof + 50 reaches far into the tail; past x = 1400 the terms
        # are taken in log space, and dof > 60 keeps the tail above 1e-300
        for x in np.concatenate((np.geomspace(1e-6, 1.0, 13),
                                 np.linspace(0.0, 3 * dof + 50, 97)[1:],
                                 np.linspace(1400.0, 2000.0, 31))):
            expected = chdtrc(dof, x)
            if expected >= 1e-300:
                got = montecarlo._chi_square_tail(dof, x)
                assert abs(got - expected) <= 1e-12 * expected, (x, got)
        assert montecarlo._chi_square_tail(dof, 0.0) == 1.0
        assert montecarlo._chi_square_tail(dof, math.inf) == 0.0
        for x in (1e300, 1.7e308):
            assert montecarlo._chi_square_tail(dof, x) == 0.0

    def test_exponential_data_accepts_exponential_model(self):
        rng = np.random.default_rng(12)
        hist = build_histogram(rng.exponential(1.0, 20_000), 0.25,
                               Interval(0.0, 5.0))
        stat, p, dof = chi_square_test(hist, lambda s: np.exp(-s))
        assert p > 0.01
        assert dof >= 10

    def test_wrong_model_rejected(self):
        rng = np.random.default_rng(12)
        hist = build_histogram(rng.exponential(1.0, 20_000), 0.25,
                               Interval(0.0, 5.0))
        _, p, _ = chi_square_test(
            hist, lambda s: 2.0 * np.exp(-2.0 * s))
        assert p < 1e-6

    def test_spacing_histogram_accepts_surmise(self):
        spacings = _pooled_central_spacings(13, 2000, 42)
        hist = build_histogram(spacings, 0.1, Interval(0.0, 4.0))
        from spacing_lab.surmise import wigner_surmise
        _, p, _ = chi_square_test(hist, lambda s: wigner_surmise(1, s))
        assert p > 0.01

    def test_density_called_once_on_all_simpson_points(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_MIN_EXPECTED", 0.0)
        hist = build_histogram([0.2, 0.7, 1.1, 1.6], 0.5, Interval(0.0, 2.0))
        calls = []

        def density(s):
            calls.append(np.array(s))
            return np.exp(-s)

        chi_square_test(hist, density)
        assert len(calls) == 1
        assert calls[0].shape == (4, 5)
        assert calls[0][1].tolist() == [0.5, 0.625, 0.75, 0.875, 1.0]

    def test_matches_per_bin_simpson_loop(self, monkeypatch):
        # with _MIN_EXPECTED = 0 no bins merge, so the statistic is a sum
        # over every bin and the tail beyond the last edge
        monkeypatch.setattr(montecarlo, "_MIN_EXPECTED", 0.0)
        rng = np.random.default_rng(3)
        hist = build_histogram(rng.exponential(1.0, 500), 0.25,
                               Interval(0.0, 3.0))
        density = lambda s: 1.0 / ((1.0 + s) * (1.0 + s))
        expected = []
        for a, b in zip(hist.bin_edges[:-1], hist.bin_edges[1:]):
            y = [density(float(x)) for x in np.linspace(a, b, 5)]
            expected.append((b - a) / 12.0 * (y[0] + 4 * y[1] + 2 * y[2]
                                              + 4 * y[3] + y[4]))
        total = int(hist.counts.sum()) + hist.overflow
        observed = np.append(hist.counts, hist.overflow)
        expected = np.append(expected, 1.0 - np.sum(expected)) * total
        stat = float(np.sum((observed - expected) ** 2 / expected))
        assert chi_square_test(hist, density)[0] == stat
