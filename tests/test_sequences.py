"""Prime windows, zero datasets, and nearest-neighbour statistics."""

import io
import math

import numpy as np
import pytest
from scipy import stats

from spacing_lab import ArgumentError, FormatError, Interval, csvio, sequences
from spacing_lab.montecarlo import build_histogram, chi_square_test
from spacing_lab.sequences import (
    ZeroDataset,
    histogram_ks_distance,
    ks_distance,
    load_zeros,
    nn_statistic,
    poisson_nn_density,
    prime_spacing_histogram,
    primes_from,
    unfold_zeros,
)


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def miller_rabin(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2^63 (fixed witness set)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestMillerRabin:
    def test_known_primes(self):
        for p in (2, 3, 5, 97, 1_000_000_007, 1_000_000_009, 2**61 - 1):
            assert miller_rabin(p)

    def test_known_composites(self):
        # 561 is the smallest Carmichael number
        for n in (0, 1, 4, 100, 561, 1_000_000_005, 2**62):
            assert not miller_rabin(n)


class TestPrimesFrom:
    def test_small_window(self):
        window = primes_from(10, 4)
        assert window.primes.tolist() == [11, 13, 17, 19]

    def test_first_prime_past_billion(self):
        window = primes_from(10**9, 1)
        assert window.primes.tolist() == [1_000_000_007]

    def test_gaps_between_odd_primes_are_even(self):
        window = primes_from(10**9 + 7, 100)
        assert np.all(np.diff(window.primes) % 2 == 0)

    def test_start_validation(self):
        with pytest.raises(ArgumentError):
            primes_from(1, 5)

    def test_overflow_guard(self):
        with pytest.raises(ArgumentError):
            primes_from(2**63 - 1000, 100)

    def test_sieve_agrees_with_miller_rabin(self):
        # per-integer agreement over random 48-bit windows; > 1e4 integers
        rng = np.random.default_rng(17)
        checked = 0
        for start in rng.integers(2**47, 2**48, 10):
            lo = int(start)
            hi = lo + 1050
            sieved = set(sequences._sieve_range(lo, hi))
            for n in range(lo, hi):
                assert (n in sieved) == miller_rabin(n)
            checked += hi - lo
        assert checked >= 10_000

    def test_csv_export(self):
        out = io.StringIO()
        primes_from(10, 3).to_csv(out)
        assert out.getvalue() == "index,prime,gap\n0,11,2\n1,13,4\n2,17,0\n"

    @pytest.mark.parametrize("start, segment", [(10**6 + 1, 64),
                                                 (10**9 + 7, 1024)])
    def test_segmented_window_matches_one_range(self, monkeypatch, start,
                                                segment):
        # each 500-prime window spans 5 or more segments; from 1e9 the base
        # primes above 4096 strike one pass per multiple
        with monkeypatch.context() as patch:
            patch.setattr(sequences, "DEFAULT_SEGMENT", segment)
            window = primes_from(start, 500)
        last = int(window.primes[-1])
        expected = sequences._sieve_range(start, last + 1)
        assert np.array_equal(window.primes, expected)
        assert window.primes.tolist() == [n for n in range(start, last + 1)
                                          if miller_rabin(n)]
        assert np.array_equal(window.primes, primes_from(start, 500).primes)

    @pytest.mark.parametrize("k", [1, 2, 5, 100])
    def test_large_primes_without_a_multiple_in_the_segment(self, k):
        # base primes up to 10^6, and most of those above _SLICE_BELOW have
        # no odd multiple in a segment of k odd numbers
        lo, hi = 10**12 + 1, 10**12 + 1 + 2 * k
        limit = math.isqrt(hi - 1)
        base = np.ones(limit + 1, dtype=bool)
        base[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if base[p]:
                base[p * p::p] = False
        flags = np.ones(hi - lo, dtype=bool)
        for p in np.flatnonzero(base).tolist():
            flags[-lo % p::p] = False
        expected = lo + np.flatnonzero(flags)
        assert np.array_equal(sequences._sieve_range(lo, hi), expected)
        assert [n for n in range(lo, hi) if miller_rabin(n)] == expected.tolist()

    @pytest.mark.parametrize("offset", [-4096, -1, 0, 1, 2, 4095])
    def test_segmented_base_sieve_matches_direct(self, offset):
        # limits on both sides of the switch from the one-byte-per-integer
        # sieve to segments, and one spanning three segments
        for limit in (sequences._DIRECT_BASE_MAX + offset,
                      5 * 10**6 + offset):
            sequences._odd_base_primes.cache_clear()
            got = sequences._odd_base_primes(limit)
            flags = np.ones(limit + 1, dtype=bool)
            flags[:2] = False
            for p in range(2, math.isqrt(limit) + 1):
                if flags[p]:
                    flags[p * p::p] = False
            assert np.array_equal(got, np.flatnonzero(flags)[1:])
            assert not got.flags.writeable
        sequences._odd_base_primes.cache_clear()

    @pytest.mark.parametrize("start", [2, 3])
    def test_small_start(self, monkeypatch, start):
        monkeypatch.setattr(sequences, "DEFAULT_SEGMENT", 4)
        window = primes_from(start, 10)
        expected = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31][start - 2:][:10]
        assert window.primes.tolist() == expected

    def test_csv_blocks_match_row_by_row(self, monkeypatch):
        window = primes_from(10**9, 50)
        gaps = np.append(np.diff(window.primes), 0)
        expected = "index,prime,gap\n" + "".join(
            f"{i},{int(p)},{int(g)}\n"
            for i, (p, g) in enumerate(zip(window.primes, gaps)))
        monkeypatch.setattr(csvio, "BLOCK_ROWS", 7)
        out = io.StringIO()
        window.to_csv(out)
        assert out.getvalue() == expected


class TestPrimeSpacingHistogram:
    def test_mean_spacing_near_unity(self):
        window = primes_from(10**9 + 7, 2000)
        scale = math.log(window.start)
        s = np.diff(window.primes) / scale
        assert abs(s.mean() - 1.0) <= 0.1

    def test_default_binning_centered_on_even_gaps(self):
        window = primes_from(10**9 + 7, 500)
        hist = prime_spacing_histogram(window, 0)
        scale = math.log(window.start)
        assert hist.bin_width == pytest.approx(2.0 / scale, rel=1e-12)
        assert hist.bin_edges[0] == pytest.approx(1.0 / scale, rel=1e-12)
        assert hist.overflow == 0

    def test_order_validation(self):
        window = primes_from(10, 4)
        with pytest.raises(ArgumentError):
            prime_spacing_histogram(window, 2)
        with pytest.raises(ArgumentError):
            prime_spacing_histogram(primes_from(10, 2), 1)


class TestHistogramKS:
    def test_hand_computed_distance(self):
        # counts (3, 1) on (0, 2): mid-distribution values 0.375 and 0.875
        # against the uniform CDF at the centers 0.5 and 1.5
        hist = build_histogram([0.2, 0.4, 0.6, 1.5], 1.0, Interval(0.0, 2.0))
        d = histogram_ks_distance(hist, lambda x: x / 2.0)
        assert d == pytest.approx(0.125, abs=1e-14)

    def test_empty_rejected(self):
        hist = build_histogram([5.0], 1.0, Interval(0.0, 2.0))
        empty = type(hist)(bin_edges=hist.bin_edges,
                           counts=np.zeros_like(hist.counts),
                           density=np.zeros_like(hist.density), overflow=0)
        with pytest.raises(ArgumentError):
            histogram_ks_distance(empty, lambda x: x)

    def test_cdf_called_once_on_centers(self):
        calls = []

        def cdf(x):
            calls.append(np.array(x))
            return x / 2.0

        hist = build_histogram([0.2, 0.4, 0.6, 1.5], 1.0, Interval(0.0, 2.0))
        assert histogram_ks_distance(hist, cdf) == pytest.approx(0.125)
        assert len(calls) == 1
        assert calls[0].tolist() == [0.5, 1.5]


class TestKSDistance:
    def test_single_point(self):
        assert ks_distance([0.5], lambda x: x) == pytest.approx(0.5)

    def test_matches_scipy(self):
        rng = np.random.default_rng(2)
        values = rng.exponential(1.0, 400)
        cdf = lambda x: 1.0 - np.exp(-x)
        expected = stats.kstest(values, cdf).statistic
        assert ks_distance(values, cdf) == pytest.approx(expected, abs=1e-12)

    def test_cdf_called_once_on_sorted_values(self):
        calls = []

        def cdf(x):
            calls.append(np.array(x))
            return np.clip(x, 0.0, 1.0)

        assert ks_distance([0.9, 0.1, 0.5], cdf) == pytest.approx(7 / 30)
        assert len(calls) == 1
        assert calls[0].tolist() == [0.1, 0.5, 0.9]


class TestLoadZeros:
    def test_echo(self, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("# header\n14.13\n21.02\n\n25.01\n")
        data = load_zeros(str(path))
        assert data.ordinates.tolist() == [14.13, 21.02, 25.01]
        assert data.source_path == str(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(FormatError):
            load_zeros(str(path))

    def test_descending_pair_names_line(self, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("14.13\n21.02\n20.99\n")
        with pytest.raises(FormatError) as excinfo:
            load_zeros(str(path))
        assert excinfo.value.line == 3

    def test_unparseable_line(self, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("14.13\nnot-a-number\n")
        with pytest.raises(FormatError) as excinfo:
            load_zeros(str(path))
        assert excinfo.value.line == 2


class TestUnfoldZeros:
    def test_low_ordinates_rejected(self):
        data = ZeroDataset(ordinates=np.array([10.0, 20.0]), source_path="")
        with pytest.raises(ArgumentError):
            unfold_zeros(data)

    def test_monotone(self):
        data = ZeroDataset(ordinates=np.linspace(20.0, 400.0, 200),
                           source_path="")
        assert np.all(np.diff(unfold_zeros(data)) > 0.0)

    def test_inverse_construction_has_unit_mean_spacing(self):
        # place zeros exactly where the smooth counting function says the
        # k-th zero should sit; unfolding must then return unit spacing
        targets = np.arange(10.0, 1010.0)

        def ordinate_of(u):
            g = 50.0
            for _ in range(60):
                w = g / (2.0 * math.pi)
                g -= (w * (math.log(w) - 1.0) + 0.875 - u) \
                    / (math.log(w) / (2.0 * math.pi))
            return g

        ordinates = np.array([ordinate_of(u) for u in targets])
        unfolded = unfold_zeros(ZeroDataset(ordinates=ordinates,
                                            source_path=""))
        spacings = np.diff(unfolded)
        assert abs(spacings.mean() - 1.0) <= 1e-3
        assert np.max(np.abs(unfolded - targets)) <= 1e-6


class TestNearestNeighbour:
    def test_interior_minimum(self):
        assert nn_statistic([0.0, 1.0, 3.0]).tolist() == [1.0]

    def test_equally_spaced(self):
        values = nn_statistic(np.arange(0.0, 5.0, 0.7))
        assert np.allclose(values, 0.7, atol=1e-15)

    def test_needs_three_points(self):
        with pytest.raises(ArgumentError):
            nn_statistic([0.0, 1.0])

    def test_poisson_process_matches_analytic_law(self):
        # iid uniform points at unit density: the nearest-neighbour law is
        # 2 exp(-2s), independent of any matrix model
        rng = np.random.default_rng(23)
        points = np.sort(rng.uniform(0.0, 40_000.0, 40_000))
        values = nn_statistic(points)
        hist = build_histogram(values, 0.1, Interval(0.0, 3.0))
        _, p, _ = chi_square_test(hist, poisson_nn_density)
        assert p > 0.01
