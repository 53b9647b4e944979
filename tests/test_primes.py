import random

import numpy as np
import pytest

from chebgaps.primes import (
    DEFAULT_SEGMENT,
    PRIME_TABLE_MAX,
    PrimeTable,
    _small_sieve,
    iter_prime_segments,
    nth_prime_upper,
    prime_count,
    primorial_below,
    sieve_range,
    verify_dusart,
)


def trial_division_primes(lo, hi):
    """Independent oracle: no sieve, no numpy."""
    out = []
    for n in range(max(lo, 2), hi):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            out.append(n)
    return out


def test_sieve_matches_trial_division():
    assert sieve_range(2, 1000) == trial_division_primes(2, 1000)
    rnd = random.Random(7)
    for _ in range(20):
        lo = rnd.randrange(0, 10**6)
        hi = lo + rnd.randrange(1, 3000)
        assert sieve_range(lo, hi) == trial_division_primes(lo, hi)


def test_sieve_rejects_bad_ranges():
    with pytest.raises(ValueError):
        sieve_range(10, 10)
    with pytest.raises(ValueError):
        sieve_range(-5, 3)
    with pytest.raises(ValueError):
        sieve_range(2, 100, segment=1)
    # the segment loop itself refuses a size that would never advance
    with pytest.raises(ValueError, match="segment size"):
        next(iter_prime_segments(2, 100, segment=0))


def test_segments_concatenate_to_full_range():
    whole = sieve_range(2, 10**5)
    parts = []
    for seg in iter_prime_segments(2, 10**5, segment=1 << 10):
        parts.extend(seg.tolist())
    assert parts == whole
    # segment boundaries not aligned to the range
    parts = [p for seg in iter_prime_segments(1234, 98765, segment=777) for p in seg.tolist()]
    assert parts == trial_division_primes(1234, 98765)


def test_segments_at_range_edges():
    # every yielded array is the slice of the whole-range bitmap's primes in
    # its segment [start, start + segment), int64, one per segment, starting
    # at max(lo, 2); the last number below hi is even (3, 1241), odd (1240),
    # prime (4, 1260) or a prime square (10, 26, 1370)
    for lo in (0, 1, 2, 3, 4, 9, 1234):
        for segment in (2, 3, 4, 777, DEFAULT_SEGMENT):
            for hi in (3, 4, 10, 26, 1240, 1241, 1260, 1370):
                whole = np.flatnonzero(_small_sieve(hi - 1))
                starts = range(max(lo, 2), hi, segment)
                got = list(iter_prime_segments(lo, hi, segment))
                assert len(got) == len(starts), (lo, segment, hi)
                for start, arr in zip(starts, got):
                    a, b = np.searchsorted(whole, [start, start + segment])
                    assert arr.dtype == np.int64
                    assert np.array_equal(arr, whole[a:b]), (lo, segment, hi, start)


def test_prime_table_counts():
    pt = PrimeTable(10**4)
    oracle = trial_division_primes(2, 10**4 + 1)
    assert pt.primes.tolist() == oracle
    assert pt.pi(10**4) == len(oracle) == 1229
    assert pt.pi(1) == 0
    # the concatenated segments against the whole-range bitmap, at and across
    # segment boundaries, and at the prime 1,048,583, which pi must count
    for limit in (DEFAULT_SEGMENT - 1, DEFAULT_SEGMENT, DEFAULT_SEGMENT + 1,
                  2 * DEFAULT_SEGMENT, 1_048_583):
        pt = PrimeTable(limit)
        mask = _small_sieve(limit)
        assert pt.primes.dtype == np.int64
        assert np.array_equal(pt.primes, np.flatnonzero(mask))
        assert pt.pi(limit) == int(mask.sum())
    assert pt.primes[-1] == 1_048_583 and pt.pi(1_048_583) == pt.pi(1_048_582) + 1
    # past the cap the table refuses before it allocates anything
    with pytest.raises(ValueError, match="exceeds"):
        PrimeTable(PRIME_TABLE_MAX + 1)


def test_nth_prime_and_upper_bound():
    oracle = trial_division_primes(2, 10**4)
    for n in (1, 2, 6, 25, 100, 500):
        assert oracle[n - 1] <= nth_prime_upper(n)
    assert prime_count(10**6) == 78498


def test_primorial():
    assert primorial_below(2) == 2
    assert primorial_below(5) == 30
    assert primorial_below(10.5) == 2 * 3 * 5 * 7
    with pytest.raises(ValueError):
        primorial_below(1.5)


def test_dusart_holds_on_sample_ranges():
    rep = verify_dusart(6, 2 * 10**4)
    assert rep.ok and rep.first_violation is None
    rep = verify_dusart(355991, 356500)
    assert rep.ok and rep.pi_checked > 0


def test_dusart_brute_comparison():
    # the bounds themselves, straight from their formulas, on a small window
    import math

    primes = trial_division_primes(2, 10**4)
    for n in range(6, 500):
        q = primes[n - 1]
        lo = n * (math.log(n) + math.log(math.log(n)) - 1)
        hi = n * (math.log(n) + math.log(math.log(n)))
        assert lo < q < hi


def test_dusart_rejects_small_start():
    with pytest.raises(ValueError):
        verify_dusart(3, 100)
