import math
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
    primorial_below,
    sieve_range,
    sieve_cost,
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


def odd_only_segments(lo, hi, segment=DEFAULT_SEGMENT):
    """The odd-only segment loop as it stood before the class sieve: the
    oracle for the default call."""
    lo = max(lo, 2)
    if lo >= hi:
        return
    base = np.flatnonzero(_small_sieve(math.isqrt(hi - 1)))[1:]
    start = lo
    while start < hi:
        stop = min(start + segment, hi)
        odd0 = start | 1
        mask = np.ones((stop - odd0 + 1) // 2, dtype=bool)
        ps = base[: np.searchsorted(base, math.isqrt(stop - 1), side="right")]
        first = np.maximum(ps * ps, -(-odd0 // ps) * ps)
        first += ps * (first % 2 == 0)
        for p, i in zip(ps.tolist(), ((first - odd0) // 2).tolist()):
            mask[i::p] = False
        primes = np.flatnonzero(mask) * 2 + odd0
        if start == 2:
            primes = np.concatenate(([2], primes))
        yield primes
        start = stop


def test_default_segments_are_the_odd_only_sieve():
    old = list(odd_only_segments(2, 3 * 10**6))
    new = list(iter_prime_segments(2, 3 * 10**6))
    assert len(new) == len(old) == 3
    for a, b in zip(old, new):
        assert b.dtype == np.int64 and np.array_equal(a, b)


def units(q):
    return [r for r in range(q) if math.gcd(r, q) == 1]


def test_class_sieve_matches_small_sieve_and_trial_division():
    # each array is the slice, in its segment [start, start + segment), of the
    # whole-range primes in the classes, and 2 when q is even; ranges start at 0, 1
    # and 2, at small primes of a class (3, 11 and 19 are 3 mod 8), on block
    # edges, span less than q, or lie wholly below q
    trial = trial_division_primes(0, 3000)
    ranges = [(0, 3000, 512), (1, 1000, 97), (2, 3000, DEFAULT_SEGMENT), (3, 700, 64),
              (11, 700, 64), (19, 700, 64), (512, 2048, 256), (1000, 1013, 256),
              (2000, 2100, 7), (0, 7, 3), (5, 29, 2), (100, 103, 2)]
    for q in (1, 2, 3, 4, 8, 30, 210):
        us = units(q)
        for residues in (us[-1:], us[1::2] or us, us):
            for lo, hi, segment in ranges:
                whole = np.flatnonzero(_small_sieve(hi - 1))
                whole = whole[np.isin(whole % q, residues) | (whole == 2) & (q % 2 == 0)]
                want = [p for p in trial if lo <= p < hi and (p % q in residues or p == 2 and q % 2 == 0)]
                assert whole[whole >= lo].tolist() == want
                got = list(iter_prime_segments(lo, hi, segment, q, residues))
                starts = range(max(lo, 2), hi, segment)
                assert len(got) == len(starts), (q, residues, lo, hi)
                for start, arr in zip(starts, got):
                    a, b = np.searchsorted(whole, [start, start + segment])
                    assert arr.dtype == np.int64
                    assert np.array_equal(arr, whole[a:b]), (q, residues, lo, hi, start)
    # 3, 11 and 19 are primes 3 mod 8 below their own squares
    assert np.concatenate(list(iter_prime_segments(3, 20, 4, 8, [3]))).tolist() == [3, 11, 19]


def test_class_sieve_large_moduli():
    # moduli far above hi, up to the largest an int64 holds
    hi = 1_100_000
    whole = np.flatnonzero(_small_sieve(hi - 1))
    for q, residues in [
        (2 * 1_000_003, [1, 3, 999_983]),
        (3 * 1_000_003, [1, 2, 5]),
        (2**62, [1, 3, 999_983]),
        (2**63 - 25, [1, 2]),
    ]:
        want = whole[np.isin(whole, residues) | (whole == 2) & (q % 2 == 0)]
        got = np.concatenate(list(iter_prime_segments(0, hi, modulus=q, residues=residues)))
        assert got.dtype == np.int64 and np.array_equal(got, want), q


def test_class_sieve_rejections():
    for q, residues in ((0, [1]), (2**63, [1]), (8, []), (8, [2]), (8, [3, 4]), (30, [1, 25])):
        with pytest.raises(ValueError):
            next(iter_prime_segments(2, 100, modulus=q, residues=residues))


def test_sieve_cost_counts_bytes_and_strided_writes():
    # one segment: 500,000 rows of 2 from b = 2, struck by the 167 odd primes
    # up to 1000, against 125,001 rows of 8 from b = 0
    odd = sieve_cost(2, 10**6 + 1, 2, 1)
    assert odd == (500_000 * (1 + 167) + 8 * 167, 500_000 + 8 * 167)
    assert sieve_cost(2, 10**6 + 1, 8, 1) == (125_001 * (1 + 167) + 8 * 167, 125_001 + 8 * 167)
    # 400 classes mod 1000 take 400 strided writes per base prime
    assert sieve_cost(2, 10**6 + 1, 1000, 400)[0] > odd[0]
    # a modulus above hi gives one row per segment, so no strided writes,
    # and index tables for 166 base primes, each 8 bytes per class
    assert sieve_cost(2, 10**6 + 1, 10**7, 3) == (3 + 8 * 3 * 166, 3 + 8 * 3 * 166)
    assert sieve_cost(2, 10**6 + 1, 10**7, 10**5)[1] > odd[1]


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
    assert PrimeTable(10**6).pi(10**6) == 78498


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
