"""Prime enumeration and classical prime-counting inequalities.

Segmented sieve of Eratosthenes over a union of residue classes (by default
the odd numbers), a PrimeTable holding the sieve's primes up to a limit as
one sorted array for pi queries, primorials, and a checker for Dusart's
two-sided bounds on q_n and pi(n).

Each segment's bitmap holds only the numbers of its classes, a wheel sieve
restricted to residue classes (Pritchard, "Explaining the wheel sieve",
Acta Informatica 17, 1982). The odd numbers below 5*10^7 (48 segments of
2^20) take about 0.11 s on a 2-core Xeon VM, against 0.21-0.26 s with a
bitmap of every integer; the class 3 mod 8 over the same segments takes
about 0.04 s.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SEGMENT = 1 << 20

# a PrimeTable holds its primes as int64, 8 bytes each: pi(10^9) = 50,847,534
# primes make about 407 MB at this cap, and as much again for the segment list
# held while they are concatenated, so larger limits fail before allocating
PRIME_TABLE_MAX = 10**9


def _small_sieve(limit: int) -> np.ndarray:
    """Boolean primality mask for [0, limit]."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def sieve_range(lo: int, hi: int, segment: int = DEFAULT_SEGMENT) -> list[int]:
    """Primes in the half-open interval [lo, hi), via segmented sieving.

    Memory is bounded by the segment size, not by hi.
    """
    if lo >= hi:
        raise ValueError(f"empty range: lo={lo} >= hi={hi}")
    if lo < 0 or hi < 0:
        raise ValueError("range endpoints must be non-negative")
    out: list[int] = []
    for arr in iter_prime_segments(lo, hi, segment):
        out.extend(arr.tolist())
    return out


def iter_prime_segments(
    lo: int, hi: int, segment: int = DEFAULT_SEGMENT, modulus: int = 2, residues=(1,)
):
    """Yield numpy arrays of the primes in [lo, hi) that lie in the residue
    classes `residues` mod q = `modulus`, and of 2 when q is even; one
    ascending int64 array per segment [start, start + segment).

    A segment's bitmap has one row per run of q integers and one column per
    class, in C order: entry (j, c) stands for b + qj + r_c, b the multiple of
    q at or below start, so flatnonzero lists the candidates in ascending
    order. A base prime p not dividing q strikes every p-th row of column c
    from the row where b + qj + r_c = 0 (mod p) first reaches p^2, so p itself
    is never struck. The default, the odd class mod 2, sieves only the odd
    numbers and puts the prime 2 back.
    """
    if segment < 2:
        raise ValueError("segment size must be at least 2")
    q = modulus
    if not 1 <= q < 2**63:
        raise ValueError("modulus must be in [1, 2^63)")
    res = sorted({int(r) % q for r in residues})
    if not res or any(math.gcd(r, q) != 1 for r in res):
        raise ValueError("residues must be a non-empty set of units mod the modulus")
    lo = max(lo, 2)
    if lo >= hi:
        return
    base = _base_primes(q, hi)
    bases = base.tolist()
    width = len(res)
    # for base prime p (a row here) and class r (a column), with b = qB:
    # p divides b + qj + r when j = u - B (mod p), and b + qj + r >= p^2 when
    # j >= v - B
    ps, r = base[:, None], np.array(res, dtype=np.int64)
    inv = np.array([pow(q, -1, p) for p in bases], dtype=np.int64)[:, None]
    u = -(r % ps) * inv % ps
    v = -((r - ps * ps) // q)
    steps = (ps * width).repeat(width, axis=1)
    cols = np.arange(width)
    for start, stop, b, rows, k in _segments(lo, hi, segment, q, bases):
        B = b // q
        mask = np.ones(rows * width, dtype=bool)
        # entries below start open the first row, those from stop on close the last
        mask[: bisect.bisect_left(res, start - b)] = False
        mask[(rows - 1) * width + bisect.bisect_left(res, stop - b - (rows - 1) * q) :] = False
        low = np.maximum(v[:k] - B, 0)
        j = (u[:k] - B - low) % ps[:k] + low
        slots = j * width + cols
        # a base prime at least as large as the rows left strikes one entry,
        # so all such strikes go in one scattered write
        once = j >= rows - ps[:k]
        mask[slots[once & (j < rows)]] = False
        many = ~once
        for s, t in zip(slots[many].tolist(), steps[:k][many].tolist()):
            mask[s::t] = False
        primes = np.flatnonzero(mask)
        if width == 1:
            primes *= q
            primes += b + res[0]
        else:
            row, col = np.divmod(primes, width)
            primes = row * q + (b + r)[col]
        if start == 2 and q % 2 == 0:
            primes = np.concatenate(([2], primes))
        yield primes


def _base_primes(q: int, hi: int) -> np.ndarray:
    """The primes up to isqrt(hi - 1) that do not divide q: the ones that
    strike a sieve of numbers below hi in classes mod q."""
    small = np.flatnonzero(_small_sieve(math.isqrt(hi - 1)))
    return small[q % small != 0]


def _segments(lo: int, hi: int, segment: int, q: int, bases: list[int]):
    """Lay out [lo, hi) in segments [start, stop) for a sieve mod q, as
    (start, stop, b, rows, k): b is the multiple of q at or below start, the
    bitmap has `rows` rows of q integers from b, and the first k of `bases`
    (ascending) reach isqrt(stop - 1)."""
    start = lo
    while start < hi:
        stop = min(start + segment, hi)
        b = start // q * q
        yield start, stop, b, -(-(stop - b) // q), bisect.bisect_right(bases, math.isqrt(stop - 1))
        start = stop


def sieve_cost(lo: int, hi: int, modulus: int, width: int) -> tuple[int, int]:
    """(work, held) of iter_prime_segments over [lo, hi) for `width` classes
    mod `modulus`, at the default segment size, both in bytes of the arrays
    it builds, from the same segment layout as the sieve.

    A segment holds its bitmap, one byte per entry, width * rows, and int64
    index tables of one entry per base prime and class, 8 * width * k; `held`
    is the most any segment holds. Its work is those bytes plus the strided
    writes: each walks the bitmap from its first strike to its end, so it
    counts as the whole bitmap again. A column takes a strided write from
    each base prime below its rows; a larger one strikes it at most once, in
    the segment's one scattered write, counted with the tables.
    """
    bases = _base_primes(modulus, hi).tolist()
    work = held = 0
    for _, _, _, rows, k in _segments(max(lo, 2), hi, DEFAULT_SEGMENT, modulus, bases):
        bitmap, tables = width * rows, 8 * width * k
        writes = width * bisect.bisect_left(bases, rows, 0, k)
        work += bitmap * (1 + writes) + tables
        held = max(held, bitmap + tables)
    return work, held


class PrimeTable:
    """The primes up to a fixed limit, ascending, from the segmented sieve.

    Immutable after construction; all queries are read-only, so tables can be
    shared freely across threads or processes.
    """

    def __init__(self, limit: int):
        if limit < 2:
            raise ValueError("PrimeTable limit must be >= 2")
        if limit > PRIME_TABLE_MAX:
            raise ValueError(f"PrimeTable limit {limit} exceeds {PRIME_TABLE_MAX}")
        self.limit = limit
        self.primes = np.concatenate(list(iter_prime_segments(2, limit + 1)))

    def pi(self, x: int) -> int:
        """Number of primes <= x."""
        if x < 0 or x > self.limit:
            raise ValueError(f"{x} outside table limit {self.limit}")
        return int(np.searchsorted(self.primes, x, side="right"))


def nth_prime_upper(n: int) -> int:
    """An upper bound for q_n good enough to size a sieve."""
    if n < 6:
        return 16
    logn = math.log(n)
    return int(n * (logn + math.log(logn))) + 2


def primorial_below(d0: float) -> int:
    """Product of all primes <= d0, as an exact integer."""
    if d0 < 2:
        raise ValueError("primorial needs d0 >= 2")
    w = 1
    for p in sieve_range(2, int(d0) + 1):
        w *= p
    return w


@dataclass(frozen=True)
class DusartReport:
    ok: bool
    n_lo: int
    n_hi: int
    nth_checked: int
    pi_checked: int
    first_violation: tuple[str, int] | None

    def __str__(self) -> str:
        status = "ok" if self.ok else f"VIOLATION at {self.first_violation}"
        return (
            f"dusart [{self.n_lo}, {self.n_hi}]: {self.nth_checked} nth-prime checks, "
            f"{self.pi_checked} pi checks, {status}"
        )


#: pi-bound constant and its validity threshold.
PI_BOUND_CONSTANT = 2.51
PI_BOUND_FROM = 355991

#: relative safety margin before a double-precision comparison is declared a failure
MARGIN = 1e-9


def verify_dusart(n_lo: int, n_hi: int) -> DusartReport:
    """Check Dusart's inequalities over [n_lo, n_hi].

    For every n >= 6 in range:   n(log n + log log n - 1) < q_n < n(log n + log log n).
    For every n >= 355991 in range:
        (n/log n)(1 + 1/log n) <= pi(n) <= (n/log n)(1 + 1/log n + 2.51/log^2 n).

    Comparisons are float with a relative 1e-9 margin, so a true violation must
    exceed rounding noise before it is reported.
    """
    if n_lo > n_hi:
        raise ValueError("n_lo must be <= n_hi")
    if n_lo < 6:
        raise ValueError("Dusart's nth-prime bounds start at n = 6")

    table = PrimeTable(nth_prime_upper(n_hi))
    primes = table.primes

    first: tuple[str, int] | None = None

    ns = np.arange(n_lo, n_hi + 1, dtype=np.float64)
    if len(primes) < n_hi:
        # the sieve limit came from the upper bound itself, so this is a violation
        first = ("nth_upper", int(len(primes) + 1))
        return DusartReport(False, n_lo, n_hi, 0, 0, first)
    qn = primes[n_lo - 1 : n_hi].astype(np.float64)
    logn = np.log(ns)
    loglogn = np.log(logn)
    lower = ns * (logn + loglogn - 1.0)
    upper = ns * (logn + loglogn)
    bad_lo = qn <= lower - MARGIN * lower
    bad_hi = qn >= upper + MARGIN * upper
    if bad_lo.any() or bad_hi.any():
        idx = int(np.flatnonzero(bad_lo | bad_hi)[0])
        first = ("nth", n_lo + idx)
    nth_checked = len(ns)

    pi_checked = 0
    if first is None and n_hi >= PI_BOUND_FROM:
        lo = max(n_lo, PI_BOUND_FROM)
        xs = np.arange(lo, n_hi + 1, dtype=np.int64)
        pis = np.searchsorted(primes, xs, side="right").astype(np.float64)
        xf = xs.astype(np.float64)
        lx = np.log(xf)
        low = (xf / lx) * (1.0 + 1.0 / lx)
        high = (xf / lx) * (1.0 + 1.0 / lx + PI_BOUND_CONSTANT / (lx * lx))
        bad_lo = pis < low - MARGIN * low
        bad_hi = pis > high + MARGIN * high
        if bad_lo.any() or bad_hi.any():
            idx = int(np.flatnonzero(bad_lo | bad_hi)[0])
            first = ("pi", lo + idx)
        pi_checked = len(xs)

    return DusartReport(first is None, n_lo, n_hi, nth_checked, pi_checked, first)
