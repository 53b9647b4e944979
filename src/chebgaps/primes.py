"""Prime enumeration and classical prime-counting inequalities.

Segmented sieve of Eratosthenes on numpy bitmaps, a reusable PrimeTable for
membership and pi queries, primorials, and a checker for Dusart's
two-sided bounds on q_n and pi(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SEGMENT = 1 << 20


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
    if segment < 2:
        raise ValueError("segment size must be at least 2")
    out: list[int] = []
    for arr in iter_prime_segments(lo, hi, segment):
        out.extend(arr.tolist())
    return out


def iter_prime_segments(lo: int, hi: int, segment: int = DEFAULT_SEGMENT):
    """Yield numpy arrays of the primes in [lo, hi), one array per segment."""
    lo = max(lo, 2)
    if lo >= hi:
        return
    base_mask = _small_sieve(math.isqrt(hi - 1))
    base = np.flatnonzero(base_mask)
    start = lo
    while start < hi:
        stop = min(start + segment, hi)
        mask = np.ones(stop - start, dtype=bool)
        if start <= 1:
            mask[: min(2 - start, stop - start)] = False
        for p in base.tolist():
            if p * p >= stop:
                break
            first = max(p * p, ((start + p - 1) // p) * p)
            if first < stop:
                mask[first - start :: p] = False
        yield np.flatnonzero(mask) + start
        start = stop


class PrimeTable:
    """Primality bitmap plus sorted prime array up to a fixed limit.

    Immutable after construction; all queries are read-only, so tables can be
    shared freely across threads or processes.
    """

    def __init__(self, limit: int):
        if limit < 2:
            raise ValueError("PrimeTable limit must be >= 2")
        self.limit = limit
        self._mask = _small_sieve(limit)
        self._primes = np.flatnonzero(self._mask)

    def is_prime(self, n: int) -> bool:
        if n < 0 or n > self.limit:
            raise ValueError(f"{n} outside table limit {self.limit}")
        return bool(self._mask[n])

    def pi(self, x: int) -> int:
        """Number of primes <= x."""
        if x < 0 or x > self.limit:
            raise ValueError(f"{x} outside table limit {self.limit}")
        return int(np.searchsorted(self._primes, x, side="right"))

    @property
    def primes(self) -> np.ndarray:
        return self._primes

    def __contains__(self, n: int) -> bool:
        return 0 <= n <= self.limit and bool(self._mask[n])


def prime_count(x: int) -> int:
    """pi(x), the number of primes <= x."""
    if x < 2:
        return 0
    return PrimeTable(x).pi(x)


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
