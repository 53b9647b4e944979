"""Admissible tuples and the shifted-prime construction.

A tuple H = {h_1 < ... < h_k} is admissible when for every prime p the
residues h_i mod p do not cover all of Z/p. Only p <= k can be covered
(pigeonhole), so the check is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .primes import PrimeTable, nth_prime_upper, sieve_range


@dataclass(frozen=True)
class Tuple:
    """A strictly increasing integer tuple, compared up to shift.

    Elements are kept exactly as constructed (the shifted-prime construction
    exposes actual primes); equality and hashing use the zero-normalized form
    h - h_1, since a shift of an admissible tuple is the same sieve input.
    """

    elements: tuple[int, ...]

    def __init__(self, elements):
        elems = tuple(sorted(int(h) for h in elements))
        if not elems:
            raise ValueError("tuple must be non-empty")
        if len(set(elems)) != len(elems):
            raise ValueError("tuple elements must be distinct")
        if elems[-1] - elems[0] >= 2**63:
            raise ValueError("tuple diameter must be < 2^63")
        object.__setattr__(self, "elements", elems)

    @property
    def k(self) -> int:
        return len(self.elements)

    @property
    def normalized(self) -> tuple[int, ...]:
        h0 = self.elements[0]
        return tuple(h - h0 for h in self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tuple):
            return NotImplemented
        return self.normalized == other.normalized

    def __hash__(self) -> int:
        return hash(self.normalized)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def diameter(t: Tuple) -> int:
    """h_k - h_1, invariant under shift."""
    return t.elements[-1] - t.elements[0]


def is_admissible(t: Tuple) -> bool:
    """True when no prime p <= k has all residue classes hit by t.

    Primes p > k cannot be covered by k residues, so they never need checking.
    The check runs on h - h_1, which fits int64 and is admissible exactly
    when t is.
    """
    k = t.k
    elems = np.asarray(t.normalized, dtype=np.int64)
    for p in sieve_range(2, k + 1) if k >= 2 else []:
        counts = np.bincount(elems % p, minlength=p)
        if not (counts == 0).any():
            return False
    return True


def shifted_prime_tuple(k: int) -> Tuple:
    """The k consecutive primes q_{pi(k)+1}, ..., q_{pi(k)+k}.

    Every element is a prime > k, hence omits residue 0 mod p for each
    p <= k; the tuple is therefore admissible by construction.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    table = PrimeTable(nth_prime_upper(_needed_index(k)))
    pi_k = table.pi(k)
    return Tuple(table.primes[pi_k : pi_k + k].tolist())


def _needed_index(k: int) -> int:
    # pi(k) + k, overestimating pi(k) crudely but cheaply
    if k < 10:
        return k + 5
    return k + int(2 * k / math.log(k)) + 10


@dataclass(frozen=True)
class DiameterReport:
    ok: bool
    k_lo: int
    k_hi: int
    first_failure: int | None
    worst_ratio: float  # max over k of diameter / (1.6 k log k)


def verify_diameter_bound(k_lo: int, k_hi: int) -> DiameterReport:
    """Check diameter(shifted_prime_tuple(k)) <= 1.6 k log k for k in range.

    The bound needs k >= 213 to hold in general; smaller k may be checked but
    the caller owns that interpretation.
    """
    if k_lo < 1 or k_lo > k_hi:
        raise ValueError("need 1 <= k_lo <= k_hi")
    table = PrimeTable(nth_prime_upper(_needed_index(k_hi)))
    primes = table.primes
    first_failure = None
    worst = 0.0
    for k in range(k_lo, k_hi + 1):
        pi_k = table.pi(k)
        diam = int(primes[pi_k + k - 1] - primes[pi_k])
        bound = 1.6 * k * math.log(k)
        ratio = diam / bound if bound > 0 else float(diam > 0)  # k = 1: diam 0
        if ratio > worst:
            worst = ratio
        if diam > bound and first_failure is None:
            first_failure = k
    return DiameterReport(first_failure is None, k_lo, k_hi, first_failure, worst)
