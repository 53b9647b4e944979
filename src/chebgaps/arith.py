"""Small exact number-theory helpers shared across modules."""

from __future__ import annotations

import math


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; n >= 1."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("phi needs n >= 1")
    result = n
    for p in factorize(n):
        result = result // p * (p - 1)
    return result


def rad(n: int) -> int:
    """Product of the distinct primes dividing n; rad(1) = 1."""
    return math.prod(factorize(n).keys()) if n > 1 else 1


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(n).values())


def mobius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def crt(residues: list[int], moduli: list[int]) -> int:
    """Least non-negative solution of x = r_i mod m_i, pairwise coprime moduli."""
    x, m = 0, 1
    for r, mi in zip(residues, moduli):
        g = math.gcd(m, mi)
        if g != 1:
            raise ValueError("moduli must be pairwise coprime")
        # x' = x + m * t with t = (r - x)/m mod mi
        t = ((r - x) * pow(m, -1, mi)) % mi
        x += m * t
        m *= mi
    return x % m


def prime_divisors(n: int) -> list[int]:
    return sorted(factorize(n).keys()) if n > 1 else []

