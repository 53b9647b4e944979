import math
import random

import pytest

from chebgaps.arith import (
    crt,
    euler_phi,
    factorize,
    is_squarefree,
    mobius,
    prime_divisors,
    rad,
)


def test_factorize_recombines():
    rnd = random.Random(3)
    for _ in range(300):
        n = rnd.randrange(1, 10**6)
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            prod *= p**e
            # p really prime
            assert all(p % d for d in range(2, int(p**0.5) + 1))
        assert prod == n


def test_phi_direct_count():
    for n in range(1, 200):
        assert euler_phi(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(97) == 96


def test_mobius_and_squarefree():
    # mobius via direct squarefree/parity logic
    for n in range(1, 500):
        f = factorize(n)
        if any(e > 1 for e in f.values()):
            assert mobius(n) == 0 and not is_squarefree(n)
        else:
            assert mobius(n) == (-1) ** len(f) and is_squarefree(n)


def test_rad():
    assert rad(1) == 1
    assert rad(12) == 6
    assert rad(360) == 30
    assert rad(97) == 97


def test_crt():
    assert crt([1, 1, 2], [2, 3, 5]) == 7
    assert crt([], []) == 0
    x = crt([2, 3, 4], [3, 5, 7])
    assert x % 3 == 2 and x % 5 == 3 and x % 7 == 4 and 0 <= x < 105
    with pytest.raises(ValueError):
        crt([0, 1], [4, 6])  # moduli share a factor


def test_prime_divisors():
    assert prime_divisors(60) == [2, 3, 5]
    assert prime_divisors(1) == []
