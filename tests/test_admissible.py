import math
import random

import pytest

from chebgaps.admissible import (
    Tuple,
    diameter,
    is_admissible,
    shifted_prime_tuple,
    verify_diameter_bound,
)
from chebgaps.primes import sieve_range


def brute_admissible(hs):
    """Oracle: check every prime up to k directly against the definition."""
    k = len(hs)
    for p in range(2, k + 1):
        if all(p % d for d in range(2, p)):  # p prime
            if len({h % p for h in hs}) == p:
                return False
    return True


def test_tuple_basics():
    t = Tuple([6, 0, 4])
    assert list(t) == [0, 4, 6]
    assert t.k == 3
    assert diameter(t) == 6
    assert Tuple([0, 4, 6]) == Tuple([10, 14, 16])  # equal after shift normalization
    assert hash(Tuple([0, 2])) == hash(Tuple([5, 7]))
    with pytest.raises(ValueError):
        Tuple([0, 0, 2])
    with pytest.raises(ValueError, match="diameter must be < 2\\^63"):
        Tuple([0, 2**63])


def test_admissibility_known_cases():
    assert is_admissible(Tuple([0, 2, 6]))
    assert is_admissible(Tuple([0, 4, 6]))
    assert not is_admissible(Tuple([0, 1]))  # covers both classes mod 2
    # decided on h - h_1, so offsets beyond int64 work
    assert is_admissible(Tuple([10**20, 10**20 + 2]))
    assert not is_admissible(Tuple([10**20, 10**20 + 1]))
    assert not is_admissible(Tuple([0, 2, 4]))  # covers mod 3
    assert is_admissible(Tuple([0]))
    assert is_admissible(Tuple([0, 2]))


def test_admissibility_random_vs_oracle():
    rnd = random.Random(11)
    for _ in range(300):
        k = rnd.randrange(2, 12)
        hs = sorted(rnd.sample(range(0, 60), k))
        assert is_admissible(Tuple(hs)) == brute_admissible(hs)


def test_shifted_prime_tuple_formula():
    # k primes immediately after the k-th prime index: pi(5) = 3, so q_4..q_8
    assert list(shifted_prime_tuple(5)) == [7, 11, 13, 17, 19]
    primes = sieve_range(2, 10**4)
    for k in (2, 10, 50, 100):
        pi_k = sum(1 for p in primes if p <= k)
        assert list(shifted_prime_tuple(k)) == primes[pi_k : pi_k + k]
        assert is_admissible(shifted_prime_tuple(k))


def test_shifted_tuples_admissible_by_construction():
    # every element exceeds k, so no prime <= k can be covered
    for k in (213, 500, 1000):
        t = shifted_prime_tuple(k)
        assert min(t) > k
        assert is_admissible(t)


def test_diameter_bound_report():
    rep = verify_diameter_bound(213, 2000)
    assert rep.ok and rep.first_failure is None
    assert 0 < rep.worst_ratio <= 1
    for k in (213, 1000, 2000):
        t = shifted_prime_tuple(k)
        assert diameter(t) <= 1.6 * k * math.log(k)
