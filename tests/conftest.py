import pytest

from chebgaps.chebsets import Congruence, GaloisContext
from chebgaps.verify import run_all

ALL_PRIMES_CONTEXT = GaloisContext(1, 1, 1, abelian_conductor=1)


def all_primes_spec() -> Congruence:
    """The full set of primes as a degenerate congruence spec (q = 1)."""
    return Congruence(1, {0}, ALL_PRIMES_CONTEXT)


@pytest.fixture(scope="session")
def quick_results():
    """verify-paper's quick criteria at seed 0, run once for the session:
    test_acceptance checks them one by one and test_cli's verify-paper run
    formats the same list."""
    return run_all(quick=True, seed=0)
