import pytest

from chebgaps.verify import run_all


@pytest.fixture(scope="session")
def quick_results():
    """verify-paper's quick criteria at seed 0, run once for the session:
    test_acceptance checks them one by one and test_cli's verify-paper run
    formats the same list."""
    return run_all(quick=True, seed=0)
