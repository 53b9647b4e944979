"""Acceptance gate: one test per verified claim, each printing its own
pass/fail line (run with -s or look at the captured output on failure).
Criteria other than 7 are read from one quick run at seed 0 (the
quick_results fixture), the run `verify-paper --quick` makes.

Criterion 9 compares the observed S2/S1 ratio of the demonstration sieve
against its asymptotic main-term prediction at N = 10^5. The observed ratio
is 3.5x the predicted one, outside the required factor-2 window; the sums
themselves are brute-force verified exactly (criterion 8), so the miss is a
property of asymptotics at desk scale, not of the computation. The test
states the requirement as written and therefore fails.
"""

import hashlib

import numpy as np
import pytest

from chebgaps.verify import (
    _brute_divisors,
    _mc_integrals,
    _random_poly,
    _row_sums,
    criterion_6_variational_mc,
    criterion_7_m105,
)


def check(result):
    print(result.line())
    assert result.passed, result.detail


def quick(results, number):
    result = results[number - 1]
    assert result.number == number
    return result


def test_criterion_01_mk_positive_threshold(quick_results):
    check(quick(quick_results, 1))


def test_criterion_02_abelian_constants(quick_results):
    check(quick(quick_results, 2))


def test_criterion_03_nonabelian_proof_chain(quick_results):
    check(quick(quick_results, 3))


def test_criterion_04_tuple_diameter(quick_results):
    check(quick(quick_results, 4))


def test_criterion_05_prime_index_bounds(quick_results):
    check(quick(quick_results, 5))


def test_criterion_06_integrals_monte_carlo(quick_results):
    check(quick(quick_results, 6))


# (passed, worst deviation) of criterion 6 at 10 polynomials and 10^4 samples;
# each seed's outcome is fixed by its random stream, so any change to the
# stream or to the estimates shows up here
CRITERION_6_SMALL = [
    (True, "1.94"), (False, "4.63"), (False, "21.26"), (True, "2.09"),
    (True, "2.72"), (True, "2.39"), (True, "1.97"), (True, "1.89"),
    (True, "2.25"), (False, "3.70"), (True, "2.68"), (True, "2.04"),
]


def test_criterion_06_random_stream_pinned():
    for seed, (passed, worst) in enumerate(CRITERION_6_SMALL):
        assert criterion_6_variational_mc(seed, polys=10, samples=10**4) == (
            passed,
            f"10 polynomials, worst deviation {worst} sigma, rayleigh(1, k=2) exact: True",
        ), seed


# sha256 of every (estimate, sigma) float.hex pair of _mc_integrals at seeds
# 0-11, 10 polynomials each, 10^4 samples: the bits behind CRITERION_6_SMALL
CRITERION_6_BITS = "360fd78fbd576dd70311c1b1da9df5768946669d4f13263c4604b0bff3267203"


def test_criterion_06_bits_pinned():
    h = hashlib.sha256()
    for seed in range(12):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            f = _random_poly(rng)
            for est, sig in _mc_integrals(f, rng, 10**4):
                h.update(f"{est.hex()} {sig.hex()}\n".encode())
    assert h.hexdigest() == CRITERION_6_BITS
    # the inside mask rests on the column-by-column row sums
    rng = np.random.default_rng(2024)
    for width in range(1, 6):
        x = rng.random((10**5, width))
        assert np.array_equal(_row_sums(x).view(np.int64), x.sum(axis=1).view(np.int64)), width


def test_criterion_07_m105_exceeds_4():
    passed, detail = criterion_7_m105()
    print(detail)
    assert passed, detail


def test_criterion_08_sieve_brute_force(quick_results):
    result = quick(quick_results, 8)
    check(result)
    assert result.detail == "S1 = 3333 (brute 3333), S2 = 1060 (brute 1060), lambda match: True"


def test_criterion_08_capped_divisors():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 3001):
        divisors = sympy.divisors(n)
        for cap in (1, 2, 5.623413251903492, 10, 100):  # 5.62...: the demo config's r_limit
            assert _brute_divisors(n, cap) == [d for d in divisors if d < cap], (n, cap)


def test_criterion_09_sieve_ratio_prediction(quick_results):
    check(quick(quick_results, 9))


def test_criterion_10_chebotarev_densities(quick_results):
    check(quick(quick_results, 10))


def test_criterion_11_gap_scan_evidence(quick_results):
    check(quick(quick_results, 11))


def test_criterion_12_tau_congruences(quick_results):
    check(quick(quick_results, 12))
