import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

import chebgaps.bounds as bounds
from chebgaps.arith import euler_phi, rad
from chebgaps.bounds import (
    CeilingIndeterminate,
    choose_k,
    compute_rk,
    context_ratio,
    gap_bound_abelian,
    gap_bound_nonabelian,
    level_of_distribution,
    verify_theorem1,
)
from chebgaps.chebsets import GaloisContext

S3_FULL = GaloisContext(6, 6, 1)
S3_TRANSPOSITIONS = GaloisContext(6, 2, 23)
S3_IDENTITY = GaloisContext(6, 1, 23)
S4_CLASS6 = GaloisContext(24, 6, 229)


def phi_rad_tables(limit):
    """Oracle: phi and rad for all n <= limit from a smallest-prime-factor
    sieve, no shared code with the package."""
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    phi = [0] * (limit + 1)
    radt = [0] * (limit + 1)
    phi[1] = radt[1] = 1
    for n in range(2, limit + 1):
        p = spf[n]
        m = n // p
        phi[n] = phi[m] * (p if m % p == 0 else p - 1)
        radt[n] = radt[m] if m % p == 0 else radt[m] * p
    return phi, radt


# -- ratio and level ----------------------------------------------------------------


def test_context_ratio_exact():
    assert context_ratio(S3_FULL) == 6
    assert context_ratio(S3_TRANSPOSITIONS) == Fraction(207, 11)
    assert context_ratio(S3_IDENTITY) == Fraction(414, 11)
    assert context_ratio(S4_CLASS6) == Fraction(1832, 19)
    # sign of the discriminant is irrelevant
    assert context_ratio(GaloisContext(6, 2, -23)) == Fraction(207, 11)
    rng = random.Random(5)
    for _ in range(30):
        g = rng.randint(1, 48)
        c = rng.randint(1, g)
        d = rng.randint(1, 500)
        ctx = GaloisContext(g, c, d)
        assert context_ratio(ctx) == Fraction(g * g * d, c * euler_phi(d))


def test_level_of_distribution():
    assert level_of_distribution(S3_FULL, 0.0) == pytest.approx(1 / 3)
    assert level_of_distribution(GaloisContext(4, 1, 5), 0.1) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        level_of_distribution(GaloisContext(2, 1, 1), 0.0)
    with pytest.raises(ValueError):
        level_of_distribution(S3_FULL, 1 / 3)
    with pytest.raises(ValueError):
        level_of_distribution(S3_FULL, -0.01)


# -- k selection --------------------------------------------------------------------


def test_choose_k_frozen():
    # r = 6: r^2 e^r = 14523.43..., so k = 125 * 14524
    assert choose_k(S3_FULL) == 1_815_500
    assert choose_k(S3_TRANSPOSITIONS) == 6_587_154_604_250
    for ctx in (S3_FULL, S3_TRANSPOSITIONS, S4_CLASS6):
        assert choose_k(ctx) % 125 == 0


def test_choose_k_float_cross_check():
    # float arithmetic places r^2 e^r far from an integer at r = 6, which is
    # enough to validate the certified ceiling independently
    x = 36 * math.exp(6)
    assert min(x % 1, 1 - x % 1) > 1e-4
    assert choose_k(S3_FULL) == 125 * math.ceil(x)
    # larger ratios overflow float resolution; check the ceiling is stable
    # under doubled working precision instead
    for ctx in (S3_TRANSPOSITIONS, S4_CLASS6):
        r = context_ratio(ctx)
        with mp.workdps(2 * (int(float(r) * 0.4343) + 80)):
            rm = mp.mpf(r.numerator) / r.denominator
            assert choose_k(ctx) == 125 * int(mp.ceil(rm * rm * mp.exp(rm)))


def test_choose_k_rejects_abelian_and_small():
    with pytest.raises(ValueError):
        choose_k(GaloisContext(2, 1, 1, abelian_conductor=8))
    with pytest.raises(ValueError):
        choose_k(GaloisContext(4, 1, 5))


def test_choose_k_monotone_in_ratio():
    pairs = []
    for g in (6, 8, 12, 24):
        for c in (1, 2, g):
            for d in (1, 23, 229, 9240):
                ctx = GaloisContext(g, c, d)
                pairs.append((context_ratio(ctx), choose_k(ctx)))
    pairs.sort()
    assert all(a[1] <= b[1] for a, b in zip(pairs, pairs[1:]))


def test_ceiling_guard(monkeypatch):
    # with the guard widened past 1/2 every distance-to-integer check trips
    monkeypatch.setattr(bounds, "_CEIL_GUARD", mp.mpf("0.6"))
    with pytest.raises(CeilingIndeterminate):
        choose_k(S3_FULL)
    assert issubclass(CeilingIndeterminate, ArithmeticError)


# -- gap bounds ---------------------------------------------------------------------


def test_gap_bound_nonabelian_frozen():
    gap = gap_bound_nonabelian(S3_FULL)
    assert gap.bound == pytest.approx(71_891_011.0, rel=1e-9)
    assert gap.window == pytest.approx(41_863_604.2456, rel=1e-9)
    assert gap.bound_log10 == pytest.approx(math.log10(gap.bound))
    assert gap.window <= gap.bound
    # independent float recompute of 825 r^3 e^r and 1.6 k log k
    assert gap.bound == pytest.approx(825 * 6**3 * math.exp(6), rel=1e-12)
    k = choose_k(S3_FULL)
    assert gap.window == pytest.approx(1.6 * k * math.log(k), rel=1e-12)


def test_gap_bound_abelian():
    assert gap_bound_abelian(8) == 4800
    assert gap_bound_abelian(28) == 16800
    assert gap_bound_abelian(1) == 600
    with pytest.raises(ValueError):
        gap_bound_abelian(0)


def test_compute_rk():
    assert compute_rk(S3_FULL, Fraction(1, 3), Fraction(3, 2)) == 1
    assert compute_rk(S3_FULL, Fraction(1, 3), Fraction(70756, 10000)) == 2
    # an exactly integral product must not round up
    assert compute_rk(S3_FULL, Fraction(2), Fraction(3)) == 3
    # delta = 1/6 scales the product down accordingly
    assert compute_rk(S3_IDENTITY, Fraction(1), Fraction(1)) == math.ceil(
        Fraction(1, 6) * euler_phi(23) / 46
    )
    with pytest.raises(ValueError):
        compute_rk(S3_FULL, 0, 1)
    with pytest.raises(ValueError):
        compute_rk(S3_FULL, 1, -2)


# -- full proof chain ---------------------------------------------------------------


def test_verify_theorem1_frozen():
    rep = verify_theorem1(S3_FULL)
    assert rep.proof_ok
    assert rep.k_chosen == 1_815_500
    assert rep.rk == 2
    assert rep.ratio == 6.0
    k = rep.k_chosen
    assert rep.theta == pytest.approx(float(Fraction(2, 6) - Fraction(2, 6 * k)))
    assert rep.mk_bound == pytest.approx(
        math.log(k) - 2 * math.log(math.log(k)) - 2
    )
    assert rep.gap_bound == pytest.approx(71_891_011.0, rel=1e-9)

    rep2 = verify_theorem1(S3_TRANSPOSITIONS)
    assert rep2.proof_ok and rep2.rk == 2
    assert rep2.k_chosen == 6_587_154_604_250

    rep4 = verify_theorem1(S4_CLASS6)
    assert rep4.proof_ok and rep4.rk == 2
    assert rep4.gap_bound == pytest.approx(5.5475426637e50, rel=1e-9)
    assert rep4.gap_bound_log10 == pytest.approx(50.744100650885)


def test_verify_theorem1_huge_ratio():
    # ratio 5400: k has 2355 digits, the float bound overflows but its log10
    # stays finite and the chain still certifies
    ctx = GaloisContext(60, 1, 243)
    assert context_ratio(ctx) == 5400
    rep = verify_theorem1(ctx)
    assert rep.proof_ok
    assert len(str(rep.k_chosen)) == 2355
    assert math.isinf(rep.gap_bound)
    assert rep.gap_bound_log10 == pytest.approx(2359.3038375, rel=1e-9)
    assert rep.rk == 2


def test_verify_theorem1_grid():
    for g in (6, 8, 12, 24):
        for c in (1, 2, g // 2, g):
            for d in (1, -3, 23, -23, 229, 9240):
                rep = verify_theorem1(GaloisContext(g, c, d))
                assert rep.proof_ok
                assert rep.rk >= 2
                assert rep.k_chosen >= 213


def test_report_json():
    rep = verify_theorem1(S3_FULL)
    d = rep.to_json()
    assert d["k_chosen"] == "1815500"
    assert d["proof_ok"] is True
    assert set(d) == {
        "ratio",
        "k_chosen",
        "theta",
        "mk_bound",
        "rk",
        "gap_bound",
        "gap_bound_log10",
        "proof_ok",
    }


# -- totient identity ---------------------------------------------------------------


def test_totient_rad_identity_exhaustive():
    limit = 10**5
    phi, radt = phi_rad_tables(limit)
    for n in range(1, limit + 1):
        # phi(rad n) * n == phi(n) * rad n, cross-multiplied form
        assert phi[radt[n]] * n == phi[n] * radt[n]
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, limit)
        assert euler_phi(n) == phi[n]
        assert rad(n) == radt[n]
