import math
from fractions import Fraction
from itertools import product

import pytest

import chebgaps.sieve as sieve
from chebgaps.admissible import Tuple
from chebgaps.chebsets import GaloisContext, all_primes_spec
from chebgaps.primes import PrimeTable
from chebgaps.sieve import (
    SieveConfig,
    build_config,
    config_from_json,
    default_d0,
    lambda_table,
    lambda_weight,
    predicted_terms,
    run_to_json,
    s_functional,
    sum_s1,
    sum_s2,
    support_d_vectors,
    tuple_determinant,
    weight_table,
)
from chebgaps.variational import SimplexPolynomial

ALL_PRIMES = GaloisContext(1, 1, 1, abelian_conductor=1)


def small_config():
    """N = 1000, theta = 0.9, D0 = 3: R ~ 15.85, so lambda has genuine
    off-diagonal support and nontrivial fractions."""
    return build_config(
        n_start=1000,
        k=2,
        tup=Tuple([0, 2]),
        context=ALL_PRIMES,
        theta=0.9,
        epsilon=0.05,
        d0_override=3,
    )


# -- independent oracles (trial division only, no package arithmetic) ---------------


def t_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def t_phi(n):
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def t_mobius(n):
    ps = []
    m, d = n, 2
    while d * d <= m:
        while m % d == 0:
            ps.append(d)
            m //= d
        d += 1
    if m > 1:
        ps.append(m)
    return 0 if len(ps) != len(set(ps)) else (-1) ** len(ps)


def t_squarefree(n):
    return t_mobius(n) != 0


def eval_cutoff(f, args):
    """Evaluate F at rational args straight from its dense coefficients,
    honoring the cutoff outside the simplex."""
    if any(x < 0 for x in args) or sum(args) > 1:
        return Fraction(0)
    total = Fraction(0)
    for exps, c in f.to_dense().coeffs:
        v = c
        for e, x in zip(exps, args):
            v *= x**e
        total += v
    return total


def brute_lambda(d_vec, cfg):
    """Oracle: the literal definition, iterating every r-vector with
    d_i | r_i and testing mu(prod r)^2 = 1 by factoring the product."""
    r_cap = math.ceil(cfg.r_limit)
    log_r = Fraction(math.log(cfg.r_limit))
    ranges = [range(d, r_cap + 1, d) for d in d_vec]
    total = Fraction(0)
    for rvec in product(*ranges):
        pr = math.prod(rvec)
        if pr >= cfg.r_limit or not t_squarefree(pr):
            continue
        if math.gcd(pr, cfg.w_modulus) != 1:
            continue
        args = tuple(
            Fraction(math.log(r)) / log_r if r > 1 else Fraction(0) for r in rvec
        )
        val = eval_cutoff(cfg.f, args)
        den = 1
        for r in rvec:
            den *= t_phi(r)
        total += Fraction(1, den) * val
    sign = 1
    for d in d_vec:
        sign *= t_mobius(d) * d
    return sign * total


def brute_sums(cfg, lams):
    """Oracle: w_n by scanning every support vector for divisibility, chi by
    trial division."""
    hs = list(cfg.tuple)
    s1 = s2 = Fraction(0)
    for n in range(cfg.n_start, 2 * cfg.n_start):
        if n % cfg.u_modulus != cfg.u0 % cfg.u_modulus:
            continue
        acc = Fraction(0)
        for dv, lam in lams.items():
            if all((n + h) % d == 0 for d, h in zip(dv, hs)):
                acc += lam
        w = acc * acc
        s1 += w
        s2 += w * sum(1 for h in hs if t_is_prime(n + h))
    return s1, s2


# -- configuration assembly ---------------------------------------------------------


def test_default_d0():
    assert default_d0(10**9) == pytest.approx(math.log(math.log(math.log(10**9))))
    with pytest.raises(ValueError):
        default_d0(16)


def test_build_config_moduli():
    cfg = build_config(10**5, 2, Tuple([0, 4]), ALL_PRIMES, 0.4, 0.05, d0_override=5)
    assert cfg.w_modulus == 30
    assert cfg.u_modulus == 30
    assert cfg.u0 == 7
    assert cfg.r_limit == pytest.approx(10**0.75)
    prod = (cfg.u0 + 0) * (cfg.u0 + 4)
    assert math.gcd(prod, cfg.u_modulus) == 1
    # three-element tuple: a valid u0 still exists
    cfg3 = build_config(10**5, 3, Tuple([0, 4, 6]), ALL_PRIMES, 0.4, 0.05, d0_override=5)
    prod = math.prod(cfg3.u0 + h for h in cfg3.tuple)
    assert math.gcd(prod, cfg3.u_modulus) == 1


def test_build_config_discriminant_division():
    ctx = GaloisContext(6, 2, 6)
    cfg = build_config(10**5, 2, Tuple([0, 4]), ctx, 0.4, 0.05, d0_override=5)
    assert cfg.w_modulus == 30
    assert cfg.u_modulus == 5  # 30 / rad(6)
    # a discriminant prime above D0 cannot be absorbed into W
    with pytest.raises(ValueError):
        build_config(10**5, 2, Tuple([0, 4]), GaloisContext(6, 2, 7), 0.4, 0.05, d0_override=5)


def test_build_config_rejections():
    with pytest.raises(ValueError):
        build_config(10**5, 2, Tuple([0, 1]), ALL_PRIMES, 0.4, 0.05, d0_override=5)
    with pytest.raises(ValueError):
        build_config(10**5, 2, Tuple([0, 4]), ALL_PRIMES, 1.2, 0.05, d0_override=5)
    with pytest.raises(ValueError):
        build_config(10**5, 2, Tuple([0, 4]), ALL_PRIMES, 0.4, 0.3, d0_override=5)
    with pytest.raises(ValueError):
        build_config(10**5, 2, Tuple([0, 4]), ALL_PRIMES, 0.4, 0.0, d0_override=5)
    with pytest.raises(ValueError):
        build_config(1, 2, Tuple([0, 4]), ALL_PRIMES, 0.4, 0.05, d0_override=5)
    with pytest.raises(ValueError):
        build_config(10**5, 3, Tuple([0, 4]), ALL_PRIMES, 0.4, 0.05, d0_override=5)


def test_config_validation_catches_tampering():
    cfg = small_config()
    with pytest.raises(ValueError):
        SieveConfig(
            n_start=cfg.n_start,
            k=cfg.k,
            tuple=cfg.tuple,
            theta=cfg.theta,
            epsilon=cfg.epsilon,
            d0=cfg.d0,
            w_modulus=cfg.w_modulus,
            u_modulus=cfg.u_modulus,
            u0=cfg.u0 + 1,  # 5 -> 6 collides with U
            r_limit=cfg.r_limit,
            f=cfg.f,
            context=cfg.context,
        )


def test_tuple_determinant():
    assert tuple_determinant(Tuple([0, 2])) == -4
    assert tuple_determinant(Tuple([0, 2, 6])) == (-2) * (-6) * 2 * (-4) * 6 * 4


# -- lambda weights -----------------------------------------------------------------


def test_support_vectors_small_config():
    cfg = small_config()
    support = support_d_vectors(cfg)
    assert len(support) == 9
    singles = {1, 5, 7, 11, 13}
    assert set(support) == {
        (a, b) for a in singles for b in singles if a * b < cfg.r_limit
    }


def test_lambda_matches_brute_force():
    cfg = small_config()
    for dv in support_d_vectors(cfg):
        assert lambda_weight(dv, cfg) == brute_lambda(dv, cfg)
    # off support: shares a factor with W, not squarefree, too big
    for dv in [(2, 1), (6, 1), (5, 5), (17, 1), (1, 16), (4, 1)]:
        assert lambda_weight(dv, cfg) == 0
        assert brute_lambda(dv, cfg) == 0
    with pytest.raises(ValueError):
        lambda_weight((1,), cfg)
    with pytest.raises(ValueError):
        lambda_weight((0, 1), cfg)


def test_lambda_support_invariants():
    cfg = small_config()
    det = tuple_determinant(cfg.tuple)
    for dv, lam in lambda_table(cfg).items():
        if lam == 0:
            continue
        d = math.prod(dv)
        assert d < cfg.r_limit
        assert t_squarefree(d)  # also forces pairwise coprime components
        assert math.gcd(d, cfg.w_modulus) == 1
        assert math.gcd(d, cfg.u_modulus * abs(cfg.context.discriminant) * abs(det)) == 1


def test_lambda_at_one_is_f_at_origin_sum():
    # d = (1,..,1): sign is 1 and the sum itself must come out positive for
    # the default F = 1 - P1
    cfg = small_config()
    lam = lambda_weight((1, 1), cfg)
    assert lam == brute_lambda((1, 1), cfg)
    assert lam > 0


# -- the sums -----------------------------------------------------------------------


def test_sums_match_brute_force():
    """k = 2 on small_config, and k = 3 at R ~ 20.9 with several sieving
    primes: W = 6, W = 30 with U = 6, and W = 2, where d_i = 15 is a
    composite support divisor (19, 16 and 31 support vectors)."""
    k3 = [
        build_config(2000, 3, Tuple([0, 2, 6]), ctx, 0.9, 0.05, d0_override=d0)
        for ctx, d0 in [(ALL_PRIMES, 3), (GaloisContext(2, 1, 5, abelian_conductor=5), 5),
                        (ALL_PRIMES, 2)]
    ]
    for cfg in [small_config(), *k3]:
        lams = {dv: brute_lambda(dv, cfg) for dv in support_d_vectors(cfg)}
        s1_oracle, s2_oracle = brute_sums(cfg, lams)
        table = weight_table(cfg)
        assert sum_s1(cfg, table) == s1_oracle
        assert sum_s2(cfg, all_primes_spec(), table) == s2_oracle
        assert s1_oracle > 0


def test_weight_table_invariants():
    cfg = small_config()
    table = weight_table(cfg)
    for n, w in table.entries.items():
        assert w >= 0
        assert cfg.n_start <= n < 2 * cfg.n_start
        assert n % cfg.u_modulus == cfg.u0
    s1 = sum_s1(cfg, table)
    s2 = sum_s2(cfg, all_primes_spec(), table)
    assert 0 <= s2 <= cfg.k * s1


def test_quadratic_scaling():
    cfg = small_config()
    scaled = build_config(
        1000,
        2,
        Tuple([0, 2]),
        ALL_PRIMES,
        0.9,
        0.05,
        f=SimplexPolynomial.from_symmetric(2, {lam: 3 * c for lam, c in cfg.f.coeffs}),
        d0_override=3,
    )
    table, scaled_table = weight_table(cfg), weight_table(scaled)
    assert sum_s1(scaled, scaled_table) == 9 * sum_s1(cfg, table)
    spec = all_primes_spec()
    assert sum_s2(scaled, spec, scaled_table) == 9 * sum_s2(cfg, spec, table)


def test_weight_table_factors_nothing(monkeypatch):
    """Support divisors come from the sieving primes p < R alone, so no
    n + h_i is factored."""
    cfg = small_config()
    calls = []
    real = sieve.prime_divisors

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(sieve, "prime_divisors", counting)
    table = weight_table(cfg)
    assert len(table) > 0
    assert calls == []


# -- the S functional ---------------------------------------------------------------


def test_s_functional_certifies_pairs():
    cfg = small_config()
    spec = all_primes_spec()
    res = s_functional(cfg, spec, 1)
    assert res.value == res.s2 - res.s1
    assert res.threshold == 2
    assert res.value > 0  # positivity: some window holds 2 primes
    assert res.windows
    for n, hits in res.windows:
        assert hits == 2
        assert t_is_prime(n) and t_is_prime(n + 2)
    # rho = k forces S <= 0 because no window beats k hits
    assert s_functional(cfg, spec, 2).value <= 0
    assert s_functional(cfg, spec, Fraction(3, 2)).threshold == 2


def test_s_functional_builds_one_prime_table(monkeypatch):
    cfg = small_config()
    built = []

    def counting_table(limit):
        built.append(limit)
        return PrimeTable(limit)

    monkeypatch.setattr(sieve, "PrimeTable", counting_table)
    res = s_functional(cfg, all_primes_spec(), 1)
    assert len(built) == 1
    table = weight_table(cfg)
    assert res.s2 == sum_s2(cfg, all_primes_spec(), table)


def test_s_functional_tests_each_shift_once(monkeypatch):
    """One membership pass, made inside sum_s2 (the traced benchmark times
    S2 through that name), serves both S2 and the window list."""
    cfg = small_config()
    spec = all_primes_spec()
    asked, s2_calls = [], []
    is_member, real_sum_s2 = type(spec).is_member, sieve.sum_s2

    def counting_member(self, p):
        asked.append(p)
        return is_member(self, p)

    def counting_sum_s2(*args):
        s2_calls.append(len(asked))
        return real_sum_s2(*args)

    monkeypatch.setattr(type(spec), "is_member", counting_member)
    monkeypatch.setattr(sieve, "sum_s2", counting_sum_s2)
    res = s_functional(cfg, spec, 1)
    shifted = [n + h for n in weight_table(cfg).entries for h in cfg.tuple]
    assert s2_calls == [0]
    assert sorted(asked) == sorted(x for x in shifted if t_is_prime(x))
    assert res.windows


def test_windows_complete():
    cfg = small_config()
    res = s_functional(cfg, all_primes_spec(), 1)
    ns = {n for n, _ in res.windows}
    for n in range(cfg.n_start, 2 * cfg.n_start):
        if n % cfg.u_modulus == cfg.u0 and t_is_prime(n) and t_is_prime(n + 2):
            assert n in ns


def test_predicted_terms_sanity():
    cfg = small_config()
    spec = all_primes_spec()
    pred_s1, pred_s2 = predicted_terms(cfg, spec)
    assert pred_s1 > 0 and pred_s2 > 0
    # individual main terms are way off at N = 1000, but the frame factor
    # cancels in the ratio, which lands within a small factor of observed
    table = weight_table(cfg)
    observed = float(sum_s2(cfg, spec, table)) / float(sum_s1(cfg, table))
    assert 0.1 < (pred_s2 / pred_s1) / observed < 10
    mismatched = GaloisContext(2, 1, 5, abelian_conductor=5)
    from chebgaps.chebsets import Congruence

    with pytest.raises(ValueError):
        predicted_terms(cfg, Congruence(5, {1}, mismatched))


# -- JSON plumbing ------------------------------------------------------------------


def test_config_json_round_trip():
    cfg = small_config()
    d = cfg.to_json()
    d["spec"] = all_primes_spec().to_json()
    cfg2, spec = config_from_json(d)
    assert cfg2 == cfg
    assert spec is not None and spec.is_member(2)


def test_run_to_json():
    cfg = small_config()
    out = run_to_json(cfg, all_primes_spec(), rho=1)
    assert Fraction(out["s1"]) == sum_s1(cfg, weight_table(cfg))
    assert Fraction(out["s_value"]) == Fraction(out["s2"]) - Fraction(out["s1"])
    assert out["ratio_observed"] == pytest.approx(
        float(Fraction(out["s2"]) / Fraction(out["s1"]))
    )
    assert out["ratio_predicted"] == pytest.approx(
        out["predicted_s2"] / out["predicted_s1"]
    )
    assert out["windows"]
