import json
import math
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import chebgaps.sieve as sieve
from chebgaps.admissible import Tuple
from chebgaps.chebsets import (
    Congruence,
    FactorizationType,
    GaloisContext,
    NewformCongruence,
    QuadFormRep,
)
from chebgaps.primes import PrimeTable
from chebgaps.sieve import (
    SieveConfig,
    config_from_json,
    default_d0,
    lambda_table,
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

from conftest import ALL_PRIMES_CONTEXT as ALL_PRIMES, all_primes_spec


def small_config():
    """N = 1000, theta = 0.9, D0 = 3: R ~ 15.85, so lambda has genuine
    off-diagonal support and nontrivial fractions."""
    return SieveConfig(1000, Tuple([0, 2]), theta=0.9, epsilon=0.05, context=ALL_PRIMES, d0=3)


def k3_configs():
    """k = 3 at R ~ 20.9 with several sieving primes: W = 6, W = 30 with
    U = 6, and W = 2, where d_i = 15 is a composite support divisor (19, 16
    and 31 support vectors)."""
    return [
        SieveConfig(2000, Tuple([0, 2, 6]), 0.9, 0.05, ctx, d0)
        for ctx, d0 in [(ALL_PRIMES, 3), (GaloisContext(2, 1, 5, abelian_conductor=5), 5),
                        (ALL_PRIMES, 2)]
    ]


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


def t_prime_flags(limit):
    """Sieve of Eratosthenes: flags[m] == 1 exactly when m <= limit is prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for d in range(2, math.isqrt(limit) + 1):
        if flags[d]:
            flags[d * d :: d] = bytes(len(range(d * d, limit + 1, d)))
    return flags


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
    # a config without d0 or F takes log log log N and 1 - P1
    cfg = SieveConfig(10**9, Tuple([0, 4]), 0.4, 0.05, ALL_PRIMES)
    assert cfg.d0 == default_d0(10**9)
    assert cfg.f == SimplexPolynomial.from_symmetric(2, {(): 1, (1,): -1})


def test_build_config_moduli():
    cfg = SieveConfig(10**5, Tuple([0, 4]), 0.4, 0.05, ALL_PRIMES, 5)
    assert cfg.w_modulus == 30
    assert cfg.u_modulus == 30
    assert cfg.u0 == 7
    assert cfg.r_limit == pytest.approx(10**0.75)
    prod = (cfg.u0 + 0) * (cfg.u0 + 4)
    assert math.gcd(prod, cfg.u_modulus) == 1
    # three-element tuple: a valid u0 still exists
    cfg3 = SieveConfig(10**5, Tuple([0, 4, 6]), 0.4, 0.05, ALL_PRIMES, 5)
    prod = math.prod(cfg3.u0 + h for h in cfg3.tuple)
    assert math.gcd(prod, cfg3.u_modulus) == 1


def test_build_config_discriminant_division():
    ctx = GaloisContext(6, 2, 6)
    cfg = SieveConfig(10**5, Tuple([0, 4]), 0.4, 0.05, ctx, 5)
    assert cfg.w_modulus == 30
    assert cfg.u_modulus == 5  # 30 / rad(6)
    # a discriminant prime above D0 cannot be absorbed into W
    with pytest.raises(ValueError):
        SieveConfig(10**5, Tuple([0, 4]), 0.4, 0.05, GaloisContext(6, 2, 7), 5)


def test_build_config_rejections():
    with pytest.raises(ValueError):
        SieveConfig(10**5, Tuple([0, 1]), 0.4, 0.05, ALL_PRIMES, 5)
    with pytest.raises(ValueError):
        SieveConfig(10**5, Tuple([0, 4]), 1.2, 0.05, ALL_PRIMES, 5)
    with pytest.raises(ValueError):
        SieveConfig(10**5, Tuple([0, 4]), 0.4, 0.3, ALL_PRIMES, 5)
    with pytest.raises(ValueError):
        SieveConfig(10**5, Tuple([0, 4]), 0.4, 0.0, ALL_PRIMES, 5)
    with pytest.raises(ValueError):
        SieveConfig(1, Tuple([0, 4]), 0.4, 0.05, ALL_PRIMES, 5)
    with pytest.raises(ValueError, match="k-simplex"):
        SieveConfig(10**5, Tuple([0, 4]), 0.4, 0.05, ALL_PRIMES, 5,
                    SimplexPolynomial.from_symmetric(3, {(): 1}))


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
    for cfg in k3_configs():
        table = lambda_table(cfg)
        assert list(table) == support_d_vectors(cfg)
        for dv, lam in table.items():
            assert lam == brute_lambda(dv, cfg)
    cfg = small_config()
    table = lambda_table(cfg)
    for dv in support_d_vectors(cfg):
        assert table[dv] == brute_lambda(dv, cfg)
    # off support: shares a factor with W, not squarefree, too big
    for dv in [(2, 1), (6, 1), (5, 5), (17, 1), (1, 16), (4, 1)]:
        assert table.get(dv, 0) == 0
        assert brute_lambda(dv, cfg) == 0


def test_lambda_table_evaluates_f_once_per_support_vector(monkeypatch):
    calls = []
    evaluate = SimplexPolynomial.evaluate

    def counted(self, point):
        calls.append(point)
        return evaluate(self, point)

    monkeypatch.setattr(SimplexPolynomial, "evaluate", counted)
    for cfg, size in zip([small_config(), *k3_configs()], [9, 19, 16, 31]):
        calls.clear()
        table = lambda_table(cfg)
        assert len(table) == size
        assert len(calls) == size


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
    lam = lambda_table(cfg)[(1, 1)]
    assert lam == brute_lambda((1, 1), cfg)
    assert lam > 0


# -- the sums -----------------------------------------------------------------------


def test_sums_match_brute_force():
    """k = 2 on small_config, and the three k = 3 configs."""
    for cfg in [small_config(), *k3_configs()]:
        lams = {dv: brute_lambda(dv, cfg) for dv in support_d_vectors(cfg)}
        s1_oracle, s2_oracle = brute_sums(cfg, lams)
        table = weight_table(cfg, all_primes_spec())
        assert sum_s1(table) == s1_oracle
        assert sum_s2(table) == s2_oracle
        assert s1_oracle > 0


def k3_config():
    return SieveConfig(2000, Tuple([0, 2, 6]), 0.9, 0.05, ALL_PRIMES, 3)


# one spec per membership kernel; tau = 0 mod 691 has no prime in range
ONE = GaloisContext(1, 1, 1)
KERNEL_SPECS = [
    QuadFormRep(2, 1, 3, ONE),
    FactorizationType((-1, -1, 0, 1), (3,), ONE),
    Congruence(8, {3, 5}, ONE),
    NewformCongruence(3, 0, 1, ONE),
    NewformCongruence(691, 0, 1, ONE),
]


def test_hits_match_scalar_membership():
    """The hit counts, S2 and the window list against the scalar route:
    w_n times #{m : n + h_m prime by trial division and is_member}."""
    cfg = k3_config()
    for spec in KERNEL_SPECS:
        table = weight_table(cfg, spec)
        hits = [
            sum(1 for h in cfg.tuple if t_is_prime(n + h) and spec.is_member(n + h))
            for n in table.ns.tolist()
        ]
        assert table.hits.tolist() == hits, spec
        w = [table.weights[j] for j in table.pattern.tolist()]
        assert sum_s2(table) == sum((wn * c for wn, c in zip(w, hits)), Fraction(0)), spec
        res = s_functional(cfg, spec, 1)
        assert list(res.windows) == [
            (n, c) for n, c in zip(table.ns.tolist(), hits) if c >= 2
        ], spec
        assert bool(res.windows) == (spec is not KERNEL_SPECS[-1]), spec
    assert sum_s2(table) == 0  # the empty tau spec


def test_weight_table_invariants():
    cfg = small_config()
    table = weight_table(cfg, all_primes_spec())
    ns = table.ns.tolist()
    assert ns == list(range(ns[0], 2 * cfg.n_start, cfg.u_modulus))
    assert cfg.n_start <= ns[0] < cfg.n_start + cfg.u_modulus
    assert ns[0] % cfg.u_modulus == cfg.u0
    assert len(table.pattern) == len(table.hits) == len(table)
    # every pattern occurs, and no two patterns share an index
    assert sorted(set(table.pattern.tolist())) == list(range(len(table.weights)))
    assert all(w >= 0 for w in table.weights)
    s1 = sum_s1(table)
    s2 = sum_s2(table)
    assert 0 <= s2 <= cfg.k * s1


def oracle_divisor_candidates(m, sieving, r_limit):
    """Squarefree divisors of m below R built from the sieving primes; the
    order is fixed by the sieving list, so equal sets give equal tuples."""
    divs = [1]
    for p in sieving:
        if m % p == 0:
            divs += [d * p for d in divs if d * p < r_limit]
    return tuple(divs)


def oracle_weight_table(cfg, spec):
    """The per-n loop: each n's tuple of candidate divisor lists is its
    pattern, numbered by first occurrence, with w = (sum of lambda over the
    support vectors in their product)^2; hits by a plain sieve of
    Eratosthenes and the scalar is_member."""
    hs = list(cfg.tuple)
    lams = lambda_table(cfg)
    sieving = [
        p for p in range(2, math.ceil(cfg.r_limit)) if t_is_prime(p) and cfg.w_modulus % p
    ]
    first = cfg.n_start + (cfg.u0 - cfg.n_start) % cfg.u_modulus
    ns = list(range(first, 2 * cfg.n_start, cfg.u_modulus))
    index, weights, pattern = {}, [], []
    for n in ns:
        cands = tuple(oracle_divisor_candidates(n + h, sieving, cfg.r_limit) for h in hs)
        j = index.get(cands)
        if j is None:
            acc = sum((lams[dv] for dv in product(*cands) if dv in lams), Fraction(0))
            j = index[cands] = len(weights)
            weights.append(acc * acc)
        pattern.append(j)
    prime = t_prime_flags(2 * cfg.n_start + max(hs))
    hits = [sum(1 for h in hs if prime[n + h] and spec.is_member(n + h)) for n in ns]
    return ns, pattern, tuple(weights), hits, sieving


def _benchmark_config(name):
    inputs = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
    return config_from_json(json.loads((inputs / f"sieve_{name}.json").read_text()))


MOD5 = GaloisContext(2, 1, 5, abelian_conductor=5)
ORACLE_CONFIGS = {
    "small": lambda: (small_config(), all_primes_spec()),
    "k3": lambda: (k3_config(), KERNEL_SPECS[0]),
    "demo": lambda: _benchmark_config("demo"),
    "wide": lambda: _benchmark_config("wide"),
    # R ~ 372: 70 sieving primes, 140 key bits in three words
    "three_words": lambda: (
        SieveConfig(2 * 10**5, Tuple([0, 2]), 0.99, 0.01, ALL_PRIMES, 5),
        all_primes_spec(),
    ),
    # W = 30, U = 6
    "u_below_w": lambda: (
        SieveConfig(2000, Tuple([0, 2, 6]), 0.9, 0.05, MOD5, 5),
        Congruence(5, {1, 4}, MOD5),
    ),
    # R ~ 5.6 with 2, 3 and 5 in W: no sieving primes
    "no_sieving": lambda: (
        SieveConfig(10**5, Tuple([0, 4]), 0.4, 0.05, ALL_PRIMES, 5),
        all_primes_spec(),
    ),
}


@pytest.mark.parametrize("name", ORACLE_CONFIGS)
def test_weight_table_matches_per_n_oracle(name):
    cfg, spec = ORACLE_CONFIGS[name]()
    ns, pattern, weights, hits, sieving = oracle_weight_table(cfg, spec)
    table = weight_table(cfg, spec)
    assert table.ns.tolist() == ns
    assert table.pattern.dtype == table.hits.dtype == np.int64
    assert table.pattern.tolist() == pattern
    assert table.weights == weights
    assert all(type(w) is Fraction for w in table.weights)
    assert table.hits.tolist() == hits
    if name == "three_words":
        assert len(sieving) == 70
    if name == "u_below_w":
        assert cfg.u_modulus != cfg.w_modulus
    if name == "no_sieving":
        assert sieving == [] and len(weights) == 1


def test_pattern_counts_on_benchmark_configs():
    """Few distinct weights for many entries: (entries, patterns) on the
    benchmark's demo and wide sieve configs."""
    for name, want in (("demo", (33333, 3)), ("wide", (16666, 7637))):
        cfg, spec = _benchmark_config(name)
        table = weight_table(cfg, spec)
        assert (len(table), len(table.weights)) == want, name


def test_quadratic_scaling():
    cfg = small_config()
    scaled = SieveConfig(
        1000,
        Tuple([0, 2]),
        0.9,
        0.05,
        ALL_PRIMES,
        d0=3,
        f=SimplexPolynomial.from_symmetric(2, {lam: 3 * c for lam, c in cfg.f.coeffs}),
    )
    spec = all_primes_spec()
    table, scaled_table = weight_table(cfg, spec), weight_table(scaled, spec)
    assert sum_s1(scaled_table) == 9 * sum_s1(table)
    assert sum_s2(scaled_table) == 9 * sum_s2(table)


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
    table = weight_table(cfg, all_primes_spec())
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
    """One prime table and one call of the scan's membership kernels per run."""
    cfg = small_config()
    built, kernel_calls = [], []
    real_members = sieve.members_in_segment

    def counting_table(limit):
        built.append(limit)
        return PrimeTable(limit)

    def counting_members(spec, primes):
        kernel_calls.append(len(primes))
        return real_members(spec, primes)

    monkeypatch.setattr(sieve, "PrimeTable", counting_table)
    monkeypatch.setattr(sieve, "members_in_segment", counting_members)
    res = s_functional(cfg, all_primes_spec(), 1)
    assert len(built) == 1
    assert len(kernel_calls) == 1
    assert res.s2 == sum_s2(weight_table(cfg, all_primes_spec()))


def test_s_functional_tests_each_shift_once(monkeypatch):
    """The primes handed to the membership kernels show that each distinct
    prime shift n + h_m is decided exactly once, all inside weight_table,
    for both S2 and the window list. They are counted at the kernel's
    entry, because the quadratic-form walk calls no is_member."""
    cfg = k3_config()
    spec = QuadFormRep(2, 1, 3, ONE)
    asked, spans = [], []
    real_members, real_table = sieve.members_in_segment, sieve.weight_table

    def counting_members(spec, primes):
        asked.extend(primes.tolist())
        return real_members(spec, primes)

    def counting_table(*args):
        spans.append(len(asked))
        table = real_table(*args)
        spans.append(len(asked))
        return table

    monkeypatch.setattr(sieve, "members_in_segment", counting_members)
    monkeypatch.setattr(sieve, "weight_table", counting_table)
    res = s_functional(cfg, spec, 1)
    ns = range(cfg.n_start + (cfg.u0 - cfg.n_start) % cfg.u_modulus, 2 * cfg.n_start,
               cfg.u_modulus)
    shifts = {n + h for n in ns for h in cfg.tuple if t_is_prime(n + h)}
    assert sorted(asked) == sorted(shifts)
    assert spans == [0, len(asked)]
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
    table = weight_table(cfg, spec)
    observed = float(sum_s2(table)) / float(sum_s1(table))
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
    assert Fraction(out["s1"]) == sum_s1(weight_table(cfg, all_primes_spec()))
    assert Fraction(out["s_value"]) == Fraction(out["s2"]) - Fraction(out["s1"])
    assert out["ratio_observed"] == pytest.approx(
        float(Fraction(out["s2"]) / Fraction(out["s1"]))
    )
    assert out["ratio_predicted"] == pytest.approx(
        out["predicted_s2"] / out["predicted_s1"]
    )
    assert out["windows"]
