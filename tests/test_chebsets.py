import json
import random
from fractions import Fraction

import numpy as np
import pytest

import chebgaps.chebsets as chebsets
from chebgaps.chebsets import (
    Congruence,
    FactorizationType,
    GaloisContext,
    NewformCongruence,
    QuadFormRep,
    all_primes_spec,
    empirical_density,
    factorization_type,
    json_int_list,
    json_number,
    members_in_segment,
    poly_discriminant,
    represents,
    spec_from_json,
    tau_mod_stream,
)
from chebgaps.primes import sieve_range

PRIMES_200 = sieve_range(2, 200)


# -- context -------------------------------------------------------------------


def test_context_validation():
    ctx = GaloisContext(6, 2, -23)
    assert ctx.density == Fraction(1, 3)
    assert not ctx.is_abelian
    ab = GaloisContext(2, 1, 1, abelian_conductor=4)
    assert ab.is_abelian
    with pytest.raises(ValueError):
        GaloisContext(0, 1, 1)
    with pytest.raises(ValueError):
        GaloisContext(4, 5, 1)
    with pytest.raises(ValueError):
        GaloisContext(2, 1, 0)
    with pytest.raises(ValueError):
        GaloisContext(5, 1, 1, abelian_conductor=4)  # 5 does not divide phi(4)


def test_context_json_round_trip():
    for ctx in (GaloisContext(6, 2, -23), GaloisContext(2, 1, 1, abelian_conductor=8)):
        assert GaloisContext.from_json(ctx.to_json()) == ctx


# -- polynomial splitting types --------------------------------------------------


def _cubic_oracle(f, p):
    """Root-count oracle for squarefree cubics: 0 roots -> (3,), 1 -> (1, 2),
    3 -> (1, 1, 1)."""
    roots = sum(
        1
        for x in range(p)
        if (f[0] + f[1] * x + f[2] * x * x + f[3] * x**3) % p == 0
    )
    return {0: (3,), 1: (1, 2), 3: (1, 1, 1)}[roots]


def test_cubic_types_vs_root_count():
    f = (-1, -1, 0, 1)  # x^3 - x - 1, disc -23
    assert poly_discriminant(f) == -23
    for p in PRIMES_200:
        if p == 23:
            continue
        assert factorization_type(f, p) == _cubic_oracle(f, p)


def test_types_vs_sympy_factorization():
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    rnd = random.Random(5)
    checked = 0
    while checked < 120:
        deg = rnd.randrange(2, 6)
        coeffs = [rnd.randrange(-6, 7) for _ in range(deg)] + [1]
        p = rnd.choice(PRIMES_200)
        disc = poly_discriminant(coeffs)
        if disc == 0 or disc % p == 0:
            continue
        # gf_factor takes coefficients from the leading term down
        _, factors = galoistools.gf_factor([ZZ(c) for c in reversed(coeffs)], p, ZZ)
        want = tuple(sorted(len(g) - 1 for g, e in factors for _ in range(e)))
        assert factorization_type(coeffs, p) == want
        checked += 1


def test_discriminant_vs_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rnd = random.Random(9)
    for _ in range(60):
        deg = rnd.randrange(2, 6)
        coeffs = [rnd.randrange(-9, 10) for _ in range(deg)] + [1]
        expr = sum(c * x**i for i, c in enumerate(coeffs))
        assert poly_discriminant(coeffs) == int(sympy.discriminant(expr, x))


def test_factorization_type_rejections():
    with pytest.raises(ValueError):
        factorization_type((1, 1), 1)
    with pytest.raises(ValueError):
        factorization_type((2, 2), 5)  # not monic
    with pytest.raises(ValueError):
        factorization_type((-1, -1, 0, 1), 23)  # 23 | disc


def test_factorization_spec_membership():
    ctx = GaloisContext(6, 2, -23)
    spec = FactorizationType((-1, -1, 0, 1), (3,), ctx)
    members = [p for p in PRIMES_200 if spec.is_member(p)]
    oracle = [
        p
        for p in PRIMES_200
        if p != 23 and _cubic_oracle((-1, -1, 0, 1), p) == (3,)
    ]
    assert members == oracle
    assert not spec.is_member(23)  # ramified
    with pytest.raises(ValueError):
        FactorizationType((-1, -1, 0, 1), (2,), ctx)  # type does not sum to degree
    with pytest.raises(ValueError):
        FactorizationType((-1, 0, 0, 0, 1), (4,), ctx)  # x^4 - 1 reducible over Q
    # x^4 + 1 is irreducible over Q yet reducible mod every prime, so the
    # 4-cycle type must be empty.
    quartic = FactorizationType((1, 0, 0, 0, 1), (4,), ctx)
    assert not any(quartic.is_member(p) for p in PRIMES_200)


# -- congruence specs -------------------------------------------------------------


def test_congruence_membership():
    ctx = GaloisContext(2, 1, 1, abelian_conductor=8)
    spec = Congruence(8, {3}, ctx)
    members = [p for p in PRIMES_200 if spec.is_member(p)]
    assert members == [p for p in PRIMES_200 if p % 8 == 3]
    assert not spec.is_member(2)
    with pytest.raises(ValueError):
        Congruence(8, {4}, ctx)  # residue not coprime
    with pytest.raises(ValueError):
        Congruence(8, set(), ctx)


def test_all_primes_spec():
    spec = all_primes_spec()
    assert all(spec.is_member(p) for p in PRIMES_200)
    assert float(empirical_density(spec, 10**4)) == 1.0


def test_spec_json_round_trips():
    specs = [
        Congruence(28, {3, 19, 27}, GaloisContext(6, 3, 1, abelian_conductor=28)),
        FactorizationType((-1, -1, 0, 1), (3,), GaloisContext(6, 2, -23)),
        QuadFormRep(1, 0, 5, GaloisContext(4, 1, -20, abelian_conductor=20)),
        NewformCongruence(691, 0, 1, GaloisContext(1, 1, 1)),
    ]
    for spec in specs:
        back = spec_from_json(json.loads(json.dumps(spec.to_json())))
        assert back == spec
        assert back.spec_id == spec.spec_id


def test_json_integer_fields():
    d = {"one": 7, "big": 1e6, "half": 2.5, "bool": True, "str": "3", "null": None,
         "list": [0, 4.0, 1e2], "bad_list": [0, 4.5], "bool_list": [1, False]}
    assert json_number(d, "one") == 7
    assert json_number(d, "big") == 10**6 and type(json_number(d, "big")) is int
    assert json_number(d, "half", float) == 2.5
    assert json_int_list(d, "list") == [0, 4, 100]
    for key in ("half", "bool", "str", "null"):
        with pytest.raises(ValueError, match=f"'{key}' must be a number"):
            json_number(d, key)
    for key in ("bool", "null"):
        with pytest.raises(ValueError, match=f"'{key}' must be a number"):
            json_number(d, key, float)
    for key in ("bad_list", "bool_list"):
        with pytest.raises(ValueError, match=f"each '{key}' entry"):
            json_int_list(d, key)
    ctx = GaloisContext(6, 2, -23).to_json()
    cubic = {"variant": "factorization_type", "poly": [-1, -1, 0, 1], "cycle_type": [3],
             "context": ctx}
    assert spec_from_json(cubic).poly == (-1, -1, 0, 1)
    for key, value in (("poly", [-1, -1.5, 0, 1]), ("cycle_type", [2.5, 0.5])):
        with pytest.raises(ValueError, match=f"each '{key}' entry"):
            spec_from_json({**cubic, key: value})
    with pytest.raises(ValueError, match="'abelian_conductor' must be a number"):
        GaloisContext.from_json({**ctx, "abelian_conductor": 8.6})


# -- quadratic forms ---------------------------------------------------------------


def brute_represents(a, b, c, p, box=200):
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            if a * x * x + b * x * y + c * y * y == p:
                return True
    return False


def test_represents_vs_brute_force():
    for a, b, c in [(1, 0, 1), (1, 0, 5), (2, 2, 3), (1, 1, 1), (1, 0, 23)]:
        for p in sieve_range(2, 300):
            assert represents(a, b, c, p) == brute_represents(a, b, c, p), (a, b, c, p)


def test_represents_rejections():
    with pytest.raises(ValueError):
        represents(1, 0, -1, 5)  # indefinite
    with pytest.raises(ValueError):
        represents(2, 0, 2, 5)  # imprimitive
    with pytest.raises(ValueError):
        represents(1, 2, 1, 5)  # square discriminant


def test_quad_form_spec():
    # x^2 + y^2: odd p represented iff p = 1 mod 4; p = 2 divides the form disc
    ctx = GaloisContext(2, 1, -4, abelian_conductor=4)
    spec = QuadFormRep(1, 0, 1, ctx)
    assert spec.form_discriminant == -4
    members = [p for p in sieve_range(2, 500) if spec.is_member(p)]
    assert members == [p for p in sieve_range(3, 500) if p % 4 == 1]
    assert not spec.is_member(2)  # excluded though 2 = 1^2 + 1^2 is represented
    assert represents(1, 0, 1, 2)


# -- tau ---------------------------------------------------------------------------

TAU_KNOWN = {
    1: 1,
    2: -24,
    3: 252,
    4: -1472,
    5: 4830,
    6: -6048,
    7: -16744,
    8: 84480,
    9: -113643,
    10: -115920,
    11: 534612,
    12: -370944,
    24: 21288960,
    25: -25499225,
}


def naive_tau(limit):
    """Oracle: q prod (1 - q^n)^24 by direct exact convolution."""
    series = [0] * (limit + 1)
    series[0] = 1
    for n in range(1, limit + 1):
        # multiply by (1 - q^n) 24 times
        for _ in range(24):
            for i in range(limit, n - 1, -1):
                series[i] -= series[i - n]
    tau = [0] * (limit + 1)
    for i in range(1, limit + 1):
        tau[i] = series[i - 1]  # shift by the leading q
    return tau


def test_tau_stream_vs_naive_product():
    limit = 120
    oracle = naive_tau(limit)
    # the last two run the loop on Python ints (object dtype)
    for d in (691, 10**6, 2**31 - 1, 10**9 + 7, 2**61 - 1, 691 * 2**32):
        s = tau_mod_stream(d, limit)
        for n in range(1, limit + 1):
            assert int(s[n]) == oracle[n] % d, (d, n)


def test_tau_known_values():
    s = tau_mod_stream(10**9, 30)
    for n, t in TAU_KNOWN.items():
        if n <= 30:
            assert int(s[n]) == t % 10**9


def test_tau_sigma11_congruence():
    limit = 3000
    s = tau_mod_stream(691, limit)
    sig = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        sig[d::d] += pow(d, 11, 691)
    for n in range(1, limit + 1):
        assert int(s[n]) == int(sig[n] % 691)


def test_tau_stream_rejections():
    with pytest.raises(ValueError):
        tau_mod_stream(1, 100)
    with pytest.raises(ValueError):
        tau_mod_stream(5, 0)
    with pytest.raises(ValueError):
        tau_mod_stream(2**63, 10)  # int64 cannot hold the residues


def test_newform_spec_native_and_attached():
    ctx = GaloisContext(1, 1, 1)
    native = NewformCongruence(691, 0, 1, ctx)
    members_native = [p for p in PRIMES_200 if native.is_member(p)]
    stream = tau_mod_stream(691, 200)
    attached = NewformCongruence(691, 0, 1, ctx, stream=stream)
    assert members_native == [p for p in PRIMES_200 if attached.is_member(p)]
    with pytest.raises(ValueError):
        attached.is_member(10**4)  # stream too short
    level5 = NewformCongruence(3, 0, 5, ctx)
    with pytest.raises(ValueError):
        level5.is_member(7)  # no native stream outside level 1
    with pytest.raises(ValueError):
        NewformCongruence(1, 0, 1, ctx)
    for d, level in ((2**63, 1), (5, 2**63)):
        with pytest.raises(ValueError):
            NewformCongruence(d, 0, level, ctx)


# -- aggregate statistics ------------------------------------------------------------


def test_members_in_segment_matches_loop(monkeypatch):
    # the vectorized paths exclude ramified primes without factoring the modulus
    def no_factoring(n):
        raise AssertionError("members_in_segment factored a modulus")

    monkeypatch.setattr(chebsets, "prime_divisors", no_factoring, raising=False)
    specs = [
        Congruence(28, {3, 19, 27}, GaloisContext(6, 3, 1, abelian_conductor=28)),
        FactorizationType((-1, -1, 0, 1), (1, 2), GaloisContext(6, 3, -23)),
        NewformCongruence(2, 0, 1, GaloisContext(1, 1, 1)),
        NewformCongruence(
            6, 1, 11, GaloisContext(1, 1, 1), stream=tau_mod_stream(6, 2000)
        ),
    ]
    seg = np.array(sieve_range(2, 2000))
    for spec in specs:
        got = members_in_segment(spec, seg).tolist()
        want = [p for p in seg.tolist() if spec.is_member(p)]
        assert got == want


def test_newform_stream_grows_from_what_is_read(monkeypatch):
    asked = []

    def recording(d, limit):
        asked.append(limit)
        return np.zeros(limit + 1, dtype=np.int64)

    monkeypatch.setattr(chebsets, "tau_mod_stream", recording)
    spec = NewformCongruence(691, 0, 1, GaloisContext(1, 1, 1))
    members_in_segment(spec, np.array(sieve_range(2, 10**5)))
    assert len(asked) == 1 and asked[0] <= 10**5 + 1
    members_in_segment(spec, np.array(sieve_range(10**5, 10**5 + 100)))
    assert len(asked) == 2 and asked[1] >= 2 * asked[0]


def test_empirical_density_congruence():
    ctx = GaloisContext(2, 1, 1, abelian_conductor=4)
    d = empirical_density(Congruence(4, {1}, ctx), 10**5)
    assert abs(float(d) - 0.5) < 0.01


def test_union_density_adds_up():
    ctx = GaloisContext(4, 1, 1, abelian_conductor=8)
    parts = [Congruence(8, {r}, ctx) for r in (1, 3, 5, 7)]
    seg = np.array(sieve_range(2, 10**5))
    total = sum(len(members_in_segment(s, seg)) for s in parts)
    whole = members_in_segment(
        Congruence(8, {1, 3, 5, 7}, GaloisContext(1, 1, 1, abelian_conductor=8)), seg
    )
    assert total == len(whole)
