import json
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import chebgaps.chebsets as chebsets
from chebgaps.chebsets import (
    Congruence,
    FactorizationType,
    GaloisContext,
    NewformCongruence,
    QuadFormRep,
    empirical_density,
    factorization_type,
    json_int_list,
    json_number,
    members_in_segment,
    poly_discriminant,
    spec_from_json,
    tau_mod_stream,
)
from chebgaps.primes import sieve_range

from conftest import all_primes_spec

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


def _polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


# (x^2 + 1)(x^3 + 2) and (x^2 + x + 1)(x^4 + 3): reducible, no rational root
REDUCIBLE_NO_ROOT = [_polymul([1, 0, 1], [2, 0, 0, 1]), _polymul([1, 1, 1], [3, 0, 0, 0, 1])]
CUBIC, QUARTIC = [-1, -1, 0, 1], [-1, -1, 0, 0, 1]  # perfbench's scan_cubic and scan_quartic
BIG_CUBIC = [10**23 + 1, 0, 0, 1]  # x^3 + 10^23 + 1


def test_irreducibility_vs_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rnd = random.Random(31)
    cases = [*REDUCIBLE_NO_ROOT, CUBIC, QUARTIC, BIG_CUBIC, [1, 0, 0, 0, 1], [-1, 0, 0, 0, 1],
             [4, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 0, 0, 1], [-2, 0, 0, 0, 0, 0, 0, 1]]
    for i in range(100):
        deg = rnd.randrange(2, 8)
        split = rnd.randrange(1, deg) if i % 2 else 0  # every other case is a product
        coeffs = [rnd.randrange(-6, 7) for _ in range(deg - split)] + [1]
        if split:
            coeffs = _polymul(coeffs, [rnd.randrange(-6, 7) for _ in range(split)] + [1])
        cases.append(coeffs)
    for f in cases:
        want = sympy.Poly(f[::-1], x).is_irreducible
        assert chebsets._is_irreducible_q(f) == want, f
    for f in REDUCIBLE_NO_ROOT:
        with pytest.raises(ValueError, match="irreducible"):
            FactorizationType(f, (len(f) - 1,), GaloisContext(6, 2, -23))


def test_degree_sets_settle_perfbench_polys_without_roots(monkeypatch):
    def no_roots(*args, **kwargs):
        raise AssertionError("the irreducibility test reached the root step")

    monkeypatch.setattr(mpmath, "polyroots", no_roots)
    for f in (CUBIC, QUARTIC, BIG_CUBIC):
        assert chebsets._is_irreducible_q(f)
    FactorizationType(QUARTIC, (4,), GaloisContext(24, 6, -283))


def test_unsure_roots_raise_value_error(monkeypatch):
    x4_plus_1 = [1, 0, 0, 0, 1]  # reducible mod every prime, so the roots are needed

    def diverge(*args, **kwargs):
        raise mpmath.mp.NoConvergence("no convergence")

    monkeypatch.setattr(mpmath, "polyroots", diverge)
    with pytest.raises(ValueError, match="no root convergence"):
        chebsets._is_irreducible_q(x4_plus_1)
    monkeypatch.setattr(mpmath, "polyroots", lambda *a, **k: ([0, 0, 0, 0], mpmath.mpf(1)))
    with pytest.raises(ValueError, match="root error"):
        chebsets._is_irreducible_q(x4_plus_1)


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


def test_congruence_residue_table_built_once(monkeypatch):
    # the quadratic residues mod 10007: many classes, one sorted table per spec
    q = 10007
    spec = Congruence(q, {r * r % q for r in range(1, q)}, GaloisContext(2, 1, q))
    table = spec._sorted_residues
    assert table.tolist() == sorted(spec.residues) and not table.flags.writeable
    assert spec == Congruence(q, spec.residues, GaloisContext(2, 1, q))
    segments = [np.array(sieve_range(lo, lo + 50_000)) for lo in (2, 50_000, 100_000)]
    seen = []
    searchsorted = np.searchsorted

    def spy(a, v, *args, **kwargs):
        seen.append(a)
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    for seg in segments:
        got = members_in_segment(spec, seg).tolist()
        assert got == [p for p in seg.tolist() if spec.is_member(p)]
    assert len(seen) == 3 and all(a is table for a in seen)


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
    assert json_number(d, "one", float) == 7.0 and type(json_number(d, "one", float)) is float
    for key in ("bool", "null", "str", "list"):
        with pytest.raises(ValueError, match=f"'{key}' must be a number"):
            json_number(d, key, float)
    with pytest.raises(ValueError, match="'huge' must be a number"):
        json_number({"huge": 10**400}, "huge", float)
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


def form_values(a, b, c, box=200):
    """Every value a x^2 + b x y + c y^2 over the box |x|, |y| <= box."""
    x = np.arange(-box, box + 1, dtype=np.int64)[:, None]
    y = x.T
    return set((a * x * x + b * x * y + c * y * y).ravel().tolist())


def represents(a: int, b: int, c: int, p: int) -> bool:
    """Whether a x^2 + b x y + c y^2 = p has an integer solution.

    The form must be positive definite (a > 0, b^2 - 4ac < 0) and primitive.
    Exhaustive: y^2 <= 4ap/|D|, and for each y the x-equation is a
    quadratic with integer discriminant 4ap - |D| y^2. The oracle of
    QuadFormRep.is_member, which decides primes by reduction.
    """
    D = b * b - 4 * a * c
    if a <= 0 or D >= 0:
        raise ValueError("form must be positive definite (a > 0, b^2 - 4ac < 0)")
    if math.gcd(math.gcd(a, b), c) != 1:
        raise ValueError("form must be primitive")
    if p < 0:
        raise ValueError("target must be non-negative")
    absD = -D
    y = 0
    while True:
        disc_x = 4 * a * p - absD * y * y
        if disc_x < 0:
            return False
        s = math.isqrt(disc_x)
        if s * s == disc_x:
            for sg in (s, -s):
                if (-b * y + sg) % (2 * a) == 0:
                    return True
        y += 1


def test_represents_vs_brute_force():
    for a, b, c in [(1, 0, 1), (1, 0, 5), (2, 2, 3), (1, 1, 1), (1, 0, 23)]:
        values = form_values(a, b, c)
        for p in sieve_range(2, 300):
            assert represents(a, b, c, p) == (p in values), (a, b, c, p)


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


def test_quad_form_reduction_vs_represents():
    # D = -4, -20, -23, -56: class numbers 1, 2, 3 and 4; the forms
    # (2, 1, 3) and (2, -1, 3) are inverse classes of D = -23
    forms = [(1, 0, 1), (1, 0, 5), (2, 2, 3), (1, 1, 6), (2, 1, 3), (2, -1, 3),
             (1, 0, 14), (2, 0, 7), (3, 2, 5)]
    for a, b, c in forms:
        spec = QuadFormRep(a, b, c, GaloisContext(1, 1, 1))
        D = spec.form_discriminant
        for p in sieve_range(2, 3000):
            if D % p:
                assert spec.is_member(p) == represents(a, b, c, p), (a, b, c, p)


# b < 0, odd and even D, D = -108, forms of one class and of inverse classes,
# and non-reduced forms (3, 4, 2), (5, 13, 9) and (6, 1, 1), which reduce to
# (1, 0, 2), (1, 1, 3) and (1, 1, 6)
WALK_FORMS = [(1, 0, 1), (1, 0, 5), (2, 2, 3), (1, 1, 6), (2, 1, 3), (2, -1, 3),
              (1, 0, 14), (2, 0, 7), (3, 2, 5), (1, 0, 27), (1, 1, 1), (4, -3, 5),
              (6, 5, 9), (7, -3, 11), (3, 4, 2), (5, 13, 9), (6, 1, 1)]


@pytest.fixture
def walks(monkeypatch):
    """Whether each window of members_in_segment took the form walk."""
    seen, form_values = [], chebsets._form_values

    def recording(*args):
        marked = form_values(*args)
        seen.append(marked is not None)
        return marked

    monkeypatch.setattr(chebsets, "_form_values", recording)
    return seen


def test_form_walk_vs_represents(walks):
    # from 2, so p = 2, p = a and the primes dividing D or the context
    # discriminant 13 are all met
    seg = np.array(sieve_range(2, 5000))
    firsts = []
    for a, b, c in WALK_FORMS:
        spec = QuadFormRep(a, b, c, GaloisContext(1, 1, 13))
        D = spec.form_discriminant
        got = members_in_segment(spec, seg).tolist()
        want = [p for p in seg.tolist() if D % p and 13 % p and represents(a, b, c, p)]
        assert got == want == [p for p in seg.tolist() if spec.is_member(p)], (a, b, c)
        firsts.append(got[0])
    assert walks == [True] * len(WALK_FORMS)
    assert {2, 3, 5, 7} <= set(firsts)  # p = a = 2 for (2, 1, 3), p = a = 7 for (7, -3, 11)


def test_form_walk_window_edges(walks, monkeypatch):
    # windows of 2^14 integers above 10^8, and the default window across the
    # segment edge 2^20
    monkeypatch.setattr(chebsets, "_FORM_WINDOW", 1 << 14)
    high = np.array(sieve_range(10**8, 10**8 + 30_000))
    edge = np.array(sieve_range(2**20 - 3000, 2**20 + 3000))
    for a, b, c in WALK_FORMS:
        spec = QuadFormRep(a, b, c, GaloisContext(1, 1, 1))
        for seg in (high, edge):
            got = members_in_segment(spec, seg).tolist()
            assert got and got == [p for p in seg.tolist() if spec.is_member(p)], (a, b, c)
    assert walks == [True, True, True] * len(WALK_FORMS)


def test_form_walk_sparse_sieve_array(walks):
    # the distinct prime shifts n + h, n = 11 mod 30 in [N, 2N), h in {0, 2, 6}:
    # few primes spread over the whole of [N, 2N + 6]
    N = 2 * 10**5
    shifts = {n + h for n in range(N + (11 - N) % 30, 2 * N, 30) for h in (0, 2, 6)}
    seg = np.array([p for p in sieve_range(N, 2 * N + 7) if p in shifts])
    for a, b, c in [(2, 1, 3), (1, 0, 27), (3, 4, 2), (7, -3, 11)]:
        spec = QuadFormRep(a, b, c, GaloisContext(1, 1, -23))
        got = members_in_segment(spec, seg).tolist()
        assert got == [p for p in seg.tolist() if spec.is_member(p)], (a, b, c)
    assert walks == [True] * 4


def test_form_walk_falls_back(walks):
    # a window whose rows or int64 values the walk cannot afford loops over
    # is_member: the prime 10^15 + 37 after 3, the primes just above 10^15,
    # and coefficients of 2^62; a context discriminant above 2^63 still
    # excludes its primes 2, 3 and 5 on the walk, though the form represents 2 and 3
    huge = 3 * 5 * 2**64
    cases = [
        ((2, 1, 3), 1, [3, 10**15 + 37], [True, False]),
        ((1, 0, 1), 1, [10**15 + 37, 10**15 + 91, 10**15 + 159, 10**15 + 223], [False]),
        ((1, 1, 2**62), 1, sieve_range(2, 3000), [False]),
        ((2**62 + 1, 1, 2**62 + 1), 1, sieve_range(2, 3000), [False]),
        ((2, 1, 3), huge, sieve_range(2, 3000), [True]),
    ]
    for (a, b, c), disc, primes, route in cases:
        spec = QuadFormRep(a, b, c, GaloisContext(1, 1, disc))
        want = [p for p in primes if spec.is_member(p)]
        walks.clear()
        assert members_in_segment(spec, np.array(primes, dtype=np.int64)).tolist() == want
        assert walks == route, (a, b, c)
    assert represents(2, 1, 3, 2) and represents(2, 1, 3, 3) and want[0] == 13


def test_reduce_form_is_a_class_invariant():
    rnd = random.Random(3)
    # (2, 1, 2) and (3, 3, 5) sit on the boundary a = c and |b| = a
    for a, b, c in [(2, 1, 3), (3, 2, 5), (1, 0, 14), (4, 3, 5), (2, 1, 2), (3, 3, 5)]:
        want = chebsets._reduce_form(a, b, c)
        ra, rb, rc = want
        assert abs(rb) <= ra <= rc and (rb >= 0 or (abs(rb) < ra < rc))
        for _ in range(50):
            # (x, y) -> (p x + q y, r x + s y) with p s - q r = 1
            pp, qq = rnd.randrange(-30, 31), rnd.randrange(1, 31)
            if math.gcd(pp, qq) != 1:
                continue
            s_ = pow(pp, -1, qq)
            r_ = (pp * s_ - 1) // qq
            A = a * pp * pp + b * pp * r_ + c * r_ * r_
            B = 2 * a * pp * qq + b * (pp * s_ + qq * r_) + 2 * c * r_ * s_
            C = a * qq * qq + b * qq * s_ + c * s_ * s_
            assert chebsets._reduce_form(A, B, C) == want


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


def test_tau_stream_dtype_rungs():
    limit = 120
    oracle = naive_tau(limit)
    # below 120 the eta cube has 15 nonzero terms (j = 0..14, every 2j + 1 < d),
    # so int32 holds each product's sum while (d - 1)^2 * 16 < 2^31, int64
    # while (d - 1)^2 * 16 < 2^63, int64 reduced per term while 2 (d - 1)^2 < 2^63
    assert (11586 - 1) ** 2 * 16 < 2**31 <= (11587 - 1) ** 2 * 16
    assert (759250125 - 1) ** 2 * 16 < 2**63 <= (759250126 - 1) ** 2 * 16
    # 46337^2 < 2^31, but 15 such products are not, so its sums need int64
    for d in (11586, 11587, 46337, 759250125, 759250126, 2**31, 2**31 + 1):
        s = tau_mod_stream(d, limit)
        assert s.dtype == (np.int64 if d <= 2**31 else object), d
        assert [int(x) for x in s[1:]] == [t % d for t in oracle[1:]], d


def test_tau_stream_perfbench_size():
    # the newform scan's stream: tau(n) = sigma_11(n) mod 691 at every n it
    # reaches, the 144 multiples of 691 among them
    limit = 99992
    s = tau_mod_stream(691, limit)
    assert s.dtype == np.int64 and len(s) == limit + 1
    sig = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        sig[d::d] += pow(d, 11, 691)
    assert np.array_equal(s[1:], sig[1:] % 691)


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


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [(*rest, d) for d in range(min(n, largest), 0, -1)
            for rest in _partitions(n - d, d)]


def test_frobenius_kernel_every_cycle_type():
    # the (Frobenius order, Legendre sign) pair fixes the type for degree <= 5,
    # including (1, 1, 2) against (2, 2) and (1, 1, 1, 2) against (1, 2, 2)
    seg = np.array(sieve_range(2, 5000))
    polys = [(3, 1), (2, 0, 1), (-1, -1, 0, 1), (-1, -1, 0, 0, 1), (1, 0, 0, 0, 1),
             (-1, -1, 0, 0, 0, 1), (3, -3, 0, 0, 0, 1)]
    for f in polys:
        n = len(f) - 1
        disc = poly_discriminant(f)
        oracle = {p: factorization_type(f, p) for p in seg.tolist() if disc % p}
        seen = set()
        for ct in _partitions(n):
            spec = FactorizationType(f, ct, GaloisContext(1, 1, 1))
            got = members_in_segment(spec, seg).tolist()
            assert got == [p for p, t in oracle.items() if t == ct], (f, ct)
            seen.update([ct] if got else [])
        if f in ((-1, -1, 0, 0, 1), (-1, -1, 0, 0, 0, 1)):  # Galois group S_n
            assert seen == set(_partitions(n))


def test_frobenius_kernel_prime_split(monkeypatch):
    # p = 2 and p >= 2^31 go through is_member, every other prime through the
    # int64 kernel, whose products of residues stay below 2^62
    spec = FactorizationType((-1, -1, 0, 0, 1), (4,), GaloisContext(24, 6, -283))
    oracle = FactorizationType.is_member
    seg = np.array([2, 3, 5, 7, *sieve_range(2**31 - 400, 2**31 + 400)])
    want = [p for p in seg.tolist() if oracle(spec, p)]
    assert want[0] == 2 and want[-1] > 2**31 and any(p < 2**31 for p in want[1:])
    looped = []

    def recording(self, p):
        looped.append(p)
        return oracle(self, p)

    monkeypatch.setattr(FactorizationType, "is_member", recording)
    assert members_in_segment(spec, seg).tolist() == want
    assert looped == [2] + [p for p in seg.tolist() if p >= 2**31]


def test_degree_six_loops_over_is_member(monkeypatch):
    # (2, 2, 2) and (1, 1, 1, 1, 2) share order and sign, so degree 6 loops
    def no_kernel(spec, primes):
        raise AssertionError("degree 6 reached the batch kernel")

    monkeypatch.setattr(chebsets, "_frobenius_mask", no_kernel)
    seg = np.array(sieve_range(2, 3000))
    for ct in ((2, 2, 2), (1, 1, 1, 1, 2)):
        spec = FactorizationType((-1, -1, 0, 0, 0, 0, 1), ct, GaloisContext(1, 1, 1))
        got = members_in_segment(spec, seg).tolist()
        assert got and got == [p for p in seg.tolist() if spec.is_member(p)]


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
