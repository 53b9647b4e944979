import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from chebgaps.variational import (
    SimplexPolynomial,
    _gram_matrices,
    _pair_weight,
    integral_I,
    integral_J,
    integral_J_sum,
    optimize_rayleigh,
    pair_integral,
    rayleigh,
    simplified_mk_bound,
    symmetric_basis,
)


def fact(n):
    return math.factorial(n)


def dirichlet(exps, c=0):
    """Oracle: exact integral of prod t_i^e_i (1 - sum t)^c over the simplex,
    by the classical beta-type formula."""
    m = len(exps)
    num = fact(c)
    for e in exps:
        num *= fact(e)
    return Fraction(num, fact(m + sum(exps) + c))


def arrangements(part, m):
    padded = tuple(part) + (0,) * (m - len(part))
    return set(permutations(padded))


def brute_pair_weight(m, nu, mu):
    """Oracle: the literal double sum over arrangement pairs."""
    total = 0
    for a in arrangements(nu, m):
        for b in arrangements(mu, m):
            w = 1
            for x, y in zip(a, b):
                w *= fact(x + y)
            total += w
    return total


def random_partition(rng, max_len=4, max_part=4):
    n = rng.randint(0, max_len)
    return tuple(sorted((rng.randint(1, max_part) for _ in range(n)), reverse=True))


# -- pair weights against the literal definition -----------------------------------


def test_pair_weight_brute_force():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 5)
        nu = random_partition(rng, max_len=m)
        mu = random_partition(rng, max_len=m)
        assert _pair_weight(m, nu, mu) == brute_pair_weight(m, nu, mu)
    # oversized partitions contribute nothing
    assert _pair_weight(2, (1, 1, 1), ()) == 0


def test_pair_integral_dirichlet():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(1, 4)
        nu = random_partition(rng, max_len=m, max_part=3)
        mu = random_partition(rng, max_len=m, max_part=3)
        c = rng.randint(0, 3)
        oracle = sum(
            dirichlet(tuple(x + y for x, y in zip(a, b)), c)
            for a in arrangements(nu, m)
            for b in arrangements(mu, m)
        )
        assert pair_integral(m, nu, mu, c) == oracle


# -- polynomial container -----------------------------------------------------------


def test_evaluate_inside_and_outside():
    f = SimplexPolynomial.from_dense(2, {(1, 0): 1, (0, 2): Fraction(1, 2)})
    assert f.evaluate((Fraction(1, 4), Fraction(1, 4))) == Fraction(
        1, 4
    ) + Fraction(1, 32)
    # boundary counts as inside, beyond it the cutoff is 0
    assert f.evaluate((Fraction(1, 2), Fraction(1, 2))) != 0
    assert f.evaluate((Fraction(2, 3), Fraction(2, 3))) == 0
    assert f.evaluate((Fraction(-1, 10), Fraction(1, 10))) == 0
    with pytest.raises(ValueError):
        f.evaluate((Fraction(1, 4),))


def test_dense_symmetric_round_trip():
    g = SimplexPolynomial.from_symmetric(3, {(): 2, (1,): -1, (2, 1): Fraction(3, 7)})
    dense = g.to_dense()
    # grouped back by exponent pattern, every arrangement of a partition
    # carries that partition's symmetric coefficient
    back: dict = {}
    for exps, c in dense.coeffs:
        pat = tuple(sorted((e for e in exps if e), reverse=True))
        back.setdefault(pat, []).append(c)
    assert back == {lam: [c] * len(arrangements(lam, 3)) for lam, c in g.coeffs}
    rng = random.Random(3)
    for _ in range(20):
        pt = [Fraction(rng.randint(0, 4), 13) for _ in range(3)]
        direct = sum(
            c * sum(math.prod(x**e for x, e in zip(pt, perm)) for perm in arrangements(lam, 3))
            for lam, c in g.coeffs
        )
        assert g.evaluate(pt) == dense.evaluate(pt) == (direct if sum(pt) <= 1 else 0)


def test_constructor_rejections():
    with pytest.raises(ValueError):
        SimplexPolynomial.from_dense(0, {})
    with pytest.raises(ValueError):
        SimplexPolynomial.from_dense(2, {(1,): 1})
    with pytest.raises(ValueError):
        SimplexPolynomial.from_dense(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        SimplexPolynomial.from_symmetric(2, {(1, 1, 1): 1})
    with pytest.raises(ValueError):
        SimplexPolynomial(2, "sparse", {})
    # zero coefficients are pruned
    assert SimplexPolynomial.from_dense(2, {(1, 1): 0}).is_zero


# -- exact integrals ----------------------------------------------------------------


def test_integral_I_known_values():
    one2 = SimplexPolynomial.one(2)
    assert integral_I(one2) == Fraction(1, 2)
    assert integral_I(SimplexPolynomial.one(3)) == Fraction(1, 6)
    t1 = SimplexPolynomial.from_dense(2, {(1, 0): 1})
    assert integral_I(t1) == Fraction(1, 12)


def test_integral_J_known_values():
    # F = 1 on R_2: inner integral is 1 - t, so J = int (1-t)^2 = 1/3 per axis
    one2 = SimplexPolynomial.one(2)
    assert integral_J(one2, 1) == Fraction(1, 3)
    assert integral_J_sum(one2) == Fraction(2, 3)
    with pytest.raises(ValueError):
        integral_J(one2, 3)
    with pytest.raises(ValueError):
        integral_J(one2, 0)


def random_dense(rng, k, n_terms=4, max_deg=3):
    coeffs = {}
    for _ in range(n_terms):
        exps = tuple(rng.randint(0, max_deg) for _ in range(k))
        coeffs[exps] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return SimplexPolynomial.from_dense(k, coeffs)


def test_integral_I_matches_dirichlet_expansion():
    rng = random.Random(23)
    for _ in range(40):
        k = rng.randint(1, 4)
        f = random_dense(rng, k)
        items = list(f.coeffs)
        oracle = Fraction(0)
        for e1, c1 in items:
            for e2, c2 in items:
                oracle += c1 * c2 * dirichlet(tuple(a + b for a, b in zip(e1, e2)))
        assert integral_I(f) == oracle


def test_integral_J_matches_antiderivative_expansion():
    # independent route: integrate out t_i in closed form, then expand the
    # square of the section and apply the beta formula with the cutoff power
    rng = random.Random(29)
    for _ in range(40):
        k = rng.randint(2, 4)
        f = random_dense(rng, k)
        i = rng.randint(1, k)
        terms = []
        for exps, c in f.coeffs:
            rest = exps[: i - 1] + exps[i:]
            terms.append((rest, exps[i - 1] + 1, Fraction(c, exps[i - 1] + 1)))
        oracle = Fraction(0)
        for r1, p1, c1 in terms:
            for r2, p2, c2 in terms:
                oracle += c1 * c2 * dirichlet(
                    tuple(a + b for a, b in zip(r1, r2)), p1 + p2
                )
        assert integral_J(f, i) == oracle


def test_symmetric_agrees_with_dense():
    rng = random.Random(31)
    for _ in range(25):
        k = rng.randint(2, 4)
        parts = {}
        for _ in range(3):
            parts[random_partition(rng, max_len=k, max_part=3)] = Fraction(
                rng.randint(-5, 5), rng.randint(1, 4)
            )
        g = SimplexPolynomial.from_symmetric(k, parts)
        d = g.to_dense()
        assert integral_I(g) == integral_I(d)
        assert integral_J(g, 1) == integral_J(d, 1)
        assert integral_J_sum(g) == integral_J_sum(d)
        if not g.is_zero:
            assert rayleigh(g).value == rayleigh(d).value


# -- Rayleigh quotients -------------------------------------------------------------


def test_rayleigh_frozen_small_cases():
    r = rayleigh(SimplexPolynomial.one(2))
    assert r.value == Fraction(4, 3)
    assert (r.numerator, r.denominator) == (Fraction(2, 3), Fraction(1, 2))
    # F = 1 - t1 - t2: I = 1/12, J = 1/20 per axis
    f = SimplexPolynomial.from_symmetric(2, {(): 1, (1,): -1})
    r = rayleigh(f)
    assert r.denominator == Fraction(1, 12)
    assert r.value == Fraction(6, 5)
    with pytest.raises(ValueError):
        rayleigh(SimplexPolynomial.from_dense(2, {}))


def test_rayleigh_scale_invariance():
    rng = random.Random(37)
    f = random_dense(rng, 3)
    scaled = SimplexPolynomial.from_dense(3, {e: Fraction(-7, 3) * c for e, c in f.coeffs})
    assert rayleigh(scaled).value == rayleigh(f).value


# -- optimizer basis ----------------------------------------------------------------


def test_symmetric_basis_matches_closed_form():
    rng = random.Random(41)
    for k, degree in [(2, 3), (3, 4), (5, 3)]:
        basis = symmetric_basis(k, degree)
        labels = [ab for ab, _ in basis]
        assert labels == [
            (a, b) for b in range(degree // 2 + 1) for a in range(degree - 2 * b + 1)
        ]
        for (a, b), poly in basis:
            g = SimplexPolynomial.from_symmetric(k, poly)
            for _ in range(5):
                pt = [Fraction(rng.randint(0, 3), 4 * k) for _ in range(k)]
                p1 = sum(pt)
                p2 = sum(x * x for x in pt)
                assert g.evaluate(pt) == (1 - p1) ** a * p2**b
    with pytest.raises(ValueError):
        symmetric_basis(2, -1)


def test_gram_matrices_match_arrangement_pair_integrals():
    # the optimizer's closed-form Gram against the independent arrangement-pair
    # integrals: c^T I c == I(F) and c^T J c == sum_i J^i(F) for F = sum c_u e_u
    rng = random.Random(43)
    for k, degree in [(2, 3), (7, 5), (105, 4), (105, 6)]:
        basis = symmetric_basis(k, degree)
        gram_i, gram_j = _gram_matrices(k, [ab for ab, _ in basis])
        pairs = [(u, v) for u in range(len(basis)) for v in range(len(basis))]
        for _ in range(3):
            c = [rng.randint(-5, 5) for _ in basis]
            terms = {}
            for cu, (_, elt) in zip(c, basis):
                for lam, cl in elt.items():
                    terms[lam] = terms.get(lam, 0) + cu * cl
            f = SimplexPolynomial.from_symmetric(k, terms)
            assert sum(c[u] * c[v] * gram_i[u][v] for u, v in pairs) == integral_I(f)
            assert sum(c[u] * c[v] * gram_j[u][v] for u, v in pairs) == integral_J_sum(f)


def test_optimize_rayleigh_frozen_values():
    # degree-3 search at k=2 lands just under the known supremum 1.38593...
    r2 = optimize_rayleigh(2, 3)
    assert Fraction(13859, 10000) < r2.value < Fraction(13860, 10000)
    assert r2.dropped == ()
    # certified value equals a from-scratch quotient of the witness
    direct = rayleigh(r2.witness)
    assert direct.value == r2.value
    r3 = optimize_rayleigh(3, 3)
    assert Fraction(16459, 10000) < r3.value < Fraction(16465, 10000)
    # k = 5 crosses the M_k > 2 milestone at degree 4
    r5 = optimize_rayleigh(5, 4)
    assert r5.value > 2
    assert float(r5.value) == pytest.approx(2.003974846968, rel=1e-9)


def test_optimize_improves_with_degree():
    v1 = optimize_rayleigh(2, 1).value
    v2 = optimize_rayleigh(2, 2).value
    v3 = optimize_rayleigh(2, 3).value
    assert v1 <= v2 <= v3
    # degree 0 is the constant function
    assert optimize_rayleigh(2, 0).value == Fraction(4, 3)


# -- closed-form lower bound --------------------------------------------------------


def test_simplified_bound_sign_change():
    assert simplified_mk_bound(212) < 0 < simplified_mk_bound(213)
    assert simplified_mk_bound(213) == pytest.approx(
        math.log(213) - 2 * math.log(math.log(213)) - 2
    )
    with pytest.raises(ValueError):
        simplified_mk_bound(15)
