"""Simplex variational problem behind the multidimensional sieve.

For F supported on the simplex R_k = {t_i >= 0, sum t_i <= 1} define

    I_k(F)     = integral over R_k of F^2
    J_k^i(F)   = integral over R_{k-1} of (integral of F dt_i from 0
                 to 1 - sum_{j != i} t_j)^2
    rayleigh   = sum_i J_k^i(F) / I_k(F)

and M_k = sup over F of the Rayleigh quotient. Everything here is exact
rational: monomials integrate by the Dirichlet formula

    int_{R_k} t^a (1 - sum t)^c dt = (prod a_i!) c! / (k + sum a_i + c)!

and symmetric polynomials (monomial-symmetric-basis dictionaries) integrate
through an arrangement-pair count so that k = 105 never expands a dense
polynomial in 105 variables. These arrangement-pair integrals are the path
of `rayleigh` for any given F, and the independent oracle the tests hold
the optimizer's Gram matrices to.

Basis for the optimizer: (1 - P1)^a P2^b with a + 2b <= degree, where
P1 = sum t_i and P2 = sum t_i^2. Its Gram matrices come from closed-form
moments of (1 - P1)^a P2^b (the Beta integral, as in Maynard's M_105
certificate), built from the (a, b) labels alone. A float generalized
eigensolve picks the direction; the returned witness is rationalized and
re-certified exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations
from math import comb

_FACT_CACHE: list[int] = [1]


def _fact(n: int) -> int:
    while len(_FACT_CACHE) <= n:
        _FACT_CACHE.append(_FACT_CACHE[-1] * len(_FACT_CACHE))
    return _FACT_CACHE[n]


Partition = tuple[int, ...]  # weakly decreasing positive ints, () allowed


def _check_partition(part) -> Partition:
    t = tuple(int(v) for v in part)
    if any(v < 1 for v in t) or list(t) != sorted(t, reverse=True):
        raise ValueError(f"not a partition (need weakly decreasing, positive): {part}")
    return t


@dataclass(frozen=True)
class SimplexPolynomial:
    """Polynomial on R_k, either dense ({exponent tuple: coeff}) or symmetric
    ({partition: coeff}, monomial symmetric basis m_lambda in k variables).

    Evaluation returns 0 outside R_k: these objects stand for sieve cutoff
    functions, which vanish off the simplex by definition.
    """

    k: int
    form: str  # "dense" | "symmetric"
    coeffs: tuple  # sorted ((key, Fraction), ...) pairs, canonical

    def __init__(self, k: int, form: str, coeffs):
        if k < 1:
            raise ValueError("k must be >= 1")
        if form not in ("dense", "symmetric"):
            raise ValueError("form must be 'dense' or 'symmetric'")
        items = {}
        for key, c in dict(coeffs).items():
            c = Fraction(c)
            if c == 0:
                continue
            if form == "dense":
                key = tuple(int(e) for e in key)
                if len(key) != k or any(e < 0 for e in key):
                    raise ValueError(f"bad exponent tuple for k={k}: {key}")
            else:
                key = _check_partition(key)
                if len(key) > k:
                    raise ValueError(f"partition {key} has more than k={k} parts")
            items[key] = items.get(key, Fraction(0)) + c
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "form", form)
        object.__setattr__(
            self, "coeffs", tuple(sorted((kk, c) for kk, c in items.items() if c))
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense(cls, k: int, coeffs) -> "SimplexPolynomial":
        return cls(k, "dense", coeffs)

    @classmethod
    def from_symmetric(cls, k: int, coeffs) -> "SimplexPolynomial":
        return cls(k, "symmetric", coeffs)

    @classmethod
    def one(cls, k: int) -> "SimplexPolynomial":
        return cls(k, "symmetric", {(): Fraction(1)})

    # -- views -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def to_dense(self) -> "SimplexPolynomial":
        """Expand arrangements; only sensible for small k."""
        if self.form == "dense":
            return self
        out: dict[tuple, Fraction] = {}
        for lam, c in self.coeffs:
            padded = tuple(lam) + (0,) * (self.k - len(lam))
            for perm in set(permutations(padded)):
                out[perm] = out.get(perm, Fraction(0)) + c
        return SimplexPolynomial(self.k, "dense", out)

    @cached_property
    def _dense_terms(self) -> tuple:
        """to_dense().coeffs, expanded once per polynomial for evaluate."""
        return self.to_dense().coeffs

    def evaluate(self, point) -> Fraction:
        """Exact value at a rational point; 0 outside the closed simplex."""
        pt = tuple(Fraction(x) for x in point)
        if len(pt) != self.k:
            raise ValueError(f"need {self.k} coordinates")
        if any(x < 0 for x in pt) or sum(pt) > 1:
            return Fraction(0)
        total = Fraction(0)
        for exps, c in self._dense_terms:
            v = c
            for e, x in zip(exps, pt):
                v *= x**e
            total += v
        return total


def _n_arrangements(part: Partition, k: int) -> int:
    """Distinct arrangements of part padded with zeros to k slots."""
    if len(part) > k:
        return 0
    n = _fact(k) // _fact(k - len(part))
    for v in set(part):
        n //= _fact(part.count(v))
    return n


# ---------------------------------------------------------------------------
# exact integrals
# ---------------------------------------------------------------------------


def _value_classes(part: Partition, m: int) -> list[tuple[int, int]]:
    """(value, count) classes of part padded with zeros to m slots."""
    cls: dict[int, int] = {}
    for v in part:
        cls[v] = cls.get(v, 0) + 1
    if m - len(part) > 0:
        cls[0] = m - len(part)
    return sorted(cls.items())


@lru_cache(maxsize=None)
def _pair_weight(m: int, nu: Partition, mu: Partition) -> int:
    """Sum over arrangement pairs (alpha of nu, beta of mu, m slots each) of
    prod_i (alpha_i + beta_i)!.

    Computed as N_nu * T where T fixes one arrangement of nu and distributes
    the nonzero parts of mu over its value classes (DP over classes); the
    zero class of mu absorbs the slack row by row.
    """
    if len(nu) > m or len(mu) > m:
        return 0
    rows = _value_classes(nu, m)
    cols = [(w, c) for (w, c) in _value_classes(mu, m) if w != 0]

    def rec(j: int, remaining: tuple[int, ...]) -> int:
        if j == len(rows):
            return 1 if all(x == 0 for x in remaining) else 0
        v, n = rows[j]
        total = 0

        def alloc(l: int, left: int, ways: int, acc: tuple[int, ...]):
            nonlocal total
            if l == len(cols):
                sub = rec(j + 1, tuple(r - a for r, a in zip(remaining, acc)))
                if sub:
                    weight = _fact(v) ** left  # slots paired with mu-zeros
                    for (w, _), a in zip(cols, acc):
                        weight *= _fact(v + w) ** a
                    total += (ways // _fact(left)) * weight * sub
                return
            for a in range(0, min(left, remaining[l]) + 1):
                alloc(l + 1, left - a, ways // _fact(a), acc + (a,))

        alloc(0, n, _fact(n), ())
        return total

    n_nu = _fact(m)
    for _, c in _value_classes(nu, m):
        n_nu //= _fact(c)
    return n_nu * rec(0, tuple(c for _, c in cols))


def pair_integral(m: int, nu: Partition, mu: Partition, c_pow: int = 0) -> Fraction:
    """Exact integral over R_m of (1 - sum t)^c_pow * m_nu * m_mu."""
    w = _pair_weight(m, nu, mu)
    return Fraction(w * _fact(c_pow), _fact(m + sum(nu) + sum(mu) + c_pow))


def _square_integral(terms: dict, m: int, symmetric: bool) -> Fraction:
    """Exact integral over R_m of (sum co * x^key * (1 - sum x)^c_pow)^2 for
    terms {(key, c_pow): co}. A symmetric key is a partition standing for
    m_key in m variables, paired by pair_integral; a dense key is an exponent
    tuple, paired by the Dirichlet formula."""
    total = Fraction(0)
    items = list(terms.items())
    for a, ((key1, c1), co1) in enumerate(items):
        for (key2, c2), co2 in items[a:]:
            cp = c1 + c2
            if symmetric:
                w = pair_integral(m, key1, key2, cp)
            else:
                num = _fact(cp)
                for e1, e2 in zip(key1, key2):
                    num *= _fact(e1 + e2)
                w = Fraction(num, _fact(m + sum(key1) + sum(key2) + cp))
            t = co1 * co2 * w
            total += t if (key1, c1) == (key2, c2) else 2 * t
    return total


def integral_I(f: SimplexPolynomial) -> Fraction:
    """Exact integral of F^2 over the simplex R_k."""
    terms = {(key, 0): c for key, c in f.coeffs}
    return _square_integral(terms, f.k, f.form == "symmetric")


def _inner_terms_dense(f: SimplexPolynomial, i: int):
    """Antiderivative in t_i evaluated at s = 1 - sum of the others:
    terms ((other exponents), c_pow, coeff) with c_pow >= 1."""
    out: dict[tuple, Fraction] = {}
    for exps, c in f.coeffs:
        rest = exps[:i] + exps[i + 1 :]
        key = (rest, exps[i] + 1)
        out[key] = out.get(key, Fraction(0)) + Fraction(c, exps[i] + 1)
    return out


def _inner_terms_symmetric(f: SimplexPolynomial):
    """Split off the first variable: terms ((partition over k-1 vars), c_pow,
    coeff). m_lam(t1..tk) = sum over distinct v>0 of t1^v m_{lam minus v}
    plus (if lam fits in k-1 slots) m_lam."""
    k = f.k
    out: dict[tuple, Fraction] = {}
    for lam, c in f.coeffs:
        if len(lam) <= k - 1:
            key = (lam, 1)
            out[key] = out.get(key, Fraction(0)) + c
        for v in set(lam):
            lst = list(lam)
            lst.remove(v)
            key = (tuple(lst), v + 1)
            out[key] = out.get(key, Fraction(0)) + Fraction(c, v + 1)
    return out


def integral_J(f: SimplexPolynomial, i: int = 1) -> Fraction:
    """Exact J_k^i(F): square of the t_i-section integral, integrated over
    the remaining k-1 variables (i is 1-indexed)."""
    if not 1 <= i <= f.k:
        raise ValueError(f"need 1 <= i <= k, got {i}")
    if f.form == "symmetric":
        terms = _inner_terms_symmetric(f)  # value independent of i
    else:
        terms = _inner_terms_dense(f, i - 1)
    return _square_integral(terms, f.k - 1, f.form == "symmetric")


def integral_J_sum(f: SimplexPolynomial) -> Fraction:
    """sum over i of J_k^i(F)."""
    if f.form == "symmetric":
        return f.k * integral_J(f, 1)
    return sum(integral_J(f, i) for i in range(1, f.k + 1))


@dataclass(frozen=True)
class RayleighResult:
    value: Fraction  # sum_i J^i / I, exact
    numerator: Fraction  # sum_i J^i(F)
    denominator: Fraction  # I(F)
    witness: SimplexPolynomial
    dropped: tuple[int, ...] = ()  # basis indices removed for dependence

    def to_json(self) -> dict:
        return {
            "value": {
                "numerator": str(self.value.numerator),
                "denominator": str(self.value.denominator),
            },
            "value_float": float(self.value),
            "numerator": str(self.numerator),
            "denominator": str(self.denominator),
            "witness_form": self.witness.form,
            "witness_terms": [
                [list(key), str(c)] for key, c in self.witness.coeffs
            ],
            "dropped_basis_indices": list(self.dropped),
        }


def rayleigh(f: SimplexPolynomial) -> RayleighResult:
    """Exact Rayleigh quotient of F; F must have nonzero I."""
    den = integral_I(f)
    if den == 0:
        raise ValueError("I(F) = 0: F vanishes on the simplex")
    num = integral_J_sum(f)
    return RayleighResult(num / den, num, den, f)


# ---------------------------------------------------------------------------
# optimizer over the (1 - P1)^a P2^b basis
# ---------------------------------------------------------------------------


def _mult_power_sum(poly: dict, r: int, k: int) -> dict:
    """Multiply an m-basis dict by p_r = sum t_i^r (integer coefficients)."""
    out: dict[Partition, int] = {}
    for lam, c in poly.items():
        vals = set(lam)
        if len(lam) < k:
            vals.add(0)
        for v in vals:
            if v == 0:
                mu = tuple(sorted(lam + (r,), reverse=True))
            else:
                lst = list(lam)
                lst.remove(v)
                lst.append(v + r)
                mu = tuple(sorted(lst, reverse=True))
            out[mu] = out.get(mu, 0) + c * mu.count(v + r)
    return {p: c for p, c in out.items() if c}


def symmetric_basis(k: int, degree: int) -> list[tuple[tuple[int, int], dict]]:
    """[( (a, b), m-basis dict of (1-P1)^a P2^b )] for a + 2b <= degree."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    basis = []
    one = {(): 1}
    for b in range(degree // 2 + 1):
        p2b = one
        for _ in range(b):
            p2b = _mult_power_sum(p2b, 2, k)
        cur = p2b
        powers = [p2b]
        for _ in range(degree - 2 * b):
            cur = _mult_power_sum(cur, 1, k)
            powers.append(cur)
        for a in range(degree - 2 * b + 1):
            elt: dict[Partition, int] = {}
            for j in range(a + 1):
                s = (-1) ** j * comb(a, j)
                for lam, c in powers[j].items():
                    elt[lam] = elt.get(lam, 0) + s * c
            basis.append(((a, b), {p: c for p, c in elt.items() if c}))
    return basis


def _partitions(n: int, largest: int):
    """Partitions of n into parts <= largest, as weakly decreasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _moment(k: int, a: int, b: int) -> Fraction:
    """Exact integral over R_k of (1 - P1)^a P2^b.

    P2^b expands multinomially into monomials t^(2 lam) with coefficient
    b!/prod lam_i!, grouped by exponent pattern lam (N_k(lam) arrangements);
    each integrates by the Dirichlet formula.
    """
    s = 0
    for lam in _partitions(b, b):
        term = _n_arrangements(lam, k) * _fact(b)
        for v in lam:
            term = term * _fact(2 * v) // _fact(v)
        s += term
    return Fraction(_fact(a) * s, _fact(k + a + 2 * b))


def _gram_matrices(k: int, labels) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Exact Gram matrices (I-form, sum-J-form) of the (1-P1)^a P2^b basis
    with the given (a, b) labels, in closed form (Maynard, arXiv:1311.4600, 8).

    I pairs two elements into one moment. For J, the t_1-section of
    (1-P1)^a P2^b is sum_j C(b,j) a!(2j)!/(a+2j+1)! (1-P1')^(a+2j+1) P2'^(b-j)
    in the other k-1 variables, so each J entry is a double sum of moments
    over R_{k-1}, times k for the k equal J^i.
    """
    sections = [
        [
            (
                comb(b, j) * Fraction(_fact(a) * _fact(2 * j), _fact(a + 2 * j + 1)),
                a + 2 * j + 1,
                b - j,
            )
            for j in range(b + 1)
        ]
        for a, b in labels
    ]
    n = len(labels)
    gram_i = [[Fraction(0)] * n for _ in range(n)]
    gram_j = [[Fraction(0)] * n for _ in range(n)]
    for u, (a, b) in enumerate(labels):
        for v in range(u, n):
            a2, b2 = labels[v]
            gram_i[u][v] = gram_i[v][u] = _moment(k, a + a2, b + b2)
            gram_j[u][v] = gram_j[v][u] = k * sum(
                c1 * c2 * _moment(k - 1, e1 + e2, f1 + f2)
                for c1, e1, f1 in sections[u]
                for c2, e2, f2 in sections[v]
            )
    return gram_i, gram_j


def _pow2_scale(fr: Fraction) -> Fraction:
    """2^-round(log2(fr)/2) as an exact rational, for diagonal rescaling."""
    if fr == 0:
        return Fraction(1)
    e = (fr.numerator.bit_length() - fr.denominator.bit_length()) // 2
    return Fraction(1, 2**e) if e >= 0 else Fraction(2 ** (-e))


# continued-fraction bound for the rationalized eigenvector's coefficients
WITNESS_DENOMINATOR_BOUND = 10**6


def optimize_rayleigh(k: int, basis_degree: int) -> RayleighResult:
    """Maximize the Rayleigh quotient over span{(1-P1)^a P2^b : a+2b <= degree}.

    Exact Gram matrices, a float64 generalized symmetric eigensolve for the
    search direction (after exact power-of-two diagonal rescaling), then the
    eigenvector is rationalized by continued fractions and the quotient is
    re-certified in exact arithmetic. The certified value is a true lower
    bound for M_k regardless of float behavior.
    """
    import numpy as np
    from scipy.linalg import eigh

    basis = symmetric_basis(k, basis_degree)
    gram_i, gram_j = _gram_matrices(k, [ab for ab, _ in basis])

    dropped: list[int] = []
    active = list(range(len(basis)))

    def scaled(gram, scales) -> np.ndarray:
        return np.array(
            [
                [float(gram[u][v] * su * sv) for v, sv in zip(active, scales)]
                for u, su in zip(active, scales)
            ]
        )

    while True:
        scales = [_pow2_scale(gram_i[u][u]) for u in active]
        a_mat = scaled(gram_j, scales)
        b_mat = scaled(gram_i, scales)
        try:
            eigvals, eigvecs = eigh(a_mat, b_mat)
            if np.isfinite(eigvals[-1]):
                break
        except np.linalg.LinAlgError:
            pass
        # numerically dependent basis: drop the element dominating the
        # smallest eigendirection of the I-Gram and retry
        w, v = np.linalg.eigh(b_mat)
        worst = int(np.argmax(np.abs(v[:, 0])))
        dropped.append(active[worst])
        del active[worst]
        if not active:
            raise ValueError("I-Gram singular for every basis subset")

    vec = eigvecs[:, -1]
    vec = vec / np.max(np.abs(vec))
    coeffs = [
        Fraction(float(x)).limit_denominator(WITNESS_DENOMINATOR_BOUND) * scales[iu]
        for iu, x in enumerate(vec)
    ]

    witness_terms: dict[Partition, Fraction] = {}
    for c, u in zip(coeffs, active):
        if c == 0:
            continue
        for lam, cc in basis[u][1].items():
            witness_terms[lam] = witness_terms.get(lam, Fraction(0)) + c * cc
    witness = SimplexPolynomial.from_symmetric(k, witness_terms)
    if witness.is_zero:
        raise ValueError("rationalized witness collapsed to zero")

    # exact re-certification via the Gram forms (bilinear, identical to
    # integral_I / integral_J_sum on the witness)
    num = Fraction(0)
    den = Fraction(0)
    for iu, u in enumerate(active):
        cu = coeffs[iu]
        if cu == 0:
            continue
        for iv, v in enumerate(active):
            cv = coeffs[iv]
            if cv == 0:
                continue
            num += cu * cv * gram_j[u][v]
            den += cu * cv * gram_i[u][v]
    if den <= 0:
        raise ValueError("certified I(F) not positive; optimization failed")
    return RayleighResult(num / den, num, den, witness, tuple(dropped))


# ---------------------------------------------------------------------------
# closed-form lower bound for M_k
# ---------------------------------------------------------------------------


def simplified_mk_bound(k: int) -> float:
    """log k - 2 log log k - 2, the clean lower bound for M_k (k >= 213
    makes it positive; it crosses zero between 212 and 213)."""
    if k < 16:
        raise ValueError("bound needs k >= 16")
    return math.log(k) - 2 * math.log(math.log(k)) - 2
