"""Chebotarev prime sets: decidable membership predicates and their statistics.

Four concrete families, all decidable prime-by-prime:

  Congruence          p = a mod q for a in a residue set S of (Z/q)*
  FactorizationType   splitting type of a fixed monic irreducible f mod p
  QuadFormRep         p represented by a positive definite binary quadratic form
  NewformCongruence   a_f(p) = r mod d for a supplied coefficient stream
                      (Ramanujan tau is computed natively for level 1)

Each spec carries Galois metadata (group order, class size, field discriminant)
supplied by the caller; the artifact never computes Galois groups itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import euler_phi
from .primes import iter_prime_segments


@dataclass(frozen=True)
class GaloisContext:
    """User-supplied Galois data: |G|, |C| (conjugacy-class size, so the set
    density is |C|/|G|), the field discriminant, and, for abelian cases
    realized inside a cyclotomic field, the conductor."""

    group_order: int
    class_size: int
    discriminant: int
    abelian_conductor: int | None = None

    def __post_init__(self):
        if self.group_order < 1:
            raise ValueError("group order must be >= 1")
        if not 1 <= self.class_size <= self.group_order:
            raise ValueError("need 1 <= class_size <= group_order")
        if self.discriminant == 0:
            raise ValueError("discriminant must be nonzero")
        if self.abelian_conductor is not None:
            q = self.abelian_conductor
            if q < 1:
                raise ValueError("conductor must be >= 1")
            if euler_phi(q) % self.group_order != 0:
                raise ValueError("group order must divide phi(conductor)")

    @property
    def density(self) -> Fraction:
        return Fraction(self.class_size, self.group_order)

    @property
    def is_abelian(self) -> bool:
        return self.abelian_conductor is not None

    def to_json(self) -> dict:
        return {
            "group_order": self.group_order,
            "class_size": self.class_size,
            "discriminant": self.discriminant,
            "abelian_conductor": self.abelian_conductor,
        }

    @classmethod
    def from_json(cls, d: dict) -> "GaloisContext":
        if not isinstance(d, dict):
            raise ValueError(f"a context must be a JSON object, got {d!r}")
        return cls(
            group_order=json_number(d, "group_order"),
            class_size=json_number(d, "class_size"),
            discriminant=json_number(d, "discriminant"),
            abelian_conductor=None
            if d.get("abelian_conductor") is None
            else json_number(d, "abelian_conductor"),
        )


# ---------------------------------------------------------------------------
# polynomial arithmetic mod p (dense coefficient lists, low to high)
# ---------------------------------------------------------------------------


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _polymod(a: list[int], g: list[int], p: int) -> list[int]:
    """a mod g over Z/p; g monic (leading coefficient 1 mod p)."""
    a = a[:]
    dg = len(g) - 1
    for i in range(len(a) - 1, dg - 1, -1):
        c = a[i] % p
        if c:
            base = i - dg
            for j in range(dg):
                a[base + j] = (a[base + j] - c * g[j]) % p
        a[i] = 0
    del a[dg:]
    return _trim(a)


def _polymulmod(a: list[int], b: list[int], g: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _polymod(out, g, p)


def _poly_pow_x(e: int, g: list[int], p: int) -> list[int]:
    """x^e mod (g, p) by binary exponentiation; g monic of degree >= 1."""
    acc = [1]
    base = _polymod([0, 1], g, p)
    while e:
        if e & 1:
            acc = _polymulmod(acc, base, g, p)
        e >>= 1
        if e:
            base = _polymulmod(base, base, g, p)
    return acc


def _polygcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim(a[:]), _trim(b[:])
    while b:
        inv = pow(b[-1], -1, p)
        bm = [(c * inv) % p for c in b]
        a = _polymod(a, bm, p)
        a, b = b, a
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def poly_discriminant(f: list[int] | tuple[int, ...]) -> int:
    """Discriminant of a monic integer polynomial via the Sylvester resultant."""
    return _poly_disc_cached(tuple(int(c) for c in f))


@lru_cache(maxsize=256)
def _poly_disc_cached(f: tuple[int, ...]) -> int:
    f = list(f)
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        raise ValueError("need a monic polynomial of degree >= 1")
    if n == 1:
        return 1
    df = [i * f[i] for i in range(1, n + 1)]
    m = n - 1  # degree of f'
    size = n + m
    rows = []
    for i in range(m):
        rows.append([0] * i + f[::-1] + [0] * (m - 1 - i))
    for i in range(n):
        rows.append([0] * i + df[::-1] + [0] * (n - 1 - i))
    res = _int_det([row[:size] for row in rows])
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res


def _int_det(mat: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in mat]
    n = len(m)
    prev = 1
    sign = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            for r in range(col + 1, n):
                if m[r][col] != 0:
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[-1][-1]


def factorization_type(f: list[int] | tuple[int, ...], p: int) -> tuple[int, ...]:
    """Degrees of the irreducible factors of f mod p, sorted ascending.

    Distinct-degree factorization: at stage i the factor
    gcd(x^{p^i} - x, g) collects everything of degree i. Requires p not
    dividing disc(f) so that f mod p is squarefree.
    """
    f = [int(c) for c in f]
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    if len(f) < 2 or f[-1] != 1:
        raise ValueError("need a monic polynomial of degree >= 1")
    if poly_discriminant(f) % p == 0:
        raise ValueError(f"p={p} divides disc(f); splitting type undefined")
    g = [c % p for c in f]
    degrees: list[int] = []
    i = 1
    while len(g) - 1 >= 1:
        dg = len(g) - 1
        if 2 * i > dg:
            degrees.append(dg)
            break
        xq = _poly_pow_x(p**i, g, p)
        # x^{p^i} - x
        diff = xq[:]
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        h = _polygcd(diff, g, p)
        dh = len(h) - 1
        if dh > 0:
            degrees.extend([i] * (dh // i))
            g = _polydiv_exact(g, h, p)
        i += 1
    return tuple(sorted(degrees))


def _polydiv_exact(a: list[int], b: list[int], p: int) -> list[int]:
    """a / b over Z/p where b | a exactly; both monic after normalization."""
    a = a[:]
    inv = pow(b[-1], -1, p)
    b = [(c * inv) % p for c in b]
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c:
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return _trim(q)


def _is_irreducible_q(f: list[int]) -> bool:
    """Irreducibility over Q of a monic integer f of any degree n: splitting types
    at a dozen primes rule out most factor degrees m <= n/2 (Musser's degree sets),
    and exact division by each product of m roots, rounded, settles the rest."""
    n, disc = len(f) - 1, poly_discriminant(f)
    if disc == 0:
        return False
    primes = (p for p in itertools.count(2) if disc % p and all(p % q for q in range(2, p)))
    sizes = set(range(1, n // 2 + 1))
    for p in itertools.islice(primes, 12):
        sums = {0}
        for d in factorization_type(f, p):
            sums |= {s + d for s in sums}
        if not (sizes := sizes & sums):
            return True
    import mpmath
    R = 1 + max(abs(c) for c in f[:-1])  # roots are R y with |y| <= 1
    bound = R * (2 * R) ** n  # an error e in y moves a factor's coefficients by < e * bound
    with mpmath.workprec(bound.bit_length() + 32):
        scaled = [mpmath.mpf(c) / R**k for k, c in enumerate(f[::-1])]  # f(R y) / R^n
        start = [mpmath.mpc(z) for z in np.roots(np.array(scaled, dtype=float))]
        try:  # refine the double-precision roots
            ys, err = mpmath.polyroots(scaled, 100 * n, extraprec=2 * n, error=True, roots_init=start)
        except mpmath.mp.NoConvergence as exc:
            raise ValueError(f"irreducibility of {f} undecided: no root convergence") from exc
        if err * bound >= 0.25:
            raise ValueError(f"irreducibility of {f} undecided: root error {err}")
        for m in sorted(sizes):
            for subset in itertools.combinations(ys, m):
                g = [mpmath.mpc(1)]
                for y in subset:
                    g = [a - R * y * b for a, b in zip([0, *g], [*g, 0])]
                g, rem = [int(mpmath.nint(c.real)) for c in g], f[:]
                for i in range(n - m, -1, -1):  # the right side is built before rem changes
                    rem[i : i + m + 1] = [c - rem[i + m] * b for c, b in zip(rem[i : i + m + 1], g)]
                if not any(rem):
                    return False
    return True


# ---------------------------------------------------------------------------
# binary quadratic forms
# ---------------------------------------------------------------------------


def _sqrt_mod(n: int, p: int) -> int:
    """A square root of the quadratic residue n mod the odd prime p
    (Tonelli-Shanks)."""
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _reduce_form(a: int, b: int, c: int) -> tuple[int, int, int]:
    """The reduced form properly equivalent to the positive definite
    (a, b, c): |b| <= a <= c, and b >= 0 when |b| = a or a = c (Cohen,
    GTM 138, Algorithm 5.4.2). Each proper class has exactly one."""
    D = b * b - 4 * a * c
    while True:
        b = (b + a - 1) % (2 * a) - a + 1  # -a < b <= a
        c = (b * b - D) // (4 * a)
        if a <= c:
            break
        a, b = c, -b
    if a == c and b < 0:
        b = -b
    return a, b, c


def _prime_form(D: int, p: int) -> tuple[int, int, int] | None:
    """The reduced form of (p, b, (b^2 - D)/4p) with b^2 = D mod 4p, for a
    prime p not dividing D; None when D is not a square mod 4p, that is when
    no form of discriminant D represents p. The other root -b gives the
    inverse class."""
    if p == 2:
        b = 1  # D is odd
    else:
        if pow(D, (p - 1) // 2, p) != 1:
            return None
        b = _sqrt_mod(D % p, p)
        if (b - D) % 2:
            b = p - b
    if (b * b - D) % (4 * p):
        return None
    return _reduce_form(p, b, (b * b - D) // (4 * p))


# ---------------------------------------------------------------------------
# Ramanujan tau stream
# ---------------------------------------------------------------------------


def tau_mod_stream(d: int, limit: int) -> np.ndarray:
    """tau(n) mod d for 1 <= n <= limit, as an array indexed by n: int64 for
    d <= 2^31, Python ints in an object array above that.

    Delta = q prod (1-q^n)^24 = q * (eta-cube)^8 where the eta-cube series is
    sparse (Jacobi: sum (-1)^j (2j+1) q^{j(j+1)/2}), so eight sparse
    multiplications replace a dense power. Index 0 of the result is unused.

    Each multiplication adds one product of residues per nonzero eta-cube
    term, so it accumulates in the narrowest type that holds the sum
    exactly: int32 while (d-1)^2 (terms + 1) < 2^31, then int64 while it is
    below 2^63, then int64 reduced mod d after every term while 2 (d-1)^2
    fits, and Python ints beyond that. Each term is multiplied into one
    reused buffer. tau mod 691 to 10^5 (447 terms, int32) takes about 0.09 s
    on a 2-core Xeon VM, against 0.2 s accumulated in int64.
    """
    if not 2 <= d < 2**63:
        raise ValueError("modulus must be in [2, 2^63)")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    L = limit
    terms = []  # (exponent, coefficient mod d) of the nonzero eta-cube terms
    j = 0
    while j * (j + 1) // 2 < L:
        c = ((-1) ** j * (2 * j + 1)) % d
        if c:
            terms.append((j * (j + 1) // 2, c))
        j += 1
    if (d - 1) ** 2 * (len(terms) + 1) < 2**31:
        dtype = np.int32
    elif (d - 1) ** 2 * 2 < 2**63:
        dtype = np.int64
    else:
        dtype = object
    mod_each = dtype is np.int64 and (d - 1) ** 2 * (len(terms) + 1) >= 2**63
    B = np.zeros(L, dtype=dtype)  # the eta cube, then its powers mod d
    for e, c in terms:
        B[e] = c
    scratch = np.empty(L, dtype=dtype)
    for _ in range(7):
        C = np.zeros(L, dtype=dtype)
        for e, c in terms:
            term = np.multiply(B[: L - e], c, out=scratch[: L - e])
            C[e:] += term
            if mod_each:
                C %= d
        B = C % d
    out = np.zeros(limit + 1, dtype=np.int64 if dtype is np.int32 else dtype)
    out[1:] = B
    return out


# ---------------------------------------------------------------------------
# spec variants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChebotarevSpec:
    context: GaloisContext

    def is_member(self, p: int) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def spec_id(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def to_json(self) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class Congruence(ChebotarevSpec):
    """Primes p with p mod q in a fixed subset of (Z/q)*."""

    modulus: int
    residues: frozenset[int]

    def __init__(self, modulus: int, residues, context: GaloisContext):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        if modulus >= 2**63:
            raise ValueError("modulus must be < 2^63")
        res = frozenset(int(r) % modulus for r in residues)
        if not res:
            raise ValueError("residue set must be non-empty")
        for r in res:
            if math.gcd(r, modulus) != 1:
                raise ValueError(f"residue {r} not coprime to modulus {modulus}")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "residues", res)
        object.__setattr__(self, "context", context)
        # members_in_segment's lookup table, built once and kept out of equality
        table = np.array(sorted(res), dtype=np.int64)
        table.setflags(write=False)
        object.__setattr__(self, "_sorted_residues", table)

    def is_member(self, p: int) -> bool:
        if p > 1 and self.modulus % p == 0:
            return False  # ramified / excluded
        return p % self.modulus in self.residues

    @property
    def spec_id(self) -> str:
        return f"congruence_q{self.modulus}_" + "-".join(
            str(r) for r in sorted(self.residues)
        )

    def to_json(self) -> dict:
        return {
            "variant": "congruence",
            "modulus": self.modulus,
            "residues": sorted(self.residues),
            "context": self.context.to_json(),
        }


@dataclass(frozen=True)
class FactorizationType(ChebotarevSpec):
    """Primes where a fixed monic irreducible f splits with a given type."""

    poly: tuple[int, ...]
    cycle_type: tuple[int, ...]

    def __init__(self, poly, cycle_type, context: GaloisContext):
        f = tuple(int(c) for c in poly)
        if len(f) < 2 or f[-1] != 1:
            raise ValueError("polynomial must be monic of degree >= 1")
        if not _is_irreducible_q(list(f)):
            raise ValueError("polynomial must be irreducible over Q")
        ct = tuple(sorted(int(d) for d in cycle_type))
        if any(d < 1 for d in ct) or sum(ct) != len(f) - 1:
            raise ValueError("cycle type must be positive degrees summing to deg f")
        object.__setattr__(self, "poly", f)
        object.__setattr__(self, "cycle_type", ct)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "_disc", poly_discriminant(list(f)))

    @property
    def poly_discriminant(self) -> int:
        return self._disc

    def is_member(self, p: int) -> bool:
        if self._disc % p == 0 or self.context.discriminant % p == 0:
            return False
        return factorization_type(list(self.poly), p) == self.cycle_type

    @property
    def spec_id(self) -> str:
        coeffs = "_".join(str(c) for c in self.poly)
        ct = "-".join(str(d) for d in self.cycle_type)
        return f"facttype_f{coeffs}_t{ct}"

    def to_json(self) -> dict:
        return {
            "variant": "factorization_type",
            "poly": list(self.poly),
            "cycle_type": list(self.cycle_type),
            "context": self.context.to_json(),
        }


@dataclass(frozen=True)
class QuadFormRep(ChebotarevSpec):
    """Primes represented by a positive definite binary quadratic form."""

    a: int
    b: int
    c: int

    def __init__(self, a: int, b: int, c: int, context: GaloisContext):
        D = b * b - 4 * a * c
        if a <= 0 or D >= 0:
            raise ValueError("form must be positive definite")
        if math.gcd(math.gcd(a, b), c) != 1:
            raise ValueError("form must be primitive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "context", context)
        # a prime is represented by the form iff its prime form lies in the
        # class of the form or of its inverse
        reduced = _reduce_form(a, b, c)
        classes = {reduced, _reduce_form(a, -b, c)}
        object.__setattr__(self, "_classes", frozenset(classes))
        object.__setattr__(self, "_reduced", reduced)

    @property
    def form_discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_member(self, p: int) -> bool:
        if self.form_discriminant % p == 0 or self.context.discriminant % p == 0:
            return False
        return _prime_form(self.form_discriminant, p) in self._classes

    @property
    def spec_id(self) -> str:
        return f"quadform_{self.a}_{self.b}_{self.c}"

    def to_json(self) -> dict:
        return {
            "variant": "quad_form",
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "context": self.context.to_json(),
        }


@dataclass(frozen=True)
class NewformCongruence(ChebotarevSpec):
    """Primes with a_f(p) = target mod d for a weight-k newform of some level.

    Only the level-1 form Delta (Ramanujan tau) is computed natively; other
    levels need a caller-attached coefficient stream (stream[n] = a_f(n) mod d).
    """

    d: int
    target: int
    level: int
    stream: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __init__(self, d: int, target: int, level: int, context: GaloisContext,
                 stream=None):
        if d < 2:
            raise ValueError("modulus d must be >= 2 (d = 1 is trivial)")
        if level < 1:
            raise ValueError("level must be >= 1")
        if max(d, level) >= 2**63:
            raise ValueError("d and level must be < 2^63")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "target", int(target) % d)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "stream", None if stream is None else np.asarray(stream))

    def _stream_upto(self, n: int) -> np.ndarray:
        if self.stream is not None:
            if len(self.stream) <= n:
                raise ValueError(
                    f"attached coefficient stream covers n < {len(self.stream)}, "
                    f"need {n}"
                )
            return self.stream
        if self.level != 1:
            raise ValueError("no native stream for level != 1; attach one")
        cached = getattr(self, "_tau_cache", ())
        if len(cached) <= n:
            # at least double the cached prefix, so repeated growth stays linear
            cached = tau_mod_stream(self.d, max(n + 1, 2 * len(cached), 1024))
            object.__setattr__(self, "_tau_cache", cached)
        return cached

    def is_member(self, p: int) -> bool:
        if p > 1 and (self.d % p == 0 or self.level % p == 0):
            return False
        s = self._stream_upto(p)
        return int(s[p]) % self.d == self.target

    @property
    def spec_id(self) -> str:
        return f"newform_d{self.d}_r{self.target}_N{self.level}"

    def to_json(self) -> dict:
        return {
            "variant": "newform_congruence",
            "d": self.d,
            "target": self.target,
            "level": self.level,
            "context": self.context.to_json(),
        }


def json_list(d: dict, key: str) -> list:
    """d[key], which must be a JSON list."""
    value = d[key]
    if not isinstance(value, list):
        raise ValueError(f"field {key!r} must be a JSON list, got {value!r}")
    return value


def _json_int(value, what: str) -> int:
    """value as an int: a JSON integer, or a float with an integral value so
    that 1e6 reads as 10^6. A bool, fraction, string, null, list or object
    raises ValueError."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"{what} must be a number with an integer value, got {value!r}")


def json_int_list(d: dict, key: str) -> list[int]:
    """d[key], a JSON list whose entries all pass the integer check."""
    return [_json_int(v, f"each {key!r} entry") for v in json_list(d, key)]


def json_number(d: dict, key: str, kind=int):
    """d[key] as an int (see _json_int) or, with kind=float, as a float from
    a JSON integer or float; a bool, string, null, list or object raises
    ValueError, not TypeError, so the CLI reports it as bad input."""
    value = d[key]
    if kind is int:
        return _json_int(value, f"field {key!r}")
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"field {key!r} must be a number, got {value!r}")


def spec_from_json(d: dict) -> ChebotarevSpec:
    if not isinstance(d, dict) or not isinstance(d.get("context"), dict):
        raise ValueError("a spec must be a JSON object with a 'context' object")
    ctx = GaloisContext.from_json(d["context"])
    variant = d["variant"]
    if variant == "congruence":
        return Congruence(json_number(d, "modulus"), json_int_list(d, "residues"), ctx)
    if variant == "factorization_type":
        return FactorizationType(
            json_int_list(d, "poly"), json_int_list(d, "cycle_type"), ctx
        )
    if variant == "quad_form":
        a, b, c = (json_number(d, key) for key in ("a", "b", "c"))
        return QuadFormRep(a, b, c, ctx)
    if variant == "newform_congruence":
        dd, target, level = (json_number(d, key) for key in ("d", "target", "level"))
        return NewformCongruence(dd, target, level, ctx)
    raise ValueError(f"unknown spec variant: {variant!r}")


# ---------------------------------------------------------------------------
# membership over prime arrays, densities
# ---------------------------------------------------------------------------


# The batch kernels keep residues mod p in int64 and multiply two of them, so
# a product stays below 2^62 only for p < 2^31. NumPy array arithmetic wraps
# silently on int64 overflow: it raises no RuntimeWarning (only scalar
# arithmetic does), so treating warnings as errors would not catch it, and
# the cut has to be explicit.
_BATCH_PRIME_LIMIT = 2**31
# primes per kernel call, so the (degree, degree, block) work arrays stay
# small however long the segment is
_BLOCK = 4096
# the quadratic-form walk marks at most one segment width of values at a
# time, building its points _FORM_CHUNK at a time. It is taken where its rows
# and points number fewer than _LOOP_COST per prime checked: one is_member
# call costs as much as 300 to 1,600 of them (forms with |D| from 4 to 299,
# p from 2 to 10^11, on a 2-core Xeon VM)
_FORM_WINDOW = 1 << 20
_FORM_CHUNK = 1 << 13
_LOOP_COST = 200


def _residues(value: int, primes: np.ndarray) -> np.ndarray:
    """value mod each prime, for a Python int of any size."""
    if -(2**62) < value < 2**62:
        return value % primes
    return (value % primes.astype(object)).astype(np.int64)


def _powmod(base: np.ndarray, exps: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """base ** exps mod primes elementwise, left-to-right over the bits."""
    out = np.ones_like(primes)
    for i in range(int(exps.max()).bit_length() - 1, -1, -1):
        out = out * out % primes
        out = np.where((exps >> i) & 1 == 1, out * base % primes, out)
    return out


def _frobenius_mask(spec: FactorizationType, primes: np.ndarray) -> np.ndarray:
    """is_member for odd primes p < 2^31 and deg f <= 5, all at once.

    h = x^p mod (f, p) by square-and-multiply over the bits of p; then the
    order of Frobenius on F_p[x]/(f), the least k with x^(p^k) = x, is the lcm
    of the factor degrees, and by Stickelberger's theorem the Legendre
    symbol (disc f / p) is (-1)^(deg f - number of factors). For
    deg f <= 5 the pair fixes the cycle type. Polynomials are (deg f, len p)
    arrays of coefficients, low to high.
    """
    n = len(spec.poly) - 1
    f = np.stack([_residues(c, primes) for c in spec.poly[:n]])

    def times_x(v):
        out = np.empty_like(v)
        out[0] = 0
        out[1:] = v[:-1]
        out -= v[-1] * f  # x^n = -(f_0 + ... + f_{n-1} x^{n-1})
        return out % primes

    def mulmod(u, v):
        acc = u[0] * v % primes
        for i in range(1, n):
            v = times_x(v)
            acc += u[i] * v % primes
        return acc % primes

    one = np.zeros((n, len(primes)), dtype=np.int64)
    one[0] = 1
    x = times_x(one)
    h = one
    for i in range(int(primes.max()).bit_length() - 1, -1, -1):
        h = mulmod(h, h)
        h = np.where((primes >> i) & 1 == 1, times_x(h), h)
    # column j of Frobenius on the basis 1, x, ..., x^(n-1) is h^j
    cols = [one, h]
    while len(cols) < n:
        cols.append(mulmod(cols[-1], h))
    order = math.lcm(*spec.cycle_type)
    fixed_earlier = np.zeros(len(primes), dtype=bool)
    v = h  # x^(p^k), k = 1, 2, ...
    for _ in range(order - 1):
        fixed_earlier |= (v == x).all(axis=0)
        v = sum(v[j] * cols[j] % primes for j in range(n)) % primes
    disc = _residues(spec.poly_discriminant, primes)
    sign = 1 if (n - len(spec.cycle_type)) % 2 == 0 else -1
    legendre = _powmod(disc, (primes - 1) // 2, primes)
    mask = (v == x).all(axis=0) & ~fixed_earlier & (legendre == sign % primes)
    return mask & (disc != 0) & (_residues(spec.context.discriminant, primes) != 0)


def _isqrt(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) for int64 n in [0, 2^62): the float root is within one
    of it, and one step each way makes it exact."""
    s = np.sqrt(n.astype(np.float64)).astype(np.int64)
    s -= s * s > n
    s += (s + 1) * (s + 1) <= n
    return s


def _form_values(spec: QuadFormRep, lo: int, hi: int, budget: float) -> np.ndarray | None:
    """A mask over [lo, hi) of the integers the form represents, or None when
    the walk could overflow int64 or costs more than budget rows and points.

    Equivalent forms represent the same integers, so the walk takes the
    reduced form (a, b, c), |b| <= a <= c, whose rows are fewest. Since
    4a f(x, y) = u^2 + |D| y^2 with u = 2ax + by, and f(-x, -y) = f(x, y),
    row y >= 0 holds the values with u^2 in [4a lo - |D| y^2, 4a (hi - 1) -
    |D| y^2] on both signs of u, and y^2 <= 4a (hi - 1)/|D|. When by = 0
    mod a, the u < 0 side of a row repeats the values of its u > 0 side.
    Each row is an interval of x; the points are built in chunks of about
    _FORM_CHUNK, and every intermediate stays below 3 hi.
    """
    a, b, c = spec._reduced
    absD = 4 * a * c - b * b
    top = 4 * a * (hi - 1)
    ymax = math.isqrt(top // absD)
    if top >= 2**62 or absD >= 2**62:
        return None
    if ymax + 1 + math.pi * (hi - lo) / math.sqrt(absD) > budget:
        return None
    m = 2 * a
    y = np.arange(ymax + 1, dtype=np.int64)
    dy = absD * y * y
    umax = _isqrt(top - dy)
    low = np.maximum(4 * a * lo - dy, 0)
    umin = _isqrt(low)
    umin += umin * umin < low
    by = b * y
    both = by % a != 0
    # per row interval: first x = ceil((u_first - by) / m), last x = floor((u_last - by) / m)
    first = np.concatenate((-((by - umin) // m), -((by + umax)[both] // m)))
    last = np.concatenate(((umax - by) // m, (-umin - by)[both] // m))
    y = np.concatenate((y, y[both]))
    count = np.maximum(last - first + 1, 0)
    rows = np.flatnonzero(count)
    first, count, by, rest = first[rows], count[rows], b * y[rows], c * y[rows] ** 2 - lo
    ends = np.cumsum(count)
    mask = np.zeros(hi - lo, dtype=bool)
    start = 0
    while start < len(rows):
        # a row holds at most sqrt(2^20 / a) + 1 points, so a chunk stays small
        done = ends[start] - count[start]
        stop = max(int(np.searchsorted(ends, done + _FORM_CHUNK, "right")), start + 1)
        n = count[start:stop]
        before = ends[start:stop] - n - done  # the chunk's points before each row
        x = np.arange(ends[stop - 1] - done) + np.repeat(first[start:stop] - before, n)
        v = a * x
        v += np.repeat(by[start:stop], n)
        v *= x
        v += np.repeat(rest[start:stop], n)
        mask[v] = True
        start = stop
    return mask


def _form_mask(spec: QuadFormRep, primes: np.ndarray) -> np.ndarray:
    """is_member over an ascending array of primes. Each window of at most
    _FORM_WINDOW integers from the next unchecked prime is marked by
    _form_values when the walk costs less than _LOOP_COST points per prime
    it checks, else looped over is_member; windows holding no prime are
    never visited, so a sparse array spanning [N, 2N] costs what its primes
    do."""
    mask = np.zeros(len(primes), dtype=bool)
    i = 0
    while i < len(primes):
        lo = int(primes[i])
        j = int(np.searchsorted(primes, lo + _FORM_WINDOW))
        hi = int(primes[j - 1]) + 1
        marked = _form_values(spec, lo, hi, _LOOP_COST * (j - i))
        if marked is None:
            mask[i:j] = [spec.is_member(p) for p in primes[i:j].tolist()]
        else:
            mask[i:j] = marked[primes[i:j] - lo]
        i = j
    # a prime dividing D or the context discriminant is not a member
    for d in (spec.form_discriminant, spec.context.discriminant):
        mask &= _residues(d, primes) != 0
    return mask


def members_in_segment(spec: ChebotarevSpec, primes: np.ndarray) -> np.ndarray:
    """Filter an ascending array of primes down to the spec's members.

    Congruence and stream specs vectorize. Factorization specs of degree
    <= 5 run the batch Frobenius kernel on the odd primes below 2^31, in
    blocks of _BLOCK primes; p = 2, p >= 2^31 and higher degrees loop over
    is_member. Quadratic-form specs mark the form's values window by window
    (_form_mask), and loop over is_member, which decides a form by
    reduction in O(log p) steps, where that walk would cost more.
    """
    if len(primes) == 0:
        return primes
    if isinstance(spec, Congruence):
        # residues are coprime to q, so no prime dividing q passes
        res = spec._sorted_residues
        r = primes % spec.modulus
        return primes[res.take(np.searchsorted(res, r), mode="clip") == r]
    if isinstance(spec, NewformCongruence):
        s = spec._stream_upto(int(primes[-1]))
        mask = np.asarray(s[primes] % spec.d == spec.target)
        mask &= (spec.d % primes != 0) & (spec.level % primes != 0)
        return primes[mask]
    if isinstance(spec, FactorizationType) and len(spec.poly) <= 6:
        lo, hi = np.searchsorted(primes, [3, _BATCH_PRIME_LIMIT]).tolist()
        mask = np.zeros(len(primes), dtype=bool)
        for start in range(lo, hi, _BLOCK):
            stop = min(start + _BLOCK, hi)
            mask[start:stop] = _frobenius_mask(spec, primes[start:stop])
        for i in [*range(lo), *range(hi, len(primes))]:
            mask[i] = spec.is_member(int(primes[i]))
        return primes[mask]
    if isinstance(spec, QuadFormRep):
        return primes[_form_mask(spec, primes)]
    return np.array([p for p in primes.tolist() if spec.is_member(p)], dtype=np.int64)


def empirical_density(spec: ChebotarevSpec, x_limit: int) -> Fraction:
    """#(members <= x) / pi(x), exact."""
    if x_limit < 2:
        raise ValueError("x_limit must be >= 2")
    total = 0
    members = 0
    for seg in iter_prime_segments(2, x_limit + 1):
        total += len(seg)
        members += len(members_in_segment(spec, seg))
    if total == 0:
        raise ValueError("no primes below x_limit")
    return Fraction(members, total)
