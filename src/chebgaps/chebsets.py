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


def _frob3(f0: int, f1: int, f2: int, p: int) -> tuple[int, int, int]:
    """x^p mod (x^3 + f2 x^2 + f1 x + f0) over Z/p, square-and-multiply.

    Specialized kernel: this is the inner loop of cubic splitting-type scans.
    """
    r2 = (f2 * f2 - f1) % p
    r1 = (f2 * f1 - f0) % p
    r0 = (f2 * f0) % p
    a0, a1, a2 = 0, 1, 0  # the polynomial x
    for bit in bin(p)[3:]:
        t0 = a0 * a0
        t1 = 2 * a0 * a1
        t2 = a1 * a1 + 2 * a0 * a2
        t3 = 2 * a1 * a2
        t4 = a2 * a2
        a0 = (t0 - t3 * f0 + t4 * r0) % p
        a1 = (t1 - t3 * f1 + t4 * r1) % p
        a2 = (t2 - t3 * f2 + t4 * r2) % p
        if bit == "1":
            a0, a1, a2 = (-a2 * f0) % p, (a0 - a2 * f1) % p, (a1 - a2 * f2) % p
    return a0, a1, a2


def _poly_pow_x(e: int, g: list[int], p: int) -> list[int]:
    """x^e mod (g, p) by binary exponentiation; g monic of degree >= 1."""
    if e == p and len(g) == 4 and g[3] == 1 and p > 2:
        a0, a1, a2 = _frob3(g[0], g[1], g[2], p)  # cubic hot path
        return _trim([a0, a1, a2])
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
    """Irreducibility over Q for monic integer f, complete for degree <= 4."""
    n = len(f) - 1
    if n == 1:
        return True
    # rational roots must be integer divisors of f(0)
    c0 = f[0]
    if c0 == 0:
        return False
    for d in range(1, abs(c0) + 1):
        if abs(c0) % d == 0:
            for r in (d, -d):
                if sum(c * r**i for i, c in enumerate(f)) == 0:
                    return False
    if n <= 3:
        return True
    if n == 4:
        # quadratic splits f = (x^2 + a x + b)(x^2 + cc x + d): b d = e0,
        # a + cc = e3, b + d + a cc = e2, a d + b cc = e1. For each (b, d)
        # pair, a and cc are the integer roots of t^2 - e3 t + (e2 - b - d).
        e3, e2, e1, e0 = f[3], f[2], f[1], f[0]
        divisors = [t for t in range(1, abs(e0) + 1) if e0 % t == 0]
        for b in sorted({t for t in divisors} | {-t for t in divisors}):
            d = e0 // b
            disc = e3 * e3 - 4 * (e2 - b - d)
            if disc < 0:
                continue
            s = math.isqrt(disc)
            if s * s != disc:
                continue
            for a in {(e3 + s) // 2, (e3 - s) // 2}:
                cc = e3 - a
                if (e3 + s) % 2 and (e3 - s) % 2:
                    continue
                if a + cc == e3 and b + d + a * cc == e2 and a * d + b * cc == e1:
                    return False
        return True
    return True  # degree > 4: only the rational-root screen above


# ---------------------------------------------------------------------------
# binary quadratic forms
# ---------------------------------------------------------------------------


def represents(a: int, b: int, c: int, p: int) -> bool:
    """Whether a x^2 + b x y + c y^2 = p has an integer solution.

    The form must be positive definite (a > 0, b^2 - 4ac < 0) and primitive.
    Exhaustive: y is bounded by 4ap/|D|, and for each y the x-equation is a
    quadratic with integer discriminant 4ap - |D| y^2.
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


# ---------------------------------------------------------------------------
# Ramanujan tau stream
# ---------------------------------------------------------------------------


def tau_mod_stream(d: int, limit: int) -> np.ndarray:
    """tau(n) mod d for 1 <= n <= limit, as an array indexed by n: int64 for
    d <= 2^31, Python ints in an object array above that.

    Delta = q prod (1-q^n)^24 = q * (eta-cube)^8 where the eta-cube series is
    sparse (Jacobi: sum (-1)^j (2j+1) q^{j(j+1)/2}), so eight sparse
    multiplications replace a dense power. Index 0 of the result is unused.
    """
    if not 2 <= d < 2**63:
        raise ValueError("modulus must be in [2, 2^63)")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    L = limit
    # int64 holds 2 (d-1)^2 only for d <= 2^31
    dtype = np.int64 if (d - 1) ** 2 * 2 < 2**63 else object
    cube = np.zeros(L, dtype=dtype)
    j = 0
    while j * (j + 1) // 2 < L:
        cube[j * (j + 1) // 2] = ((-1) ** j * (2 * j + 1)) % d
        j += 1
    idx = np.flatnonzero(cube)
    vals = cube[idx]
    mod_each = dtype is np.int64 and (d - 1) ** 2 * (len(idx) + 1) >= 2**63
    B = cube.copy()
    for _ in range(7):
        C = np.zeros(L, dtype=dtype)
        for e, c in zip(idx.tolist(), vals.tolist()):
            C[e:] += c * B[: L - e]
            if mod_each:
                C %= d
        B = C % d
    out = np.zeros(limit + 1, dtype=dtype)
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
        res = frozenset(int(r) % modulus for r in residues)
        if not res:
            raise ValueError("residue set must be non-empty")
        for r in res:
            if math.gcd(r, modulus) != 1:
                raise ValueError(f"residue {r} not coprime to modulus {modulus}")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "residues", res)
        object.__setattr__(self, "context", context)

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

    @property
    def form_discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_member(self, p: int) -> bool:
        if self.form_discriminant % p == 0 or self.context.discriminant % p == 0:
            return False
        return represents(self.a, self.b, self.c, p)

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
    """d[key] as an int (see _json_int) or, with kind=float, as a float; a
    bool, null, list or object raises ValueError, not TypeError, so the CLI
    reports it as bad input."""
    value = d[key]
    if kind is int:
        return _json_int(value, f"field {key!r}")
    if not isinstance(value, bool):
        try:
            return kind(value)
        except TypeError:
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


ALL_PRIMES_CONTEXT = GaloisContext(1, 1, 1, abelian_conductor=1)


def all_primes_spec() -> Congruence:
    """The full set of primes as a degenerate congruence spec (q = 1)."""
    return Congruence(1, {0}, ALL_PRIMES_CONTEXT)


# ---------------------------------------------------------------------------
# membership over prime arrays, densities
# ---------------------------------------------------------------------------


def members_in_segment(spec: ChebotarevSpec, primes: np.ndarray) -> np.ndarray:
    """Filter an ascending array of primes down to the spec's members.

    Congruence and stream specs vectorize; factorization and form specs loop
    with their specialized kernels.
    """
    if len(primes) == 0:
        return primes
    if isinstance(spec, Congruence):
        # residues are coprime to q, so no prime dividing q passes
        mask = np.isin(primes % spec.modulus, np.array(sorted(spec.residues)))
        return primes[mask]
    if isinstance(spec, NewformCongruence):
        s = spec._stream_upto(int(primes[-1]))
        mask = np.asarray(s[primes] % spec.d == spec.target)
        mask &= (spec.d % primes != 0) & (spec.level % primes != 0)
        return primes[mask]
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
