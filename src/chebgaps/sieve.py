"""Desk-scale multidimensional Selberg sieve.

The objects: an admissible tuple H = {h_1 < ... < h_k}, a pre-sieve modulus
W = prod_{p <= D0} p, the reduced modulus U = W / rad(|D|), a residue u0 with
gcd(prod_i (u0 + h_i), U) = 1, and the cutoff R = N^(theta/2 - eps). Weights

    lambda_{d_1..d_k} = (prod mu(d_i) d_i) *
        sum_{r_i : d_i | r_i, (r_i, W) = 1} mu(prod r_i)^2 / prod phi(r_i)
            * F(log r_1 / log R, ..., log r_k / log R)

are supported on squarefree d = prod d_i < R with (d, W) = 1, and

    w_n = (sum_{d_i | n + h_i} lambda_{d_1..d_k})^2
    S1  = sum of w_n over n = u0 mod U in [N, 2N)
    S2  = sum_m sum_n chi_P(n + h_m) w_n
    S   = S2 - rho * S1

everything in exact rational arithmetic so independent enumerators can be
compared bit for bit. F is evaluated at Fraction images of the float logs;
the floats are exact rationals, so any two enumerators using this convention
agree exactly.

Scale warning: this is a demonstration sieve. The per-n enumeration is
feasible for N up to ~10^7 and k up to ~4 (perfbench's k = 2 demo config at
N = 10^7 takes about 5 s and 87 MB on a 2-core Xeon VM); the asymptotic
statements it is compared against only kick in far beyond that, so
predicted/observed ratios are loose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .admissible import Tuple, is_admissible
from .arith import crt, euler_phi, is_squarefree, mobius, prime_divisors, rad
from .chebsets import (
    ChebotarevSpec,
    GaloisContext,
    json_int_list,
    json_list,
    json_number,
    spec_from_json,
)
from .primes import PrimeTable, primorial_below, sieve_range
from .variational import SimplexPolynomial, integral_I, integral_J_sum


def default_d0(n: int) -> float:
    """The asymptotic choice log log log n; below 1 for every feasible n,
    which is why runs override it."""
    if n <= 16:  # log log log needs n > e^e
        raise ValueError("d0 formula needs n > e^e; pass an override")
    return math.log(math.log(math.log(n)))


@dataclass(frozen=True)
class SieveConfig:
    n_start: int
    k: int
    tuple: Tuple
    theta: float
    epsilon: float
    d0: float
    w_modulus: int
    u_modulus: int
    u0: int
    r_limit: float
    f: SimplexPolynomial
    context: GaloisContext

    def __post_init__(self):
        if self.k != self.tuple.k:
            raise ValueError("k disagrees with the tuple length")
        if self.f.k != self.k:
            raise ValueError("F must live on the k-simplex")
        if self.w_modulus % self.u_modulus:
            raise ValueError("U must divide W")
        rd = rad(abs(self.context.discriminant))
        if self.u_modulus * rd != self.w_modulus:
            raise ValueError("U != W / rad(|discriminant|)")
        prod = 1
        for h in self.tuple:
            prod *= self.u0 + h
        if math.gcd(prod, self.u_modulus) != 1:
            raise ValueError("u0 + h_i shares a factor with U")
        expected = self.n_start ** (self.theta / 2 - self.epsilon)
        if not math.isclose(self.r_limit, expected, rel_tol=1e-12):
            raise ValueError("r_limit != n_start^(theta/2 - epsilon)")

    def to_json(self) -> dict:
        return {
            "n_start": self.n_start,
            "k": self.k,
            "tuple": list(self.tuple),
            "theta": self.theta,
            "epsilon": self.epsilon,
            "d0": self.d0,
            "f": [[list(part), str(c)] for part, c in self.f.coeffs],
            "context": self.context.to_json(),
        }


def build_config(
    n_start: int,
    k: int,
    tup: Tuple,
    context: GaloisContext,
    theta: float,
    epsilon: float,
    f: SimplexPolynomial | None = None,
    d0_override: float | None = None,
) -> SieveConfig:
    """Assemble and validate a sieve run.

    u0 is built prime by prime: for each p | U take the least residue u_p
    with u_p + h_i nonzero mod p for every i (admissibility guarantees one
    exists), then recombine by the Chinese remainder theorem.
    """
    if n_start < 2:
        raise ValueError("n_start must be >= 2")
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    if not 0 < epsilon < theta / 2:
        raise ValueError("epsilon must lie in (0, theta/2)")
    if not is_admissible(tup):
        raise ValueError(f"tuple {list(tup)} is not admissible")
    if tup.k != k:
        raise ValueError("k disagrees with the tuple length")
    d0 = default_d0(n_start) if d0_override is None else float(d0_override)
    w = primorial_below(d0) if d0 >= 2 else 1
    delta_abs = abs(context.discriminant)
    for p in prime_divisors(delta_abs):
        if p > d0:
            raise ValueError(
                f"prime {p} of the discriminant exceeds D0 = {d0}; "
                "U = W/rad(D) would not be integral"
            )
    u = w // rad(delta_abs)
    residues, moduli = [], []
    for p in prime_divisors(u):
        banned = {(-h) % p for h in tup}
        u_p = next(r for r in range(p) if r not in banned)
        residues.append(u_p)
        moduli.append(p)
    u0 = crt(residues, moduli) if moduli else 0
    if f is None:
        f = SimplexPolynomial.from_symmetric(k, {(): 1, (1,): -1})  # 1 - P1
    r_limit = n_start ** (theta / 2 - epsilon)
    return SieveConfig(
        n_start=n_start,
        k=k,
        tuple=tup,
        theta=theta,
        epsilon=epsilon,
        d0=d0,
        w_modulus=w,
        u_modulus=u,
        u0=u0,
        r_limit=r_limit,
        f=f,
        context=context,
    )


def tuple_determinant(tup: Tuple) -> int:
    """prod over ordered pairs i != j of (h_i - h_j); the quantity whose
    prime factors the nonzero lambda support must avoid."""
    hs = list(tup)
    det = 1
    for i, hi in enumerate(hs):
        for j, hj in enumerate(hs):
            if i != j:
                det *= hi - hj
    return det


# ---------------------------------------------------------------------------
# lambda weights
# ---------------------------------------------------------------------------


def _log_fraction(x: int, log_r: Fraction) -> Fraction:
    # float logs are exact rationals; every enumerator shares this convention
    return Fraction(math.log(x)) / log_r if x > 1 else Fraction(0)


def lambda_weight(d_vec, cfg: SieveConfig) -> Fraction:
    """Exact lambda for one divisor vector; 0 off the support."""
    d_vec = tuple(int(d) for d in d_vec)
    if len(d_vec) != cfg.k:
        raise ValueError(f"need a {cfg.k}-vector")
    if any(d < 1 for d in d_vec):
        raise ValueError("divisors must be positive")
    d = math.prod(d_vec)
    if d >= cfg.r_limit or not is_squarefree(d) or math.gcd(d, cfg.w_modulus) != 1:
        return Fraction(0)
    sign = 1
    for di in d_vec:
        sign *= mobius(di) * di
    log_r = Fraction(math.log(cfg.r_limit))
    total = Fraction(0)

    def rec(i: int, prod: int, phis: int, args: tuple):
        nonlocal total
        if i == cfg.k:
            val = cfg.f.evaluate(args)
            if val:
                total += Fraction(1, phis) * val
            return
        di = d_vec[i]
        r = di
        while prod * r < cfg.r_limit:
            if (
                is_squarefree(r)
                and math.gcd(r, cfg.w_modulus) == 1
                and math.gcd(r, prod) == 1
            ):
                rec(i + 1, prod * r, phis * euler_phi(r), args + (_log_fraction(r, log_r),))
            r += di
        return

    rec(0, 1, 1, ())
    return sign * total


def support_d_vectors(cfg: SieveConfig) -> list[tuple[int, ...]]:
    """Every d-vector that can carry a nonzero lambda: squarefree pairwise
    coprime components, product < R, coprime to W."""
    r_cap = math.ceil(cfg.r_limit)
    singles = [
        d
        for d in range(1, r_cap + 1)
        if d < cfg.r_limit and is_squarefree(d) and math.gcd(d, cfg.w_modulus) == 1
    ]
    out: list[tuple[int, ...]] = []

    def rec(i: int, prod: int, acc: tuple):
        if i == cfg.k:
            out.append(acc)
            return
        for d in singles:
            if prod * d >= cfg.r_limit:
                break
            if math.gcd(d, prod) == 1:
                rec(i + 1, prod * d, acc + (d,))

    rec(0, 1, ())
    return out


def lambda_table(cfg: SieveConfig) -> dict[tuple[int, ...], Fraction]:
    """Sequential pre-pass: lambda on the whole support, keyed by d-vector."""
    return {d: lambda_weight(d, cfg) for d in support_d_vectors(cfg)}


# ---------------------------------------------------------------------------
# weight table and the sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightTable:
    entries: dict  # n -> w_n, exact Fraction
    # [cfg, spec, hit counts] of the last membership pass over this table, so
    # that one pass serves both sum_s2 and s_functional's window list
    _last_pass: list = field(default_factory=list, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.entries)


def _divisor_candidates(m: int, sieving: list[int], r_limit: float) -> tuple[int, ...]:
    # squarefree divisors of m below R built from the sieving primes; the
    # order is fixed by the sieving list, so equal sets give equal tuples
    divs = [1]
    for p in sieving:
        if m % p == 0:
            divs += [d * p for d in divs if d * p < r_limit]
    return tuple(divs)


def weight_table(cfg: SieveConfig) -> WeightTable:
    """w_n over n = u0 mod U in [N, 2N).

    A support divisor d_i | n + h_i is squarefree, below R and coprime to W,
    so it is built only from the sieving primes p < R with p not dividing W,
    listed once per call; each n + h_i is tested against those primes alone,
    and nothing is factored. w_n is the square of the sum of lambda over the
    support vectors in the product of the k candidate lists, so it depends
    only on that tuple of lists (the divisor pattern of n): it is computed
    once per pattern, and entries with the same pattern share one Fraction.
    """
    lams = lambda_table(cfg)
    sieving = [p for p in sieve_range(0, math.ceil(cfg.r_limit)) if cfg.w_modulus % p]
    hs = list(cfg.tuple)
    u = cfg.u_modulus
    first = cfg.n_start + (cfg.u0 - cfg.n_start) % u
    by_pattern: dict = {}
    entries = {}
    for n in range(first, 2 * cfg.n_start, u):
        cands = tuple(_divisor_candidates(n + h, sieving, cfg.r_limit) for h in hs)
        w = by_pattern.get(cands)
        if w is None:
            acc = sum((lams[dv] for dv in product(*cands) if dv in lams), Fraction(0))
            w = by_pattern[cands] = acc * acc
        entries[n] = w
    return WeightTable(entries)


def sum_s1(cfg: SieveConfig, table: WeightTable) -> Fraction:
    """S1 = sum of w_n, exact."""
    return sum(table.entries.values(), Fraction(0))


def _hit_counts(cfg: SieveConfig, spec: ChebotarevSpec, table: WeightTable) -> list[int]:
    """#{m : n + h_m is a member of the set} for each n of the table, in
    table order (a list, not a dict keyed by n, to keep the run's peak
    memory down). A second call with the same cfg and spec reuses the pass
    kept on the table."""
    last = table._last_pass
    if last and last[0] is cfg and last[1] is spec:
        return last[2]
    pt = PrimeTable(2 * cfg.n_start + max(cfg.tuple) + 1)
    hs = list(cfg.tuple)
    hits = [
        sum(1 for h in hs if pt.is_prime(n + h) and spec.is_member(n + h))
        for n in table.entries
    ]
    last[:] = [cfg, spec, hits]
    return hits


def sum_s2(cfg: SieveConfig, spec: ChebotarevSpec, table: WeightTable) -> Fraction:
    """S2 = sum over m and n of chi_P(n + h_m) w_n, exact."""
    total = Fraction(0)
    for w, c in zip(table.entries.values(), _hit_counts(cfg, spec, table)):
        if w and c:
            total += c * w
    return total


def predicted_terms(cfg: SieveConfig, spec: ChebotarevSpec) -> tuple[float, float]:
    """Main terms of the two sums: S1 ~ rad(D) phi(W)^k N log(R)^k / W^(k+1)
    * I_k(F) and S2 ~ delta phi(rad D) (log R / log N) * (same frame) * sum_i
    J_k^i(F). Asymptotic, so floats."""
    i_val = integral_I(cfg.f)
    if i_val == 0:
        raise ValueError("F has zero I-integral; predictions are undefined")
    j_val = integral_J_sum(cfg.f)
    if spec.context.discriminant != cfg.context.discriminant:
        raise ValueError("spec and sieve config disagree on the discriminant")
    rd = rad(abs(cfg.context.discriminant))
    w, k, n = cfg.w_modulus, cfg.k, cfg.n_start
    log_r = math.log(cfg.r_limit)
    frame = euler_phi(w) ** k * n * log_r**k / w ** (k + 1)
    s1 = rd * frame * float(i_val)
    s2 = (
        float(spec.context.density)
        * euler_phi(rd)
        * (log_r / math.log(n))
        * frame
        * float(j_val)
    )
    return s1, s2


@dataclass(frozen=True)
class SResult:
    """S = S2 - rho S1, with every window already showing >= floor(rho+1)
    members of the target set."""

    value: Fraction
    s1: Fraction
    s2: Fraction
    rho: Fraction
    threshold: int
    windows: tuple  # (n, hits) pairs with hits >= threshold

    def to_json(self) -> dict:
        return {
            "value": str(self.value),
            "value_float": float(self.value),
            "s1": str(self.s1),
            "s2": str(self.s2),
            "rho": str(self.rho),
            "threshold": self.threshold,
            "windows": [[n, h] for n, h in self.windows],
        }


def s_functional(cfg: SieveConfig, spec: ChebotarevSpec, rho) -> SResult:
    """S2 - rho S1; positivity certifies some window [n, n + diam(H)] with
    at least floor(rho + 1) members of the set at this N. The report lists
    every such n regardless of the sign of S."""
    rho = Fraction(rho)
    table = weight_table(cfg)
    s1 = sum_s1(cfg, table)
    s2 = sum_s2(cfg, spec, table)
    hits = _hit_counts(cfg, spec, table)  # the pass sum_s2 just made
    threshold = math.floor(rho + 1)
    windows = tuple((n, c) for n, c in zip(table.entries, hits) if c >= threshold)
    return SResult(s2 - rho * s1, s1, s2, rho, threshold, windows)


# ---------------------------------------------------------------------------
# JSON plumbing
# ---------------------------------------------------------------------------


def config_from_json(d: dict) -> tuple[SieveConfig, ChebotarevSpec | None]:
    """Parse {n_start, k, tuple, theta, epsilon, d0, f, context, spec}."""
    ctx = GaloisContext.from_json(d["context"])
    k = json_number(d, "k")
    f = None
    if d.get("f") is not None:
        coeffs = {}
        for item in json_list(d, "f"):
            if not (
                isinstance(item, list)
                and len(item) == 2
                and isinstance(item[0], list)
                and all(type(x) is int for x in item[0])
                and type(item[1]) in (int, float, str)
            ):
                raise ValueError(
                    f"each 'f' entry must be [list of ints, number or string], got {item!r}"
                )
            coeffs[tuple(item[0])] = Fraction(item[1])
        f = SimplexPolynomial.from_symmetric(k, coeffs)
    cfg = build_config(
        n_start=json_number(d, "n_start"),
        k=k,
        tup=Tuple(json_int_list(d, "tuple")),
        context=ctx,
        theta=json_number(d, "theta", float),
        epsilon=json_number(d, "epsilon", float),
        f=f,
        d0_override=None if d.get("d0") is None else json_number(d, "d0", float),
    )
    spec = spec_from_json(d["spec"]) if d.get("spec") is not None else None
    return cfg, spec


def run_to_json(cfg: SieveConfig, spec: ChebotarevSpec, rho=1) -> dict:
    """One full run: exact sums, predictions, window list; rationals ship as
    strings so nothing is rounded."""
    res = s_functional(cfg, spec, rho)
    pred_s1, pred_s2 = predicted_terms(cfg, spec)
    out = {
        "config": cfg.to_json(),
        "spec": spec.to_json(),
        "s1": str(res.s1),
        "s2": str(res.s2),
        "predicted_s1": pred_s1,
        "predicted_s2": pred_s2,
        "ratio_observed": float(res.s2 / res.s1) if res.s1 else None,
        "ratio_predicted": pred_s2 / pred_s1,
        "rho": str(res.rho),
        "s_value": str(res.value),
        "windows": [[n, h] for n, h in res.windows],
    }
    return out
