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

Scale warning: this is a demonstration sieve. The pass is vectorized over
n, but it still holds one divisor-pattern key and one hit count per n and
the sorted primes to 2N, so time and memory grow linearly with N; lambda is
exact over a support that grows like R^k, so k stays small (up to ~4).
perfbench's k = 2 demo config at N = 10^7 takes about 0.5 s and 66 MB as a
cold `sieve --json` run on a 2-core Xeon VM, 10 MB of it the sorted primes
to 2N. The asymptotic statements the sums are compared against only kick in
far beyond that, so predicted/observed ratios are loose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .admissible import Tuple, is_admissible
from .arith import crt, euler_phi, is_squarefree, mobius, prime_divisors, rad
from .chebsets import (
    ChebotarevSpec,
    GaloisContext,
    json_int_list,
    json_list,
    json_number,
    members_in_segment,
    spec_from_json,
)
from .primes import PrimeTable, primorial_below, sieve_range
from .variational import SimplexPolynomial, integral_I, integral_J_sum


# primorial(10^4) has about 14,000 bits, so W = primorial(D0) exceeds 2N for
# every N a desk-scale run reaches; the cap keeps W cheap to build
D0_MAX = 10**4


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
    if not (math.isfinite(d0) and d0 <= D0_MAX):
        raise ValueError(f"d0 must be finite and at most {D0_MAX}, got {d0}")
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
    if n_start + (u0 - n_start) % u >= 2 * n_start:
        raise ValueError(
            f"no n = u0 mod U lies in [N, 2N) = [{n_start}, {2 * n_start}) "
            f"with U = {u}; lower d0 or raise n_start"
        )
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
    """The one pass over n = u0 mod U in [N, 2N). For n = ns[i],
    w_n = weights[pattern[i]] and hits[i] = #{m : n + h_m is a prime in the
    set}. S1, S2 and the window list are reductions of it."""

    ns: np.ndarray  # int64, ascending
    pattern: np.ndarray  # int64 index into weights, one per n
    weights: tuple  # exact Fraction w per distinct divisor pattern
    hits: np.ndarray  # int64, one per n

    def __len__(self) -> int:
        return len(self.ns)


def _divisor_patterns(
    ns: np.ndarray, hs: list[int], sieving: list[int], u_modulus: int, lams: dict
) -> tuple[np.ndarray, tuple]:
    """The pattern index of each n, patterns numbered by first occurrence,
    and the exact weight of each pattern.

    The pattern of n is the set of pairs (i, p) with p | n + h_i, kept as a
    key of int64 words: bit i * len(sieving) + b says that the b-th sieving
    prime divides n + h_i, 63 bits a word so that every word is >= 0. p does
    not divide U, so the n with p | n + h_i are one residue class of indices
    mod p, and each bit is set by one strided slice. A support vector fits a
    pattern when its own prime bits lie inside the pattern's key; lambda is
    summed over the fitting vectors in integers over one common denominator,
    one support vector at a time, and the weight is that sum squared.
    """
    words = max(1, -(-len(hs) * len(sieving) // 63))
    first = int(ns[0])
    keys = np.zeros((len(ns), words), dtype=np.int64)
    for i, h in enumerate(hs):
        for b, p in enumerate(sieving):
            word, bit = divmod(i * len(sieving) + b, 63)
            keys[-(first + h) * pow(u_modulus, -1, p) % p :: p, word] |= 1 << bit
    if words == 1:
        masks, first_at, inverse = np.unique(keys[:, 0], return_index=True, return_inverse=True)
        masks = masks[:, None]
    else:
        masks, first_at, inverse = np.unique(
            keys, axis=0, return_index=True, return_inverse=True
        )
    order = np.argsort(first_at)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    masks = masks[order]
    den = math.lcm(*(lam.denominator for lam in lams.values()))
    acc = np.zeros(len(masks), dtype=object)
    for dv, lam in lams.items():
        need = np.zeros(words, dtype=np.int64)
        for i, d in enumerate(dv):
            for b, p in enumerate(sieving):
                if d % p == 0:
                    word, bit = divmod(i * len(sieving) + b, 63)
                    need[word] |= 1 << bit
        acc[((masks & need) == need).all(axis=1)] += lam.numerator * (den // lam.denominator)
    return rank[inverse.reshape(-1)], tuple(Fraction(a, den) ** 2 for a in acc.tolist())


def _hit_counts(
    ns: np.ndarray, hs: list[int], primes: np.ndarray, spec: ChebotarevSpec
) -> np.ndarray:
    """#{m : n + h_m is a prime in the set} per n. n + h_m is prime when a
    binary search finds it among the sorted primes, one shift at a time;
    membership is decided once per distinct prime shift, in one call of the
    scan's kernels."""
    rows, values = [], []
    for h in hs:
        shifted = ns + h
        is_prime = primes.take(np.searchsorted(primes, shifted), mode="clip") == shifted
        rows.append(np.flatnonzero(is_prime))
        values.append(shifted[is_prime])
    distinct, inverse = np.unique(np.concatenate(values), return_inverse=True)
    member = np.zeros(len(distinct), dtype=bool)
    member[np.searchsorted(distinct, members_in_segment(spec, distinct))] = True
    return np.bincount(np.concatenate(rows)[member[inverse]], minlength=len(ns))


def weight_table(cfg: SieveConfig, spec: ChebotarevSpec) -> WeightTable:
    """w_n and the hit counts over n = u0 mod U in [N, 2N), in one pass.

    A support divisor d_i | n + h_i is squarefree, below R and coprime to W,
    so it is built only from the sieving primes p < R with p not dividing W,
    listed once per call, and nothing is factored. w_n is the square of the
    sum of lambda over the support vectors that divide (n + h_1, ..., n + h_k)
    componentwise, so it depends only on which sieving primes divide each
    n + h_i (the divisor pattern of n): it is computed once per pattern, and
    each n keeps only its pattern's index.
    """
    hs = list(cfg.tuple)
    # built first: an N past the table's cap fails before any other work
    pt = PrimeTable(2 * cfg.n_start + max(hs) + 1)
    lams = lambda_table(cfg)
    sieving = [p for p in sieve_range(0, math.ceil(cfg.r_limit)) if cfg.w_modulus % p]
    first = cfg.n_start + (cfg.u0 - cfg.n_start) % cfg.u_modulus
    ns = np.arange(first, 2 * cfg.n_start, cfg.u_modulus, dtype=np.int64)
    pattern, weights = _divisor_patterns(ns, hs, sieving, cfg.u_modulus, lams)
    return WeightTable(ns, pattern, weights, _hit_counts(ns, hs, pt.primes, spec))


def _pattern_sum(table: WeightTable, counts: np.ndarray) -> Fraction:
    # sum of weights[j] * counts[j], exact, over one common denominator
    den = math.lcm(*(w.denominator for w in table.weights))
    pairs = zip(table.weights, counts.tolist())
    return Fraction(sum(c * w.numerator * (den // w.denominator) for w, c in pairs), den)


def sum_s1(table: WeightTable) -> Fraction:
    """S1 = sum of w_n, exact."""
    return _pattern_sum(table, np.bincount(table.pattern, minlength=len(table.weights)))


def sum_s2(table: WeightTable) -> Fraction:
    """S2 = sum over m and n of chi_P(n + h_m) w_n, exact."""
    per_hit = np.repeat(table.pattern, table.hits)
    return _pattern_sum(table, np.bincount(per_hit, minlength=len(table.weights)))


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
    table = weight_table(cfg, spec)
    s1 = sum_s1(table)
    s2 = sum_s2(table)
    threshold = math.floor(rho + 1)
    windows = tuple(
        (n, c) for n, c in zip(table.ns.tolist(), table.hits.tolist()) if c >= threshold
    )
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
    strings so nothing is rounded. The predictions come first, so a spec
    that disagrees with the config fails before the pass."""
    pred_s1, pred_s2 = predicted_terms(cfg, spec)
    res = s_functional(cfg, spec, rho)
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
