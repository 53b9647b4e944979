"""Explicit constants for bounded gaps in Chebotarev prime sets.

The chain, for a nonabelian context with ratio r = |G|^2 |D| / (|C| phi(|D|)):

    k      = 125 * ceil(r^2 e^r)
    eps    = 2 / (k |G|)
    theta  = 2/|G| - eps            (admissible level of distribution)
    M_k    >= log k - 2 log log k - 2
    r_k    = ceil(delta theta phi(|D|) M_k / (2 |D|))   delta = |C|/|G|
    gap    <= 1.6 k log k <= 825 r^3 e^r

Abelian contexts short-circuit to the 600q bound. k grows like e^r, so all
the large-k arithmetic runs in mpmath at a precision chosen from r; the
ceiling in choose_k is certified by an explicit distance-to-integer check.

Discriminants enter through |D| everywhere: the ratio and the totient are
only meaningful for positive arguments, and field discriminants carry sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .arith import euler_phi
from .chebsets import GaloisContext

__all__ = [
    "BoundReport",
    "CeilingIndeterminate",
    "choose_k",
    "context_ratio",
    "gap_bound_abelian",
    "verify_theorem1",
]

# distance-to-integer threshold below which a ceiling is not trusted
_CEIL_GUARD = mp.mpf("1e-30")


class CeilingIndeterminate(ArithmeticError):
    """ceil(r^2 e^r) sits within 1e-30 of an integer; a wrong call would
    silently shift k by 125, so refuse instead."""


@dataclass(frozen=True)
class BoundReport:
    """Everything the gap theorem's proof chain produces for one context."""

    ratio: float
    k_chosen: int
    theta: float
    mk_bound: float
    rk: int
    gap_bound: float  # 825 r^3 e^r, or exactly 600q for abelian contexts
    proof_ok: bool
    gap_bound_log10: float  # log10 of the bound; finite even when the
    # bound itself overflows float

    def to_json(self) -> dict:
        return {
            "ratio": self.ratio,
            "k_chosen": str(self.k_chosen),  # can exceed float range
            "theta": self.theta,
            "mk_bound": self.mk_bound,
            "rk": self.rk,
            "gap_bound": self.gap_bound,
            "gap_bound_log10": self.gap_bound_log10,
            "proof_ok": self.proof_ok,
        }


def context_ratio(ctx: GaloisContext) -> Fraction:
    """|G|^2 |D| / (|C| phi(|D|)), exact."""
    d = abs(ctx.discriminant)
    return Fraction(ctx.group_order**2 * d, ctx.class_size * euler_phi(d))


def _require_nonabelian(ctx: GaloisContext, op: str) -> None:
    if ctx.is_abelian:
        raise ValueError(f"{op} applies to nonabelian contexts; use gap_bound_abelian")
    # the smallest nonabelian group has order 6, which also covers the
    # |G| >= 4 that the level of distribution 2/|G| - eps needs
    if ctx.group_order < 6:
        raise ValueError("nonabelian context needs group order >= 6")


def _dps_for(r: Fraction) -> int:
    # enough digits to place r^2 e^r: integer digits ~ r*log10(e), plus a
    # 60-digit fractional tail so the 1e-30 guard is meaningful
    return int(float(r) * 0.4343) + 80


def choose_k(ctx: GaloisContext) -> int:
    """k = 125 * ceil(r^2 e^r) with the ceiling certified at high precision."""
    _require_nonabelian(ctx, "choose_k")
    r = context_ratio(ctx)
    with mp.workdps(_dps_for(r)):
        rm = mp.mpf(r.numerator) / r.denominator
        x = rm * rm * mp.exp(rm)
        n = int(mp.floor(x))
        dist = min(x - n, n + 1 - x)
        if dist < _CEIL_GUARD:
            raise CeilingIndeterminate(
                f"r^2 e^r is within {mp.nstr(dist, 3)} of an integer at r = {r}"
            )
        return 125 * (n + 1)


def _gap_and_window(r: Fraction, k: int) -> tuple[mp.mpf, mp.mpf, mp.mpf]:
    """825 r^3 e^r, the window 1.6 k log k and log10 of the bound, at 60
    digits."""
    with mp.workdps(60):
        rm = mp.mpf(r.numerator) / r.denominator
        km = mp.mpf(k)
        bound = 825 * rm**3 * mp.exp(rm)
        return bound, mp.mpf("1.6") * km * mp.log(km), mp.log10(bound)


def gap_bound_abelian(q: int) -> int:
    """Gap bound 600q for primes in residue classes mod q."""
    if q < 1:
        raise ValueError("modulus must be >= 1")
    return 600 * q


def verify_theorem1(ctx: GaloisContext) -> BoundReport:
    """Run the whole nonabelian proof chain and report each quantity.

    proof_ok is the conjunction of
      - delta theta phi(|D|) mk / (2 |D|) > 1   (forces r_k >= 2)
      - k >= 213
      - 1.6 k log k <= 825 r^3 e^r
    Failures land in the report, they never raise.
    """
    _require_nonabelian(ctx, "verify_theorem1")
    r = context_ratio(ctx)
    k = choose_k(ctx)
    g = ctx.group_order
    d = abs(ctx.discriminant)
    theta_exact = Fraction(2, g) - Fraction(2, k * g)

    bound, window, bound_log10 = _gap_and_window(r, k)
    with mp.workdps(60):
        km = mp.mpf(k)
        mk = mp.log(km) - 2 * mp.log(mp.log(km)) - 2
        theta = mp.mpf(theta_exact.numerator) / theta_exact.denominator
        delta = mp.mpf(ctx.density.numerator) / ctx.density.denominator
        product = delta * theta * euler_phi(d) * mk / (2 * d)
        rk = int(mp.ceil(product)) if product > 0 else 0
        ok = bool(product > 1) and k >= 213 and bool(window <= bound)
        return BoundReport(
            ratio=float(r),
            k_chosen=k,
            theta=float(theta),
            mk_bound=float(mk),
            rk=rk,
            gap_bound=float(bound),
            proof_ok=ok,
            gap_bound_log10=float(bound_log10),
        )
