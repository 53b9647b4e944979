"""Bounded gaps between primes in Chebotarev sets.

Exact-arithmetic building blocks behind the explicit gap bounds: segmented
prime sieves with two-sided index bounds, admissible tuples, decidable
Chebotarev membership predicates, the simplex variational problem for M_k,
the explicit-constant proof chain, a desk-scale Selberg sieve, and gap
scans. The `chebgaps` CLI drives all of it; `chebgaps verify-paper` replays
every headline number.
"""

from .admissible import (
    DiameterReport,
    Tuple,
    diameter,
    is_admissible,
    shifted_prime_tuple,
    verify_diameter_bound,
)
from .arith import crt, euler_phi, factorize, is_squarefree, mobius, rad
from .bounds import (
    BoundReport,
    CeilingIndeterminate,
    choose_k,
    context_ratio,
    gap_bound_abelian,
    verify_theorem1,
)
from .chebsets import (
    ALL_PRIMES_CONTEXT,
    ChebotarevSpec,
    Congruence,
    FactorizationType,
    GaloisContext,
    NewformCongruence,
    QuadFormRep,
    all_primes_spec,
    empirical_density,
    factorization_type,
    members_in_segment,
    spec_from_json,
    tau_mod_stream,
)
from .gapscan import GapReport, scan, tau_gap_scan
from .primes import (
    DusartReport,
    PrimeTable,
    prime_count,
    sieve_range,
    verify_dusart,
)
from .sieve import (
    SieveConfig,
    SResult,
    build_config,
    lambda_weight,
    predicted_terms,
    s_functional,
    sum_s1,
    sum_s2,
    weight_table,
)
from .variational import (
    RayleighResult,
    SimplexPolynomial,
    integral_I,
    integral_J,
    integral_J_sum,
    optimize_rayleigh,
    rayleigh,
    simplified_mk_bound,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_PRIMES_CONTEXT",
    "BoundReport",
    "CeilingIndeterminate",
    "ChebotarevSpec",
    "Congruence",
    "DiameterReport",
    "DusartReport",
    "FactorizationType",
    "GaloisContext",
    "GapReport",
    "NewformCongruence",
    "PrimeTable",
    "QuadFormRep",
    "RayleighResult",
    "SResult",
    "SieveConfig",
    "SimplexPolynomial",
    "Tuple",
    "all_primes_spec",
    "build_config",
    "choose_k",
    "context_ratio",
    "crt",
    "diameter",
    "empirical_density",
    "euler_phi",
    "factorization_type",
    "factorize",
    "gap_bound_abelian",
    "integral_I",
    "integral_J",
    "integral_J_sum",
    "is_admissible",
    "is_squarefree",
    "lambda_weight",
    "members_in_segment",
    "mobius",
    "optimize_rayleigh",
    "predicted_terms",
    "prime_count",
    "rad",
    "rayleigh",
    "s_functional",
    "scan",
    "shifted_prime_tuple",
    "sieve_range",
    "simplified_mk_bound",
    "spec_from_json",
    "sum_s1",
    "sum_s2",
    "tau_gap_scan",
    "tau_mod_stream",
    "verify_diameter_bound",
    "verify_dusart",
    "verify_theorem1",
    "weight_table",
]
