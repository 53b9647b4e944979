"""Bounded gaps between primes in Chebotarev sets.

Exact-arithmetic building blocks behind the explicit gap bounds: segmented
prime sieves with two-sided index bounds, admissible tuples, decidable
Chebotarev membership predicates, the simplex variational problem for M_k,
the explicit-constant proof chain, a desk-scale Selberg sieve, and gap
scans. The `chebgaps` CLI drives all of it; `chebgaps verify-paper` replays
every headline number. Names are imported from their modules, for example
`from chebgaps.gapscan import scan`.
"""

__version__ = "0.1.0"
