import json
import math
import os
import random

import numpy as np
import pytest

import chebgaps.chebsets as chebsets
import chebgaps.gapscan as gapscan
from chebgaps.chebsets import Congruence, GaloisContext, NewformCongruence, QuadFormRep
from chebgaps.cli import main
from chebgaps.gapscan import (
    GAP_CAP,
    GapReport,
    REPORT_FIELDS,
    scan,
    write_scan_csv,
)
from chebgaps.primes import sieve_cost, sieve_range

from conftest import all_primes_spec

MOD8_CTX = GaloisContext(2, 1, 1, abelian_conductor=8)


def mod8_spec():
    return Congruence(8, {3}, MOD8_CTX)


def t_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- scan ---------------------------------------------------------------------------


def test_scan_frozen_small():
    r = scan(mod8_spec(), 10**3, 4800)
    assert r.prime_count == 44
    assert r.min_gap == 8
    assert r.min_gap_pair == (3, 11)
    assert r.pairs_within_bound == 43
    assert r.bound_used == 4800
    # two residue-3 primes differ by a multiple of 8
    assert all(g % 8 == 0 for g in r.histogram)
    assert sum(r.histogram.values()) == 43
    assert r.histogram[8] == 7 and r.histogram[16] == 9 and r.histogram[24] == 18
    # brute check of the first few members
    assert [p for p in range(100) if t_is_prime(p) and p % 8 == 3] == [
        3,
        11,
        19,
        43,
        59,
        67,
        83,
    ]


def test_scan_frozen_million():
    r = scan(mod8_spec(), 10**6, 4800)
    assert r.prime_count == 19653
    assert r.min_gap == 8
    assert r.min_gap_pair == (3, 11)
    assert r.pairs_within_bound == 19652


def test_scan_matches_direct_prime_gaps():
    r = scan(all_primes_spec(), 10**4, 100)
    ps = [int(p) for p in sieve_range(2, 10**4 + 1)]
    gaps = [b - a for a, b in zip(ps, ps[1:])]
    hist = {}
    for g in gaps:
        hist[g] = hist.get(g, 0) + 1
    assert r.prime_count == len(ps) == 1229
    assert r.histogram == hist
    assert r.min_gap == 1
    assert r.min_gap_pair == (2, 3)
    assert r.pairs_within_bound == sum(1 for g in gaps if g <= 100) == len(gaps)


def test_scan_parallel_matches_sequential():
    seq = scan(mod8_spec(), 10**5, 4800, threads=1)
    par = scan(mod8_spec(), 10**5, 4800, threads=4)
    assert par == seq


class InProcessPool:
    """ProcessPoolExecutor run in this process, so no worker is started.
    Each pool records its max_workers and how many calls it mapped, and is
    appended to `made`."""

    made = []

    def __init__(self, max_workers):
        self.max_workers, self.calls = max_workers, 0
        self.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        results = list(map(fn, *iterables))
        self.calls += len(results)
        return results


def test_scan_pool_capped_at_cpu_count(monkeypatch):
    monkeypatch.setattr(gapscan, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(InProcessPool, "made", [])
    par = scan(mod8_spec(), 10**4, 4800, threads=1000)
    assert [(pool.max_workers, pool.calls) for pool in InProcessPool.made] == [(4, 4)]
    assert par == scan(mod8_spec(), 10**4, 4800)


def loop_state(members, bound, cap):
    """The gap statistics of ascending members, taken one member at a time."""
    prev, min_gap, min_pair, pairs_in, hist = None, None, None, 0, {}
    for p in members:
        if prev is not None:
            gap = p - prev
            key = min(gap, cap)
            hist[key] = hist.get(key, 0) + 1
            if min_gap is None or key < min_gap:
                min_gap, min_pair = key, (prev, p)
            pairs_in += gap <= bound
        prev = p
    first = members[0] if members else None
    return [first, prev, len(members), min_gap, min_pair, pairs_in, hist]


def accum_state(acc):
    return [acc.first, acc.prev, acc.count, acc.min_gap, acc.min_pair, acc.pairs_in, acc.hist]


def test_feed_matches_member_loop(monkeypatch):
    # a low cap puts many gaps in the overflow bucket, and the least gap
    # occurs several times, so the first occurrence must win
    monkeypatch.setattr(gapscan, "GAP_CAP", 30)
    rnd = random.Random(7)
    members = sorted(rnd.sample(range(2, 6000), 400))
    want = loop_state(members, 12, 30)
    assert list(np.diff(members)).count(want[3]) > 1
    for _ in range(30):
        cuts = sorted(rnd.choices(range(len(members) + 1), k=rnd.randrange(8)))
        acc = gapscan._Accum()
        for lo, hi in zip([0, *cuts], [*cuts, len(members)]):
            acc.feed(np.array(members[lo:hi], dtype=np.int64), 12)
        assert accum_state(acc) == want
        assert all(type(v) is int for v in (acc.first, acc.prev, acc.min_gap, *acc.min_pair))
        assert all(type(g) is int and type(c) is int for g, c in acc.hist.items())


def test_parallel_stitch_matches_member_loop(monkeypatch):
    monkeypatch.setattr(gapscan, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    monkeypatch.setattr(gapscan, "GAP_CAP", 40)
    members = [p for p in sieve_range(2, 10**5 + 1) if p % 8 == 3]
    first, prev, count, min_gap, min_pair, pairs_in, hist = loop_state(members, 16, 40)
    for threads in (1, 2, 3, 7):
        r = scan(mod8_spec(), 10**5, 16, threads=threads)
        assert (r.prime_count, r.min_gap, r.min_gap_pair) == (count, min_gap, min_pair)
        assert (r.pairs_within_bound, r.histogram) == (pairs_in, hist)


def odd_only(spec, lo, hi):
    """The sieve route before class sieving: every odd number."""
    return 2, [1]


CTX = GaloisContext(2, 1, 1)
ROUTE_SPECS = [
    # criterion 11's input
    (Congruence(8, {3}, MOD8_CTX), True),
    # 2 is a member, and lifting to mod 6 drops it from the classes
    (Congruence(3, {2}, CTX), True),
    (Congruence(5, {1, 4}, CTX), True),
    # 400 columns of 1000 rows cost more than the odd numbers
    (Congruence(1000, [r for r in range(1000) if math.gcd(r, 1000) == 1], CTX), False),
    # a modulus above x: one row per segment
    (Congruence(1_000_003, {1, 2, 999_983}, CTX), True),
]


def test_scan_same_report_by_either_sieve(monkeypatch):
    monkeypatch.setattr(gapscan, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    x = 10**6
    for spec, by_classes in ROUTE_SPECS:
        assert (gapscan._sieve_classes(spec, 2, x + 1) != odd_only(spec, 2, x + 1)) == by_classes
        got = [scan(spec, x, 4800, threads=t).to_json() for t in (1, 2, 3, 7)]
        with monkeypatch.context() as m:
            m.setattr(gapscan, "_sieve_classes", odd_only)
            want = [scan(spec, x, 4800, threads=t).to_json() for t in (1, 2, 3, 7)]
        assert got == want, spec.spec_id
    mod3 = scan(ROUTE_SPECS[1][0], x, 4800)
    assert (mod3.min_gap, mod3.min_gap_pair) == (3, (2, 5))


def test_quad_form_scan_same_report_by_walk_or_loop(monkeypatch):
    # the scan's segments reach the form walk whole or split across 2 and 3
    # ranges, and go prime by prime through is_member when the walk is refused
    spec = QuadFormRep(2, 1, 3, GaloisContext(6, 2, -23))
    x = 1_200_000  # two segments of 2^20
    pooled = scan(spec, x, 4800, threads=2).to_json()  # a real pool pickles the spec
    walked, form_values = [], chebsets._form_values

    def recording(*args):
        marked = form_values(*args)
        walked.append(marked is not None)
        return marked

    monkeypatch.setattr(gapscan, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    monkeypatch.setattr(chebsets, "_form_values", recording)
    got = [scan(spec, x, 4800, threads=t).to_json() for t in (1, 2, 3)]
    assert got == [pooled] * 3
    assert walked == [True] * 7  # one walk per segment: 2 at threads 1, then 2 and 3 ranges
    monkeypatch.setattr(chebsets, "_form_values", lambda *args: None)
    assert scan(spec, x, 4800).to_json() == pooled
    assert pooled["prime_count"] == 30_953 and pooled["min_gap_pair"] == [2, 3]


def test_scan_many_classes_of_a_large_modulus_take_odd_route():
    # one row per segment, but index tables of one int64 entry per base prime
    # and class: for the 500,001 quadratic residues mod the prime 1,000,003
    # they cost more work than the odd numbers; for 60,000 odd classes mod
    # 2^25 they cost less, but hold far more bytes than the odd numbers'
    # bitmap
    q = 1_000_003
    squares = np.unique(np.arange(1, q, dtype=np.int64) ** 2 % q).tolist()
    for spec, more_work in ((Congruence(q, squares, CTX), True),
                            (Congruence(2**25, range(1, 120_000, 2), CTX), False)):
        lifted = spec.modulus * (1 + spec.modulus % 2)
        for lo, hi in ((2, 10**6 + 1), (2, 10**8 + 1), (5 * 10**7, 10**8 + 1)):
            work = sieve_cost(lo, hi, lifted, len(spec.residues))[0]
            assert (work > sieve_cost(lo, hi, 2, 1)[0]) == more_work
            assert gapscan._sieve_classes(spec, lo, hi) == (2, [1])


def test_scan_huge_modulus_same_csv(tmp_path, monkeypatch):
    # 2q overflows int64 for the odd moduli, so they take the odd route;
    # 2^62 is its own lift and takes the class route
    classes = gapscan._sieve_classes
    out = tmp_path / "scan.csv"
    for q, by_classes in ((2**62 + 1, False), (2**63 - 25, False), (2**62, True)):
        residues = [1, 3, 999_983]
        assert (classes(Congruence(q, residues, CTX), 2, 10**6 + 1)[0] == q) == by_classes
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"variant": "congruence", "modulus": q,
                                   "residues": residues, "context": CTX.to_json()}))
        args = ["scan", "--config", str(cfg), "--x", "1000000", "--bound", "4800", "--out", str(out)]
        routes = []
        for route in (classes, odd_only):
            monkeypatch.setattr(gapscan, "_sieve_classes", route)
            assert main(args) == 0
            routes.append([out.read_bytes(), (tmp_path / "scan.csv.hist.csv").read_bytes()])
        assert routes[0] == routes[1]
        assert b"congruence_q%d_1-3-999983,1000000,2," % q in routes[0][0]


def test_scan_monotone_in_limit():
    reports = [scan(mod8_spec(), x, 4800) for x in (10**3, 10**4, 10**5)]
    for a, b in zip(reports, reports[1:]):
        assert b.min_gap <= a.min_gap
        assert b.prime_count >= a.prime_count
        assert b.pairs_within_bound >= a.pairs_within_bound


def test_scan_rejections():
    with pytest.raises(ValueError):
        scan(mod8_spec(), 999, 4800)
    with pytest.raises(ValueError):
        scan(mod8_spec(), 10**3, 0)
    for threads in (0, -5):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            scan(mod8_spec(), 10**3, 4800, threads=threads)


def test_overflow_bucket(monkeypatch):
    # force the cap low so the bucket logic runs at test scale
    monkeypatch.setattr(gapscan, "GAP_CAP", 10)
    r = scan(mod8_spec(), 10**3, 4800)
    assert set(r.histogram) == {8, 10}
    assert r.min_gap == 8
    assert r.min_gap_pair == (3, 11)
    assert sum(r.histogram.values()) == 43


def test_gap_report_validation():
    with pytest.raises(ValueError):
        GapReport("x", 1000, 3, 4, (3, 7), 2, 100, {6: 2})  # min_gap not least key
    with pytest.raises(ValueError):
        GapReport("x", 1000, 3, 6, (3, 9), 2, 100, {6: 5})  # counts exceed pairs
    rep = GapReport("x", 1000, 0, None, None, 0, 100, {})
    assert rep.to_json()["min_gap"] is None


# -- tau congruence scans -----------------------------------------------------------


def tau_spec(d):
    """Primes p with tau(p) = 0 mod d."""
    return NewformCongruence(d, 0, 1, GaloisContext(1, 1, 1))


def test_tau_gap_scan_mod2():
    r = scan(tau_spec(2), 10**4, GAP_CAP)
    # every odd prime qualifies (tau(n) is odd only at odd squares);
    # p = 2 divides the modulus and is excluded by convention
    assert r.prime_count == 1228
    assert r.min_gap == 2
    assert r.min_gap_pair == (3, 5)
    assert r.pairs_within_bound == 1227  # default bound is the cap
    assert r.spec_id == "newform_d2_r0_N1"


def test_tau_gap_scan_mod691():
    r = scan(tau_spec(691), 10**4, GAP_CAP)
    assert r.prime_count == 3
    assert r.min_gap == 2764
    assert r.min_gap_pair == (5527, 8291)


# -- CSV boundary -------------------------------------------------------------------


MANIFEST = {"command": "scan", "seed": 0}


def test_report_csv(tmp_path):
    r = scan(mod8_spec(), 10**3, 4800)
    path = tmp_path / "report.csv"
    write_scan_csv(r, str(path), MANIFEST)
    text = path.read_bytes().decode()
    assert "\r" not in text
    lines = text.split("\n")
    assert lines[0] == "# manifest: " + json.dumps(MANIFEST)
    assert lines[1].split(",") == REPORT_FIELDS
    assert lines[2].split(",") == ["congruence_q8_3", "1000", "44", "8", "3", "11", "43", "4800"]
    assert lines[3:] == [""]


def test_histogram_csv(tmp_path):
    r = scan(mod8_spec(), 10**3, 4800)
    path = tmp_path / "report.csv"
    write_scan_csv(r, str(path), MANIFEST)
    text = (tmp_path / "report.csv.hist.csv").read_bytes().decode()
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == "# manifest: " + json.dumps(MANIFEST)
    assert lines[1] == "gap,count"
    rows = [line.split(",") for line in lines[2:]]
    gaps = [int(a) for a, _ in rows]
    assert gaps == sorted(gaps)
    assert sum(int(c) for _, c in rows) == 43


def test_report_json_shape():
    r = scan(mod8_spec(), 10**3, 4800)
    d = r.to_json()
    assert d["min_gap_pair"] == [3, 11]
    assert list(d["histogram"]) == [str(g) for g in sorted(r.histogram)]
