import json

import pytest

import chebgaps.gapscan as gapscan
from chebgaps.chebsets import Congruence, GaloisContext, all_primes_spec
from chebgaps.gapscan import (
    GapReport,
    REPORT_FIELDS,
    scan,
    scan_m_tuples,
    tau_gap_scan,
    write_scan_csv,
)
from chebgaps.primes import sieve_range

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


# -- m-tuples -----------------------------------------------------------------------


def test_m_tuples_m1_is_min_gap():
    spec = mod8_spec()
    assert scan_m_tuples(spec, 10**4, 1).min_span == scan(spec, 10**4, 1).min_gap


def test_m_tuples_frozen():
    spec = Congruence(4, {1}, GaloisContext(2, 1, 1, abelian_conductor=4))
    r = scan_m_tuples(spec, 10**3, 2)
    assert r.prime_count == 80
    assert r.min_span == 12
    assert r.min_pair == (5, 17)
    assert r.sufficient
    # 5, 13, 17 are three residue-1 primes inside a window of 12
    assert all(t_is_prime(p) and p % 4 == 1 for p in (5, 13, 17))


def test_m_tuples_insufficient():
    r = scan_m_tuples(mod8_spec(), 10**3, 100)
    assert not r.sufficient
    assert r.min_span is None and r.min_pair is None
    assert r.prime_count == 44
    with pytest.raises(ValueError):
        scan_m_tuples(mod8_spec(), 10**3, 0)
    with pytest.raises(ValueError):
        scan_m_tuples(mod8_spec(), 999, 1)


# -- tau congruence scans -----------------------------------------------------------


def test_tau_gap_scan_mod2():
    r = tau_gap_scan(2, 10**4)
    # every odd prime qualifies (tau(n) is odd only at odd squares);
    # p = 2 divides the modulus and is excluded by convention
    assert r.prime_count == 1228
    assert r.min_gap == 2
    assert r.min_gap_pair == (3, 5)
    assert r.pairs_within_bound == 1227  # default bound is the cap
    assert r.spec_id == "newform_d2_r0_N1"


def test_tau_gap_scan_mod691():
    r = tau_gap_scan(691, 10**4)
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
