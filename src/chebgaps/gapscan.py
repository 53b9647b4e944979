"""Gap statistics for Chebotarev prime sets at finite height.

Scans are evidence, not proof: they enumerate the members of a set up to a
limit, track consecutive gaps, and count how many pairs already sit inside
a theorem's bound. "Gap" always means the difference between consecutive
members of the set, never between arbitrary pairs.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .chebsets import (
    ChebotarevSpec,
    Congruence,
    members_in_segment,
)
from .primes import iter_prime_segments, sieve_cost

# histogram keys above this collapse into one overflow bucket so x = 10^8
# runs stay bounded in memory
GAP_CAP = 10**6


@dataclass(frozen=True)
class GapReport:
    spec_id: str
    x_limit: int
    prime_count: int
    min_gap: int | None
    min_gap_pair: tuple[int, int] | None
    pairs_within_bound: int
    bound_used: int
    histogram: dict  # gap (capped at GAP_CAP) -> count

    def __post_init__(self):
        if self.histogram:
            if self.min_gap != min(self.histogram):
                raise ValueError("min_gap must be the least histogram key")
        if sum(self.histogram.values()) != max(self.prime_count - 1, 0):
            raise ValueError("histogram counts must sum to prime_count - 1")

    def to_json(self) -> dict:
        return {
            "spec_id": self.spec_id,
            "x_limit": self.x_limit,
            "prime_count": self.prime_count,
            "min_gap": self.min_gap,
            "min_gap_pair": list(self.min_gap_pair) if self.min_gap_pair else None,
            "pairs_within_bound": self.pairs_within_bound,
            "bound_used": self.bound_used,
            "histogram": {str(g): c for g, c in sorted(self.histogram.items())},
        }


@dataclass
class _Accum:
    first: int | None = None
    prev: int | None = None
    count: int = 0
    min_gap: int | None = None
    min_pair: tuple[int, int] | None = None
    pairs_in: int = 0

    def __post_init__(self):
        self.hist: dict[int, int] = {}

    def feed(self, members, bound: int) -> None:
        """Take in the next members, ascending and above self.prev."""
        members = np.asarray(members, dtype=np.int64)
        if len(members) == 0:
            return
        if self.first is None:
            self.first = int(members[0])
        seq = members if self.prev is None else np.concatenate(([self.prev], members))
        self.count += len(members)
        self.prev = int(members[-1])
        if len(seq) < 2:
            return
        gaps = np.diff(seq)
        self.pairs_in += int(np.count_nonzero(gaps <= bound))
        keys = np.minimum(gaps, GAP_CAP)
        i = int(np.argmin(keys))  # the first least gap, as a member loop finds it
        if self.min_gap is None or keys[i] < self.min_gap:
            self.min_gap = int(keys[i])
            self.min_pair = (int(seq[i]), int(seq[i + 1]))
        for g, c in zip(*(a.tolist() for a in np.unique(keys, return_counts=True))):
            self.hist[g] = self.hist.get(g, 0) + c


def _sieve_classes(spec: ChebotarevSpec, lo: int, hi: int) -> tuple[int, list[int]]:
    """The residue classes the scan of [lo, hi) sieves, as (modulus, residues).

    A Congruence spec's classes, lifted to lcm(q, 2) so that each keeps only
    its odd numbers, when they cost less work than the odd numbers do and
    hold no more bytes per segment; else the odd numbers, the one class
    1 mod 2. The modulus is even either way, so the sieve also yields 2, and
    every member is among its candidates.
    """
    if isinstance(spec, Congruence):
        q = spec.modulus
        lifted = q if q % 2 == 0 else 2 * q
        res = [r if r % 2 else r + q for r in spec.residues]
        if lifted < 2**63:
            work, held = sieve_cost(lo, hi, lifted, len(res))
            odd_work, odd_held = sieve_cost(lo, hi, 2, 1)
            if work < odd_work and held <= odd_held:
                return lifted, res
    return 2, [1]


def _scan_range(spec: ChebotarevSpec, lo: int, hi: int, bound: int) -> _Accum:
    acc = _Accum()
    modulus, residues = _sieve_classes(spec, lo, hi)
    for seg in iter_prime_segments(lo, hi, modulus=modulus, residues=residues):
        acc.feed(members_in_segment(spec, seg), bound)
    return acc


def scan(
    spec: ChebotarevSpec, x_limit: int, bound: int, threads: int = 1
) -> GapReport:
    """Consecutive-gap statistics of the set up to x_limit.

    With threads > 1, [2, x_limit] splits into min(threads, os.cpu_count())
    ranges, one per worker process; the gap across each range boundary is
    stitched in during the merge.
    """
    if x_limit < 10**3:
        raise ValueError("x_limit must be >= 1000")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    # a fork pool starts every worker at the first submit, so never ask for
    # more than the machine has cores
    workers = min(threads, os.cpu_count() or 1)
    if workers == 1:
        acc = _scan_range(spec, 2, x_limit + 1, bound)
    else:
        step = math.ceil((x_limit - 1) / workers)
        los = range(2, x_limit + 1, step)
        his = [min(lo + step, x_limit + 1) for lo in los]
        acc = _Accum()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_scan_range, repeat(spec), los, his, repeat(bound)):
                if part.count == 0:
                    continue
                acc.feed([part.first], bound)  # stitches the boundary gap
                acc.count += part.count - 1  # part.first counted just above
                for g, c in part.hist.items():
                    acc.hist[g] = acc.hist.get(g, 0) + c
                if part.min_gap is not None and (
                    acc.min_gap is None or part.min_gap < acc.min_gap
                ):
                    acc.min_gap = part.min_gap
                    acc.min_pair = part.min_pair
                acc.pairs_in += part.pairs_in
                acc.prev = part.prev
    return GapReport(
        spec_id=spec.spec_id,
        x_limit=x_limit,
        prime_count=acc.count,
        min_gap=acc.min_gap,
        min_gap_pair=acc.min_pair,
        pairs_within_bound=acc.pairs_in,
        bound_used=bound,
        histogram=acc.hist,
    )


# ---------------------------------------------------------------------------
# CSV boundary
# ---------------------------------------------------------------------------

REPORT_FIELDS = [
    "spec_id",
    "x_limit",
    "prime_count",
    "min_gap",
    "min_p1",
    "min_p2",
    "pairs_within_bound",
    "bound_used",
]


def write_scan_csv(report: GapReport, path: str, manifest: dict) -> None:
    """The report row at path and the gap histogram at path + ".hist.csv".

    Each file opens with a single "# manifest: {...}" comment line and uses
    LF line endings.
    """
    head = "# manifest: " + json.dumps(manifest) + "\n"
    p1, p2 = report.min_gap_pair if report.min_gap_pair else ("", "")
    row = [
        report.spec_id,
        report.x_limit,
        report.prime_count,
        report.min_gap if report.min_gap is not None else "",
        p1,
        p2,
        report.pairs_within_bound,
        report.bound_used,
    ]
    with open(path, "w", newline="") as fh:
        fh.write(head)
        fh.write(",".join(REPORT_FIELDS) + "\n")
        fh.write(",".join(str(v) for v in row) + "\n")
    with open(path + ".hist.csv", "w", newline="") as fh:
        fh.write(head)
        fh.write("gap,count\n")
        for gap in sorted(report.histogram):
            fh.write(f"{gap},{report.histogram[gap]}\n")
