"""The benchmark's workloads and the checks on their outputs.

A workload is a fixed list of `chebgaps` commands (jobs), each typed as a
user would and run in its own fresh interpreter. Job names are the metric
prefixes. The argv may hold `{out}` (an output path inside the work
directory) and `{seed}` (the benchmark's --seed).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    kind: str  # "mk", "scan", "sieve" or "verify": how the output is checked


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    # two scan jobs whose reports must agree (x^3 - x - 1 inert mod p exactly
    # when p = 2x^2 + xy + 3y^2, for p != 23), or None
    same_scan: tuple[str, str] | None = None


def _scan(variant: str, x: int) -> Job:
    return Job(
        f"scan.{variant}",
        ("scan", "--config", f"perfbench/inputs/scan_{variant}.json",
         "--x", str(x), "--bound", "4800", "--out", "{out}"),
        "scan",
    )


def _sieve(config: str) -> Job:
    return Job(
        f"sieve.{config}",
        ("sieve", "--config", f"perfbench/inputs/sieve_{config}.json", "--rho", "1", "--json"),
        "sieve",
    )


# Inputs are fixed; --seed reaches only verify-paper, whose Monte Carlo
# criteria (6 and 12) take it. Sizes keep one pass of certify, scan and
# sieve near 4 s on a 2-core Xeon VM, so a 20 s run takes the median of
# several passes. The larger sizes (mk degree 9, congruence scan to 10^8,
# sieve demo at N = 2*10^6) take 11-19 s a pass. verify-paper --quick has
# no size knob; it takes 13-19 s.
WORKLOADS = {
    "certify": Workload("certify", (Job("certify.mk", ("mk", "105", "8", "--json"), "mk"),)),
    "scan": Workload(
        "scan",
        (
            _scan("congruence", 5 * 10**7),
            _scan("newform", 10**5),
            _scan("cubic", 2 * 10**5),
            _scan("quartic", 3 * 10**4),
            _scan("quadform", 2 * 10**5),
        ),
        same_scan=("scan.cubic", "scan.quadform"),
    ),
    "sieve": Workload("sieve", (_sieve("demo"), _sieve("wide"))),
    "verify": Workload(
        "verify",
        (Job("verify.paper", ("verify-paper", "--quick", "--seed", "{seed}", "--json"), "verify"),),
    ),
}

# Criterion 9 fails by design: the observed S2/S1 is 3.5 times the
# asymptotic prediction at desk scale. Every other criterion should pass.
CRITERIA = tuple(range(1, 13))
EXPECTED_FAILING = frozenset({9})


def digest(fields) -> str:
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _csv_body(path: str) -> str:
    # the leading "# manifest:" line carries the output path; the rest is data
    with open(path) as fh:
        lines = fh.read().splitlines(keepends=True)
    if not lines or not lines[0].startswith("# manifest: "):
        raise ValueError(f"{path}: no manifest line")
    return "".join(lines[1:])


def pinned_fields(kind: str, stdout: str, out_path: str | None) -> dict:
    """The part of a job's output that must match the pinned seed-commit
    output byte for byte."""
    if kind == "scan":
        return {"report": _csv_body(out_path), "histogram": _csv_body(out_path + ".hist.csv")}
    payload = json.loads(stdout)
    if kind == "mk":
        keys = ("value", "numerator", "denominator", "witness_form", "witness_terms",
                "dropped_basis_indices")
    elif kind == "sieve":
        keys = ("s1", "s2", "s_value", "windows")
    else:
        raise ValueError(f"no pinned fields for {kind!r}")
    return {k: payload[k] for k in keys}


def scan_comparable(out_path: str) -> dict:
    """A scan report without its spec id: the fields two specs describing the
    same prime set must share."""
    header, row = _csv_body(out_path).splitlines()
    report = dict(zip(header.split(","), row.split(",")))
    del report["spec_id"]
    report["histogram"] = _csv_body(out_path + ".hist.csv")
    return report


def criterion_failures(payload: dict) -> list[str]:
    """One entry per criterion whose outcome differs from its documented
    expectation; a missing criterion counts as one too."""
    seen = {c["number"]: c for c in payload["criteria"]}
    problems = []
    for n in CRITERIA:
        c = seen.get(n)
        if c is None:
            problems.append(f"criterion {n} missing")
        elif c["passed"] != (n not in EXPECTED_FAILING):
            want = "fail" if n in EXPECTED_FAILING else "pass"
            problems.append(f"criterion {n}: expected {want}, got {c['detail']}")
    return problems
