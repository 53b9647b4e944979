"""Per-layer metrics, folded from the spans of traced jobs.

Times named `*_s` are inclusive span durations, except where LAYER_METRICS
says "self": those exclude the time of the wrapped calls made inside them,
so no second is counted under two layers.
"""

from __future__ import annotations

from workloads import WORKLOADS

VARIANTS = ("congruence", "newform", "cubic", "quartic", "quadform")
CONFIGS = ("demo", "wide")
JOB_WALLS = tuple(
    f"{job.name}_s" for w in ("scan", "sieve") for job in WORKLOADS[w].jobs
)


def _table() -> list[tuple[str, str, str]]:
    s, n = "s", "count"
    rows = [
        ("primes.segments_s", s, "lower"),  # iter_prime_segments under gapscan
        ("primes.primes_sieved", n, "lower"),
        ("primes.table_s", s, "lower"),  # PrimeTable built by the sieve
    ]
    for v in VARIANTS:
        rows += [
            (f"chebsets.members_s.{v}", s, "lower"),  # self: tau stream excluded
            (f"chebsets.us_per_prime.{v}", "us", "lower"),
            (f"chebsets.members_kept.{v}", n, "higher"),
        ]
    rows.append(("chebsets.tau_stream_s", s, "lower"))
    rows += [(f"gapscan.self_s.{v}", s, "lower") for v in VARIANTS]  # self: scan
    rows.append(("gapscan.members_fed", n, "higher"))
    rows += [
        ("variational.basis_s", s, "lower"),
        ("variational.optimize_s", s, "lower"),
        ("variational.eigh_s", s, "lower"),
        ("variational.eigh_calls", n, "lower"),
        ("variational.gram_certify_s", s, "lower"),  # optimize - basis - eigh
        ("variational.basis_size", n, "higher"),
        ("variational.basis_terms", n, "higher"),
        ("variational.dropped", n, "lower"),
        ("variational.evaluate_calls", n, "lower"),
    ]
    for c in CONFIGS:
        rows += [
            (f"sieve.lambda_table_s.{c}", s, "lower"),
            (f"sieve.lambda_support.{c}", n, "higher"),
            (f"sieve.weight_table_s.{c}", s, "lower"),  # self
            (f"sieve.weight_entries.{c}", n, "higher"),
            (f"sieve.s1_s.{c}", s, "lower"),
            (f"sieve.s2_s.{c}", s, "lower"),  # self: PrimeTable excluded
            (f"sieve.windows_s.{c}", s, "lower"),  # self of run_to_json
            (f"sieve.predicted_s.{c}", s, "lower"),
            (f"sieve.windows.{c}", n, "higher"),
        ]
    for c in CONFIGS:
        rows += [
            (f"arith.prime_divisors_s.{c}", s, "lower"),
            (f"arith.prime_divisors_calls.{c}", n, "lower"),
        ]
    rows += [(f"verify.c{i:02d}_s", s, "lower") for i in range(1, 13)]
    rows.append(("cli.self_s", s, "lower"))  # self of cli.main
    rows += [(name, s, "lower") for name in JOB_WALLS]  # untraced
    rows += [
        ("trace.overhead_s", s, "lower"),  # traced wall - untraced wall
        ("trace.coverage", "share", "higher"),  # of traced wall, in named spans
    ]
    return rows


LAYER_METRICS = _table()


def _self_times(spans: list) -> list[float]:
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(traced: dict[str, dict], untraced_walls: dict[str, float],
                  traced_walls: dict[str, float]) -> dict[str, float]:
    """traced maps job name -> {"spans", "counters"} as spans.Tracer dumps
    them; the walls map job name -> wall_s of the untraced and traced runs."""
    m = {name: 0 for name, _, _ in LAYER_METRICS}
    primes_in = dict.fromkeys(VARIANTS, 0)
    covered = 0.0
    for job, data in traced.items():
        spans = data["spans"]
        own = _self_times(spans)
        c = job.split(".", 1)[1] if job.startswith("sieve.") else None
        for (name, start, end, _, info), self_s in zip(spans, own):
            d = end - start
            if name == "gapscan.iter_prime_segments":
                m["primes.segments_s"] += d
                m["primes.primes_sieved"] += info
            elif name == "sieve.PrimeTable":
                m["primes.table_s"] += d
            elif name == "gapscan.members_in_segment":
                v, n_in, n_out = info
                m[f"chebsets.members_s.{v}"] += self_s
                m[f"chebsets.members_kept.{v}"] += n_out
                m["gapscan.members_fed"] += n_out
                primes_in[v] += n_in
            elif name == "chebsets.tau_mod_stream":
                m["chebsets.tau_stream_s"] += d
            elif name == "cli.scan":
                m[f"gapscan.self_s.{info}"] += self_s
            elif name == "variational.symmetric_basis":
                m["variational.basis_s"] += d
                m["variational.basis_size"] += info[0]
                m["variational.basis_terms"] += info[1]
            elif name == "variational.eigh":
                m["variational.eigh_s"] += d
                m["variational.eigh_calls"] += 1
            elif name == "cli.optimize_rayleigh":
                m["variational.optimize_s"] += d
                m["variational.dropped"] += info
            elif name == "cli.run_all":
                for number, elapsed in info:
                    m[f"verify.c{number:02d}_s"] += elapsed
            elif name == "cli.main":
                m["cli.self_s"] += self_s
                covered += d - self_s
            elif c is not None:
                _add_sieve(m, name, c, d, self_s, info)
        m["variational.evaluate_calls"] += data["counters"].get("variational.evaluate", 0)
    for v in VARIANTS:
        if primes_in[v]:
            m[f"chebsets.us_per_prime.{v}"] = 1e6 * m[f"chebsets.members_s.{v}"] / primes_in[v]
    if m["variational.optimize_s"]:
        m["variational.gram_certify_s"] = (
            m["variational.optimize_s"] - m["variational.basis_s"] - m["variational.eigh_s"]
        )
    for job, wall in untraced_walls.items():
        if f"{job}_s" in m:
            m[f"{job}_s"] = wall
    total_traced = sum(traced_walls.values())
    m["trace.overhead_s"] = total_traced - sum(untraced_walls.values())
    m["trace.coverage"] = covered / total_traced if total_traced else 0
    return m


def _add_sieve(m: dict, name: str, c: str, d: float, self_s: float, info) -> None:
    if name == "sieve.lambda_table":
        m[f"sieve.lambda_table_s.{c}"] += self_s
        m[f"sieve.lambda_support.{c}"] += info
    elif name == "sieve.weight_table":
        m[f"sieve.weight_table_s.{c}"] += self_s
        m[f"sieve.weight_entries.{c}"] += info
    elif name == "sieve.sum_s1":
        m[f"sieve.s1_s.{c}"] += d
    elif name == "sieve.sum_s2":
        m[f"sieve.s2_s.{c}"] += self_s
    elif name == "sieve.predicted_terms":
        m[f"sieve.predicted_s.{c}"] += d
    elif name == "cli.run_to_json":
        m[f"sieve.windows_s.{c}"] += self_s
        m[f"sieve.windows.{c}"] += info
    elif name == "sieve.prime_divisors":
        m[f"arith.prime_divisors_s.{c}"] += d
        m[f"arith.prime_divisors_calls.{c}"] += 1
