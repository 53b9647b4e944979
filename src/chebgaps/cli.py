"""Command-line surface.

Subcommands: bounds, mk, scan, sieve, admissible, dusart, verify-paper.
Exit codes: 0 success, 1 a verified claim failed, 2 bad input. Every output
file embeds a run manifest (JSON objects get a "manifest" key, CSVs a single
leading comment line) so results stay reproducible; exact rationals cross
the JSON boundary as strings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass

from . import __version__
from .admissible import Tuple, diameter, is_admissible, shifted_prime_tuple
from .bounds import gap_bound_abelian, verify_theorem1
from .chebsets import GaloisContext, spec_from_json
from .gapscan import scan, write_scan_csv
from .primes import verify_dusart
from .sieve import config_from_json, run_to_json
from .variational import optimize_rayleigh, simplified_mk_bound
from .verify import run_all


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_path: str | None
    output_path: str | None
    seed: int
    version: str


def _manifest(args, command: str) -> RunManifest:
    return RunManifest(
        command=command,
        config_path=getattr(args, "config", None),
        output_path=getattr(args, "out", None),
        seed=getattr(args, "seed", 0),
        version=__version__,
    )


def _emit(
    payload: dict, manifest: RunManifest, args, table: str | None = None, write_out=None
) -> None:
    """Write --out, then print the JSON payload, or the table when one is
    given and --json is not set. --out holds the JSON payload unless
    write_out(path) writes the command's own format."""
    payload = dict(payload)
    payload["manifest"] = asdict(manifest)
    text = json.dumps(payload, indent=2)
    if args.out:
        if write_out is not None:
            write_out(args.out)
        else:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
    if getattr(args, "json", False) or table is None:
        print(text)
    else:
        print(table)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    return obj


# -- subcommands ---------------------------------------------------------------


def cmd_bounds(args) -> int:
    ctx = GaloisContext.from_json(_load_json(args.config))
    manifest = _manifest(args, "bounds")
    if ctx.is_abelian:
        q = ctx.abelian_conductor
        bound = gap_bound_abelian(q)
        _emit(
            {"abelian": True, "q": q, "gap_bound": bound},
            manifest,
            args,
            table=f"abelian context: gap bound 600q = {bound} (q = {q})",
        )
        return 0
    rep = verify_theorem1(ctx)
    rows = [
        ("ratio |G|^2 |D| / (|C| phi(|D|))", f"{rep.ratio:.6g}"),
        ("k chosen", str(rep.k_chosen)),
        ("theta", f"{rep.theta:.12g}"),
        ("M_k lower bound", f"{rep.mk_bound:.6g}"),
        ("r_k", str(rep.rk)),
        ("gap bound 825 r^3 e^r", f"{rep.gap_bound:.6g}"),
        ("log10(gap bound)", f"{rep.gap_bound_log10:.4f}"),
        ("proof chain holds", str(rep.proof_ok)),
    ]
    width = max(len(r[0]) for r in rows)
    table = "\n".join(f"{name:<{width}}  {val}" for name, val in rows)
    _emit(rep.to_json(), manifest, args, table=table)
    return 0 if rep.proof_ok else 1


def cmd_mk(args) -> int:
    manifest = _manifest(args, "mk")
    if args.degree == 0:
        val = simplified_mk_bound(args.k)
        _emit(
            {"k": args.k, "simplified_bound": val},
            manifest,
            args,
            table=f"M_{args.k} >= log k - 2 log log k - 2 = {val:.6f}",
        )
        return 0
    res = optimize_rayleigh(args.k, args.degree)
    payload = {"k": args.k, "degree": args.degree, **res.to_json()}
    _emit(
        payload,
        manifest,
        args,
        table=(
            f"M_{args.k} >= {float(res.value):.15f} "
            f"(exact {res.value.numerator}/{res.value.denominator}, "
            f"basis degree {args.degree})"
        ),
    )
    return 0


def cmd_scan(args) -> int:
    spec = spec_from_json(_load_json(args.config))
    manifest = _manifest(args, "scan")
    rep = scan(spec, args.x, args.bound, threads=args.threads)
    table = (
        f"{rep.spec_id}: {rep.prime_count} members <= {rep.x_limit}, "
        f"min gap {rep.min_gap} at {rep.min_gap_pair}, "
        f"{rep.pairs_within_bound} pairs within {rep.bound_used}"
    )
    # the summary line stands in for the payload only beside a CSV on disk
    _emit(
        rep.to_json(),
        manifest,
        args,
        table=table if args.out else None,
        write_out=lambda path: write_scan_csv(rep, path, asdict(manifest)),
    )
    return 0


def cmd_sieve(args) -> int:
    if not math.isfinite(args.rho):
        raise ValueError(f"--rho must be finite, got {args.rho}")
    cfg, spec = config_from_json(_load_json(args.config))
    if spec is None:
        raise ValueError("sieve config needs a 'spec' entry")
    manifest = _manifest(args, "sieve")
    payload = run_to_json(cfg, spec, rho=args.rho, threads=args.threads)
    table = (
        f"S1 = {payload['s1']}, S2 = {payload['s2']}\n"
        f"observed S2/S1 = {payload['ratio_observed']:.6f}, "
        f"predicted = {payload['ratio_predicted']:.6f}\n"
        f"S(rho={args.rho}) = {payload['s_value']}, "
        f"windows with >= floor(rho+1) members: {len(payload['windows'])}"
    )
    _emit(payload, manifest, args, table=table)
    return 0


def cmd_admissible(args) -> int:
    manifest = _manifest(args, "admissible")
    if (args.k is None) == (args.tuple is None):
        raise ValueError("pass exactly one of --k or --tuple")
    if args.k is not None:
        t = shifted_prime_tuple(args.k)
        bound = 1.6 * args.k * math.log(args.k) if args.k > 1 else 0.0
        payload = {
            "k": args.k,
            "tuple": list(t),
            "diameter": diameter(t),
            "bound_1p6_k_log_k": bound,
            "admissible": True,
        }
        table = (
            f"k = {args.k}: diameter {payload['diameter']} "
            f"(bound {bound:.1f}), elements {list(t)[:8]}{'...' if args.k > 8 else ''}"
        )
    else:
        t = Tuple([int(x) for x in args.tuple.split(",")])
        ok = is_admissible(t)
        payload = {"tuple": list(t), "k": t.k, "diameter": diameter(t), "admissible": ok}
        table = f"{list(t)}: admissible = {ok}, diameter = {diameter(t)}"
    _emit(payload, manifest, args, table=table)
    return 0


def cmd_dusart(args) -> int:
    manifest = _manifest(args, "dusart")
    rep = verify_dusart(args.n_lo, args.n_hi)
    payload = {
        "ok": rep.ok,
        "n_lo": rep.n_lo,
        "n_hi": rep.n_hi,
        "nth_checked": rep.nth_checked,
        "pi_checked": rep.pi_checked,
        "first_violation": list(rep.first_violation) if rep.first_violation else None,
    }
    _emit(payload, manifest, args, table=str(rep))
    return 0 if rep.ok else 1


def cmd_verify_paper(args) -> int:
    manifest = _manifest(args, "verify-paper")
    results = run_all(quick=args.quick, seed=args.seed)
    payload = {"criteria": [r.to_json() for r in results]}
    table = "\n".join(r.line() for r in results)
    failed = [r.number for r in results if not r.passed]
    summary = (
        "all criteria passed"
        if not failed
        else "FAILED criteria: " + ", ".join(str(n) for n in failed)
    )
    payload["summary"] = summary
    _emit(payload, manifest, args, table=table + "\n" + summary)
    return 1 if failed else 0


# -- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chebgaps",
        description="bounded gaps between primes in Chebotarev sets: "
        "explicit constants, the simplex variational problem, sieve sums, "
        "and gap scans",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=False):
        if config:
            sp.add_argument("--config", required=True, help="input JSON path")
        sp.add_argument("--out", help="write JSON/CSV output here")
        sp.add_argument("--seed", type=int, default=0, help="seed for stochastic checks")
        sp.add_argument("--json", action="store_true", help="print JSON instead of a table")

    sp = sub.add_parser("bounds", help="run the explicit-constant proof chain on a context")
    common(sp, config=True)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("mk", help="lower-bound the simplex functional M_k")
    sp.add_argument("k", type=int)
    sp.add_argument("degree", type=int, help="basis degree; 0 prints the closed-form bound")
    common(sp)
    sp.set_defaults(func=cmd_mk)

    sp = sub.add_parser("scan", help="gap statistics of a prime set up to a limit")
    common(sp, config=True)
    sp.add_argument("--x", type=int, required=True, help="scan limit")
    sp.add_argument("--bound", type=int, required=True, help="gap bound to count pairs under")
    sp.add_argument("--threads", type=int, default=1)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("sieve", help="exact S1/S2 sums for a sieve config")
    common(sp, config=True)
    sp.add_argument("--rho", type=float, default=1.0)
    sp.add_argument("--threads", type=int, default=1)
    sp.set_defaults(func=cmd_sieve)

    sp = sub.add_parser("admissible", help="build or check admissible tuples")
    sp.add_argument("--k", type=int, help="build the k-element shifted prime tuple")
    sp.add_argument("--tuple", help="comma-separated offsets to check")
    common(sp)
    sp.set_defaults(func=cmd_admissible)

    sp = sub.add_parser("dusart", help="verify two-sided prime bounds on an index range")
    sp.add_argument("n_lo", type=int)
    sp.add_argument("n_hi", type=int)
    common(sp)
    sp.set_defaults(func=cmd_dusart)

    sp = sub.add_parser("verify-paper", help="run every acceptance criterion")
    common(sp)
    sp.add_argument("--quick", action="store_true", help="skip the long optimizer run")
    sp.set_defaults(func=cmd_verify_paper)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
