"""chebgaps benchmark: cold-process CLI workloads with output checks.

    python3 perfbench/run.py --workload {certify,scan,sieve,verify} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is taken from its `src/`.
A closed loop with one client: each `chebgaps` command of the workload runs
to completion in its own fresh interpreter (perfbench/child.py) before the
next starts, and no command is given --threads. A fresh interpreter per
command matters because the library keeps process-global caches (the
pair-weight and factorial caches, the discriminant cache, tau streams): a
warm repeat runs several times faster than any CLI call does.

A pass runs every command of the workload once and checks every output
against the pinned seed-commit output (pins.json) or, for verify-paper,
against each criterion's documented outcome. Passes repeat until --seconds
have been spent, at least once. With --trace 0 the end-to-end metrics are
reported (medians over passes). With --trace 1, untraced and traced passes
share the time and give the per-layer metrics of layers.py, among them the
tracing overhead.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The lines before it name every metric, each job's wall time and the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from layers import LAYER_METRICS, layer_metrics
from workloads import (
    CRITERIA,
    WORKLOADS,
    Job,
    Workload,
    criterion_failures,
    digest,
    pinned_fields,
    scan_comparable,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".run"
PINS = BENCH / "pins.json"
SETUP_SAMPLES = 5  # set-up times per run at least; set-up-only children fill up
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),  # median time to import chebgaps.cli in a fresh interpreter
    ("wall_s", "s"),  # all of the workload's commands, set-up excluded
    ("peak_rss_mb", "MB"),  # largest peak RSS of any command's process
)


@dataclass
class Child:
    setup_s: float
    wall_s: float | None
    exit_code: int | None
    peak_rss_mb: float
    error: str | None
    stdout: str


@dataclass
class Pass:
    walls: dict[str, float] = field(default_factory=dict)
    setups: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    incorrect: bool = False  # an output differed from its pin or oracle, or a command broke
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    traced: dict[str, dict] = field(default_factory=dict)

    def fail(self, what: str, ops: int = 1, incorrect: bool = True) -> None:
        self.failed += ops
        self.incorrect |= incorrect
        self.problems.append(what)

    @property
    def wall_s(self) -> float:
        return sum(self.walls.values())


def run_child(tag: str, argv: list[str], spans: Path | None = None,
              setup_only: bool = False) -> Child:
    """One command in a fresh interpreter; raises RuntimeError if the child
    itself broke (its record is missing)."""
    record = WORK / f"{tag}.record.json"
    out, err = WORK / f"{tag}.stdout", WORK / f"{tag}.stderr"
    for stale in (record, out, spans):
        if stale is not None:
            stale.unlink(missing_ok=True)
    opts = ["--setup-only"] if setup_only else ["--spans", str(spans)] if spans else []
    cmd = [sys.executable, str(BENCH / "child.py"), str(record), *opts, "--", *argv]
    with open(out, "w") as fo, open(err, "w") as fe:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=fo, stderr=fe, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not record.exists():
        raise RuntimeError(f"child exited {proc.returncode}: {err.read_text()[-2000:]}")
    rec = json.loads(record.read_text())
    return Child(stdout=out.read_text(), **rec)


def _ops(job: Job) -> int:
    """Operations a job counts for: the command itself and, for
    verify-paper, one per criterion."""
    return 1 + len(CRITERIA) if job.kind == "verify" else 1


def run_pass(workload: Workload, seed: int, pins: dict, trace: bool = False) -> Pass:
    """Run every command of the workload once, in order, and check it."""
    res = Pass()
    scans = {}
    for job in workload.jobs:
        out_path = os.path.relpath(WORK / f"{job.name}.csv", ROOT)
        argv = [a.format(out=out_path, seed=seed) for a in job.argv]
        spans = WORK / f"{job.name}.spans.json" if trace else None
        res.attempted += _ops(job)
        try:
            child = run_child(job.name, argv, spans)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            res.fail(f"{job.name}: {exc}", _ops(job))
            continue
        res.setups.append(child.setup_s)
        res.walls[job.name] = child.wall_s
        res.peak_rss_mb = max(res.peak_rss_mb, child.peak_rss_mb)
        if spans is not None and spans.exists():
            res.traced[job.name] = json.loads(spans.read_text())
        if _check_job(res, job, child, out_path, pins) and job.kind == "scan":
            scans[job.name] = out_path
    if workload.same_scan:
        a, b = workload.same_scan
        res.attempted += 1
        if a not in scans or b not in scans:
            res.fail(f"{a} vs {b}: a scan failed, nothing to compare")
        elif scan_comparable(scans[a]) != scan_comparable(scans[b]):
            res.fail(f"{a} and {b} disagree on the same prime set")
    return res


def _check_job(res: Pass, job: Job, child: Child, out_path: str, pins: dict) -> bool:
    """Record the job's failed operations; True when its output could be read."""
    if child.error is not None:
        res.fail(f"{job.name}: raised\n{child.error}", _ops(job))
        return False
    if job.kind == "verify":
        try:
            payload = json.loads(child.stdout)
            problems = criterion_failures(payload)
        except (ValueError, KeyError, TypeError) as exc:
            res.fail(f"{job.name}: unreadable output ({exc!r})", _ops(job))
            return False
        # a criterion that misses its documented outcome is a failed
        # operation, not a wrong output: the command reported it faithfully
        for p in problems:
            res.fail(f"{job.name}: {p}", incorrect=False)
        want = 1 if any(not c["passed"] for c in payload["criteria"]) else 0
        if child.exit_code != want:
            res.fail(f"{job.name}: exit code {child.exit_code}, expected {want}")
            return False
        return True
    if child.exit_code != 0:
        res.fail(f"{job.name}: exit code {child.exit_code}, expected 0")
        return False
    try:
        got = digest(pinned_fields(job.kind, child.stdout, out_path))
    except (ValueError, KeyError, OSError) as exc:
        res.fail(f"{job.name}: unreadable output ({exc!r})")
        return False
    res.digests[job.name] = got
    if pins.get(job.name) != got:
        res.fail(f"{job.name}: output digest {got} differs from the pinned {pins.get(job.name)}")
    return True


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:  # a checkout without .git has no rev; git must not look above ROOT
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                             ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chebgaps").glob("*.py")):
        src.update(path.read_bytes())
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
    }


def run_passes(workload: Workload, seed: int, seconds: float, pins: dict,
               trace: bool = False) -> list[Pass]:
    """Passes until `seconds` have been spent, at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, seed, pins, trace))
    for i in range(SETUP_SAMPLES - sum(len(p.setups) for p in passes)):
        passes[-1].setups.append(run_child(f"setup{i}", [], setup_only=True).setup_s)
    return passes


def _median_walls(passes: list[Pass]) -> dict[str, float]:
    names = {n for p in passes for n in p.walls}
    return {n: statistics.median(p.walls[n] for p in passes if n in p.walls) for n in names}


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(s for p in passes for s in p.setups),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
    }


def per_layer(plain: list[Pass], traced: list[Pass]) -> dict[str, float]:
    """Median over traced passes of each layer metric; the overhead is
    measured against the median untraced job walls."""
    walls = _median_walls(plain)
    each = [layer_metrics(p.traced, walls, p.walls) for p in traced]
    return {name: statistics.median(m[name] for m in each) for name, _, _ in LAYER_METRICS}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "chebgaps" / "cli.py").is_file():
        print(f"error: no chebgaps package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    pins = json.loads(PINS.read_text())["digests"]
    workload = WORKLOADS[args.workload]

    if args.trace:
        plain = run_passes(workload, args.seed, args.seconds / 2, pins)
        traced = run_passes(workload, args.seed, args.seconds / 2, pins, trace=True)
        values = per_layer(plain, traced)
        units = [(name, unit) for name, unit, _ in LAYER_METRICS]
        passes = plain + traced
    else:
        plain = passes = run_passes(workload, args.seed, args.seconds, pins)
        values = end_to_end(passes)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for q in (q for p in passes for q in p.problems):
        print(f"FAILED {q}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} pass(es), trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    walls = _median_walls(plain)
    for job in workload.jobs:
        print(f"  {job.name + '_s (untraced)':34s} {walls.get(job.name, float('nan')):.6g} s")
    print(f"  fail_ratio {failed}/{attempted}")
    print("machine " + json.dumps(machine_record()))
    correct = not any(p.incorrect for p in passes)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
