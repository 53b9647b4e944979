"""The benchmark's own tests, on inputs small enough to run in seconds.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, Job, Workload, criterion_failures  # noqa: E402

TINY_SIEVE = {
    "n_start": 20000, "k": 2, "tuple": [0, 4], "theta": 0.6, "epsilon": 0.05, "d0": 5,
    "context": {"group_order": 2, "class_size": 1, "discriminant": 1, "abelian_conductor": 4},
    "spec": {"variant": "congruence", "modulus": 4, "residues": [1],
             "context": {"group_order": 2, "class_size": 1, "discriminant": 1,
                         "abelian_conductor": 4}},
}


def _scan(variant, x=3000):
    return Job(f"scan.{variant}", ("scan", "--config", f"perfbench/inputs/scan_{variant}.json",
                                   "--x", str(x), "--bound", "4800", "--out", "{out}"), "scan")


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    cfg = tmp_path / "sieve.json"
    cfg.write_text(json.dumps(TINY_SIEVE))
    return Workload(
        "tiny",
        (
            Job("certify.mk", ("mk", "8", "2", "--json"), "mk"),
            _scan("cubic"),
            _scan("quadform"),
            _scan("congruence", 20000),
            Job("sieve.demo", ("sieve", "--config", str(cfg), "--rho", "1", "--json"), "sieve"),
        ),
        same_scan=("scan.cubic", "scan.quadform"),
    )


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == LAYER_METRICS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert not any("--threads" in job.argv for w in WORKLOADS.values() for job in w.jobs)


def test_pins_catch_a_changed_output(tiny):
    first = run.run_pass(tiny, 0, {})
    assert first.failed == 5 and first.incorrect  # nothing pinned yet
    assert sorted(first.digests) == ["certify.mk", "scan.congruence", "scan.cubic",
                                     "scan.quadform", "sieve.demo"]
    again = run.run_pass(tiny, 0, first.digests)
    assert (again.attempted, again.failed, again.incorrect) == (6, 0, False), again.problems
    assert again.digests == first.digests
    assert set(again.walls) == {job.name for job in tiny.jobs}
    assert len(again.setups) == len(tiny.jobs)
    assert again.peak_rss_mb > 10
    tampered = dict(first.digests, **{"sieve.demo": "0" * 64})
    assert run.run_pass(tiny, 0, tampered).failed == 1


def test_setup_is_sampled_several_times(tiny, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 3)
    one = Workload("one", tiny.jobs[:1])
    passes = run.run_passes(one, 0, 0, {})
    assert len(passes) == 1 and len(passes[0].setups) == 3
    assert all(0 < s < 30 for s in passes[0].setups)


def test_same_set_oracle_catches_a_disagreement(tiny, monkeypatch):
    wrong = Workload("wrong", tiny.jobs, same_scan=("scan.cubic", "scan.congruence"))
    res = run.run_pass(wrong, 0, {})
    assert any("disagree" in p for p in res.problems)


def test_broken_command_counts_as_failed(tiny):
    bad = Workload("bad", (Job("scan.cubic", ("scan", "--config", "missing.json", "--x", "3000",
                                               "--bound", "1", "--out", "{out}"), "scan"),))
    res = run.run_pass(bad, 0, {})
    assert (res.attempted, res.failed, res.incorrect) == (1, 1, True)
    assert "exit code 2" in res.problems[0]


def _criteria(failing):
    return {"criteria": [{"number": n, "passed": n not in failing, "detail": f"c{n}"}
                         for n in range(1, 13)]}


def test_criteria_judged_against_documented_outcomes():
    assert criterion_failures(_criteria({9})) == []
    assert len(criterion_failures(_criteria({6, 9}))) == 1
    assert len(criterion_failures(_criteria(set()))) == 1  # criterion 9 passing is news
    missing = {"criteria": _criteria({9})["criteria"][:-1]}
    assert criterion_failures(missing) == ["criterion 12 missing"]


def test_verify_failures_are_operations_not_wrong_outputs():
    job = WORKLOADS["verify"].jobs[0]
    ok = run.Pass()
    run._check_job(ok, job, run.Child(0.3, 1.0, 1, 50.0, None, json.dumps(_criteria({9}))), "", {})
    assert (ok.failed, ok.incorrect) == (0, False)
    c6 = run.Pass()
    run._check_job(c6, job, run.Child(0.3, 1.0, 1, 50.0, None, json.dumps(_criteria({6, 9}))), "", {})
    assert (c6.failed, c6.incorrect) == (1, False)
    exit0 = run.Pass()
    run._check_job(exit0, job, run.Child(0.3, 1.0, 0, 50.0, None, json.dumps(_criteria({9}))), "", {})
    assert (exit0.failed, exit0.incorrect) == (1, True)


def test_traced_pass_reports_every_layer(tiny):
    plain = [run.run_pass(tiny, 0, {})]
    traced = [run.run_pass(tiny, 0, {}, trace=True)]
    m = run.per_layer(plain, traced)
    assert list(m) == [name for name, _, _ in LAYER_METRICS]
    for name in ("primes.segments_s", "primes.primes_sieved", "primes.table_s",
                 "chebsets.members_kept.cubic", "chebsets.us_per_prime.quadform",
                 "chebsets.members_s.congruence", "gapscan.self_s.cubic",
                 "gapscan.members_fed", "variational.basis_size", "variational.eigh_calls",
                 "variational.optimize_s", "sieve.lambda_support.demo",
                 "sieve.weight_entries.demo", "sieve.s2_s.demo",
                 "arith.prime_divisors_calls.demo", "variational.evaluate_calls",
                 "cli.self_s", "scan.cubic_s", "sieve.demo_s"):
        assert m[name] > 0, name
    assert m["chebsets.members_kept.cubic"] == m["chebsets.members_kept.quadform"]
    assert 0 < m["trace.coverage"] <= 1
    assert m["trace.overhead_s"] == pytest.approx(
        traced[0].wall_s - plain[0].wall_s)


def test_child_refuses_a_warm_interpreter(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(child.SRC)
    import chebgaps  # noqa: F401  (the point: chebgaps is already loaded)

    monkeypatch.setattr(sys, "argv", ["child.py", str(tmp_path / "rec"), "--", "mk", "5", "0"])
    with pytest.raises(SystemExit, match="imported before"):
        child.main()


def test_run_fails_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "perfbench" / "pins.json").write_text((BENCH / "pins.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sieve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
