import json
from fractions import Fraction

import pytest

from chebgaps import __version__, cli, sieve
from chebgaps.admissible import Tuple
from chebgaps.chebsets import Congruence, GaloisContext, spec_from_json
from chebgaps.cli import main
from chebgaps.gapscan import scan, write_scan_csv
from chebgaps.sieve import SieveConfig, sum_s1, weight_table

from conftest import all_primes_spec

S3_JSON = {"group_order": 6, "class_size": 6, "discriminant": 1, "abelian_conductor": None}
MOD8_ABELIAN = {"group_order": 2, "class_size": 1, "discriminant": 1, "abelian_conductor": 8}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def out_json(capsys):
    return json.loads(capsys.readouterr().out)


# -- bounds -------------------------------------------------------------------------


def test_bounds_nonabelian(tmp_path, capsys):
    cfg = write_json(tmp_path, "ctx.json", S3_JSON)
    out = str(tmp_path / "report.json")
    assert main(["bounds", "--config", cfg, "--json", "--out", out]) == 0
    payload = out_json(capsys)
    assert payload["k_chosen"] == "1815500"
    assert payload["proof_ok"] is True
    assert payload["manifest"]["command"] == "bounds"
    assert payload["manifest"]["config_path"] == cfg
    # the file on disk carries the same payload
    assert json.loads(open(out).read())["k_chosen"] == "1815500"


def test_bounds_table_output(tmp_path, capsys):
    cfg = write_json(tmp_path, "ctx.json", S3_JSON)
    assert main(["bounds", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "1815500" in text
    assert "proof chain holds" in text


def test_bounds_abelian(tmp_path, capsys):
    cfg = write_json(tmp_path, "ctx.json", MOD8_ABELIAN)
    assert main(["bounds", "--config", cfg, "--json"]) == 0
    payload = out_json(capsys)
    assert payload["abelian"] is True
    assert payload["gap_bound"] == 4800


# -- mk -----------------------------------------------------------------------------


def test_mk_closed_form(capsys):
    assert main(["mk", "213", "0", "--json"]) == 0
    payload = out_json(capsys)
    assert payload["simplified_bound"] > 0
    assert payload["k"] == 213


def test_mk_optimizer(capsys):
    assert main(["mk", "2", "3", "--json"]) == 0
    payload = out_json(capsys)
    v = Fraction(int(payload["value"]["numerator"]), int(payload["value"]["denominator"]))
    assert Fraction(13859, 10000) < v < Fraction(13860, 10000)
    assert payload["value_float"] == pytest.approx(float(v))


# -- scan ---------------------------------------------------------------------------


def scan_spec_json():
    ctx = GaloisContext(2, 1, 1, abelian_conductor=8)
    return Congruence(8, {3}, ctx).to_json()


def facttype_json(poly):
    """A factorization-type spec of the monic poly (low to high), type [deg]."""
    return {"variant": "factorization_type", "poly": poly, "cycle_type": [len(poly) - 1],
            "context": {**S3_JSON, "class_size": 2}}


def test_scan_huge_constant_term(tmp_path, capsys):
    # x^3 + 10^23 + 1: irreducibility is decided without factoring f(0)
    cfg = write_json(tmp_path, "spec.json", facttype_json([10**23 + 1, 0, 0, 1]))
    assert main(["scan", "--config", cfg, "--x", "1000", "--bound", "4800", "--json"]) == 0
    assert out_json(capsys)["manifest"]["command"] == "scan"


def test_scan_csv_and_stdout(tmp_path, capsys):
    cfg = write_json(tmp_path, "spec.json", scan_spec_json())
    out = str(tmp_path / "scan.csv")
    assert main(["scan", "--config", cfg, "--x", "1000", "--bound", "4800", "--out", out]) == 0
    assert "min gap 8 at (3, 11)" in capsys.readouterr().out
    lines = open(out).read().splitlines()
    assert lines[0].startswith("# manifest: ")
    manifest = json.loads(lines[0][len("# manifest: ") :])
    assert manifest["command"] == "scan"
    assert lines[1].split(",")[0] == "spec_id"
    assert lines[2].split(",")[1:4] == ["1000", "44", "8"]
    hist_lines = open(out + ".hist.csv").read().splitlines()
    assert hist_lines[0].startswith("# manifest: ")
    assert hist_lines[1] == "gap,count"
    assert hist_lines[2] == "8,7"


def test_scan_out_is_the_shared_writer(tmp_path):
    cfg = write_json(tmp_path, "spec.json", scan_spec_json())
    out = str(tmp_path / "scan.csv")
    assert main(["scan", "--config", cfg, "--x", "1000", "--bound", "4800", "--out", out]) == 0
    manifest = {
        "command": "scan",
        "config_path": cfg,
        "output_path": out,
        "seed": 0,
        "version": __version__,
    }
    ref = str(tmp_path / "ref.csv")
    write_scan_csv(scan(spec_from_json(scan_spec_json()), 1000, 4800), ref, manifest)
    for suffix in ("", ".hist.csv"):
        got = open(out + suffix, "rb").read()
        assert got == open(ref + suffix, "rb").read()
        assert b"\r" not in got
        assert got.startswith(b"# manifest: " + json.dumps(manifest).encode() + b"\n")


def test_scan_json_stdout(tmp_path, capsys):
    cfg = write_json(tmp_path, "spec.json", scan_spec_json())
    assert main(["scan", "--config", cfg, "--x", "1000", "--bound", "4800"]) == 0
    payload = out_json(capsys)
    assert payload["prime_count"] == 44
    assert payload["min_gap_pair"] == [3, 11]


# -- sieve --------------------------------------------------------------------------


def sieve_config_json():
    ctx = GaloisContext(1, 1, 1, abelian_conductor=1)
    cfg = SieveConfig(1000, Tuple([0, 2]), theta=0.9, epsilon=0.05, context=ctx, d0=3)
    d = cfg.to_json()
    d["spec"] = all_primes_spec().to_json()
    return cfg, d


def test_sieve_run(tmp_path, capsys):
    cfg, d = sieve_config_json()
    path = write_json(tmp_path, "sieve.json", d)
    assert main(["sieve", "--config", path, "--json"]) == 0
    payload = out_json(capsys)
    assert Fraction(payload["s1"]) == sum_s1(weight_table(cfg, all_primes_spec()))
    assert Fraction(payload["s_value"]) > 0
    assert payload["windows"]


def test_sieve_zero_s1(tmp_path, capsys):
    """F = t1 t2 vanishes on the whole support, since every support vector
    at R ~ 15.8 has a component 1, so S1 = 0 and the ratio is undefined."""
    _, d = sieve_config_json()
    path = write_json(tmp_path, "sieve.json", {**d, "f": [[[1, 1], "1"]]})
    assert main(["sieve", "--config", path, "--json"]) == 0
    payload = out_json(capsys)
    assert payload["s1"] == "0" and payload["ratio_observed"] is None
    assert main(["sieve", "--config", path]) == 0
    assert "observed S2/S1 = undefined (S1 = 0)" in capsys.readouterr().out


def test_sieve_requires_spec(tmp_path, capsys):
    _, d = sieve_config_json()
    del d["spec"]
    path = write_json(tmp_path, "sieve.json", d)
    assert main(["sieve", "--config", path]) == 2
    assert "spec" in capsys.readouterr().err


def test_sieve_mismatched_spec_fails_before_the_pass(tmp_path, capsys, monkeypatch):
    """A spec whose discriminant disagrees with the config's exits 2
    without building the weight table."""
    _, d = sieve_config_json()
    d["spec"] = Congruence(5, {1}, GaloisContext(2, 1, 5, abelian_conductor=5)).to_json()
    path = write_json(tmp_path, "sieve.json", d)
    calls = []
    monkeypatch.setattr(sieve, "weight_table", lambda *a: calls.append(a))
    assert main(["sieve", "--config", path, "--json"]) == 2
    assert "discriminant" in capsys.readouterr().err
    assert calls == []


# -- admissible ---------------------------------------------------------------------


def test_admissible_build(capsys):
    assert main(["admissible", "--k", "5", "--json"]) == 0
    payload = out_json(capsys)
    assert payload["tuple"] == [7, 11, 13, 17, 19]
    assert payload["diameter"] == 12
    assert payload["admissible"] is True
    assert payload["bound_1p6_k_log_k"] == pytest.approx(1.6 * 5 * 1.6094379124341003)


def test_admissible_check(capsys):
    assert main(["admissible", "--tuple", "0,2", "--json"]) == 0
    assert out_json(capsys)["admissible"] is True
    assert main(["admissible", "--tuple", "0,1", "--json"]) == 0
    assert out_json(capsys)["admissible"] is False


def test_admissible_flag_conflicts(capsys):
    assert main(["admissible"]) == 2
    capsys.readouterr()
    assert main(["admissible", "--k", "5", "--tuple", "0,2"]) == 2


# -- dusart -------------------------------------------------------------------------


def test_dusart(capsys):
    assert main(["dusart", "6", "2000", "--json"]) == 0
    payload = out_json(capsys)
    assert payload["ok"] is True
    assert payload["first_violation"] is None
    capsys.readouterr()
    # the index bounds start at 6
    assert main(["dusart", "3", "2000"]) == 2


# -- verify-paper -------------------------------------------------------------------


VERIFY_PAPER_TITLES = [
    "positivity threshold of log k - 2 log log k - 2",
    "abelian gap constants 600q",
    "nonabelian proof chain at |G|=|C|=6, disc 1",
    "shifted prime tuple diameter <= 1.6 k log k on [213, 10^4]",
    "two-sided prime bounds (nth on [6, 1e5]; pi from 355991 to 4e5)",
    "exact simplex integrals vs Monte Carlo (3 sigma) and rayleigh(1) = 4/3",
    "M_105 > 4 by exact re-certification",
    "sieve sums equal an independent exhaustive enumerator",
    "observed S2/S1 within factor 2 of the predicted main-term ratio",
    "empirical densities match class sizes (cubic inert 1/3, 1 mod 4 at 1/2)",
    "gap scans: min gap 8 mod 8, tau-vanishing members pass the sigma_11 oracle",
    "tau stream: 691 congruence, multiplicativity, Hecke relation at p^2",
]


def test_verify_paper_quick(capsys, monkeypatch, quick_results):
    # the criteria themselves run once, in the session's quick_results
    def cached(quick, seed):
        assert (quick, seed) == (True, 0)
        return quick_results

    monkeypatch.setattr(cli, "run_all", cached)
    # one ratio criterion fails honestly at demo scale, so the exit code is 1
    assert main(["verify-paper", "--quick", "--json"]) == 1
    payload = out_json(capsys)
    criteria = payload["criteria"]
    assert [c["number"] for c in criteria] == list(range(1, 13))
    assert [c["title"] for c in criteria] == VERIFY_PAPER_TITLES
    assert criteria[6]["detail"] == "skipped (quick mode)"
    assert criteria[6]["elapsed"] == 0.0
    assert sum(1 for c in criteria if c["passed"]) == 11
    assert criteria[8]["passed"] is False
    assert "FAILED criteria: 9" in payload["summary"]


def test_seed_only_on_verify_paper(tmp_path, capsys, monkeypatch, quick_results):
    cfg = write_json(tmp_path, "spec.json", scan_spec_json())
    for argv in (["scan", "--config", cfg, "--x", "1000", "--bound", "4800"],
                 ["sieve", "--config", cfg], ["mk", "2", "3"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "3"])
        assert exc.value.code == 2
    capsys.readouterr()

    def cached(quick, seed):
        assert seed == 3
        return quick_results

    monkeypatch.setattr(cli, "run_all", cached)
    assert main(["verify-paper", "--quick", "--seed", "3", "--json"]) == 1
    assert out_json(capsys)["manifest"]["seed"] == 3


# -- error handling -----------------------------------------------------------------


def test_bad_config_paths(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["bounds", "--config", missing]) == 2
    capsys.readouterr()
    garbage = tmp_path / "bad.json"
    garbage.write_text("{not json")
    assert main(["bounds", "--config", str(garbage)]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_input_exits_2(tmp_path, capsys):
    _, d = sieve_config_json()
    sieve_cfg = write_json(tmp_path, "sieve.json", d)
    assert main(["sieve", "--config", sieve_cfg, "--rho", "inf"]) == 2
    assert "--rho must be finite" in capsys.readouterr().err
    listed = write_json(tmp_path, "list.json", [S3_JSON])
    assert main(["bounds", "--config", listed]) == 2
    assert "JSON object" in capsys.readouterr().err
    spec = scan_spec_json()
    spec["residues"] = 5
    bad_spec = write_json(tmp_path, "spec.json", spec)
    assert main(["scan", "--config", bad_spec, "--x", "1000", "--bound", "4800"]) == 2
    assert "'residues' must be a JSON list" in capsys.readouterr().err
    good_spec = write_json(tmp_path, "spec_ok.json", scan_spec_json())
    scan_args = ["scan", "--config", good_spec, "--x", "1000", "--bound", "4800"]
    assert main([*scan_args, "--threads", "0"]) == 2
    assert "threads must be >= 1" in capsys.readouterr().err
    newform = {"variant": "newform_congruence", "d": 10**30, "target": 0, "level": 1,
               "context": S3_JSON}
    big_d = write_json(tmp_path, "spec_big_d.json", newform)
    assert main(["scan", "--config", big_d, "--x", "1000", "--bound", "4800"]) == 2
    assert "d and level must be < 2^63" in capsys.readouterr().err
    for modulus in (10**19, 10**30):
        big = {**scan_spec_json(), "modulus": modulus, "residues": [1]}
        big_q = write_json(tmp_path, "spec_big_q.json", big)
        assert main(["scan", "--config", big_q, "--x", "1000", "--bound", "4800"]) == 2
        assert "modulus must be < 2^63" in capsys.readouterr().err
    # (x^2 + 1)(x^3 + 2) and (x^2 + x + 1)(x^4 + 3) have no rational root
    for poly in ([2, 0, 2, 1, 0, 1], [3, 3, 3, 0, 1, 1, 1]):
        reducible = write_json(tmp_path, "spec_reducible.json", facttype_json(poly))
        assert main(["scan", "--config", reducible, "--x", "1000", "--bound", "4800"]) == 2
        assert "must be irreducible over Q" in capsys.readouterr().err
    # bounds guards the group order on its own path
    small = write_json(
        tmp_path,
        "ctx_small.json",
        {"group_order": 4, "class_size": 1, "discriminant": 5, "abelian_conductor": None},
    )
    assert main(["bounds", "--config", small]) == 2
    assert "group order >= 6" in capsys.readouterr().err
    # null or mistyped fields are rejected where the JSON is parsed
    spec = scan_spec_json()
    spec["modulus"] = None
    null_modulus = write_json(tmp_path, "spec_null.json", spec)
    assert main(["scan", "--config", null_modulus, "--x", "1000", "--bound", "4800"]) == 2
    assert "'modulus' must be a number" in capsys.readouterr().err
    null_order = write_json(tmp_path, "ctx_null.json", {**S3_JSON, "group_order": None})
    assert main(["bounds", "--config", null_order]) == 2
    assert "'group_order' must be a number" in capsys.readouterr().err
    bad_tuple = write_json(tmp_path, "sieve_tuple.json", {**d, "tuple": 5})
    assert main(["sieve", "--config", bad_tuple]) == 2
    assert "'tuple' must be a JSON list" in capsys.readouterr().err
    # a tuple offset beyond int64: the diameter bound, not a numpy overflow
    wide_tuple = write_json(tmp_path, "sieve_wide_tuple.json", {**d, "tuple": [0, 2**64]})
    assert main(["sieve", "--config", wide_tuple]) == 2
    assert "tuple diameter must be < 2^63" in capsys.readouterr().err
    assert main(["admissible", "--tuple", "0,99999999999999999999"]) == 2
    assert "tuple diameter must be < 2^63" in capsys.readouterr().err
    for f in ([[5, "1"]], [[[1], None]]):
        bad_f = write_json(tmp_path, "sieve_f.json", {**d, "f": f})
        assert main(["sieve", "--config", bad_f]) == 2
        assert "each 'f' entry must be" in capsys.readouterr().err
    # a coefficient that is no finite rational: 1/0, and 1e400 read as infinity
    bad_coeff = tmp_path / "sieve_f_coeff.json"
    for f in ('[[[1], "1/0"]]', "[[[1], 1e400]]"):
        bad_coeff.write_text(json.dumps(d).replace(json.dumps(d["f"]), f))
        assert main(["sieve", "--config", str(bad_coeff)]) == 2
        assert "'f' entry [[1], " in capsys.readouterr().err
    # integer fields and list entries are not truncated: 8.9 is not 8, true is not 1
    spec = scan_spec_json()
    fractional = {**spec, "modulus": 8.9, "residues": [3.7],
                  "context": {**spec["context"], "group_order": 2.5}}
    frac_spec = write_json(tmp_path, "spec_frac.json", fractional)
    assert main(["scan", "--config", frac_spec, "--x", "1000", "--bound", "4800"]) == 2
    assert "'group_order' must be a number" in capsys.readouterr().err
    frac_residue = write_json(tmp_path, "spec_frac_res.json", {**spec, "residues": [3.7]})
    assert main(["scan", "--config", frac_residue, "--x", "1000", "--bound", "4800"]) == 2
    assert "each 'residues' entry must be a number" in capsys.readouterr().err
    bool_order = write_json(
        tmp_path, "ctx_bool.json",
        {**MOD8_ABELIAN, "group_order": True, "abelian_conductor": 8.6},
    )
    assert main(["bounds", "--config", bool_order]) == 2
    assert "'group_order' must be a number" in capsys.readouterr().err
    frac_tuple = write_json(tmp_path, "sieve_frac_tuple.json", {**d, "tuple": [0, 4.5]})
    assert main(["sieve", "--config", frac_tuple]) == 2
    assert "each 'tuple' entry must be a number" in capsys.readouterr().err
    k3 = write_json(tmp_path, "sieve_k3.json", {**d, "k": 3})
    assert main(["sieve", "--config", k3]) == 2
    assert "k disagrees with the tuple length" in capsys.readouterr().err
    # d0 = 40 makes U > 2N: no n = u0 mod U in [N, 2N), so S1 would be 0
    empty = write_json(tmp_path, "sieve_empty.json", {**d, "d0": 40})
    for extra in ([], ["--json"]):
        assert main(["sieve", "--config", empty, *extra]) == 2
        assert "no n = u0 mod U lies in [N, 2N)" in capsys.readouterr().err
    # d0 is checked before the primorial sieves anything
    for d0 in (float("inf"), float("nan"), 1e9):
        bad_d0 = write_json(tmp_path, "sieve_d0.json", {**d, "d0": d0})
        assert main(["sieve", "--config", bad_d0]) == 2
        assert "d0 must be finite and at most" in capsys.readouterr().err
    for d0 in ("5", True, 10**400):
        bad_d0 = write_json(tmp_path, "sieve_d0.json", {**d, "d0": d0})
        assert main(["sieve", "--config", bad_d0]) == 2
        assert "'d0' must be a number" in capsys.readouterr().err
    # a prime table past PRIME_TABLE_MAX is refused before it is allocated
    huge_n = write_json(tmp_path, "sieve_huge.json", {**d, "n_start": 10**12})
    for argv in (["dusart", "6", str(10**12)], ["admissible", "--k", str(10**12)],
                 ["sieve", "--config", huge_n]):
        assert main(argv) == 2
        assert f"exceeds {10**9}" in capsys.readouterr().err
    # a missing field is named, not printed as a bare KeyError
    as_sieve = write_json(tmp_path, "spec_as_sieve.json", scan_spec_json())
    assert main(["sieve", "--config", as_sieve, "--rho", "1", "--json"]) == 2
    assert capsys.readouterr().err == "error: missing field 'k'\n"
    no_residues = {key: v for key, v in scan_spec_json().items() if key != "residues"}
    no_res = write_json(tmp_path, "spec_no_res.json", no_residues)
    assert main(["scan", "--config", no_res, "--x", "1000", "--bound", "4800"]) == 2
    assert capsys.readouterr().err == "error: missing field 'residues'\n"
    # k < 1 is refused before any basis or Gram is built
    for k in ("0", "-5"):
        assert main(["mk", k, "3"]) == 2
        assert "k must be >= 1" in capsys.readouterr().err


def test_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
