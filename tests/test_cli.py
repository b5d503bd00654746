"""End-to-end runs of the command-line interface."""

from __future__ import annotations

import json
import subprocess
import sys
import time


def run(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "diamforge", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


def test_construct_json():
    res = run("construct", "--n", "13")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert sorted(out) == ["certificate", "labels", "layout", "n"]
    assert out["n"] == 13
    cert = out["certificate"]
    assert cert["good"] and not cert["circular"]
    assert cert["diameter"] == 37 == cert["optimum"]
    assert cert["matches_optimum"]
    assert cert["covered_edges"] == 77
    assert cert["uncovered_edges"] == [[0, 3]]


def test_construct_is_deterministic():
    first = run("construct", "--n", "20")
    second = run("construct", "--n", "20")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert json.dumps(json.loads(first.stdout), sort_keys=True,
                      separators=(",", ":")) + "\n" == first.stdout


def test_construct_text_format():
    res = run("construct", "--n", "6", "--format", "text")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "n: 6"
    assert any(line == "diameter: 5" for line in lines)
    assert any(line.startswith("uncovered edges: ") for line in lines)


def test_construct_rejects_tiny_n():
    res = run("construct", "--n", "2")
    assert res.returncode == 2
    assert res.stderr


def test_construct_verify_round_trip(tmp_path):
    for n in ("7", "20", "34"):
        built = run("construct", "--n", n)
        data = json.loads(built.stdout)
        del data["certificate"]
        path = tmp_path / f"pair{n}.json"
        path.write_text(json.dumps(data))
        checked = run("verify", "--input", str(path))
        assert checked.returncode == 0
        cert = json.loads(checked.stdout)
        assert cert == json.loads(built.stdout)["certificate"]


def test_verify_flags_bad_walks(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"n": 5, "labels": [0, 1, 2, 3, 1], "layout": [0, 0]}))
    res = run("verify", "--input", str(path))
    assert res.returncode == 1
    assert not json.loads(res.stdout)["good"]


def test_verify_schema_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 5, "labels": [0, 1, 2]}')
    res = run("verify", "--input", str(path))
    assert res.returncode == 2
    assert "layout" in res.stderr
    assert run("verify", "--input", str(tmp_path / "absent.json")).returncode == 2
    # Only JSON integers are accepted: no floats, bools or numeric strings.
    for pair in (
        {"n": 6, "labels": [0, 1, 2, 3.0], "layout": [1.0]},
        {"n": True, "labels": [0, 0, 0], "layout": []},
        {"n": "5", "labels": [0, 1, 2], "layout": []},
    ):
        path.write_text(json.dumps(pair))
        res = run("verify", "--input", str(path))
        assert res.returncode == 2 and res.stdout == ""
        assert "expected an integer" in res.stderr


def test_verify_circular_flag(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(
        {"n": 5, "labels": [0, 1, 2, 3, 4, 0, 1], "layout": [0, 0, 0, 0]}))
    plain = run("verify", "--input", str(path))
    assert plain.returncode == 1
    assert json.loads(plain.stdout)["circular"]
    eased = run("verify", "--input", str(path), "--circular-ok")
    assert eased.returncode == 0


def test_genseq_output():
    res = run("genseq", "--n", "37", "--missing", "12")
    assert res.returncode == 0
    assert res.stdout == (
        '{"missing":[1,2],"n":37,"terms":[8,32,15,4,21,7,6,11],"turns":[2]}\n'
    )
    assert sorted(json.loads(res.stdout)) == ["missing", "n", "terms", "turns"]


def test_genseq_full_and_1248():
    full = json.loads(run("genseq", "--n", "29").stdout)
    assert full["missing"] == []
    wide = json.loads(run("genseq", "--n", "29", "--missing", "1248").stdout)
    assert wide["missing"] == [1, 2, 4, 8]


def test_genseq_rejects_bad_modulus():
    assert run("genseq", "--n", "12").returncode == 2
    assert run("genseq", "--n", "13", "--missing", "1248").returncode == 2


def test_decompose_prime():
    res = run("decompose", "--p", "13")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["report"]["ok"]
    assert len(out["cycles"]) == 3
    assert run("decompose", "--p", "7").returncode == 2
    # A product of two primes near 10**9 hits the p ceiling, not trial division.
    started = time.monotonic()
    res = run("decompose", "--p", "1000000016000000063")
    assert res.returncode == 2 and res.stdout == ""
    assert time.monotonic() - started < 1


def test_import_leaves_out_sympy():
    code = (
        "import sys, diamforge; "
        "assert 'sympy' not in sys.modules; "
        "assert 'multiprocessing' not in sys.modules"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_decompose_builtin():
    res = run("decompose", "--builtin", "105")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["n"] == 105 and len(out["cycles"]) == 26
    assert out["report"] == {"ok": True, "missing": [], "doubled": []}
    assert run("decompose", "--builtin", "13").returncode == 2


def test_decompose_input_round_trip(tmp_path):
    built = json.loads(run("decompose", "--p", "29").stdout)
    path = tmp_path / "dec.json"
    path.write_text(json.dumps({"n": 29, "cycles": built["cycles"]}))
    res = run("decompose", "--input", str(path))
    assert res.returncode == 0
    assert json.loads(res.stdout)["report"]["ok"]

    short = {"n": 29, "cycles": built["cycles"][:-1]}
    path.write_text(json.dumps(short))
    res = run("decompose", "--input", str(path))
    assert res.returncode == 1
    report = json.loads(res.stdout)["report"]
    assert report["missing"] and not report["ok"]

    path.write_text(json.dumps({"n": 5.9, "cycles": [[0, 1, 2, 3, 4]]}))
    res = run("decompose", "--input", str(path))
    assert res.returncode == 2 and res.stdout == ""
    assert "expected an integer" in res.stderr


def test_search_json():
    res = run("search", "--n", "5")
    assert res.returncode == 0
    assert res.stdout == (
        '{"best_diameter":3,"exhaustive":true,"n":5,"nodes_explored":11,'
        '"witness":{"labels":[0,1,2,3,4,0],"layout":[0,0,0],"n":5}}\n'
    )


def test_search_budget_and_jobs():
    res = run("search", "--n", "7", "--budget", "40", "--jobs", "2")
    assert res.returncode == 0
    assert json.loads(res.stdout)["exhaustive"] is False
    assert run("search", "--n", "2").returncode == 2


def test_table_lookup():
    hit = run("table", "--n", "7")
    assert hit.returncode == 0
    assert json.loads(hit.stdout) == {
        "n": 7,
        "labels": [0, 1, 2, 3, 4, 5, 0, 6, 4, 1, 5, 2],
        "layout": [0, 0, 0, 1, 1, 0, 0, 1, 1],
    }
    miss = run("table", "--n", "17")
    assert miss.returncode == 1
    assert "17" in miss.stderr and not miss.stdout


def test_seed_is_accepted():
    res = run("--seed", "7", "table", "--n", "3")
    assert res.returncode == 0


def test_unknown_verb():
    assert run("frobnicate").returncode == 2
