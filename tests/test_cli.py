"""End-to-end runs of the command-line interface."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import arithmetic, reference_int_list, reference_verify_partition, run_main
from diamforge import cli, oracle
from diamforge.assembly import MAX_N, construct_optimal
from diamforge.hampack import (
    MAX_P,
    SEQUENCES_105,
    CycleSquare,
    Decomposition,
    _is_prime,
    cycles_from_sequences,
    decompose_prime,
    ord_mod,
    verify_partition,
)


def spawn(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "diamforge", *args], capture_output=True, text=True)


def run(*args: str) -> SimpleNamespace:
    """A CLI run's exit code, stdout and stderr, run in process: the ones
    ``python -m diamforge`` gives, as test_construct_json checks."""
    rc, out, err = run_main(list(args))
    return SimpleNamespace(returncode=rc, stdout=out, stderr=err)


def test_construct_json():
    res = spawn("construct", "--n", "13")
    assert (res.returncode, res.stdout, res.stderr) == run_main(["construct", "--n", "13"])
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
    first = spawn("construct", "--n", "20")
    second = spawn("construct", "--n", "20")
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


def test_construct_rejects_n_above_the_ceiling():
    started = time.monotonic()
    res = run("construct", "--n", str(MAX_N + 1))
    assert res.returncode == 2 and res.stdout == ""
    assert f"n = {MAX_N + 1} exceeds the ceiling {MAX_N}" in res.stderr
    assert time.monotonic() - started < 1


@pytest.mark.parametrize("verb, limit, data", [
    ("verify", MAX_N, {"labels": [0, 1, 2], "layout": []}),
    ("decompose", MAX_P, {"cycles": []}),
])
def test_input_declaring_n_above_the_ceiling(tmp_path, verb, limit, data):
    """A sparse file declaring the ceiling + 1 is refused before any work
    that grows with n."""
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"n": limit + 1, **data}))
    started = time.monotonic()
    assert run_main([verb, "--input", str(path)]) == (
        2, "", f"diamforge: {path}: n = {limit + 1} exceeds the ceiling {limit}\n"
    )
    assert time.monotonic() - started < 1


def run_on(tmp_path, data, verb: str = "verify", *flags: str) -> SimpleNamespace:
    """``VERB --input FILE FLAGS`` run on ``data`` written to FILE as JSON."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return run(verb, "--input", str(path), *flags)


def test_construct_verify_round_trip(tmp_path):
    for n in ("7", "20", "34"):
        built = json.loads(run("construct", "--n", n).stdout)
        cert = built.pop("certificate")
        checked = run_on(tmp_path, built)
        assert checked.returncode == 0
        assert json.loads(checked.stdout) == cert


def test_verify_flags_bad_walks(tmp_path):
    res = run_on(tmp_path, {"n": 5, "labels": [0, 1, 2, 3, 1], "layout": [0, 0]})
    assert res.returncode == 1
    assert not json.loads(res.stdout)["good"]


def test_verify_schema_errors(tmp_path):
    res = run_on(tmp_path, {"n": 5, "labels": [0, 1, 2]})
    assert res.returncode == 2
    assert "layout" in res.stderr
    assert run("verify", "--input", str(tmp_path / "absent.json")).returncode == 2
    # Only JSON integers are accepted: no floats, bools or numeric strings.
    for pair in (
        {"n": 6, "labels": [0, 1, 2, 3.0], "layout": [1.0]},
        {"n": True, "labels": [0, 0, 0], "layout": []},
        {"n": "5", "labels": [0, 1, 2], "layout": []},
    ):
        res = run_on(tmp_path, pair)
        assert res.returncode == 2 and res.stdout == ""
        assert "expected an integer" in res.stderr


def test_verify_reports_degenerate_triangles(tmp_path):
    for labels, layout, index in (([0, 1, 1], [], 0), ([0, 1, 2, 3, 4, 1], [0, 1, 1], 3)):
        res = run_on(tmp_path, {"n": 5, "labels": labels, "layout": layout})
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr == (
            f"diamforge: expansion failed: degenerate triangle at index {index}\n"
        )


def test_verify_circular_flag(tmp_path):
    ring = {"n": 5, "labels": [0, 1, 2, 3, 4, 0, 1], "layout": [0, 0, 0, 0]}
    plain = run_on(tmp_path, ring)
    assert plain.returncode == 1
    assert json.loads(plain.stdout)["circular"]
    eased = run_on(tmp_path, ring, "verify", "--circular-ok")
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
    # dataclasses pulls in inspect, ast and dis: about 15 ms on every run.
    # The small table is read only by orders too small for a construction.
    code = (
        "import sys, diamforge.cli; "
        "loaded = {'sympy', 'multiprocessing', 'dataclasses', 'inspect', 'diamforge._table'}"
        " & set(sys.modules); "
        "assert not loaded, loaded"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


# Lists the diamforge modules whose code ran, in a fresh interpreter, after
# import diamforge alone or after a verb.  A layer not yet run sits in
# sys.modules as a lazy placeholder, a subclass of the module type.
LAYERS_RUN = """
import contextlib, io, sys, types
import diamforge
if sys.argv[1:]:
    import diamforge.cli
    with contextlib.redirect_stdout(io.StringIO()):
        diamforge.cli.main(sys.argv[1:])
print(*(name.split(".", 1)[1] for name, module in sys.modules.items()
        if name.startswith("diamforge.") and type(module) is types.ModuleType))
"""


def layers_run(*argv: str) -> set[str]:
    res = subprocess.run([sys.executable, "-c", LAYERS_RUN, *argv],
                         capture_output=True, text=True, check=True)
    return set(res.stdout.split())


def test_each_verb_runs_only_its_layers(tmp_path):
    path = tmp_path / "walk.json"
    path.write_text(json.dumps({"n": 5, "labels": [0, 1, 2, 3, 4], "layout": [0, 0]}))
    assert layers_run() == set()
    # _base, the leaf that holds Record and edge, runs with any layer.
    assert layers_run("search", "--n", "9") == {"_base", "core", "cli", "oracle"}
    assert layers_run("decompose", "--p", "13") == {"_base", "cli", "hampack"}
    assert layers_run("decompose", "--builtin", "105") == {"_base", "cli", "hampack"}
    assert layers_run("verify", "--input", str(path)) == {"_base", "core", "cli"}
    for n in range(400, 404):
        assert layers_run("construct", "--n", str(n)) == {
            "_base", "core", "cli", "assembly", "genseq"
        }


# Runs the entry point of python -m diamforge on argv in a fresh interpreter,
# or nothing without argv, and lists which of argparse, gettext and locale
# are then loaded.
PARSER_MODULES = """
import contextlib, io, sys
if sys.argv[1:]:
    from diamforge.__main__ import run
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            run()
        except SystemExit:
            pass
print(*sorted({"argparse", "gettext", "locale"} & set(sys.modules)))
"""


def parser_modules(*argv: str) -> set[str]:
    res = subprocess.run([sys.executable, "-c", PARSER_MODULES, *argv],
                         capture_output=True, text=True, check=True)
    return set(res.stdout.split())


def test_plain_argv_leaves_argparse_unloaded(tmp_path):
    path = tmp_path / "walk.json"
    path.write_text(json.dumps({"n": 5, "labels": [0, 1, 2, 3, 4], "layout": [0, 0]}))
    bare = parser_modules()
    for argv in (
        ["construct", "--n", "13"],
        ["search", "--n", "6", "--budget", "0", "--jobs", "2"],
        ["decompose", "--p", "13"],
        ["decompose", "--builtin", "105"],
        ["verify", "--input", str(path)],
        ["genseq", "--n", "13", "--missing", "12"],
        ["table", "--n", "7"],
    ):
        assert parser_modules(*argv) <= bare, argv
    assert "argparse" in parser_modules("construct", "--help") - bare


ODD_VALUES = ["-3", "+5", "5_0", "", "\u0667", " 7", "x", "xml", "-", "--", "-h"]
MUTATIONS = ("abbreviate", "equals", "repeat", "drop", "add", "token")


@st.composite
def argvs(draw) -> list[str]:
    """An argv for a drawn verb, a quarter of its values negative, signed,
    underscored, empty, non-ASCII, a bad choice or a flag, then up to three
    mutations: a flag abbreviated, in ``=`` form, repeated, left out or
    added, or ``-h``, ``--seed`` or a stray word put anywhere."""
    verb = draw(st.sampled_from([*cli._VERBS, "frobnicate"]))
    options = cli._VERBS.get(verb, cli._VERBS["table"])[2]
    one_of = [o for o in options if o[2] is cli._ONE_OF]
    picked = [o for o in options if o[2] is cli._REQUIRED
              or o[2] is not cli._ONE_OF and draw(st.booleans())]
    picked += [draw(st.sampled_from(one_of))] if one_of else []

    def pair(option) -> list[str]:
        flag, kind, _, _ = option
        if kind is bool:
            return [flag]
        valid = (st.sampled_from(kind) if type(kind) is tuple else
                 st.integers(0, 120).map(str) if kind is int else st.just("in.json"))
        return [flag, draw(st.one_of(valid, valid, valid, st.sampled_from(ODD_VALUES)))]

    args = [pair(o) for o in draw(st.permutations(picked))]
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        i = draw(st.integers(0, len(args)))
        if mutation == "add" or i == len(args):
            args.insert(i, pair(draw(st.sampled_from(options))))
        elif mutation == "abbreviate" and len(args[i][0]) > 3:
            args[i][0] = args[i][0][:-1]
        elif mutation == "equals":
            args[i] = ["=".join(args[i])]
        elif mutation == "repeat":
            args.insert(i, list(args[i]))
        elif mutation == "drop":
            del args[i]
        elif mutation == "token":
            args.insert(i, [draw(st.sampled_from(["-h", "--help", "--seed", "word"]))])
    head = draw(st.sampled_from([[], [], ["--seed", "3"], ["--seed", "+4"], ["--seed", "-1"],
                                 ["--seed", ""], ["--seed"], ["--se", "3"], ["-h"]]))
    return [*head, verb, *(token for arg in args for token in arg)]


PARSER = cli._build_parser()


@settings(max_examples=2000, deadline=None)
@given(argvs())
def test_plain_argv_matcher_agrees_with_argparse(argv):
    """The matcher returns None, or the namespace argparse makes; None
    whenever argparse exits, for help or for an error."""
    matched = cli._match(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = PARSER.parse_args(argv)
        except SystemExit:
            parsed = None
    assert matched is None or parsed is not None and vars(matched) == vars(parsed), argv


def test_decompose_leaves_core_an_unrun_placeholder():
    """A fresh interpreter prints the partition of K_13 without running
    core: diamforge.core stays the lazy module the package bound."""
    code = (
        "import contextlib, io, sys, types\n"
        "import diamforge.cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    rc = diamforge.cli.main(['decompose', '--p', '13'])\n"
        "core = sys.modules['diamforge.core']\n"
        "assert rc == 0 and '\"ok\":true' in out.getvalue(), (rc, out.getvalue())\n"
        "assert isinstance(core, types.ModuleType) and type(core) is not types.ModuleType\n"
        "assert diamforge.core is core\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_decompose_builtin():
    res = run("decompose", "--builtin", "105")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["n"] == 105 and len(out["cycles"]) == 26
    assert out["report"] == {"ok": True, "missing": [], "doubled": []}
    assert run("decompose", "--builtin", "13").returncode == 2


def test_decompose_input_round_trip(tmp_path):
    cycles = json.loads(run("decompose", "--p", "29").stdout)["cycles"]
    res = run_on(tmp_path, {"n": 29, "cycles": cycles}, "decompose")
    assert res.returncode == 0
    assert json.loads(res.stdout)["report"]["ok"]

    res = run_on(tmp_path, {"n": 29, "cycles": cycles[:-1]}, "decompose")
    assert res.returncode == 1
    report = json.loads(res.stdout)["report"]
    assert report["missing"] and not report["ok"]

    res = run_on(tmp_path, {"n": 5.9, "cycles": [[0, 1, 2, 3, 4]]}, "decompose")
    assert res.returncode == 2 and res.stdout == ""
    assert "expected an integer" in res.stderr


def test_decompose_input_circulant_families(tmp_path):
    # The steps of decompose --p 29, shifted and every other cycle reversed.
    steps = [c[1] for c in json.loads(run("decompose", "--p", "29").stdout)["cycles"]]
    cycles = [arithmetic(29, 3 + i, s if i % 2 else 29 - s) for i, s in enumerate(steps)]
    res = run_on(tmp_path, {"n": 29, "cycles": cycles}, "decompose")
    assert res.returncode == 0
    assert json.loads(res.stdout)["report"] == {"ok": True, "missing": [], "doubled": []}

    # Steps 1 and 2 replace steps 1 and 4: class 2 twice, class 8 never.
    cycles = [arithmetic(29, 0, 1), arithmetic(29, 5, 2)] + cycles[2:]
    res = run_on(tmp_path, {"n": 29, "cycles": cycles}, "decompose")
    assert res.returncode == 1
    want = reference_verify_partition(Decomposition(29, [CycleSquare(c) for c in cycles]))
    assert want.doubled and want.missing
    assert json.loads(res.stdout)["report"] == {
        "ok": False,
        "missing": [list(e) for e in want.missing],
        "doubled": [list(e) for e in want.doubled],
    }


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


def test_search_budget_defaults_to_the_oracle_budget(monkeypatch):
    """Without --budget, search reads oracle.DEFAULT_BUDGET when it runs,
    not when the parser is built."""
    default = run_main(["search", "--n", "6"])
    assert default == run_main(["search", "--n", "6", "--budget", "100000000"])
    assert default[0] == 0
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 5)
    capped = run_main(["search", "--n", "9"])
    assert capped == run_main(["search", "--n", "9", "--budget", "5"])
    assert json.loads(capped[1])["nodes_explored"] == 5


def test_search_deeper_than_the_recursion_limit():
    # The first branch runs about 1,000 triangles deep before the budget hits.
    res = run("search", "--n", "70", "--budget", "3000")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["exhaustive"] is False
    assert out["nodes_explored"] == 3000
    assert out["best_diameter"] > 1000


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


def test_decompose_input_below_five_vertices(tmp_path):
    path = tmp_path / "input.json"
    for n in (3, 4):
        res = run_on(tmp_path, {"n": n, "cycles": [list(range(n))]}, "decompose")
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == f"diamforge: {path}: cycle square needs at least five vertices\n"


def test_decompose_input_rejects_non_positive_n(tmp_path):
    path = tmp_path / "input.json"
    for n in (0, -3):
        res = run_on(tmp_path, {"n": n, "cycles": []}, "decompose")
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == f"diamforge: {path}: n must be positive, got {n}\n"
    res = run_on(tmp_path, {"n": 1, "cycles": []}, "decompose")
    assert res.returncode == 0
    assert res.stdout == canonical(
        {"n": 1, "cycles": [], "report": {"ok": True, "missing": [], "doubled": []}}
    )


MALFORMED_JSON = {
    "not_utf8": b'{"n": 5, "labels": [0, 1, 2], "layout": [], "note": "\xff"}',
    "nested_100000_deep": b"[" * 100_000 + b"]" * 100_000,
    "integer_of_5000_digits": b'{"n": ' + b"7" * 5000 + b', "cycles": []}',
}


def test_malformed_input_files_exit_2(tmp_path):
    path = tmp_path / "malformed.json"
    for name, data in MALFORMED_JSON.items():
        path.write_bytes(data)
        for verb in ("verify", "decompose"):
            res = run(verb, "--input", str(path))
            assert res.returncode == 2 and res.stdout == "", (name, verb)
            assert "Traceback" not in res.stderr, (name, verb)
            assert res.stderr.startswith(f"diamforge: {path} is not valid JSON: "), (name, verb)


VERIFY = ("verify", "--input", "{path}")
DECOMPOSE = ("decompose", "--input", "{path}")
PAIR = {"n": 6, "labels": [0, 1, 2, 3, 4, 5, 0], "layout": [0, 1, 0, 1]}
DIRECTORY = object()  # the input path names a directory


def _pair_with_label(x, at: int) -> dict:
    labels = list(PAIR["labels"])
    labels[at] = x
    return {**PAIR, "labels": labels}


# name: (argv, input file contents, exit code, stderr after "diamforge: ").
# "{path}" stands for the input file, which None leaves absent.
ERRORS = {
    **{
        f"{verb[0]}_{name}": (verb, data, 2, message)
        for verb in (VERIFY, DECOMPOSE)
        for name, data, message in (
            ("absent_file", None,
             "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
            ("directory", DIRECTORY, "cannot read {path}: [Errno 21] Is a directory: '{path}'"),
            ("not_json", b"{n: 5", "{path} is not valid JSON: Expecting property name "
             "enclosed in double quotes: line 1 column 2 (char 1)"),
            ("not_an_object", [1, 2, 3], "{path}: expected a JSON object"),
        )
    },
    "verify_missing_key": (VERIFY, {"n": 6, "labels": [0, 1, 2]}, 2,
                           "{path}: missing key 'layout'"),
    # Every key is fetched before any type is checked.
    "verify_missing_key_and_bad_n": (VERIFY, {"n": True, "layout": []}, 2,
                                     "{path}: missing key 'labels'"),
    **{
        f"verify_{kind}_label_at_{at}": (VERIFY, _pair_with_label(x, at), 2,
                                         f"{{path}}: labels: expected an integer, got {shown}")
        for kind, x, shown in (
            ("bool", True, "true"),
            ("float", 1.0, "1.0"),
            ("string", "1", '"1"'),
            ("list", [1], "[1]"),
        )
        for at in (0, 3, 6)
    },
    "verify_float_n": (VERIFY, {**PAIR, "n": 6.0}, 2, "{path}: n: expected an integer, got 6.0"),
    "verify_layout_not_a_list": (VERIFY, {**PAIR, "layout": "0101"}, 2,
                                 '{path}: layout: expected a list of integers, got "0101"'),
    "verify_label_out_of_range": (VERIFY, _pair_with_label(6, 5), 2,
                                  "{path}: label 6 out of range for n=6"),
    "verify_bad_bit": (VERIFY, {**PAIR, "layout": [0, 2, 0, 1]}, 2,
                       "{path}: layout bit 2 is not 0 or 1"),
    "verify_n_zero": (VERIFY, {**PAIR, "n": 0}, 2, "{path}: n must be positive, got 0"),
    "verify_degenerate_triangle": (VERIFY, {"n": 5, "labels": [0, 1, 1], "layout": []}, 1,
                                   "expansion failed: degenerate triangle at index 0"),
    "decompose_missing_key": (DECOMPOSE, {"n": 5}, 2, "{path}: missing key 'cycles'"),
    # Keys are fetched in the order n, cycles, and n is checked first.
    "decompose_missing_both_keys": (DECOMPOSE, {}, 2, "{path}: missing key 'n'"),
    "decompose_bad_n_and_bad_cycles": (DECOMPOSE, {"n": "5", "cycles": 7}, 2,
                                       '{path}: n: expected an integer, got "5"'),
    "decompose_float_n": (DECOMPOSE, {"n": 5.9, "cycles": [[0, 1, 2, 3, 4]]}, 2,
                          "{path}: n: expected an integer, got 5.9"),
    "decompose_null_n": (DECOMPOSE, {"n": None, "cycles": []}, 2,
                         "{path}: n: expected an integer, got null"),
    "decompose_list_n": (DECOMPOSE, {"n": [5], "cycles": []}, 2,
                         "{path}: n: expected an integer, got [5]"),
    "decompose_n_negative": (DECOMPOSE, {"n": -3, "cycles": []}, 2,
                             "{path}: n must be positive, got -3"),
    **{
        f"decompose_cycles_{kind}": (DECOMPOSE, {"n": 5, "cycles": cycles}, 2,
                                     f"{{path}}: cycles: expected a list of cycles, got {shown}")
        for kind, cycles, shown in (
            ("not_a_list", 7, "7"),
            ("object", {"0": [0, 1, 2, 3, 4]}, '{"0": [0, 1, 2, 3, 4]}'),
            ("string", "01234", '"01234"'),
            ("null", None, "null"),
            ("float", 7.5, "7.5"),
        )
    },
    "decompose_cycle_not_a_list": (DECOMPOSE, {"n": 5, "cycles": [3]}, 2,
                                   "{path}: cycles: expected a list of integers, got 3"),
    "decompose_bool_in_cycle": (DECOMPOSE, {"n": 5, "cycles": [[True, 1, 2, 3, 4]]}, 2,
                                "{path}: cycles: expected an integer, got true"),
    "decompose_not_a_permutation": (DECOMPOSE, {"n": 5, "cycles": [[0, 1, 2, 3, 3]]}, 2,
                                    "{path}: ordering is not a permutation of 0..n-1"),
    "decompose_two_vertices": (DECOMPOSE, {"n": 2, "cycles": [[0, 1]]}, 2,
                               "{path}: cycle needs at least three vertices"),
    "decompose_four_vertices": (DECOMPOSE, {"n": 4, "cycles": [[0, 1, 2, 3]]}, 2,
                                "{path}: cycle square needs at least five vertices"),
    "decompose_cycle_of_other_order": (DECOMPOSE, {"n": 9, "cycles": [[0, 1, 2, 3, 4]]}, 2,
                                       "{path}: cycle on 5 vertices in a decomposition of K_9"),
    "genseq_even": (("genseq", "--n", "12"), None, 2, "modulus must be 4k+1, got 12"),
    "genseq_k_2": (("genseq", "--n", "9"), None, 2,
                   "n = 9 is below 13, the smallest modulus of this family"),
    "genseq_12_k_3": (("genseq", "--n", "13", "--missing", "12"), None, 2,
                      "n = 13 is below 17, the smallest modulus of this family"),
    "genseq_1248_k_3": (("genseq", "--n", "13", "--missing", "1248"), None, 2,
                        "n = 13 is below 29, the smallest modulus of this family"),
    "genseq_above_ceiling": (("genseq", "--n", "1000005"), None, 2,
                             "n = 1000005 exceeds the ceiling 1000001"),
    "decompose_p_2": (("decompose", "--p", "2"), None, 2,
                      "no family of arithmetic cycle squares partitions K_2: "
                      "ord_2(2) is undefined"),
    "decompose_p_3": (("decompose", "--p", "3"), None, 2,
                      "no family of arithmetic cycle squares partitions K_3: "
                      "ord_3(2) = 2 is not divisible by 4"),
    "decompose_p_8": (("decompose", "--p", "8"), None, 2, "8 is not prime"),
    "decompose_p_73": (("decompose", "--p", "73"), None, 2,
                       "no family of arithmetic cycle squares partitions K_73: "
                       "ord_73(2) = 9 is not divisible by 4"),
    "decompose_p_100003": (("decompose", "--p", "100003"), None, 2,
                           "p = 100003 exceeds the ceiling 15000"),
    "decompose_p_15013": (("decompose", "--p", "15013"), None, 2,
                          "p = 15013 exceeds the ceiling 15000"),
    "decompose_builtin_7": (("decompose", "--builtin", "7"), None, 2,
                            "no built-in decomposition for n=7"),
    "search_n_2": (("search", "--n", "2"), None, 2, "need at least three labels"),
    "search_negative_budget": (("search", "--n", "5", "--budget", "-1"), None, 2,
                               "budget cannot be negative"),
    "search_jobs_0": (("search", "--n", "5", "--jobs", "0"), None, 2, "jobs must be positive"),
    "construct_n_2": (("construct", "--n", "2"), None, 2, "need at least three vertices"),
    "construct_above_ceiling": (("construct", "--n", "5001"), None, 2,
                                "n = 5001 exceeds the ceiling 5000"),
    "table_miss": (("table", "--n", "17"), None, 1, "no table entry for n=17"),
}


@pytest.mark.parametrize("argv, data, code, message", ERRORS.values(), ids=list(ERRORS))
def test_error_messages(tmp_path, argv, data, code, message):
    """Each rejection prints one line on stderr, nothing on stdout, and exits 2
    (1 for a failed expansion or a table miss)."""
    path = str(tmp_path / "input.json")
    if data is DIRECTORY:
        os.mkdir(path)
    elif isinstance(data, bytes):
        with open(path, "wb") as fh:
            fh.write(data)
    elif data is not None:
        with open(path, "w") as fh:
            json.dump(data, fh)
    argv = [arg.replace("{path}", path) for arg in argv]
    want = f"diamforge: {message.replace('{path}', path)}\n"
    assert run_main(argv) == (code, "", want)


def test_genseq_refuses_n_above_the_ceiling():
    assert cli.MAX_GENSEQ_N % 4 == 1
    n = cli.MAX_GENSEQ_N + 4  # the next modulus of the form 4k+1
    started = time.monotonic()
    assert run_main(["genseq", "--n", str(n)]) == (
        2, "", f"diamforge: n = {n} exceeds the ceiling {cli.MAX_GENSEQ_N}\n"
    )
    assert time.monotonic() - started < 0.5


def test_int_list_matches_the_reference():
    def outcome(check, xs):
        try:
            return check("labels", xs)
        except ValueError as exc:
            return str(exc)

    rng = random.Random(16)
    for length in (1, 2, 3, 10, 1000):
        for _ in range(3):
            xs = [rng.randrange(-10**6, 10**6) for _ in range(length)]
            got = cli._int_list("labels", xs)
            assert type(got) is tuple and got == reference_int_list("labels", xs) == tuple(xs)
            for bad in (True, 1.5, "7", None, [1], {"a": 1}):
                for at in (0, length // 2, length - 1):
                    ys = xs[:at] + [bad] + xs[at + 1 :]
                    for zs in (ys, ys + [None]):  # the first offender is named
                        want = outcome(reference_int_list, zs)
                        assert type(want) is str and outcome(cli._int_list, zs) == want
    for xs in (5, "abc", {"a": 1}, None, (1, 2)):
        want = outcome(reference_int_list, xs)
        assert type(want) is str and outcome(cli._int_list, xs) == want


def canonical(obj: dict) -> str:
    """The reference for every verb's stdout."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def decomposition_object(d: Decomposition) -> tuple[int, dict]:
    rep = verify_partition(d)
    report = {
        "ok": rep.ok,
        "missing": [list(e) for e in rep.missing],
        "doubled": [list(e) for e in rep.doubled],
    }
    cycles = [list(c.order) for c in d.cycles]
    return (0 if rep.ok else 1), {"n": d.n, "cycles": cycles, "report": report}


def test_construct_emit_matches_json_dumps():
    for n in [*range(3, 61), *range(400, 404)]:
        pair, cert = construct_optimal(n)
        want = {
            "n": n,
            "labels": list(pair.labels),
            "layout": list(pair.layout),
            "certificate": {
                "good": cert.good,
                "circular": cert.circular,
                "covered_edges": cert.covered_edges,
                "diameter": cert.diameter,
                "optimum": cert.optimum,
                "matches_optimum": cert.matches_optimum,
                "uncovered_edges": cert.uncovered_edges,
            },
        }
        assert run_main(["construct", "--n", str(n)]) == (0, canonical(want), ""), n


def test_decompose_emit_matches_json_dumps():
    for p in range(5, 1014):
        if _is_prime(p) and p % 4 == 1 and ord_mod(2, p) % 4 == 0:
            rc, want = decomposition_object(decompose_prime(p))
            assert run_main(["decompose", "--p", str(p)]) == (rc, canonical(want), ""), p
    d = cycles_from_sequences(105, SEQUENCES_105)
    rc, want = decomposition_object(d)
    assert run_main(["decompose", "--builtin", "105"]) == (rc, canonical(want), "")


def test_decompose_input_emit_matches_json_dumps(tmp_path):
    families = {
        "missing_edges": (29, [arithmetic(29, 0, s) for s in (1, 4, 16, 6, 24, 9)]),
        "doubled_edges": (13, [arithmetic(13, 0, s) for s in (1, 2, 5)]),
        "extra_cycle": (13, [arithmetic(13, 0, s) for s in (1, 4, 3, 1)]),
        "zero_cycles": (13, []),
        "zero_cycles_n40": (40, []),
    }
    path = tmp_path / "dec.json"
    for name, (n, cycles) in families.items():
        path.write_text(json.dumps({"n": n, "cycles": cycles}))
        rc, want = decomposition_object(Decomposition(n, [CycleSquare(c) for c in cycles]))
        assert run_main(["decompose", "--input", str(path)]) == (rc, canonical(want), ""), name


def test_emit_chunk_boundaries():
    for length in (0, 1, 2, 4095, 4096, 4097, 8191, 8192, 8193, 12289):
        ids = tuple(i * 7 % 11 for i in range(length))
        rows = [ids[i:] for i in range(0, length + 1, 4096)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit({"n": 11, "m": [1, {"b": 2, "a": None}]}, 11, ids=ids, rows=rows)
        want = {"n": 11, "m": [1, {"b": 2, "a": None}], "ids": ids, "rows": rows}
        assert out.getvalue() == canonical(want), length


def test_emit_rows_of_every_short_length():
    """Rows of 0, 1, 2 and 3 ids and a one-id flat array print as
    json.dumps prints them: the id gather returns one name bare."""
    rows = [(), (10,), (3, 12), (0, 7, 11)]
    for nested in (rows, rows[::-1], [(12,)], [()], []):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit({"n": 13}, 13, cycles=nested, labels=(12,))
        want = {"n": 13, "cycles": [list(r) for r in nested], "labels": [12]}
        assert out.getvalue() == json.dumps(
            want, sort_keys=True, separators=(",", ":")
        ) + "\n", nested


def test_bit_writer_matches_json_and_the_id_writer():
    """Layout bits passed as bytes print as json.dumps prints their list,
    and as text as the id writer prints their tuple, across 4096-bit chunks."""
    rng = random.Random(0xB175)
    for length in (0, 1, 4095, 4096, 4097, 8193):
        bits = tuple(rng.randrange(2) for _ in range(length))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit({"n": 2}, 2, labels=(1, 0), layout=bytes(bits))
        assert out.getvalue() == json.dumps(
            {"n": 2, "labels": [1, 0], "layout": list(bits)}, sort_keys=True, separators=(",", ":")
        ) + "\n", length
        text, ids = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(text):
            cli._write_words("layout:", bytes(bits))
        with contextlib.redirect_stdout(ids):
            print("layout:", end=" ")
            cli._write_ids(bits, ["0", "1"], " ")
            print()
        assert text.getvalue() == ids.getvalue() == f"layout: {' '.join(map(str, bits))}\n"


def test_emit_without_ids_builds_no_table():
    """A declared order alone allocates nothing per vertex."""
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            cli._emit({"n": 10**6, "report": {"ok": False}}, 10**6, cycles=[], labels=())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.getvalue() == canonical(
        {"n": 10**6, "report": {"ok": False}, "cycles": [], "labels": []}
    )
    assert peak < 100_000


def test_closed_stdout_pipe_exits_quietly():
    """A reader that stops early (``| head -c 10``) gets no traceback, from
    ``python -m diamforge`` or from the installed script's entry point."""
    script = "import sys; from diamforge.__main__ import run; sys.exit(run())"
    for entry, fmt in ((["-m", "diamforge"], "text"), (["-m", "diamforge"], "json"),
                       (["-c", script], "json")):
        proc = subprocess.Popen(
            [sys.executable, *entry, "construct", "--n", "1000", "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1, fmt
        assert err == b"", err.decode()
