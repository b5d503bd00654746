"""Tests of the benchmark itself: seeded inputs, output checks and spans.

Run with ``PYTHONPATH=src python3 -m pytest perfbench``.  The program is
called in-process on small inputs, so these take about a second.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _tamper(stdout: bytes, edit) -> bytes:
    obj = json.loads(stdout)
    edit(obj)
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _write(tmp_path: Path, name: str, n: int, labels, layout) -> str:
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "labels": labels, "layout": layout}))
    return str(path)


def test_verify_inputs_are_byte_identical_for_one_seed(tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    first = wl.invocations("verify", 7, a, 2)
    wl.invocations("verify", 7, b, 2)
    wl.invocations("verify", 8, c, 2)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert len(names) == len(first) == 7
    assert all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
    assert any((a / n).read_bytes() != (c / n).read_bytes() for n in names)


def test_seeded_invocations_repeat():
    for w in ("construct", "pack"):
        one = [i.argv for i in wl.invocations(w, 3, None, 2)]
        assert one == [i.argv for i in wl.invocations(w, 3, None, 2)]
    assert {int(i.argv[2]) % 4 for i in wl.invocations("construct", 3, None, 2)} == {0, 1, 2, 3}


def test_construct_check_accepts_real_output_and_rejects_tampering():
    check = wl._construct_check(23)
    rc, out, _ = run.call_main(("construct", "--n", "23"))
    assert check(rc, out) is None
    assert check(1, out) is not None

    def bump_diameter(o):
        o["certificate"]["diameter"] += 1

    def break_walk(o):
        o["labels"][5] = o["labels"][3]

    def hide_uncovered(o):
        o["certificate"]["uncovered_edges"] = []
        o["certificate"]["covered_edges"] += 1

    for edit in (bump_diameter, break_walk, hide_uncovered):
        assert check(rc, _tamper(out, edit)) is not None, edit.__name__


def test_verify_checks_match_real_outputs_per_input_class(tmp_path):
    rng = random.Random(5)
    good = wl.good_walk(rng, 30, 120)
    reuse, j = wl.reuse_walk(rng, 30, 150)
    ring = wl.ring_pair(41, wl.ring_terms(rng, 41, 5))
    cases = [
        (good.labels, good.layout, 30, 0, dict(good=True, circular=False, diameter=119), ()),
        (reuse.labels, reuse.layout, 30, 1,
         dict(good=False, circular=False, diameter=j + (150 - j) // 2), ()),
        (*ring, 41, 0, dict(good=True, circular=True, diameter=41 * 5 // 2), ("--circular-ok",)),
    ]
    for k, (labels, layout, n, want_rc, expect, flags) in enumerate(cases):
        path = _write(tmp_path, f"in{k}.json", n, labels, layout)
        check = wl._verify_check(n, labels, layout, want_rc, **expect)
        rc, out, _ = run.call_main(("verify", "--input", path, *flags))
        assert check(rc, out) is None, (k, check(rc, out))
        assert check(1 - rc, out) is not None
        assert check(rc, _tamper(out, lambda o: o.update(good=not o["good"]))) is not None
        assert check(rc, _tamper(out, lambda o: o["uncovered_edges"].pop())) is not None


def test_search_check_rejects_a_wrong_answer():
    import diamforge.assembly

    pair = diamforge.assembly.small_table(9).pair
    out = (json.dumps({"best_diameter": 16, "exhaustive": True, "n": 9, "nodes_explored": 5,
                       "witness": {"labels": list(pair.labels), "layout": list(pair.layout),
                                   "n": 9}}) + "\n").encode()
    assert wl.search_check(0, out) is None
    assert wl.search_check(0, _tamper(out, lambda o: o.update(exhaustive=False))) is not None
    assert wl.search_check(0, _tamper(out, lambda o: o.update(best_diameter=15))) is not None
    assert wl.search_check(0, _tamper(out, lambda o: o["witness"]["layout"].pop())) is not None


def test_pack_check_rejects_a_broken_partition():
    check = wl._pack_check(13)
    rc, out, _ = run.call_main(("decompose", "--p", "13"))
    assert check(rc, out) is None

    def swap(o):
        cyc = o["cycles"][0]
        cyc[0], cyc[3] = cyc[3], cyc[0]

    assert check(rc, _tamper(out, swap)) is not None
    assert check(rc, _tamper(out, lambda o: o["cycles"].pop())) is not None


def test_tally_counts_failures_and_changed_outputs():
    tally = run.Tally()
    ok = lambda rc, out: None  # noqa: E731
    tally.record("a", 0, b"x\n", ok)
    tally.record("a", 0, b"x\n", ok)
    tally.record("a", 0, b"y\n", ok)  # differs from the first run
    tally.record("b", 0, b"", lambda rc, out: "wrong")
    tally.record("b", 0, b"", lambda rc, out: "wrong")
    tally.record("c", 0, b"", lambda rc, out: 1 / 0)
    assert tally.finish() == (6, 4)
    assert tally.records["a"]["stdout_sha256"] == run.hashlib.sha256(b"x\n").hexdigest()
    assert tally.records["b"]["error"] == "wrong"


def test_tracer_spans_nest_and_patches_are_undone():
    import diamforge.core as core

    original = core.certify
    tracer = spans.Tracer()
    with tracer.patch():
        rc, out, wall = run.call_main(("construct", "--n", "21"))
        assert core.certify is not original
    assert core.certify is original and rc == 0
    top = [s for s in tracer.spans if s.parent < 0]
    assert [s.name for s in top] == ["cli.main"]
    assert abs(sum(tracer.self_times()) - top[0].duration) < 1e-9
    assert tracer.spans[top[0].request].name == "cli.main"
    names = {s.name for s in tracer.spans}
    assert {"assembly.construct_optimal", "core.certify", "genseq.cut_circular"} <= names
    assert tracer.counts()["core.certified_triangles"] == wl.optimum(21) + 1


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      7000 |      17000 |   diamforge.core",
        "import time:      1000 |     300000 |     sympy",
        "import time:      2000 |     302000 |   diamforge.hampack",
        "import time:       500 |     330000 | diamforge",
    ])
    got = spans.parse_importtime(text)
    assert got == pytest.approx({"total": 0.33, "sympy": 0.3, "diamforge_self": 0.0095})
