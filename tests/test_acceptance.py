"""Acceptance gate: one test per published claim, with wall-clock limits.

Each test prints a CRITERION line via the conftest hook so a run can be
skimmed for a verdict, with its runtime next to its bound.  The limits are
deliberately loose multiples of the observed runtimes; a failure here means
a real regression, not noise.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time

from sympy import primerange

from diamforge.assembly import (
    attach_4k3,
    attach_4k4,
    attach_4k6,
    construct_optimal,
    small_table,
)
from diamforge.core import (
    covered_edges,
    dual_diameter,
    encode_triples,
    expand_pair,
    hs_max_diameter,
)
from diamforge.genseq import (
    canonical_residue,
    expand_pair_of,
    gs_full,
    gs_missing_12,
    gs_missing_1248,
    verify_generating_sequence,
)
from diamforge.hampack import (
    SEQUENCES_105,
    cycles_from_sequences,
    decompose_prime,
    ord_mod,
    square_edges,
    verify_partition,
)
from diamforge.oracle import search_max_diameter
from conftest import random_good_pair


# Wall-clock bound in seconds of each criterion that has one, read by its
# assert and by the CRITERION report in conftest.
BOUNDS_S = {1: 30, 2: 300, 3: 10, 4: 5, 5: 30, 6: 10, 7: 10, 8: 1, 9: 5}


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "diamforge", *args],
        capture_output=True,
        text=True,
    )


def test_criterion_01_construction_totality():
    started = time.monotonic()
    for n in range(3, 201):
        _, cert = construct_optimal(n)
        assert cert.good and not cert.circular
        assert cert.diameter == hs_max_diameter(n)
        assert cert.matches_optimum
    probe = cli("construct", "--n", "47")
    assert probe.returncode == 0
    assert json.loads(probe.stdout)["certificate"]["matches_optimum"]
    assert time.monotonic() - started < BOUNDS_S[1]


def test_criterion_02_search_confirms_small_optima():
    started = time.monotonic()
    for n in range(3, 8):
        res = search_max_diameter(n)
        assert res.exhaustive
        assert res.best_diameter == hs_max_diameter(n)
    probe = cli("search", "--n", "6")
    out = json.loads(probe.stdout)
    assert probe.returncode == 0 and out["exhaustive"] and out["best_diameter"] == 5
    assert time.monotonic() - started < BOUNDS_S[2]


def test_criterion_03_attachment_plan_budgets():
    started = time.monotonic()
    for k in range(4, 41):
        plan = attach_4k4(k)
        assert len(covered_edges(plan)) - 1 == 20 * k + 8
    for k in range(5, 41):
        plan = attach_4k3(k)
        assert len(covered_edges(plan)) - 1 == 16 * k + 6
    for k in range(7, 41):
        plan_a, plan_b = attach_4k6(k)
        assert len(covered_edges(plan_a)) - 1 == 16 * k + 6
        assert len(covered_edges(plan_b)) - 1 == 20 * k + 14
    assert time.monotonic() - started < BOUNDS_S[3]


def test_criterion_04_families_have_exact_missing_sets():
    started = time.monotonic()
    for k in range(3, 61):
        rep = verify_generating_sequence(gs_full(k))
        assert rep.valid and rep.missing == frozenset()
    for k in range(4, 61):
        rep = verify_generating_sequence(gs_missing_12(k))
        assert rep.valid and rep.missing == frozenset({1, 2})
    for k in range(7, 61):
        rep = verify_generating_sequence(gs_missing_1248(k))
        assert rep.valid and rep.missing == frozenset({1, 2, 4, 8})
    assert time.monotonic() - started < BOUNDS_S[4]


def test_criterion_05_missing_classes_match_ring_coverage():
    started = time.monotonic()
    cases = [(gs_full(k), frozenset()) for k in range(3, 63)]
    cases += [(gs_missing_12(k), frozenset({1, 2})) for k in range(4, 63)]
    cases += [(gs_missing_1248(k), frozenset({1, 2, 4, 8})) for k in range(7, 63)]
    assert len(cases) == 175
    for gs, missing in cases:
        n = gs.n
        assert n <= 250
        ring = expand_pair(expand_pair_of(gs))
        classes = {canonical_residue(u - v, n) for u, v in covered_edges(ring)}
        assert classes == set(range(1, (n - 1) // 2 + 1)) - missing
    assert time.monotonic() - started < BOUNDS_S[5]


def test_criterion_06_prime_decompositions():
    started = time.monotonic()
    eligible = [
        p for p in primerange(5, 501)
        if p % 4 == 1 and ord_mod(2, p) % 4 == 0
    ]
    assert len(eligible) == 39
    for p in eligible:
        dec = decompose_prime(p)
        assert len(dec.cycles) == (p - 1) // 4
        assert verify_partition(dec).ok
    probe = cli("decompose", "--p", "13")
    assert probe.returncode == 0 and json.loads(probe.stdout)["report"]["ok"]
    assert time.monotonic() - started < BOUNDS_S[6]


def test_criterion_07_order_divisibility_sweep():
    started = time.monotonic()
    count = 0
    for p in primerange(5, 100001):
        if p % 8 == 5:
            assert ord_mod(2, p) % 4 == 0
            count += 1
    assert count == 2399
    assert time.monotonic() - started < BOUNDS_S[7]


def test_criterion_08_order_105_partition():
    started = time.monotonic()
    dec = cycles_from_sequences(105, SEQUENCES_105)
    assert len(dec.cycles) == 26
    assert sum(len(square_edges(c)) for c in dec.cycles) == 5460
    assert verify_partition(dec).ok
    assert time.monotonic() - started < BOUNDS_S[8]


def test_criterion_09_table_rows_and_general_overlap():
    started = time.monotonic()
    rows = [n for n in range(3, 31) if small_table(n) is not None]
    assert len(rows) == 19
    for n in rows:
        seq = expand_pair(small_table(n).pair)
        assert dual_diameter(seq) == hs_max_diameter(n)
    for n in (13, 17, 20, 21, 23, 24, 25, 27, 28, 29):
        _, cert = construct_optimal(n)
        assert cert.diameter == hs_max_diameter(n)
    assert time.monotonic() - started < BOUNDS_S[9]


def test_criterion_10_random_walk_laws():
    rng = random.Random(0xD1A)
    for _ in range(10_000):
        pair = random_good_pair(rng)
        seq = expand_pair(pair)
        t = len(seq.triangles)
        assert len(covered_edges(seq)) == 2 * t + 1
        diam = dual_diameter(seq)
        assert diam == t - 1
        assert diam <= hs_max_diameter(pair.n)
        back = expand_pair(encode_triples(seq))
        assert back.triangles in (seq.triangles, list(reversed(seq.triangles)))
