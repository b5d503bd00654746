"""The one-pass codec certifier against the frozenset reference."""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from itertools import accumulate
from pathlib import Path

import pytest

from conftest import corrupted_pair, random_good_pair, reference_certify, run_main
from diamforge import core, genseq
from diamforge._base import distinct_classes
from diamforge.assembly import construct_optimal
from diamforge.cli import _dumps, _record
from diamforge.core import LabelsLayout, certify, expand_pair
from diamforge.genseq import (
    cut_circular,
    expand_to_circular,
    gs_full,
    gs_missing_12,
    gs_missing_1248,
    ring_window,
)
from test_core import RING13, STRIP


def assert_agrees(pair: LabelsLayout):
    """certify(pair) equals the reference certificate of its expansion."""
    cert = certify(pair)
    assert cert == reference_certify(pair)
    return cert


def closed_pair(rng, n: int) -> LabelsLayout | None:
    """A random walk forced to end on its first two labels, or None when
    that step is degenerate; most such walks are not good."""
    base = random_good_pair(rng, n)
    labels = base.labels + base.labels[:2]
    layout = base.layout + (rng.randrange(2), rng.randrange(2))
    pair = LabelsLayout(n, labels, layout)
    try:
        expand_pair(pair)
    except ValueError:
        return None
    return pair


def test_random_and_corrupted_walks():
    rng = random.Random(0xCE27)
    for _ in range(10_000):
        assert assert_agrees(random_good_pair(rng)).good
        assert not assert_agrees(corrupted_pair(rng)).good


def test_rings_are_circular():
    assert assert_agrees(RING13).circular
    rings = 0
    for k in range(3, 31):
        families = [gs_full(k)]
        if k >= 4:
            families.append(gs_missing_12(k))
        if k >= 7:
            families.append(gs_missing_1248(k))
        for gs in families:
            cert = assert_agrees(expand_to_circular(gs))
            assert cert.good and cert.circular and not cert.matches_optimum
            rings += 1
    assert rings == 28 + 27 + 24


def test_walks_that_close_on_their_first_edge():
    rng = random.Random(0x41A6)
    circular = 0
    for _ in range(2_000):
        pair = closed_pair(rng, rng.randint(4, 9))
        if pair is not None:
            circular += assert_agrees(pair).circular
    assert circular > 100


def test_edge_reusing_walks_take_the_bfs_fallback():
    rng = random.Random(0x5EED)
    for _ in range(200):
        cert = assert_agrees(corrupted_pair(rng, rng.randint(12, 30)))
        assert not cert.good and cert.diameter is not None
    # Every extension of the strip through its tail edge {1, 4} reuses an edge.
    for x in range(7):
        for bit in (0, 1):
            pair = LabelsLayout(7, STRIP.labels + (x,), STRIP.layout + (bit,))
            try:
                expand_pair(pair)
            except ValueError:
                continue
            assert not assert_agrees(pair).good


def damaged(pair: LabelsLayout, i: int) -> LabelsLayout:
    """``pair`` with label i changed to the first other vertex that leaves
    every triangle non-degenerate."""
    for x in range(pair.n):
        cand = LabelsLayout(pair.n, pair.labels[:i] + (x,) + pair.labels[i + 1 :], pair.layout)
        try:
            expand_pair(cand)
        except ValueError:
            continue
        if x != pair.labels[i]:
            return cand
    raise AssertionError(f"no vertex replaces label {i}")


def test_a_damaged_optimal_walk_takes_the_bfs_fallback():
    pair = construct_optimal(60)[0]
    assert len(pair) == 884
    cert = assert_agrees(damaged(pair, len(pair.labels) // 2))
    assert not cert.good and not cert.matches_optimum


@pytest.mark.slow
def test_every_construction_up_to_200():
    for n in range(3, 201):
        pair, cert = construct_optimal(n)
        assert cert == reference_certify(pair)
        assert cert.matches_optimum


def test_dense_and_sparse_edge_tables():
    """A walk that can cover a quarter of the C(n, 2) edges gets a dense
    table; walks on both sides of that line agree with the reference."""
    rng = random.Random(0xDE75)
    dense = {True: 0, False: 0}
    for _ in range(600):
        n = rng.randint(4, 40)
        make = random_good_pair if rng.random() < 0.5 else corrupted_pair
        pair = make(rng, n)
        dense[4 * (2 * len(pair) + 1) >= n * (n - 1) // 2] += 1
        assert_agrees(pair)
    assert min(dense.values()) > 100
    for n in (40, 41, 42, 43, 60):
        assert assert_agrees(construct_optimal(n)[0]).matches_optimum


def degenerate_at(pair: LabelsLayout, steps: list[int]) -> LabelsLayout:
    """``pair`` with the label of each step in ``steps`` (label indices, 2
    and up) set to the label before it, which makes that triangle hold a
    vertex twice."""
    labels = list(pair.labels)
    for i in steps:
        labels[i] = labels[i - 1]
    return LabelsLayout(pair.n, labels, pair.layout)


def test_degenerate_steps_are_named_at_the_first_one():
    """certify finds degenerate steps after its pass and names the first
    through expand_pair: one or several bad steps at the start, the middle
    and the end, on a dense and a sparse edge table."""
    dense = construct_optimal(40)[0]
    sparse = random_good_pair(random.Random(0xDE6), 60, 50)
    for pair, is_dense in ((dense, True), (sparse, False)):
        t = len(pair)
        assert (4 * (2 * t + 1) >= pair.n * (pair.n - 1) // 2) == is_dense
        assert certify(pair).good
        last = t + 1
        for steps in ([2], [3], [t // 2], [last], [3, 4], [2, t // 2, last],
                      [t // 2, t // 2 + 2], [last - 1, last], [t // 3, t // 2, last]):
            bad = degenerate_at(pair, steps)
            message = f"degenerate triangle at index {min(steps) - 2}"
            with pytest.raises(ValueError, match=f"^{message}$"):
                expand_pair(bad)
            with pytest.raises(ValueError, match=f"^{message}$"):
                certify(bad)


def test_certify_raises_exactly_when_expand_pair_does():
    """On four hand-made degenerate pairs, then on arbitrary in-range labels
    and bits, most of them degenerate somewhere, certify and expand_pair
    raise together and alike."""
    pairs = [LabelsLayout(4, (0, 1, 1), ()), LabelsLayout(4, (0, 1, 2, 1), (0,)),
             LabelsLayout(5, (0, 1, 2, 3, 4, 1), (0, 1, 1)), LabelsLayout(5, (0, 1, 2, 3, 2), (0, 0))]
    rng = random.Random(0xD1A6)
    for _ in range(3000):
        n = rng.randint(3, 8)
        steps = rng.randint(0, 12)
        pairs.append(LabelsLayout(n, [rng.randrange(n) for _ in range(steps + 3)],
                                  [rng.randrange(2) for _ in range(steps)]))
    raised = 0
    for i, pair in enumerate(pairs):
        try:
            expand_pair(pair)
        except ValueError as slow:
            with pytest.raises(ValueError) as fast:
                certify(pair)
            assert str(fast.value) == str(slow)
            raised += 1
        else:
            assert i >= 4, pair  # the hand-made pairs are degenerate
            assert_agrees(pair)
    assert 1000 < raised - 4 < 2900


# ---------------------------------------------------------------------------
# the periodic window: genseq.ring_window and the loop outside it
# ---------------------------------------------------------------------------

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture
def windows(monkeypatch):
    """The result of each genseq.ring_window call that certify makes."""
    found = []

    def spy(pair):
        found.append(ring_window(pair))
        return found[-1]

    monkeypatch.setattr(genseq, "ring_window", spy)
    return found


def agrees_or_raises_alike(pair: LabelsLayout) -> None:
    """certify(pair) equals the reference certificate, or raises the
    ValueError that expand_pair raises."""
    try:
        expand_pair(pair)
    except ValueError as slow:
        with pytest.raises(ValueError) as fast:
            certify(pair)
        assert str(fast.value) == str(slow)
    else:
        assert_agrees(pair)


def periodic_walk(n: int, terms: list[int], t: int) -> LabelsLayout:
    """The walk of t triangles with labels x_0 = 0, x_{i+1} = x_i +
    terms[i mod m] mod n and every bit 0."""
    steps = (terms[i % len(terms)] for i in range(t + 1))
    return LabelsLayout(n, [x % n for x in accumulate(steps, initial=0)], [0] * (t - 1))


def test_window_on_family_rings_and_their_cuts(windows):
    """Rings of the three families for k = 31..60, one family in turn (each
    family for k <= 30 is test_rings_are_circular's), and the rings of k =
    58..60 cut open at their seed triangle: the window leaves at most three
    steps of each to the loop."""
    pairs = []
    for k in range(31, 61):
        ring = expand_to_circular((gs_full, gs_missing_12, gs_missing_1248)[k % 3](k))
        assert assert_agrees(ring).circular
        pairs.append(ring)
        if k >= 58:
            # Triangle 1 shares {x_1, x_2} after a 0 bit and {x_0, x_2} after a
            # 1 bit, so the seed's third edge is covered once.
            cut = cut_circular(ring, (ring.labels[ring.layout[0]], ring.labels[2]))
            assert assert_agrees(cut).good
            pairs.append(cut)
    assert len(windows) == len(pairs) == 33
    for (a, b, n0, _, _), pair in zip(windows, pairs):
        assert n0 == pair.n and a - 1 + len(pair) - b <= 3


def test_window_on_benchmark_rings_through_verify(tmp_path, windows, monkeypatch):
    """Random rings as the benchmark makes them (perfbench/workloads.py:
    ring_terms), verified with and without --circular-ok: certificate and
    exit code as the reference has them, each through the window."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    rng, path = random.Random(0x21A6), tmp_path / "ring.json"
    for n, m in ((41, 6), (61, 8), (61, 12), (101, 12), (101, 20), (211, 30)):
        labels, layout = workloads.ring_pair(n, workloads.ring_terms(rng, n, m))
        path.write_text(json.dumps({"n": n, "labels": labels, "layout": layout}))
        expected = reference_certify(LabelsLayout(n, labels, layout))
        assert expected.good and expected.circular
        for flags, code in (((), 1), (("--circular-ok",), 0)):
            out = _dumps(_record(expected)) + "\n"
            assert run_main(["verify", "--input", str(path), *flags]) == (code, out, "")
    assert len(windows) == 12 and None not in windows


@pytest.mark.parametrize("n", [38, 40, 41])
def test_window_on_walks_changed_in_one_label_or_bit(n):
    """A construct walk with one label or one bit changed at the start, the
    middle and the end of its window agrees with the reference, or raises
    as expand_pair does."""
    pair = construct_optimal(n)[0]
    a, b, *_ = ring_window(pair)
    assert b - a > len(pair) // 2
    for i in (a, (a + b) // 2, b + 1):  # labels of triangles a, the middle one and b - 1
        agrees_or_raises_alike(damaged(pair, i))
    for j in (a, (a + b) // 2, b - 1):  # the bits of those triangles
        layout = list(pair.layout)
        layout[j - 1] ^= 1
        agrees_or_raises_alike(LabelsLayout(n, pair.labels, layout))


def test_window_of_a_full_turn_and_longer(windows):
    """The periodic walks of a ring's full turn of m * n0 triangles less one
    step, exactly, one and two steps longer, and one and three periods
    longer: good, then a good ring, then edges covered twice.  No window
    reaches a full turn."""
    gs = gs_missing_1248(7)
    ring = expand_to_circular(gs)
    turn = len(ring)
    assert turn == gs.m * gs.n
    lengths = (turn - 1, turn, turn + 1, turn + 2, turn + gs.m, turn + 3 * gs.m)
    for t in lengths:
        labels = [ring.labels[i % turn] for i in range(t + 2)]
        pair = LabelsLayout(gs.n, labels, [ring.layout[i % gs.m] for i in range(t - 1)])
        cert = assert_agrees(pair)
        assert (cert.good, cert.circular) == (t <= turn, t == turn)
    assert len(windows) == len(lengths)
    assert all(0 < b - a < turn for a, b, *_ in windows)


def test_window_needs_a_unit_term_sum(windows):
    """Five terms over Z_25 in distinct classes whose sum is a multiple of
    5: after five periods the walk is back at its start and covers the same
    edges again.  certify reads n0 = 25 and m = 5 but no window, because the
    sum is not a unit."""
    rng = random.Random(0x25)
    while True:
        terms = [rng.randrange(1, 25) for _ in range(5)]
        sums = [x + y for x, y in zip(terms, terms[1:] + terms[:1])]
        starts = {x % 5 for x in accumulate(terms[:-1], initial=0)}
        if sum(terms) % 5 == 0 and len(starts) == 5 and distinct_classes(terms + sums, 25):
            break
    pair = periodic_walk(25, terms, 150)
    assert max(pair.labels[37:112]) == 24  # the middle half holds every label
    assert not assert_agrees(pair).good
    assert windows == [None]


def test_degenerate_step_inside_the_window(windows):
    """Terms 7 and -7 step back onto a label: each period holds a degenerate
    triangle, and certify names the first, as expand_pair does.  So it does
    for a construct walk with one degenerate step at the start, the middle
    or the end of its window."""
    agrees_or_raises_alike(periodic_walk(41, [5, 3, 7, -7, 11], 200))
    assert windows == [None]
    pair = construct_optimal(101)[0]
    a, b, *_ = ring_window(pair)
    for i in (a + 2, (a + b) // 2, b + 1):  # the steps adding triangles a, the middle one and b - 1
        with pytest.raises(ValueError, match=f"^degenerate triangle at index {i - 2}$"):
            certify(degenerate_at(pair, [i]))


@pytest.mark.parametrize("n", [400, 401, 402, 403, 2001])
def test_certify_loops_only_outside_the_window(n, windows, monkeypatch):
    """certify's per-step loop runs over the steps outside the window only,
    at most 5n of them, on construct's walks near n = 400 and at 2001: its
    edge table holds their edges and the seed's, two per step and three."""
    tables = []
    uncovered = genseq.window_uncovered

    def spy(window, n, seen):
        tables.append(len(seen))
        return uncovered(window, n, seen)

    monkeypatch.setattr(genseq, "window_uncovered", spy)
    pair, cert = construct_optimal(n)
    assert cert.matches_optimum
    ((a, b, *_),) = windows
    outside = a - 1 + len(pair) - b
    assert tables == [2 * outside + 3] and outside <= 5 * n
