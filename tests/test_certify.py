"""The one-pass codec certifier against the frozenset reference."""

from __future__ import annotations

import random

import pytest

from conftest import corrupted_pair, random_good_pair, reference_certify
from diamforge.assembly import construct_optimal
from diamforge.core import LabelsLayout, certify, expand_pair
from diamforge.genseq import expand_to_circular, gs_full, gs_missing_12, gs_missing_1248
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
