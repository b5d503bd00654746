"""Exhaustive dual-diameter search on small label counts."""

from __future__ import annotations

import random
import sys
import tracemalloc

import pytest

from conftest import grow_walk
from diamforge.assembly import small_table
from diamforge.core import (
    LabelsLayout, dual_diameter, expand_pair, hs_max_diameter, is_good, is_ring,
)
from diamforge.oracle import legal_moves, search_max_diameter


def test_tiny_label_counts():
    expect = {
        3: (0, 1),
        4: (1, 3),
        5: (3, 11),
        6: (5, 55),
        7: (9, 288),
        8: (12, 404),
        9: (16, 277),
    }
    for n, (diam, nodes) in expect.items():
        res = search_max_diameter(n)
        assert res.exhaustive
        assert res.best_diameter == diam
        assert res.nodes_explored == nodes
        assert res.best_diameter == hs_max_diameter(n)


def test_six_label_exception():
    # (C(6,2) - 3) // 2 would give 6, but no walk gets past 5.
    res = search_max_diameter(6)
    assert res.exhaustive and res.best_diameter == 5
    assert (6 * 5 // 2 - 3) // 2 == 6


def test_witness_matches_published_row():
    res = search_max_diameter(7)
    assert res.witness == small_table(7).pair


def test_witness_is_sound():
    for n in range(3, 8):
        res = search_max_diameter(n)
        seq = expand_pair(res.witness)
        assert is_good(seq)
        assert dual_diameter(seq) == res.best_diameter


def test_budget_truncation():
    res = search_max_diameter(7, budget=50)
    assert not res.exhaustive
    assert res.nodes_explored <= 51
    assert res.best_diameter <= 9


def test_budget_search_deeper_than_the_recursion_limit():
    res = search_max_diameter(70, budget=3000)
    assert not res.exhaustive
    assert res.nodes_explored == 3000
    assert len(res.witness) == res.best_diameter + 1 > sys.getrecursionlimit()
    seq = expand_pair(res.witness)
    assert is_good(seq)
    assert dual_diameter(seq) == res.best_diameter


def test_witness_check_does_not_scale_with_n():
    tracemalloc.start()
    try:
        res = search_max_diameter(3000, budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.nodes_explored == 10 and res.witness.n == 3000
    assert peak < 10 * 2**20


def test_search_memory_follows_the_budget():
    """A budgeted search sizes its tables by the budget, not the declared n;
    the result is the one recorded before the tables shrank."""
    tracemalloc.start()
    try:
        res = search_max_diameter(10**7, budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.best_diameter, res.exhaustive, res.nodes_explored) == (9, False, 10)
    assert res.witness.labels == (0, 1, 2, 3, 4, 0, 5, 1, 6, 2, 7, 0)
    assert res.witness.layout == (0, 0, 0, 0, 1, 0, 1, 0, 1)
    assert res.witness.n == 10**7
    assert peak < 2 * 2**20


def test_legal_moves_agree_with_the_frozenset_rule():
    """At every prefix of seeded walks, a non-degenerate move with label up
    to ``fresh`` is listed exactly when the extended walk is good and not a
    ring, and the list is in (w, bit) order."""
    for n in range(4, 13):
        for seed in range(6):
            stuck = None
            for steps in range(3 * n + 1):
                pair, used, (c, u, v, fresh) = grow_walk(random.Random(seed).choice, n, steps)
                if len(pair.layout) == stuck:
                    break
                stuck = len(pair.layout)
                moves = legal_moves(used, c, u, v, fresh, n)
                assert moves == sorted(moves)
                for w in range(min(fresh + 1, n)):
                    for bit, p in ((0, u), (1, c)):
                        if w == p or w == v:
                            continue
                        ext = LabelsLayout(n, pair.labels + (w,), pair.layout + (bit,))
                        fine = is_good(expand_pair(ext)) and not is_ring(ext)
                        assert fine == ((w, bit) in moves), (pair, w, bit)


def test_zero_budget_is_unlimited():
    res = search_max_diameter(6, budget=0)
    assert res.exhaustive and res.best_diameter == 5


def test_jobs_do_not_change_the_answer():
    lone = search_max_diameter(7, jobs=1)
    for jobs in (2, 5):
        split = search_max_diameter(7, jobs=jobs)
        assert split.best_diameter == lone.best_diameter
        assert split.witness == lone.witness
        assert split.exhaustive
        assert split.nodes_explored == lone.nodes_explored


def test_prune_preserves_the_optimum():
    for n in range(4, 9):
        fast = search_max_diameter(n, prune=True)
        slow = search_max_diameter(n, prune=False)
        assert fast.exhaustive and slow.exhaustive
        assert fast.best_diameter == slow.best_diameter
        assert fast.witness == slow.witness
        assert fast.nodes_explored <= slow.nodes_explored
        if n >= 7:
            assert fast.nodes_explored < slow.nodes_explored


@pytest.mark.slow
def test_exhaustive_ten_labels():
    res = search_max_diameter(10, budget=0)
    assert res.exhaustive
    assert res.best_diameter == hs_max_diameter(10) == 21
    assert res.nodes_explored == 2_254_261
    seq = expand_pair(res.witness)
    assert is_good(seq)
    assert dual_diameter(seq) == res.best_diameter


def test_argument_validation():
    with pytest.raises(ValueError):
        search_max_diameter(2)
    with pytest.raises(ValueError):
        search_max_diameter(5, jobs=0)
    with pytest.raises(ValueError):
        search_max_diameter(5, budget=-1)
