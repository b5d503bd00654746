"""Exhaustive dual-diameter search on small label counts."""

from __future__ import annotations

import pytest

from diamforge.assembly import small_table
from diamforge.core import dual_diameter, expand_pair, hs_max_diameter, is_good
from diamforge.oracle import search_max_diameter


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


def test_budget_env_fallback(monkeypatch):
    monkeypatch.setenv("DIAMFORGE_BUDGET", "40")
    res = search_max_diameter(7)
    assert not res.exhaustive
    monkeypatch.setenv("DIAMFORGE_BUDGET", "0")
    assert search_max_diameter(5).exhaustive
