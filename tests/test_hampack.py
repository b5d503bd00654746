"""Cycle-square partitions of complete graphs."""

from __future__ import annotations

import itertools

import pytest
from sympy import isprime, n_order, primerange

from diamforge.core import all_edges, edge
from diamforge.hampack import (
    SEQUENCES_105,
    CycleSquare,
    Decomposition,
    _is_prime,
    cycles_from_sequences,
    decompose_prime,
    ord_mod,
    square_edges,
    verify_partition,
)

CYCLE_105_START_0 = (
    0, 19, 29, 33, 52, 62, 66, 85, 95, 99, 13, 23, 27, 46, 56, 60, 79, 89,
    93, 7, 17, 21, 40, 50, 54, 73, 83, 87, 1, 11, 15, 34, 44, 48, 67, 77,
    81, 100, 5, 9, 28, 38, 42, 61, 71, 75, 94, 104, 3, 22, 32, 36, 55, 65,
    69, 88, 98, 102, 16, 26, 30, 49, 59, 63, 82, 92, 96, 10, 20, 24, 43,
    53, 57, 76, 86, 90, 4, 14, 18, 37, 47, 51, 70, 80, 84, 103, 8, 12, 31,
    41, 45, 64, 74, 78, 97, 2, 6, 25, 35, 39, 58, 68, 72, 91, 101,
)


def test_square_edges_pentagon():
    sq = square_edges(CycleSquare((0, 1, 2, 3, 4)))
    assert sq == all_edges(5)
    with pytest.raises(ValueError):
        square_edges(CycleSquare((0, 1, 2, 3)))


def test_square_edges_count():
    c = CycleSquare((0, 2, 4, 6, 1, 3, 5))
    assert len(square_edges(c)) == 14
    assert edge(0, 2) in square_edges(c)
    assert edge(0, 6) not in square_edges(c)


def test_cycle_rejects_non_permutation():
    with pytest.raises(ValueError):
        CycleSquare((0, 1, 1, 2, 3))
    with pytest.raises(ValueError):
        CycleSquare((1, 2, 3, 4, 5))
    with pytest.raises(ValueError):
        CycleSquare((0, 1))


def test_decomposition_checks_sizes():
    with pytest.raises(ValueError):
        Decomposition(7, (CycleSquare((0, 1, 2, 3, 4)),))


def test_ord_mod():
    assert ord_mod(2, 5) == 4
    assert ord_mod(2, 7) == 3
    assert ord_mod(2, 13) == 12
    with pytest.raises(ValueError):
        ord_mod(13, 13)
    with pytest.raises(ValueError, match="not prime"):
        ord_mod(2, 15)


def test_number_theory_matches_sympy():
    assert [_is_prime(n) for n in range(-5, 30001)] == [
        isprime(n) for n in range(-5, 30001)
    ]
    for p in primerange(2, 20000):
        for b in (2, 3, 10):
            if b % p:
                assert ord_mod(b, p) == n_order(b, p), (b, p)


def test_prime_preconditions():
    with pytest.raises(ValueError, match="3 mod 4"):
        decompose_prime(7)
    with pytest.raises(ValueError, match="not prime"):
        decompose_prime(15)
    with pytest.raises(ValueError, match="9"):
        decompose_prime(73)
    with pytest.raises(ValueError, match="ceiling"):
        decompose_prime(100003)


def test_decompose_five():
    d = decompose_prime(5)
    assert len(d.cycles) == 1
    assert d.cycles[0].order == (0, 1, 2, 3, 4)
    assert verify_partition(d).ok


def test_decompose_thirteen():
    d = decompose_prime(13)
    assert [c.order for c in d.cycles] == [
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
        (0, 4, 8, 12, 3, 7, 11, 2, 6, 10, 1, 5, 9),
        (0, 3, 6, 9, 12, 2, 5, 8, 11, 1, 4, 7, 10),
    ]
    rep = verify_partition(d)
    assert rep.ok and not rep.missing and not rep.doubled
    assert sum(len(square_edges(c)) for c in d.cycles) == 78


def test_decompose_twentynine():
    d = decompose_prime(29)
    assert len(d.cycles) == 7
    assert verify_partition(d).ok


def test_builtin_105():
    d = cycles_from_sequences(105, [list(s) for s in SEQUENCES_105])
    assert len(d.cycles) == 26
    assert d.cycles[0].order == CYCLE_105_START_0
    shift1 = tuple((v + 1) % 105 for v in CYCLE_105_START_0)
    shift2 = tuple((v + 2) % 105 for v in CYCLE_105_START_0)
    assert d.cycles[1].order == shift1
    assert d.cycles[2].order == shift2
    assert sum(len(square_edges(c)) for c in d.cycles) == 5460
    assert verify_partition(d).ok


def test_sequence_rejections():
    with pytest.raises(ValueError, match="does not divide"):
        cycles_from_sequences(105, [[19, 10, 4, 1]])
    with pytest.raises(ValueError, match="entry divisible"):
        cycles_from_sequences(105, [[19, 105, 4]])
    with pytest.raises(ValueError, match="revisits"):
        cycles_from_sequences(105, [[21]])


def test_verify_reports_doubled_and_missing():
    c = CycleSquare(tuple(range(9)))
    rep = verify_partition(Decomposition(9, (c, c)))
    assert not rep.ok
    assert set(rep.doubled) == square_edges(c)
    assert set(rep.missing) == all_edges(9) - square_edges(c)
    assert len(rep.missing) == 18


def test_verify_rejects_wrong_cycle_count():
    d = decompose_prime(13)
    rep = verify_partition(Decomposition(13, d.cycles[:2]))
    assert not rep.ok
    assert rep.missing and not rep.doubled


def test_no_two_square_partition_of_k9():
    # All 8!/2 distinct cyclic orderings of 9 vertices, keyed by the edge
    # set of their square; no square's complement is itself a square.
    full = frozenset(all_edges(9))
    seen = set()
    for perm in itertools.permutations(range(1, 9)):
        if perm[0] > perm[-1]:
            continue
        seen.add(frozenset(square_edges(CycleSquare((0,) + perm))))
    assert len(seen) == 20160
    assert not any(frozenset(full - s) in seen for s in seen)
