"""Cycle-square partitions of complete graphs."""

from __future__ import annotations

import itertools
import random

import pytest
from sympy import isprime, n_order, primerange

from conftest import (
    arithmetic, reference_arithmetic_steps, reference_cycles_from_sequences,
    reference_tiles_by_classes, reference_verify_partition,
)
from diamforge.core import all_edges, edge
from diamforge.hampack import (
    SEQUENCES_105,
    CycleSquare,
    Decomposition,
    PartitionReport,
    _is_prime,
    _tiles_by_classes,
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
    """test_records pins the message for fewer than three vertices."""
    bad = [
        (0, 1, 2, 3, 3),  # duplicate, 4 missing
        (0, 0, 0, 0, 0),
        (0, 1, 2, 3, 5),  # out of range
        (0, 1, 2, 3, -1),  # negative
        (-1, -2, -3, -4, -5),
        (0, 1, 2, 3, 4, 5, 6, 7, 9),
    ]
    # Each order n both before and after a valid cycle of that order.
    for order in bad + bad[::-1]:
        CycleSquare(tuple(range(len(order))))
        with pytest.raises(ValueError, match="^ordering is not a permutation of 0..n-1$"):
            CycleSquare(order)
    for order in ((4, 3, 2, 1, 0), [2, 0, 1], range(9)):
        assert CycleSquare(order).order == tuple(order)
    rng = random.Random(12)
    for _ in range(2000):
        n = rng.randrange(3, 9)
        order = rng.sample(range(n), n)
        if rng.random() < 0.7:
            order[rng.randrange(n)] = rng.randrange(-2, n + 2)
        try:
            CycleSquare(order)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == (sorted(order) == list(range(n))), order


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
    with pytest.raises(ValueError, match=r"^no family .* K_7: ord_7\(2\) = 3 is not divisible by 4"):
        decompose_prime(7)
    with pytest.raises(ValueError, match="not prime"):
        decompose_prime(15)
    with pytest.raises(ValueError, match="9"):
        decompose_prime(73)
    with pytest.raises(ValueError, match="ceiling"):
        decompose_prime(100003)


@pytest.fixture(scope="module")
def arithmetic_steps():
    """reference_arithmetic_steps(n) for every n = 1 mod 4 below 10^4: 514
    families."""
    steps = {n: reference_arithmetic_steps(n) for n in range(5, 10_000, 4)}
    assert sum(s is not None for s in steps.values()) == 514
    return steps


def test_arithmetic_families_exist_exactly_at_primes_where_4_divides_ord_2(arithmetic_steps):
    """The reference finds a family exactly there, and below 300 the
    family it finds is a partition."""
    for n, steps in arithmetic_steps.items():
        assert (steps is not None) == (isprime(n) and n_order(2, n) % 4 == 0), n
        if steps is not None and n < 300:
            cycles = tuple(CycleSquare(arithmetic(n, 0, s)) for s in steps)
            assert verify_partition(Decomposition(n, cycles)).ok, n


def test_decompose_prime_builds_a_family_exactly_where_one_exists(arithmetic_steps):
    """It raises wherever the reference finds no family, and below 2,000
    its family passes verify_partition wherever the reference finds one."""
    built = 0
    for n, steps in arithmetic_steps.items():
        if steps is None:
            with pytest.raises(ValueError):
                decompose_prime(n)
        elif n < 2000:
            assert verify_partition(decompose_prime(n)).ok, n
            built += 1
    assert built == 124


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
    assert cycles_from_sequences(105, SEQUENCES_105) == d  # tuples or lists, same cycles
    assert not _tiles_by_classes(d)  # periodic steps: the edge count decides
    assert not reference_tiles_by_classes(d)
    assert verify_partition(d) == reference_verify_partition(d) == PartitionReport(True, (), ())


def test_sequence_rejections():
    with pytest.raises(ValueError, match="does not divide"):
        cycles_from_sequences(105, [[19, 10, 4, 1]])
    with pytest.raises(ValueError, match="entry divisible"):
        cycles_from_sequences(105, [[19, 105, 4]])
    with pytest.raises(ValueError, match="revisits"):
        cycles_from_sequences(105, [[21]])


def test_sequences_need_three_vertices():
    for n in (0, -5):
        with pytest.raises(ValueError, match=f"^n must be at least 3, got {n}$"):
            cycles_from_sequences(n, [[1]])


def outcome(build, n, seqs):
    """The cycle orders that ``build(n, seqs)`` returns, or its error message."""
    try:
        return [c.order for c in build(n, seqs).cycles]
    except ValueError as exc:
        return str(exc)


def test_unrolled_sequences_match_the_reference():
    rng = random.Random(0x5E9)
    kinds = set()
    for n in range(3, 61):
        lengths = [m for m in range(1, n + 1) if n % m == 0]
        for _ in range(12):
            # A step set from a few values makes revisits and valid orders both common.
            pool = rng.sample(range(-n - 1, 2 * n), 3)
            seqs = [[rng.choice(pool) for _ in range(rng.choice(lengths[:4]))]
                    for _ in range(rng.randint(1, 2))]
            got = outcome(cycles_from_sequences, n, seqs)
            assert got == outcome(reference_cycles_from_sequences, n, seqs), (n, seqs)
            if isinstance(got, list):
                kinds.add("orders")
            else:
                kinds.update(k for k in ("revisits", "divisible") if k in got)
    assert kinds == {"orders", "revisits", "divisible"}, kinds
    seqs = [list(s) for s in SEQUENCES_105]
    assert outcome(cycles_from_sequences, 105, seqs) == outcome(reference_cycles_from_sequences, 105, seqs)


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
