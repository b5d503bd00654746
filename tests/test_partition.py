"""The packed-key partition checker against the edge-tuple reference."""

from __future__ import annotations

import random

import pytest

from conftest import reference_verify_partition
from diamforge.hampack import (
    SEQUENCES_105,
    CycleSquare,
    Decomposition,
    _is_prime,
    cycles_from_sequences,
    decompose_prime,
    ord_mod,
    verify_partition,
)

ELIGIBLE = [
    p for p in range(5, 1100)
    if _is_prime(p) and p % 4 == 1 and ord_mod(2, p) % 4 == 0
]


def assert_agrees(d: Decomposition):
    """verify_partition(d) equals the reference report."""
    rep = verify_partition(d)
    assert rep == reference_verify_partition(d)
    return rep


def corruptions(rng, d: Decomposition):
    """Four damaged copies of ``d``, tagged by the damage done."""
    cycles = list(d.cycles)
    i = rng.randrange(len(cycles))
    yield "duplicated", cycles + [cycles[i]]
    yield "dropped", cycles[:i] + cycles[i + 1:]
    order = list(cycles[i].order)
    a, b = rng.sample(range(d.n), 2)
    order[a], order[b] = order[b], order[a]
    yield "swapped", cycles[:i] + [CycleSquare(order)] + cycles[i + 1:]
    yield "replaced", cycles[:i] + [CycleSquare(rng.sample(range(d.n), d.n))] + cycles[i + 1:]


def test_eligible_primes_below_300():
    assert ELIGIBLE[:6] == [5, 13, 17, 29, 37, 41]
    for p in (p for p in ELIGIBLE if p < 300):
        rep = assert_agrees(decompose_prime(p))
        assert rep.ok and not rep.missing and not rep.doubled


@pytest.mark.slow
def test_eligible_primes_from_300_to_1100():
    for p in (p for p in ELIGIBLE if p >= 300):
        assert assert_agrees(decompose_prime(p)).ok, p


def test_builtin_105():
    assert assert_agrees(cycles_from_sequences(105, [list(s) for s in SEQUENCES_105])).ok


def test_corrupted_families():
    rng = random.Random(0x5A7E)
    sources = [decompose_prime(p) for p in (5, 13, 17, 29, 37, 101)]
    sources.append(cycles_from_sequences(105, [list(s) for s in SEQUENCES_105]))
    for d in sources:
        for _ in range(5):
            for kind, cycles in corruptions(rng, d):
                rep = assert_agrees(Decomposition(d.n, cycles))
                if kind in ("duplicated", "dropped"):
                    assert not rep.ok
                if kind == "duplicated":
                    assert rep.doubled and not rep.missing
                if kind == "dropped" and d.n > 5:
                    assert rep.missing and not rep.doubled


def test_small_and_degenerate_families():
    for n in range(0, 5):
        assert assert_agrees(Decomposition(n, ())).ok == (n == 1)
    for n in (3, 4):
        with pytest.raises(ValueError, match="at least five vertices"):
            verify_partition(Decomposition(n, (CycleSquare(tuple(range(n))),)))
    for n in (5, 6, 7, 8, 9):
        assert_agrees(Decomposition(n, (CycleSquare(tuple(range(n))),)))
