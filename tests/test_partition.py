"""The partition checker, on its difference-class path and its packed-key
count, against the per-vertex reference; and the class rule, whose coset
chains are certified by composition, against the rule that reads every step."""

from __future__ import annotations

import math
import random

import pytest

from conftest import (
    arithmetic,
    reference_prime_orders,
    reference_tiles_by_classes,
    reference_verify_partition,
)
from diamforge.hampack import (
    SEQUENCES_105,
    CycleSquare,
    Decomposition,
    _is_prime,
    _tiles_by_classes,
    _times4,
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
    """verify_partition(d) equals the reference report, and the class rule
    decides d as the one that reads every step."""
    assert _tiles_by_classes(d) is reference_tiles_by_classes(d)
    rep = verify_partition(d)
    assert rep == reference_verify_partition(d)
    return rep


def class_edges(n: int, k: int) -> list[tuple[int, int]]:
    """The n edges {x, x + k} of the difference class +-k, sorted."""
    return sorted((min(x, (x + k) % n), max(x, (x + k) % n)) for x in range(n))


def damaged(rng, c: CycleSquare) -> CycleSquare:
    """``c`` with two of its vertices swapped: no longer arithmetic."""
    order = list(c.order)
    a, b = rng.sample(range(len(order)), 2)
    order[a], order[b] = order[b], order[a]
    return CycleSquare(order)


def corruptions(rng, d: Decomposition):
    """Four damaged copies of ``d``, tagged by the damage done."""
    cycles = list(d.cycles)
    i = rng.randrange(len(cycles))
    yield "duplicated", cycles + [cycles[i]]
    yield "dropped", cycles[:i] + cycles[i + 1:]
    yield "swapped", cycles[:i] + [damaged(rng, cycles[i])] + cycles[i + 1:]
    yield "replaced", cycles[:i] + [CycleSquare(rng.sample(range(d.n), d.n))] + cycles[i + 1:]


def test_eligible_primes_below_300():
    assert ELIGIBLE[:6] == [5, 13, 17, 29, 37, 41]
    for p in (p for p in ELIGIBLE if p < 300):
        d = decompose_prime(p)
        assert _tiles_by_classes(d), p
        rep = assert_agrees(d)
        assert rep.ok and not rep.missing and not rep.doubled


@pytest.mark.slow
def test_eligible_primes_from_300_to_1100():
    for p in (p for p in ELIGIBLE if p >= 300):
        assert assert_agrees(decompose_prime(p)).ok, p


def test_composed_orderings_match_their_strides():
    """decompose_prime builds its orderings without CycleSquare's check:
    each is a tuple permutation that the checking constructor accepts.

    It walks the +- classes 1..(p-1)/2; the reference walks the cosets of
    <2> in F_p*, each from its own stride.  The two formulations give the
    same orderings in the same order for every eligible p below 1,100."""
    for p in ELIGIBLE:
        cycles = decompose_prime(p).cycles
        for c in cycles:
            assert type(c.order) is tuple and sorted(c.order) == list(range(p)), p
            assert c == CycleSquare(c.order)
        assert [list(c.order) for c in cycles] == reference_prime_orders(p), p


def test_shifted_and_reversed_prime_families_take_the_class_path():
    rng = random.Random(0xC1A5)
    for p in (5, 13, 29, 37, 101, 197):
        cycles = []
        for c in decompose_prime(p).cycles:
            x0 = rng.randrange(1, p)
            order = [(v + x0) % p for v in c.order]
            cycles.append(CycleSquare(order[::-1] if rng.random() < 0.5 else order))
        d = Decomposition(p, cycles)
        assert _tiles_by_classes(d), p
        assert assert_agrees(d).ok


def test_arithmetic_families_on_composite_orders():
    # A unit step s never reaches a class k with gcd(k, n) > 1, so these
    # families leave edges out and go to the edge count.
    rng = random.Random(0xC0)
    for n in (9, 21, 25, 45):
        units = [s for s in range(1, n) if math.gcd(s, n) == 1]
        for _ in range(20):
            steps = rng.sample(units, (n - 1) // 4)
            d = Decomposition(n, [CycleSquare(arithmetic(n, rng.randrange(n), s)) for s in steps])
            assert not _tiles_by_classes(d)
            rep = assert_agrees(d)
            assert not rep.ok and rep.missing


def test_repeated_class_falls_back_to_the_edge_count():
    # Steps 1, 2 and 5 on n = 13 reach the classes {1, 2}, {2, 4} and
    # {5, 3}: class 2 twice and class 6 never.
    d = Decomposition(13, [CycleSquare(arithmetic(13, x0, s)) for x0, s in ((0, 1), (4, 2), (7, 5))])
    assert not _tiles_by_classes(d)
    rep = assert_agrees(d)
    assert not rep.ok
    assert list(rep.doubled) == class_edges(13, 2)
    assert list(rep.missing) == class_edges(13, 6)


def test_one_non_arithmetic_cycle_falls_back():
    rng = random.Random(0xA7)
    for p in (13, 29, 101):
        cycles = list(decompose_prime(p).cycles)
        i = rng.randrange(len(cycles))
        cycles[i] = damaged(rng, cycles[i])
        d = Decomposition(p, cycles)
        assert not _tiles_by_classes(d)
        rep = assert_agrees(d)
        assert not rep.ok and rep.missing and rep.doubled


def test_corrupted_families():
    rng = random.Random(0x5A7E)
    sources = [decompose_prime(p) for p in (5, 13, 17, 29, 37, 101)]
    sources.append(cycles_from_sequences(105, SEQUENCES_105))
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


def chain(head: CycleSquare, length: int) -> list[CycleSquare]:
    """``head`` followed by its ``length - 1`` successive times4 images."""
    times4, cycles = _times4(head.n), [head]
    while len(cycles) < length:
        cycles.append(CycleSquare(times4(cycles[-1].order)))
    return cycles


def test_times4_images_of_a_non_arithmetic_head_are_rejected():
    rng = random.Random(0x4EAD)
    for p in (13, 29, 37, 101, 197):
        head = damaged(rng, decompose_prime(p).cycles[0])
        d = Decomposition(p, chain(head, (p - 1) // 4))
        assert not _tiles_by_classes(d), p
        assert_agrees(d)  # the edge count decides; at p = 13 it tiles


def test_a_damaged_middle_cycle_breaks_the_chain():
    """A damaged cycle inside a coset chain is rejected, whether the next
    cycle is its old successor or its own times4 image."""
    rng = random.Random(0xC4A1)
    for p in (29, 37, 101, 197):
        gather, cycles = _times4(p), list(decompose_prime(p).cycles)
        middles = [i for i in range(1, len(cycles) - 1)
                   if cycles[i].order == gather(cycles[i - 1].order)
                   and cycles[i + 1].order == gather(cycles[i].order)]
        assert middles, p
        for i in rng.sample(middles, min(3, len(middles))):
            bad = damaged(rng, cycles[i])
            for tail in (cycles[i + 1:], chain(bad, len(cycles) - i)[1:]):
                d = Decomposition(p, cycles[:i] + [bad] + tail)
                assert not _tiles_by_classes(d), (p, i)
                assert_agrees(d)


def test_shuffled_reversed_and_shifted_coset_chains():
    """Reordered, reversed and shifted families decide as the reference
    does; a shift common to a whole chain keeps it a chain."""
    def shifted(o, x0):
        return tuple((v + x0) % p for v in o)

    rng = random.Random(0x5C1F)
    for p in (13, 29, 37, 101, 197, 409):
        cycles = [c.order for c in decompose_prime(p).cycles]
        x0 = rng.randrange(1, p)
        families = {
            "shuffled": rng.sample(cycles, len(cycles)),
            "reversed": [o[::-1] for o in cycles],
            "shifted": [shifted(o, x0) for o in cycles],
            "mixed": [shifted(o, rng.randrange(p))[:: rng.choice((1, -1))]
                      for o in rng.sample(cycles, len(cycles))],
        }
        for kind, orders in families.items():
            d = Decomposition(p, [CycleSquare(o) for o in orders])
            assert _tiles_by_classes(d), (p, kind)
            assert assert_agrees(d).ok


def test_small_and_degenerate_families():
    for n in range(1, 5):
        assert assert_agrees(Decomposition(n, ())).ok == (n == 1)
    with pytest.raises(ValueError, match="n must be positive, got 0"):
        Decomposition(0, ())
    for n in (3, 4):
        with pytest.raises(ValueError, match="at least five vertices"):
            verify_partition(Decomposition(n, (CycleSquare(tuple(range(n))),)))
    for n in (5, 6, 7, 8, 9):
        assert_agrees(Decomposition(n, (CycleSquare(tuple(range(n))),)))
