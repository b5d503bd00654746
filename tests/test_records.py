"""The behaviour of every record class: construction, defaults, equality,
length and validation messages."""

from __future__ import annotations

import pytest

from diamforge import assembly, core, genseq
from diamforge.assembly import SmallTableEntry, construct_optimal
from diamforge.core import Certificate, LabelsLayout, TriangleSeq, edge
from diamforge.genseq import GeneratingSequence, GenSeqReport
from diamforge.hampack import CycleSquare, Decomposition, PartitionReport
from diamforge.oracle import SearchResult


def tri(*vs):
    return frozenset(vs)


T012, T123, T234 = tri(0, 1, 2), tri(1, 2, 3), tri(2, 3, 4)
PAIR = LabelsLayout(5, (0, 1, 2, 3), (0,))
CERT_ARGS = (True, False, 3, 1, 7, False)
CERT_KW = dict(good=True, circular=False, covered_edges=3, diameter=1, optimum=7,
               matches_optimum=False)

# (class, positional args, the same as keywords, one field changed as keywords)
CASES = [
    (TriangleSeq, ([T012, T123],), dict(triangles=[T012, T123]), dict(triangles=[T012, T234])),
    (LabelsLayout, (5, (0, 1, 2, 3), (0,)), dict(n=5, labels=(0, 1, 2, 3), layout=(0,)),
     dict(n=5, labels=(0, 1, 2, 3), layout=(1,))),
    (Certificate, (*CERT_ARGS, [(0, 4)]), dict(CERT_KW, uncovered_edges=[(0, 4)]),
     dict(CERT_KW, uncovered_edges=[(1, 4)])),
    (GeneratingSequence, (13, [1, 3, 9], frozenset({1})),
     dict(n=13, terms=[1, 3, 9], turns=frozenset({1})),
     dict(n=13, terms=[1, 3, 9], turns=frozenset())),
    (GenSeqReport, (True, frozenset({1}), None), dict(valid=True, missing=frozenset({1}), reason=None),
     dict(valid=True, missing=frozenset({1}), reason="x")),
    (CycleSquare, ((0, 1, 2, 3, 4),), dict(order=(0, 1, 2, 3, 4)),
     dict(order=(0, 2, 1, 3, 4))),
    (Decomposition, (5, (CycleSquare((0, 1, 2, 3, 4)),)),
     dict(n=5, cycles=(CycleSquare((0, 1, 2, 3, 4)),)), dict(n=5, cycles=())),
    (PartitionReport, (False, ((0, 1),), ()), dict(ok=False, missing=((0, 1),), doubled=()),
     dict(ok=False, missing=(), doubled=())),
    (SearchResult, (5, 3, PAIR, True, 11),
     dict(n=5, best_diameter=3, witness=PAIR, exhaustive=True, nodes_explored=11),
     dict(n=5, best_diameter=3, witness=PAIR, exhaustive=True, nodes_explored=12)),
    (SmallTableEntry, (5, PAIR), dict(n=5, pair=PAIR), dict(n=6, pair=PAIR)),
]


@pytest.mark.parametrize("cls, args, kwargs, changed", CASES, ids=lambda c: getattr(c, "__name__", ""))
def test_construction_and_field_equality(cls, args, kwargs, changed):
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert by_position == by_keyword
    assert not by_position != by_keyword
    for name, value in kwargs.items():
        assert getattr(by_keyword, name) == value
    assert by_position != cls(**changed)
    assert by_position != args  # another class never compares equal
    assert repr(by_position).startswith(f"{cls.__name__}(")


def test_defaults():
    first, second = Certificate(*CERT_ARGS), Certificate(**CERT_KW)
    assert first.uncovered_edges == [] == second.uncovered_edges
    first.uncovered_edges.append((0, 1))
    assert second.uncovered_edges == [] == Certificate(*CERT_ARGS).uncovered_edges


def test_triangle_seq_holds_only_its_triangles():
    # Rings are codec pairs that is_ring recognises; a triangle list has no flag.
    assert TriangleSeq.__slots__ == ("triangles",)


def test_normalisation_at_construction():
    assert LabelsLayout(5, [0, 1, 2, 3], [1]).labels == (0, 1, 2, 3)
    assert LabelsLayout(5, [0, 1, 2, 3], [1]).layout == (1,)
    gs = GeneratingSequence(13, [-1, 15, 4], [0])
    assert gs.terms == [12, 2, 4] and gs.turns == frozenset({0}) and gs.m == 3
    assert CycleSquare([0, 2, 1, 3, 4]).order == (0, 2, 1, 3, 4)
    assert CycleSquare([0, 2, 1, 3, 4]).n == 5
    assert Decomposition(5, [CycleSquare(range(5))]).cycles == (CycleSquare(range(5)),)


def test_small_table_entry_compares_its_pair_too():
    other = LabelsLayout(5, (0, 1, 2), ())
    assert SmallTableEntry(5, PAIR) != SmallTableEntry(5, other)
    assert SmallTableEntry(5, PAIR) == SmallTableEntry(5, LabelsLayout(5, (0, 1, 2, 3), (0,)))


def test_len():
    assert len(LabelsLayout(5, (0, 1, 2, 3, 4), (0, 1))) == 3
    assert len(TriangleSeq([T012, T123, T234])) == 3


@pytest.mark.parametrize("build, message", [
    (lambda: TriangleSeq([]), "empty triangle sequence"),
    (lambda: TriangleSeq([T012, tri(1, 2)]), "triangle at index 1 has 2 vertices"),
    (lambda: LabelsLayout(0, (0, 1, 2), ()), "n must be positive, got 0"),
    (lambda: LabelsLayout(5, (0, 1), ()), "need at least three labels"),
    (lambda: LabelsLayout(5, (0, 1, 2), (0,)), "label/layout length mismatch: 3 labels, 1 bits"),
    (lambda: LabelsLayout(3, (0, 1, 3), ()), "label 3 out of range for n=3"),
    (lambda: LabelsLayout(5, (0, 1, 2, 3), (2,)), "layout bit 2 is not 0 or 1"),
    (lambda: GeneratingSequence(12, [1], frozenset()), "modulus must be 4k+1 with k >= 1, got 12"),
    (lambda: GeneratingSequence(13, [], frozenset()), "need at least one term"),
    (lambda: GeneratingSequence(13, [1, 2, 3, 4], frozenset()), "too many terms: 4 > (n-1)/4 = 3"),
    (lambda: GeneratingSequence(13, [1, 13], frozenset()), "term 1 vanishes mod 13"),
    (lambda: GeneratingSequence(13, [1, 2], frozenset({2})), "turn index 2 out of range for 2 terms"),
    (lambda: edge(0, 0), "degenerate edge (0, 0)"),
    (lambda: CycleSquare((0, 1)), "cycle needs at least three vertices"),
    (lambda: CycleSquare((0, 1, 3)), "ordering is not a permutation of 0..n-1"),
    (lambda: Decomposition(7, (CycleSquare(range(5)),)),
     "cycle on 5 vertices in a decomposition of K_7"),
    (lambda: Decomposition(-3, ()), "n must be positive, got -3"),
])
def test_rejection_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value).startswith(message)


def test_of_fills_the_slots_in_order_without_checks():
    assert LabelsLayout._of(5, (0, 1, 2, 3), (0,)) == PAIR
    assert CycleSquare._of((0, 1, 2, 3, 4)) == CycleSquare(range(5))
    unchecked = LabelsLayout._of(3, (0, 1, 3), ())  # __init__ would reject label 3
    assert (unchecked.n, unchecked.labels, unchecked.layout) == (3, (0, 1, 3), ())


# The codec helpers that build their results with Record._of.
UNCHECKED = ("expand_to_circular", "cut_circular", "reverse_walk", "join_walks", "canonical")


@pytest.mark.slow
def test_codec_helpers_return_records_the_checking_constructor_accepts(monkeypatch):
    """Every construct route, n = 3..203 and 2000..2003: each pair an
    unchecked helper returns equals its rebuild through ``LabelsLayout``."""
    called = set()

    def checked(fn):
        def wrapper(*args, **kwargs):
            pair = fn(*args, **kwargs)
            assert type(pair.labels) is tuple and type(pair.layout) is tuple, fn.__name__
            assert pair == LabelsLayout(pair.n, pair.labels, pair.layout), fn.__name__
            called.add(fn.__name__)
            return pair
        return wrapper

    for module in (core, genseq, assembly):
        for name in UNCHECKED:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, checked(getattr(module, name)))
    for n in [*range(3, 204), *range(2000, 2004)]:
        construct_optimal(n)
    assert called == set(UNCHECKED)
