"""Property tests over drawn walks and families: the codec round trip, the
walk writer, the certifier and the partition checker."""

from __future__ import annotations

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    arithmetic, grow_walk, reference_canonical, reference_certify, reference_encode_triples,
    reference_reverse_walk, reference_verify_partition, reference_write,
)
from diamforge.assembly import _write
from diamforge.core import (
    LabelsLayout, canonical, certify, encode_triples, expand_pair, is_ring, join_walks, reverse_walk,
    triangle_at,
)
from diamforge.hampack import CycleSquare, Decomposition, decompose_prime, verify_partition

PROPERTY = settings(max_examples=300, deadline=None)


@st.composite
def good_pairs(draw):
    """Good walks from the seed triangle, one legal move at a time."""
    n = draw(st.integers(3, 12))
    steps = draw(st.integers(0, 3 * n))
    return grow_walk(lambda moves: draw(st.sampled_from(moves)), n, steps)[0]


@st.composite
def any_pairs(draw):
    """Arbitrary in-range pairs: degenerate, edge-reusing, closing or good."""
    n = draw(st.integers(1, 9))
    steps = draw(st.integers(0, 24))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=steps + 3, max_size=steps + 3))
    layout = draw(st.lists(st.integers(0, 1), min_size=steps, max_size=steps))
    if steps >= 2 and draw(st.booleans()):
        labels[-2:] = labels[:2]  # try to close a ring
    return LabelsLayout(n, labels, layout)


@st.composite
def walk_pairs(draw):
    """Non-degenerate pairs: each label avoids the two it is glued to.

    Half of them try to end on their first two labels, as a ring does.
    """
    n = draw(st.integers(4, 9))
    c, u, v = draw(st.permutations(range(n)))[:3]
    labels, layout = [c, u, v], []
    steps = [None] * draw(st.integers(0, 30))
    if draw(st.booleans()):
        steps += labels[:2]
    for w in steps:
        bits = [y for y in (0, 1) if w not in (u if y == 0 else c, v)]
        if not bits:
            break
        y = draw(st.sampled_from(bits))
        first = u if y == 0 else c
        if w is None:
            w = draw(st.sampled_from([x for x in range(n) if x not in (first, v)]))
        labels.append(w)
        layout.append(y)
        c, u, v = first, v, w
    return LabelsLayout(n, labels, layout)


def assert_round_trip(pair: LabelsLayout) -> None:
    """A walk, ring or not, comes back as itself or reversed, never as a ring."""
    seq = expand_pair(pair)
    back = encode_triples(seq, pair.n)
    assert back.n == pair.n and not is_ring(back)
    assert expand_pair(back).triangles in (seq.triangles, seq.triangles[::-1])


@PROPERTY
@given(good_pairs())
def test_codec_round_trip_of_good_walks(pair):
    assert_round_trip(pair)


@PROPERTY
@given(walk_pairs())
def test_codec_round_trip_when_encodable(pair):
    try:
        encode_triples(expand_pair(pair), pair.n)
    except ValueError:
        return
    assert_round_trip(pair)


@PROPERTY
@given(st.one_of(walk_pairs(), good_pairs()))
def test_encode_triples_agrees_with_the_reference(pair):
    seq = expand_pair(pair)
    try:
        want = reference_encode_triples(seq, pair.n)
    except ValueError:
        with pytest.raises(ValueError):
            encode_triples(seq, pair.n)
        return
    assert encode_triples(seq, pair.n) == want


@st.composite
def split_walks(draw):
    """A good walk drawn with its 1-bit moves first, so that it has runs of
    1 bits, and cut into up to four parts, each given as a walk and whether
    it runs backwards, that walk then being the part turned round."""
    n = draw(st.integers(4, 12))
    steps = draw(st.integers(0, 3 * n))
    pair = grow_walk(lambda moves: draw(st.sampled_from(sorted(moves, key=lambda m: -m[1]))),
                     n, steps)[0]
    cuts = sorted(draw(st.sets(st.integers(1, len(pair) - 1), max_size=3)) if len(pair) > 1 else ())
    parts = []
    for i, j in zip([0, *cuts], [*cuts, len(pair)]):
        c, u, v = triangle_at(pair, i)
        part = LabelsLayout(n, (c, u, v) + pair.labels[i + 3 : j + 2], pair.layout[i : j - 1])
        back = draw(st.booleans())
        parts.append((reference_reverse_walk(part) if back else part, back))
    return pair, parts


@PROPERTY
@given(split_walks())
def test_walk_writer_agrees_with_the_chain_of_references(case):
    """reverse_walk, join_walks, canonical and construct's writer against the
    references' chain: the same triangles and, past the first labels and
    bits, the same codec; canonical forms equal."""
    pair, parts = case
    want = reference_canonical(pair)
    back, ref = reverse_walk(pair), reference_reverse_walk(pair)
    assert (back.labels[3:], back.layout[2:]) == (ref.labels[3:], ref.layout[2:])
    assert expand_pair(back).triangles == expand_pair(ref).triangles
    assert canonical(pair) == canonical(back) == reference_canonical(ref) == want
    walks = [reverse_walk(part) if turned else part for part, turned in parts]
    joined = join_walks(*walks)
    assert (joined.labels[3:], joined.layout[2:]) == (pair.labels[3:], pair.layout[2:])
    assert expand_pair(joined).triangles == expand_pair(pair).triangles
    assert canonical(joined) == _write(list(parts)) == reference_write(parts) == want


@PROPERTY
@given(st.one_of(any_pairs(), walk_pairs(), good_pairs()))
def test_certify_agrees_with_the_reference(pair):
    try:
        expand_pair(pair)
    except ValueError as slow:
        with pytest.raises(ValueError) as fast:
            certify(pair)
        assert str(fast.value) == str(slow)
        return
    assert certify(pair) == reference_certify(pair)


@st.composite
def arithmetic_cycles(draw):
    """Families of arithmetic cycles x_i = x_0 + i*s mod n on odd n from 5 to
    45, about (n-1)/4 of them, with random starts and directions.

    The steps are random units, or those of a prime partition (p = 5..41),
    so that both the tilings and the near misses of the class path come up.
    """
    if draw(st.booleans()):
        n = 2 * draw(st.integers(2, 22)) + 1
        units = [s for s in range(1, n) if gcd(s, n) == 1]
        size = max(0, (n - 1) // 4 + draw(st.integers(-1, 1)))
        steps = [draw(st.sampled_from(units)) for _ in range(size)]
    else:
        d = decompose_prime(draw(st.sampled_from([5, 13, 17, 29, 37, 41])))
        n, steps = d.n, [c.order[1] for c in d.cycles]
    cycles = []
    for s in steps:
        s = n - s if draw(st.booleans()) else s
        x0 = draw(st.integers(0, n - 1))
        cycles.append(CycleSquare(arithmetic(n, x0, s)))
    return Decomposition(n, cycles)


@st.composite
def families(draw):
    """Cycle-square families on 5..45 vertices.

    Random permutations, a prime partition (p = 5, 13, 17) under a random
    relabelling with up to two cycles dropped or repeated, or a family of
    arithmetic cycles.
    """
    branch = draw(st.integers(0, 2))
    if branch == 2:
        return draw(arithmetic_cycles())
    if branch == 0:
        n = draw(st.integers(5, 21))
        size = draw(st.integers(0, 6))
        orders = [draw(st.permutations(range(n))) for _ in range(size)]
        return Decomposition(n, [CycleSquare(o) for o in orders])
    d = decompose_prime(draw(st.sampled_from([5, 13, 17])))
    relabel = draw(st.permutations(range(d.n)))
    cycles = [CycleSquare([relabel[v] for v in c.order]) for c in d.cycles]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(cycles) - 1))
        if draw(st.booleans()):
            cycles.append(cycles[i])
        elif len(cycles) > 1:
            del cycles[i]
    return Decomposition(d.n, cycles)


@PROPERTY
@given(families())
def test_verify_partition_agrees_with_brute_force(d):
    """The report equals the reference's, which reads every vertex's
    neighbours in every square."""
    assert verify_partition(d) == reference_verify_partition(d)
