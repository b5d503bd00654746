"""Codec, goodness and diameter checks against hand-verified fixtures."""

from __future__ import annotations

import random
import re

import pytest

from diamforge.core import (
    Certificate,
    LabelsLayout,
    TriangleSeq,
    canonical,
    certify,
    covered_edges,
    dual_diameter,
    edge,
    edge_multiplicities,
    encode_triples,
    expand_pair,
    hs_max_diameter,
    is_good,
    is_ring,
    join_walks,
    reverse_walk,
)

# All-zero layout strip on seven labels whose dual is a path of length 7;
# appending any triangle through its tail edge {1, 4} breaks goodness.
STRIP = LabelsLayout(7, (0, 1, 2, 3, 4, 0, 5, 6, 1, 4), (0,) * 7)

# Circular walk on 13 labels covering every edge of K_13 exactly once or
# twice; 39 triangles, dual cycle of diameter 19.
RING13 = LabelsLayout(
    13,
    (0, 1, 3, 7, 8, 10, 1, 2, 4, 8, 9, 11, 2, 3, 5, 9, 10, 12, 3, 4, 6,
     10, 11, 0, 4, 5, 7, 11, 12, 1, 5, 6, 8, 12, 0, 2, 6, 7, 9, 0, 1),
    (0,) * 38,
)


def test_edge_canonicalizes():
    assert edge(5, 2) == (2, 5)
    with pytest.raises(ValueError):
        edge(3, 3)


def test_pair_schema_validation():
    with pytest.raises(ValueError):
        LabelsLayout(5, (0, 1, 2, 3), (0, 0))
    with pytest.raises(ValueError, match=r"^label 5 out of range for n=3$"):
        LabelsLayout(3, (0, 1, 5), ())
    with pytest.raises(ValueError, match=r"^label -1 out of range for n=4$"):
        LabelsLayout(4, (0, 1, -1, 2), (0,))
    with pytest.raises(ValueError, match=r"^label 9 out of range for n=4$"):
        LabelsLayout(4, (0, 1, 9, 2, -1), (0, 0))
    with pytest.raises(ValueError, match=r"^layout bit 2 is not 0 or 1$"):
        LabelsLayout(4, (0, 1, 2, 3), (2,))
    with pytest.raises(ValueError, match=r"^layout bit -1 is not 0 or 1$"):
        LabelsLayout(4, (0, 1, 2, 3, 0, 1), (0, -1, 3))


def test_expand_single_triangle():
    pair = LabelsLayout(3, (0, 1, 2), ())
    seq = expand_pair(pair)
    assert seq.triangles == [frozenset({0, 1, 2})]
    assert not is_ring(pair)
    assert is_good(seq)
    assert dual_diameter(seq) == 0


def test_expand_both_bit_kinds():
    """Bit 0 drops the carried vertex, bit 1 keeps it."""
    seq = expand_pair(LabelsLayout(5, (0, 1, 2, 3, 4), (0, 1)))
    assert seq.triangles == [
        frozenset({0, 1, 2}),
        frozenset({1, 2, 3}),
        frozenset({1, 3, 4}),
    ]


def test_expand_rejects_degenerate_triangle():
    with pytest.raises(ValueError):
        expand_pair(LabelsLayout(4, (0, 1, 2, 1), (0,)))


def test_strip_shape():
    seq = expand_pair(STRIP)
    assert len(seq.triangles) == 8
    assert is_good(seq)
    assert not is_ring(STRIP)
    assert dual_diameter(seq) == 7
    assert len(covered_edges(seq)) == 17


def test_strip_tail_edge_is_dead():
    """No triangle {1, 4, x} can extend the strip to diameter 8."""
    labels, layout = STRIP.labels, STRIP.layout
    last = expand_pair(STRIP).triangles[-1]
    assert {1, 4} < last
    attempts = 0
    for x in range(7):
        for bit in (0, 1):
            try:
                longer = expand_pair(
                    LabelsLayout(7, labels + (x,), layout + (bit,))
                )
            except ValueError:
                continue
            if {1, 4} < longer.triangles[-1]:
                attempts += 1
                assert not is_good(longer)
    assert attempts > 0


def test_ring13_closes_and_covers_everything():
    seq = expand_pair(RING13)
    assert is_ring(RING13)
    assert len(seq.triangles) == 39
    assert certify(RING13).good and certify(RING13).circular
    # The first and last triangles share the wrap edge {0, 1} out of order.
    assert not is_good(seq)
    assert dual_diameter(seq) == 19
    assert covered_edges(seq) == {(i, j) for i in range(13) for j in range(i + 1, 13)}


def test_ring13_multiplicity_split():
    counts = edge_multiplicities(expand_pair(RING13))
    per = sorted(counts.values())
    assert per.count(1) == 39 and per.count(2) == 39
    assert set(per) == {1, 2}


def test_goodness_rejections():
    triple_cover = TriangleSeq(
        [frozenset({0, 1, 2}), frozenset({0, 1, 3}), frozenset({0, 1, 4})]
    )
    assert not is_good(triple_cover)
    # 7 = 2*2 + 3 distinct edges, so the edge count alone cannot decide goodness.
    assert len(covered_edges(triple_cover)) == 7
    distant_share = TriangleSeq(
        [
            frozenset({0, 1, 2}),
            frozenset({1, 2, 3}),
            frozenset({2, 3, 4}),
            frozenset({0, 1, 4}),
        ]
    )
    assert not is_good(distant_share)
    gap = TriangleSeq([frozenset({0, 1, 2}), frozenset({2, 3, 4})])
    assert not is_good(gap)


def test_dual_diameter_shapes():
    path = expand_pair(LabelsLayout(6, (0, 1, 2, 3, 4, 5), (0, 0, 0)))
    assert dual_diameter(path) == 3
    clique = TriangleSeq(
        [frozenset({0, 1, 2}), frozenset({0, 1, 3}), frozenset({0, 1, 4})]
    )
    assert dual_diameter(clique) == 1
    with pytest.raises(ValueError):
        dual_diameter(TriangleSeq([frozenset({0, 1, 2}), frozenset({3, 4, 5})]))


def test_hs_values():
    assert [hs_max_diameter(n) for n in range(3, 14)] == [
        0, 1, 3, 5, 9, 12, 16, 21, 26, 31, 37,
    ]
    assert hs_max_diameter(6) == 5
    assert hs_max_diameter(34) == 279
    assert hs_max_diameter(105) == 2728
    with pytest.raises(ValueError):
        hs_max_diameter(2)


def test_encode_round_trip_linear():
    seq = expand_pair(STRIP)
    again = expand_pair(encode_triples(seq))
    assert again.triangles in (seq.triangles, list(reversed(seq.triangles)))


def test_encode_keeps_a_linear_walk_linear():
    # The four faces of K_4 as a path: the last triangle shares an edge with
    # the first, and labels starting 1, 0, 2 would end on 1, 0 like a ring.
    walk = LabelsLayout(4, (1, 2, 0, 3, 1, 0), (0, 1, 0))
    seq = expand_pair(walk)
    assert not is_ring(walk)
    pair = encode_triples(seq)
    assert pair.labels[-2:] != pair.labels[:2]
    again = expand_pair(pair)
    assert not is_ring(pair) and again.triangles == seq.triangles


def test_encode_rejects_broken_walks():
    with pytest.raises(ValueError):
        encode_triples(TriangleSeq([frozenset({0, 1, 2}), frozenset({2, 3, 4})]))


def test_certify_optimal_pair():
    cert = certify(LabelsLayout(4, (0, 1, 2, 3), (0,)))
    assert cert == Certificate(
        good=True,
        circular=False,
        covered_edges=5,
        diameter=1,
        optimum=1,
        matches_optimum=True,
        uncovered_edges=[(0, 3)],
    )


def test_certify_circular_never_matches():
    cert = certify(RING13)
    assert cert.good and cert.circular
    assert cert.covered_edges == 78 and cert.uncovered_edges == []
    assert not cert.matches_optimum


def test_certify_rejects_bad_walks():
    # {2, 3, 0} re-covers {0, 2} from the first triangle: the dual is a
    # triangle, not a path.
    cert = certify(LabelsLayout(4, (0, 1, 2, 3, 0), (0, 0)))
    assert not cert.good and not cert.matches_optimum and not cert.circular
    assert cert.covered_edges == 6 and cert.diameter == 1


def test_pair_length_counts_triangles():
    assert len(LabelsLayout(3, (0, 1, 2), ())) == 1
    assert len(STRIP) == 8
    assert len(RING13) == len(expand_pair(RING13)) == 39


def test_certify_rejects_degenerate_pairs_like_expand_pair():
    for pair in (
        LabelsLayout(4, (0, 1, 1), ()),
        LabelsLayout(4, (0, 1, 2, 1), (0,)),
        LabelsLayout(5, (0, 1, 2, 3, 4, 1), (0, 1, 1)),
        LabelsLayout(5, (0, 1, 2, 3, 2), (0, 0)),
    ):
        with pytest.raises(ValueError) as slow:
            expand_pair(pair)
        with pytest.raises(ValueError) as fast:
            certify(pair)
        assert str(fast.value) == str(slow.value)


def test_random_walks_obey_the_edge_law():
    from conftest import random_good_pair

    rng = random.Random(4057)
    for _ in range(300):
        seq = expand_pair(random_good_pair(rng))
        assert is_good(seq)
        t = len(seq.triangles)
        assert len(covered_edges(seq)) == 2 * t + 1
        assert dual_diameter(seq) == t - 1


def test_corrupted_walks_fail_goodness():
    from conftest import corrupted_pair

    rng = random.Random(977)
    for _ in range(300):
        seq = expand_pair(corrupted_pair(rng))
        assert not is_good(seq)
        t = len(seq.triangles)
        assert len(covered_edges(seq)) < 2 * t + 1


def test_join_takes_the_larger_order():
    """The joined walk has the larger n of its two walks, whichever comes
    first, so every label of either is in range."""
    short, long = LabelsLayout(5, (2, 3, 4), ()), LabelsLayout(9, (8, 1, 2, 3), (0,))
    want = LabelsLayout(9, (8, 1, 2, 3, 4), (0, 0))
    assert join_walks(long, short) == want == LabelsLayout(want.n, want.labels, want.layout)
    assert join_walks(reverse_walk(short), reverse_walk(long)) == reverse_walk(want)
    assert join_walks(LabelsLayout(9, (1, 2, 3), ()), short) == LabelsLayout(9, (1, 2, 3, 4), (0,))


def test_join_rejects_a_tail_that_does_not_continue_the_head():
    """join_walks never turns its tail round: a tail whose first triangle
    misses head's last, or meets it in one vertex, raises, naming both."""
    head = LabelsLayout(6, (0, 1, 2, 3), (0,))  # ends on {1, 2, 3}
    # {4, 5, 0}; {0, 3, 4}; {1, 4, 5}, {1, 3, 5}: the last one turned round continues head.
    tails = [LabelsLayout(6, (4, 5, 0, 1), (0,)), LabelsLayout(6, (0, 3, 4, 5), (0,)),
             LabelsLayout(6, (4, 5, 1, 3), (0,))]
    for tail in tails:
        first = sorted(tail.labels[:3])
        want = f"tail's first triangle {first} does not continue head's last [1, 2, 3]"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            join_walks(head, tail)
    joined = join_walks(head, reverse_walk(tails[-1]))
    assert expand_pair(joined).triangles[2:] == [frozenset({1, 3, 5}), frozenset({1, 4, 5})]


def test_codec_walk_helpers_match_the_reference_encoder():
    """reverse_walk, join_walks and canonical against encoding the triangles."""
    from conftest import random_good_pair, reference_encode_triples

    rng = random.Random(0xC0DE)
    for _ in range(2000):
        pair = random_good_pair(rng)
        tris = expand_pair(pair).triangles
        want = reference_encode_triples(TriangleSeq(tris), pair.n)
        assert canonical(pair) == want
        back = reverse_walk(pair)
        assert expand_pair(back).triangles == tris[::-1]
        assert canonical(back) == want
        if len(tris) < 2:
            continue
        i = rng.randrange(1, len(tris))
        head = reference_encode_triples(TriangleSeq(tris[:i]), pair.n)
        if expand_pair(head).triangles[-1] != tris[i - 1]:
            head = reverse_walk(head)
        tail = reference_encode_triples(TriangleSeq(tris[i:]), pair.n)
        if expand_pair(tail).triangles[0] != tris[i]:
            tail = reverse_walk(tail)
        joined = join_walks(head, tail)
        assert expand_pair(joined).triangles == tris
        assert canonical(joined) == want


def test_edge_counts_and_goodness_match_the_per_triangle_references():
    """edge_multiplicities, covered_edges and is_good against the loops they
    replace, on random triangle lists, random walks with and without a
    reused edge, decoded rings and the attachment plans."""
    from conftest import (
        corrupted_pair,
        random_good_pair,
        reference_edge_multiplicities,
        reference_is_good,
    )
    from diamforge.assembly import attach_4k3, attach_4k4, attach_4k6

    rng = random.Random(0xED6E)
    seqs = [expand_pair(RING13), expand_pair(STRIP)]
    for _ in range(600):
        n = rng.randint(4, 9)
        tris = [frozenset(rng.sample(range(n), 3)) for _ in range(rng.randint(1, 12))]
        seqs.append(TriangleSeq(tris))
        seqs.append(expand_pair(random_good_pair(rng)))
        seqs.append(expand_pair(corrupted_pair(rng)))
    for k in range(7, 11):
        seqs += [attach_4k4(k), attach_4k3(k), *attach_4k6(k)]
    good = 0
    for seq in seqs:
        counts = reference_edge_multiplicities(seq)
        assert edge_multiplicities(seq) == counts
        assert covered_edges(seq) == set(counts)
        assert is_good(seq) == reference_is_good(seq)
        good += is_good(seq)
    assert 600 < good < len(seqs) - 600
