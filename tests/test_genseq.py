"""Generating-sequence families, expansion, and ring cutting."""

from __future__ import annotations

import inspect
import random

import pytest

from conftest import (
    is_unrolled, plan_anchors, random_good_pair, reference_cut_circular, reference_cut_exposing,
    reference_seed_cut, residue_class, route_cut,
)
from diamforge import genseq
from diamforge.assembly import _construct_walk
from diamforge.core import (
    LabelsLayout,
    certify,
    covered_edges,
    dual_diameter,
    edge_multiplicities,
    encode_triples,
    expand_pair,
    is_good,
    is_ring,
)
from diamforge.genseq import (
    GeneratingSequence,
    blue_terms,
    canonical_residue,
    cut_circular,
    cut_exposing,
    expand_pair_of,
    expand_to_circular,
    gs_full,
    gs_missing_12,
    gs_missing_1248,
    verify_generating_sequence,
)
from test_core import RING13


def test_sequence_normalization():
    gs = GeneratingSequence(13, [-1, 15, 4], frozenset())
    assert gs.terms == [12, 2, 4]
    assert gs.m == 3
    with pytest.raises(ValueError):
        GeneratingSequence(12, [1], frozenset())
    with pytest.raises(ValueError):
        GeneratingSequence(13, [13, 1, 2], frozenset())
    with pytest.raises(ValueError):
        GeneratingSequence(13, [1, 2, 4], frozenset({3}))


def test_canonical_residue():
    assert canonical_residue(5, 13) == 5
    assert canonical_residue(8, 13) == 5
    assert canonical_residue(30, 37) == 7
    assert canonical_residue(-3, 37) == 3


def test_blue_terms_with_turn():
    gs = gs_missing_1248(7)
    assert gs.terms == [5, 14, 3, 6, 11]
    assert sorted(gs.turns) == [1]
    assert blue_terms(gs) == [19, 22, 9, 17, 16]


def test_hard_coded_rows():
    assert gs_full(3).terms == [1, 2, 4]
    assert gs_full(4).terms == [1, 2, 6, 4]
    assert gs_full(5).terms == [1, 2, 7, 6, 4]
    assert all(not gs_full(k).turns for k in (3, 4, 5))
    assert gs_missing_12(4).terms == [3, 4, 8]
    assert gs_missing_12(7).terms == [11, 8, 17, 7, 6, 3]


def test_generic_rows():
    g = gs_full(8)
    assert (g.terms, sorted(g.turns)) == ([3, 2, 7, 6, 11, 10, 15, 14], [7])
    g = gs_full(7)
    assert (g.terms, sorted(g.turns)) == ([23, 14, 25, 20, 2, 1, 11], [])
    g = gs_missing_12(9)
    assert (g.terms, sorted(g.turns)) == ([8, 32, 15, 4, 21, 7, 6, 11], [2])
    g = gs_missing_12(8)
    assert (g.terms, sorted(g.turns)) == ([4, 10, 9, 21, 7, 6, 11], [0])
    g = gs_missing_1248(8)
    assert (g.terms, sorted(g.turns)) == ([3, 9, 5, 6, 11, 7], [2])


def test_family_ranges():
    # Each family names its smallest modulus 4k+1, not its smallest k.
    for family, k, least in ((gs_full, 2, 13), (gs_missing_12, 3, 17), (gs_missing_1248, 6, 29)):
        floor = f"n = {4 * k + 1} is below {least}, the smallest modulus of this family"
        with pytest.raises(ValueError, match=f"^{floor}$"):
            family(k)


def test_family_verification_sample():
    for k in (3, 4, 5, 6, 7, 12, 25):
        rep = verify_generating_sequence(gs_full(k))
        assert rep.valid and rep.missing == frozenset()
    for k in (4, 5, 6, 7, 8, 9, 24, 25):
        rep = verify_generating_sequence(gs_missing_12(k))
        assert rep.valid and rep.missing == frozenset({1, 2})
    for k in (7, 8, 9, 10, 24, 25):
        rep = verify_generating_sequence(gs_missing_1248(k))
        assert rep.valid and rep.missing == frozenset({1, 2, 4, 8})


def test_verification_failures():
    bad_gcd = GeneratingSequence(13, [1, 3, 9], frozenset())
    rep = verify_generating_sequence(bad_gcd)
    assert not rep.valid and "factor" in rep.reason

    adjacent = GeneratingSequence(37, [8, 32, 15, 4, 21, 7, 6, 11], frozenset({2, 3}))
    rep = verify_generating_sequence(adjacent)
    assert not rep.valid and "adjacent" in rep.reason

    collide = GeneratingSequence(13, [1, 2, 3], frozenset())
    rep = verify_generating_sequence(collide)
    assert not rep.valid
    assert rep.reason == "signed values collide: 10 distinct, expected 12"
    # The blue term 1 + 12 vanishes: 0 is its own negative.
    rep = verify_generating_sequence(GeneratingSequence(13, [1, 12, 5], frozenset()))
    assert rep.reason == "signed values collide: 9 distinct, expected 12"


def test_expansion_closes_into_ring():
    """gs_full(3) unrolls into RING13, which test_core pins."""
    assert expand_pair_of(gs_full(3)) == RING13


def test_expansion_with_turn_covers_predicted_residues():
    gs = gs_missing_1248(9)
    seq = expand_pair(expand_pair_of(gs))
    n = gs.n
    assert len(seq.triangles) == gs.m * n
    predicted = {canonical_residue(a, n) for a in gs.terms}
    predicted |= {canonical_residue(c, n) for c in blue_terms(gs)}
    got = {canonical_residue(v - u, n) for u, v in covered_edges(seq)}
    assert got == predicted
    assert {1, 2, 4, 8}.isdisjoint(got)


def test_turn_on_seed_is_rotated_away():
    """A turn at index 0 cannot sit on the seed; the ring is read from index
    1 and still closes, good, on every class but 1 and 2."""
    gs = gs_missing_12(8)
    assert 0 in gs.turns
    cert = certify(expand_pair_of(gs))
    assert cert.good and cert.circular
    assert cert.uncovered_edges == sorted(residue_class(1, gs.n) | residue_class(2, gs.n))


def test_multiplicity_profile():
    """Each residue class sits at one uniform multiplicity across the ring."""
    gs = gs_missing_1248(9)
    seq = expand_pair(expand_pair_of(gs))
    by_res: dict[int, set[int]] = {}
    for e, m in edge_multiplicities(seq).items():
        by_res.setdefault(canonical_residue(e[1] - e[0], gs.n), set()).add(m)
    singles = {r for r, ms in by_res.items() if ms == {1}}
    doubles = {r for r, ms in by_res.items() if ms == {2}}
    assert singles == {9, 12, 14, 15, 16, 17, 18}
    assert doubles == {3, 5, 6, 7, 10, 11, 13}
    assert singles | doubles == set(by_res)


def test_cut_specs_are_deterministic():
    """Each route names the edge its cut destroys on its family's ring."""
    for n, family, k, destroyed in ((20, gs_missing_12, 4, (0, 6)), (40, gs_missing_12, 9, (5, 23)),
                                    (44, gs_missing_12, 10, (9, 27)),
                                    (34, gs_missing_1248, 7, (0, 17)),
                                    (38, gs_missing_1248, 8, (0, 17))):
        assert route_cut(n) == (expand_pair_of(family(k)), destroyed), n


def test_cut_exposing_scan_matches_returned_spec():
    """The edge the n = 4k+4 route destroys, read from construct_optimal as
    it cuts, is the one cut_exposing finds at the plan's anchor {0, 4k-2}."""
    for k in range(4, 61):
        ring, destroyed = route_cut(4 * k + 4)
        assert cut_exposing(ring, (0, 4 * k - 2)) == destroyed, k


def test_each_plan_led_cut_agrees_with_the_scan():
    """At n = 4k+6 for k = 7..60 the route destroys the edge cut_exposing
    finds at plan A's anchor {6, 17}.  n = 4k+3 is the one exception: its
    plan re-covers {0, 13}, while the scan at its anchor {0, 7} finds
    (7, 17), (7, 15) and (7, 12) at k = 5, 6 and 7."""
    for k in range(7, 61):
        ring, destroyed = route_cut(4 * k + 6)
        assert cut_exposing(ring, (6, 17)) == destroyed, k
    for k, scanned in ((5, (7, 17)), (6, (7, 15)), (7, (7, 12))):
        ring, destroyed = route_cut(4 * k + 3)
        assert (destroyed, cut_exposing(ring, (0, 7))) == ((0, 13), scanned), k


def test_cut_opens_ring():
    pair = expand_pair_of(gs_missing_12(4))
    cut = cut_circular(pair, (0, 6))
    ring, lin = expand_pair(pair), expand_pair(cut)
    assert not is_ring(cut) and is_good(lin)
    assert len(lin.triangles) == len(ring.triangles) - 1
    assert dual_diameter(lin) == len(lin.triangles) - 1
    assert len(covered_edges(lin)) == len(covered_edges(ring)) - 1
    assert {0, 14} <= lin.triangles[0]


def test_cut_exposes_both_ends_for_1248():
    """Cut at {0, 17}, the family puts {6, 17} in the first triangle and
    {0, 6} in the last."""
    for k in (7, 8, 9):
        lin = expand_pair(cut_circular(expand_pair_of(gs_missing_1248(k)), (0, 17)))
        assert {6, 17} <= lin.triangles[0]
        assert {0, 6} <= lin.triangles[-1]


def test_cut_exposing_scan_matches_seed_cut():
    for k in range(3, 61):
        ring = expand_pair_of(gs_full(k))
        seq = expand_pair(ring)
        shared = tuple(seq.triangles[0] & seq.triangles[1])
        assert cut_exposing(ring, shared) == reference_seed_cut(ring), k


def _cut_exposing_outcome(find, ring, end_edge):
    """The edge ``find`` returns, or the text of the ValueError it raises."""
    try:
        return find(ring, end_edge)
    except ValueError as exc:
        return str(exc)


def test_cut_exposing_matches_the_frozenset_scan():
    """Family rings with their assembly end edges, random vertex pairs on
    nine family rings and on random walks closed into rings, values and
    error texts alike."""
    cases = [(expand_pair_of(gs_full(k)), None) for k in range(3, 61)]
    cases += [(expand_pair_of(gs_missing_12(k)), (0, 4 * k - 2)) for k in range(4, 61)]
    rng = random.Random(0xC075)
    rings = [expand_pair_of(gs) for gs in (
        gs_full(3), gs_full(4), gs_full(7), gs_missing_12(4), gs_missing_12(5),
        gs_missing_12(8), gs_missing_1248(7), gs_missing_1248(8), gs_missing_1248(9),
    )]
    cases += [(ring, tuple(rng.sample(range(ring.n), 2))) for ring in rings for _ in range(60)]
    assert len(cases) == 655
    while len(cases) < 955:
        base = random_good_pair(rng, rng.randint(4, 9))
        ring = LabelsLayout(base.n, base.labels + base.labels[:2],
                            base.layout + (rng.randrange(2), rng.randrange(2)))
        try:
            expand_pair(ring)
        except ValueError:
            continue
        if is_ring(ring):
            cases.append((ring, tuple(rng.sample(range(ring.n), 2))))
    kinds = set()
    for ring, end_edge in cases:
        tris = expand_pair(ring).triangles
        if end_edge is None:
            end_edge = tuple(tris[0] & tris[1])
        got = _cut_exposing_outcome(cut_exposing, ring, end_edge)
        assert got == _cut_exposing_outcome(reference_cut_exposing, tris, end_edge), end_edge
        kinds.add("cut" if isinstance(got, tuple) else got.split(" ", 1)[0])
    # A cut, "edge ... is not covered" and "no cut exposes ..." all come up.
    assert kinds == {"cut", "edge", "no"}


def test_cut_exposing_refuses_a_linear_walk():
    lin = cut_circular(expand_pair_of(gs_missing_12(4)), (0, 6))
    with pytest.raises(ValueError, match=r"^sequence is not circular$"):
        cut_exposing(lin, (0, 14))


def test_a_cut_names_only_the_edge_it_destroys():
    """No cut record, end selector or reversal: each route that joins a plan
    checks the plan's anchor where it joins it, and names its own cut, so a
    family returns its sequence alone."""
    assert {"CutSpec", "reverse_walk"}.isdisjoint(vars(genseq))
    assert list(inspect.signature(cut_circular).parameters) == ["ring", "destroyed_edge"]
    assert list(inspect.signature(genseq._holders).parameters) == ["ring", "e"]
    for family, ks in ((gs_full, (3, 6, 7)), (gs_missing_12, (4, 8, 9)),
                       (gs_missing_1248, (7, 10, 11))):
        assert list(inspect.signature(family).parameters) == ["k"]
        assert all(type(family(k)) is GeneratingSequence for k in ks), family


def test_genseq_holds_no_frozenset_code():
    names = vars(genseq)
    assert not {"TriangleSeq", "expand_pair", "edge_multiplicities", "covered_edges"} & set(names)


def test_decoded_rings_encode_as_linear_walks():
    """A ring's triangles encode to a pair that is not a ring and decodes to
    them, forwards or reversed; canonical's ring-avoiding swap gives
    58 of those pairs their labels."""
    rings = [RING13]
    for k in range(3, 40):
        rings.append(expand_pair_of(gs_full(k)))
        if k >= 4:
            rings.append(expand_pair_of(gs_missing_12(k)))
        if k >= 7:
            rings.append(expand_pair_of(gs_missing_1248(k)))
    forwards = swapped = 0
    for ring in rings:
        seq = expand_pair(ring)
        tris, back = seq.triangles, encode_triples(seq, ring.n)
        assert back.n == ring.n and not is_ring(back)
        again = expand_pair(back).triangles
        assert again in (tris, tris[::-1])
        forwards += again == tris
        swapped += back.labels[1] > back.labels[2]
    assert len(rings) == 107
    assert (forwards, swapped) == (71, 58)


def test_seed_cut_reads_the_reference_cut_off_the_labels():
    """The n = 4k+1 route destroys {x0, x2}, read off the ring's labels:
    the edge of the seed that avoids the vertex it shares with both of its
    neighbours."""
    for k in range(3, 151):
        ring = expand_pair_of(gs_full(k))
        assert _construct_walk(4 * k + 1) == cut_circular(ring, reference_seed_cut(ring)), k


def test_cut_exposing_on_full_ring():
    ring = expand_pair_of(gs_full(3))
    assert cut_exposing(ring, (0, 1)) == (0, 3)


def _cut_cases(kmax: int):
    """Every family ring with the edge each assembly route destroys, read
    from construct as it cuts at n = 4k+4, 4k+3 and 4k+6, and the anchors
    of the plans that route joins, with the end of the cut walk that each
    must sit in, for each valid k <= kmax."""
    for k in range(3, kmax + 1):
        ring = expand_pair_of(gs_full(k))
        yield f"full k={k}", ring, reference_seed_cut(ring), {}
    for k in range(4, kmax + 1):
        anchor = plan_anchors(k)
        yield f"4k+4 k={k}", *route_cut(4 * k + 4), {anchor["attach_4k4"]: 0}
        if k >= 5:
            yield f"4k+3 k={k}", *route_cut(4 * k + 3), {anchor["attach_4k3"]: -1}
    for k in range(7, kmax + 1):
        anchor = plan_anchors(k)
        ends = {anchor["attach_4k6/A"]: 0, anchor["attach_4k6/B"]: -1}
        yield f"4k+6 k={k}", *route_cut(4 * k + 6), ends


@pytest.mark.slow
def test_cut_matches_reference_and_exposes_its_ends():
    """A cut removes one edge, and each family leaves the anchor of every
    plan its route joins held once, in the end triangle where it joins."""
    for name, pair, destroyed, ends in _cut_cases(60):
        cut = cut_circular(pair, destroyed)
        lin = expand_pair(cut)
        assert lin == reference_cut_circular(pair, destroyed), name
        # The walk is the ring minus one triangle, so it covers the ring's
        # edges but the destroyed one, which no other triangle holds.
        cert = certify(cut)
        assert destroyed in cert.uncovered_edges, name
        assert cert.covered_edges == certify(pair).covered_edges - 1, name
        for e, end in ends.items():
            held = [i for i, tri in enumerate(lin.triangles) if set(e) <= tri]
            assert held == [end % len(lin)], (name, e)


def _same_rejection(ring, destroyed):
    with pytest.raises(ValueError) as got:
        cut_circular(ring, destroyed)
    with pytest.raises(ValueError) as want:
        reference_cut_circular(ring, destroyed)
    assert str(got.value) == str(want.value)
    return str(got.value)


def test_cut_rejections_match_reference():
    for ring in (expand_pair_of(gs_missing_12(4)), expand_pair_of(gs_missing_12(9))):
        mult = edge_multiplicities(expand_pair(ring))
        doubled = next(e for e, m in mult.items() if m == 2)
        msg = _same_rejection(ring, doubled)
        assert msg == f"destroyed edge {doubled} is covered 2 times, need exactly 1"
    # Residue class 1 is missing from the ring.
    assert _same_rejection(ring, (1, 0)) == "destroyed edge (0, 1) is covered 0 times, need exactly 1"

    lin = cut_circular(ring, (5, 23))
    assert _same_rejection(lin, (5, 23)) == "sequence is not circular"


def test_cut_rejects_doubled_destroyed_edge():
    ring = expand_pair_of(gs_missing_12(4))
    doubled = next(e for e, m in edge_multiplicities(expand_pair(ring)).items() if m == 2)
    with pytest.raises(ValueError):
        cut_circular(ring, doubled)


@pytest.mark.slow
def test_closed_form_ring_matches_the_unrolled_reference():
    """Every k of each family up to 300: both parities, the literal rows,
    turns on and off the seed."""
    families = (
        (gs_full, 3),
        (gs_missing_12, 4),
        (gs_missing_1248, 7),
    )
    for family, lo in families:
        for k in range(lo, 301):
            gs = family(k)
            assert is_unrolled(expand_to_circular(gs), gs), (family, k)


def test_closed_form_ring_with_a_turn_at_the_seed_and_a_term_sum_not_one():
    for gs in (
        GeneratingSequence(33, [20, 17, 12, 6, 2, 30, 22], frozenset({0})),  # sum 10
        GeneratingSequence(5, [2], frozenset()),  # one term, sum 2
    ):
        assert verify_generating_sequence(gs).valid and sum(gs.terms) % gs.n != 1
        ring = expand_to_circular(gs)
        assert is_unrolled(ring, gs)
        assert certify(ring).good and certify(ring).circular


def test_expand_requires_valid_sequence():
    with pytest.raises(ValueError):
        expand_to_circular(GeneratingSequence(13, [1, 3, 9], frozenset()))
