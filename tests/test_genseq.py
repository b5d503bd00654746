"""Generating-sequence families, expansion, and ring cutting."""

from __future__ import annotations

import pytest

from conftest import reference_cut_circular
from diamforge.assembly import _seed_cut
from diamforge.core import (
    covered_edges,
    dual_diameter,
    edge_multiplicities,
    expand_pair,
    is_good,
)
from diamforge.genseq import (
    CutSpec,
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
    gs, _ = gs_missing_1248(7)
    assert gs.terms == [5, 14, 3, 6, 11]
    assert sorted(gs.turns) == [1]
    assert blue_terms(gs) == [19, 22, 9, 17, 16]


def test_hard_coded_rows():
    assert gs_full(3).terms == [1, 2, 4]
    assert gs_full(4).terms == [1, 2, 6, 4]
    assert gs_full(5).terms == [1, 2, 7, 6, 4]
    assert all(not gs_full(k).turns for k in (3, 4, 5))
    assert gs_missing_12(4)[0].terms == [3, 4, 8]
    assert gs_missing_12(7)[0].terms == [11, 8, 17, 7, 6, 3]


def test_generic_rows():
    g = gs_full(8)
    assert (g.terms, sorted(g.turns)) == ([3, 2, 7, 6, 11, 10, 15, 14], [7])
    g = gs_full(7)
    assert (g.terms, sorted(g.turns)) == ([23, 14, 25, 20, 2, 1, 11], [])
    g, _ = gs_missing_12(9)
    assert (g.terms, sorted(g.turns)) == ([8, 32, 15, 4, 21, 7, 6, 11], [2])
    g, _ = gs_missing_12(8)
    assert (g.terms, sorted(g.turns)) == ([4, 10, 9, 21, 7, 6, 11], [0])
    g, _ = gs_missing_1248(8)
    assert (g.terms, sorted(g.turns)) == ([3, 9, 5, 6, 11, 7], [2])


def test_family_ranges():
    with pytest.raises(ValueError):
        gs_full(2)
    with pytest.raises(ValueError):
        gs_missing_12(3)
    with pytest.raises(ValueError):
        gs_missing_1248(6)
    with pytest.raises(ValueError):
        gs_missing_12(4, end="seven")
    with pytest.raises(ValueError):
        gs_missing_12(5, end="short")


def test_family_verification_sample():
    for k in (3, 4, 5, 6, 7, 12, 25):
        rep = verify_generating_sequence(gs_full(k))
        assert rep.valid and rep.missing == frozenset()
    for k in (4, 5, 6, 7, 8, 9, 24, 25):
        rep = verify_generating_sequence(gs_missing_12(k)[0])
        assert rep.valid and rep.missing == frozenset({1, 2})
    for k in (7, 8, 9, 10, 24, 25):
        rep = verify_generating_sequence(gs_missing_1248(k)[0])
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


def test_expansion_closes_into_ring():
    seq = expand_pair_of(gs_full(3))
    assert seq.circular and len(seq.triangles) == 39
    assert is_good(seq)
    assert dual_diameter(seq) == 19
    assert len(covered_edges(seq)) == 78


def test_expansion_with_turn_covers_predicted_residues():
    gs, _ = gs_missing_1248(9)
    seq = expand_pair_of(gs)
    n = gs.n
    assert len(seq.triangles) == gs.m * n
    predicted = {canonical_residue(a, n) for a in gs.terms}
    predicted |= {canonical_residue(c, n) for c in blue_terms(gs)}
    got = {canonical_residue(v - u, n) for u, v in covered_edges(seq)}
    assert got == predicted
    assert {1, 2, 4, 8}.isdisjoint(got)


def test_turn_on_seed_is_rotated_away():
    gs, _ = gs_missing_12(8)
    assert 0 in gs.turns
    seq = expand_pair_of(gs)
    assert seq.circular and is_good(seq)
    missing = {1, 2}
    residues = {canonical_residue(v - u, gs.n) for u, v in covered_edges(seq)}
    assert residues == set(range(1, (gs.n - 1) // 2 + 1)) - missing


def test_multiplicity_profile():
    """Each residue class sits at one uniform multiplicity across the ring."""
    gs, _ = gs_missing_1248(9)
    seq = expand_pair_of(gs)
    by_res: dict[int, set[int]] = {}
    for e, m in edge_multiplicities(seq).items():
        by_res.setdefault(canonical_residue(e[1] - e[0], gs.n), set()).add(m)
    singles = {r for r, ms in by_res.items() if ms == {1}}
    doubles = {r for r, ms in by_res.items() if ms == {2}}
    assert singles == {9, 12, 14, 15, 16, 17, 18}
    assert doubles == {3, 5, 6, 7, 10, 11, 13}
    assert singles | doubles == set(by_res)


def test_cut_specs_are_deterministic():
    _, spec = gs_missing_12(4)
    assert spec == CutSpec((0, 6), (0, 14))
    _, spec = gs_missing_12(9)
    assert spec == CutSpec((5, 23), (0, 34))
    _, spec = gs_missing_12(9, end="seven")
    assert spec == CutSpec((0, 13), (0, 7))
    _, spec = gs_missing_1248(7)
    assert spec == CutSpec((0, 17), (6, 17), (0, 6))


def test_cut_opens_ring():
    gs, spec = gs_missing_12(4)
    ring = expand_pair_of(gs)
    lin = cut_circular(ring, spec)
    assert not lin.circular and is_good(lin)
    assert len(lin.triangles) == len(ring.triangles) - 1
    assert dual_diameter(lin) == len(lin.triangles) - 1
    assert len(covered_edges(lin)) == len(covered_edges(ring)) - 1
    assert set(spec.end_edge) <= lin.triangles[-1]


def test_cut_exposes_both_ends_for_1248():
    for k in (7, 8, 9):
        gs, spec = gs_missing_1248(k)
        lin = cut_circular(expand_pair_of(gs), spec)
        assert set(spec.end_edge) <= lin.triangles[0]
        assert set(spec.second_end_edge) <= lin.triangles[-1]


def test_cut_exposing_scan_matches_returned_spec():
    for k in range(4, 61):
        gs, spec = gs_missing_12(k)
        ring = expand_pair_of(gs)
        assert cut_exposing(ring, spec.end_edge) == spec, k


def test_cut_exposing_scan_matches_seed_cut():
    for k in range(3, 61):
        ring = expand_pair_of(gs_full(k))
        shared = tuple(ring.triangles[0] & ring.triangles[1])
        assert _seed_cut(ring) == cut_exposing(ring, shared), k


def test_cut_exposing_on_full_ring():
    ring = expand_pair_of(gs_full(3))
    assert cut_exposing(ring, (0, 1)) == CutSpec((0, 3), (0, 1))


def _cut_cases(kmax: int):
    """Every family ring with its assembly cut, for each valid k <= kmax."""
    for k in range(3, kmax + 1):
        ring = expand_pair_of(gs_full(k))
        yield f"full k={k}", ring, _seed_cut(ring)
    for k in range(4, kmax + 1):
        gs, spec = gs_missing_12(k)
        ring = expand_pair_of(gs)
        yield f"missing_12 long k={k}", ring, spec
        if k >= 5:
            yield f"missing_12 seven k={k}", ring, gs_missing_12(k, end="seven")[1]
    for k in range(7, kmax + 1):
        gs, spec = gs_missing_1248(k)
        yield f"missing_1248 k={k}", expand_pair_of(gs), spec


@pytest.mark.slow
def test_cut_matches_reference_and_exposes_its_ends():
    """A cut removes one edge and leaves each end edge once, at its end."""
    for name, ring, spec in _cut_cases(60):
        lin = cut_circular(ring, spec)
        ref = reference_cut_circular(ring, spec).triangles
        assert lin.triangles in (ref, ref[::-1]), name
        # The walk is the ring minus one triangle, so it covers the ring's
        # edges except those of that triangle which no other triangle holds.
        (gone,) = set(ring.triangles) - set(lin.triangles)
        assert len(lin) == len(ring) - 1, name
        lin_mult = edge_multiplicities(lin)
        a, b, c = sorted(gone)
        assert {(a, b), (a, c), (b, c)} - set(lin_mult) == {spec.destroyed_edge}, name
        ends = [spec.end_edge] if spec.second_end_edge is None else [
            spec.second_end_edge, spec.end_edge
        ]
        for e, tri in zip(ends, (lin.triangles[-1], lin.triangles[0])):
            assert lin_mult[e] == 1 and set(e) <= tri, (name, e)


def _same_rejection(ring, spec):
    with pytest.raises(ValueError) as got:
        cut_circular(ring, spec)
    with pytest.raises(ValueError) as want:
        reference_cut_circular(ring, spec)
    assert str(got.value) == str(want.value)
    return str(got.value)


def test_cut_rejections_match_reference():
    gs, spec = gs_missing_12(9)
    ring = expand_pair_of(gs)
    mult = edge_multiplicities(ring)
    doubled = next(e for e, m in mult.items() if m == 2)
    msg = _same_rejection(ring, CutSpec(doubled, spec.end_edge))
    assert msg == f"destroyed edge {doubled} is covered 2 times, need exactly 1"

    # A singly covered edge of a triangle in the middle of the cut walk.
    (c,) = [i for i, tri in enumerate(ring.triangles) if set(spec.destroyed_edge) <= tri]
    middle = ring.triangles[(c + len(ring.triangles) // 2) % len(ring.triangles)]
    inner = next(
        e for e in ((a, b) for a in sorted(middle) for b in sorted(middle) if a < b)
        if mult[e] == 1
    )
    msg = _same_rejection(ring, CutSpec(spec.destroyed_edge, inner))
    assert msg == f"end edge {inner} is not in a terminal triangle after the cut"

    msg = _same_rejection(ring, CutSpec(spec.destroyed_edge, doubled))
    assert msg == f"end edge {doubled} is covered 2 times after the cut"

    gs, spec = gs_missing_1248(7)
    ring = expand_pair_of(gs)
    same_side = CutSpec(spec.destroyed_edge, spec.end_edge, spec.end_edge)
    assert _same_rejection(ring, same_side) == "end edges do not sit at opposite ends"

    lin = cut_circular(ring, spec)
    assert _same_rejection(lin, spec) == "sequence is not circular"


def test_cut_rejects_doubled_destroyed_edge():
    gs, _ = gs_missing_12(4)
    ring = expand_pair_of(gs)
    doubled = next(e for e, m in edge_multiplicities(ring).items() if m == 2)
    with pytest.raises(ValueError):
        cut_circular(ring, CutSpec(doubled, (0, 14)))


def test_expand_requires_valid_sequence():
    with pytest.raises(ValueError):
        expand_to_circular(GeneratingSequence(13, [1, 3, 9], frozenset()))
