"""Attachment plans, the small table, and full assembly."""

from __future__ import annotations

import inspect

import pytest

from conftest import (
    plan_anchors, plan_targets, reference_construct, reference_encode_triples, reference_write,
    route_cut,
)
from diamforge.assembly import (
    MAX_N,
    _audit_plan,
    _route_parts,
    _write,
    attach_4k3,
    attach_4k4,
    attach_4k6,
    construct_optimal,
    rotation,
    small_table,
    zigzag,
)
from diamforge.core import (
    LabelsLayout,
    TriangleSeq,
    canonical,
    covered_edges,
    dual_diameter,
    edge_multiplicities,
    encode_triples,
    expand_pair,
    hs_max_diameter,
    is_good,
    is_ring,
    reverse_walk,
)
from diamforge.genseq import cut_circular


def tri(*vs):
    return frozenset(vs)


def test_rotation_fan():
    plan = rotation(9, [0, 1, 2])
    assert {0, 1} <= plan[0]
    assert plan == (tri(9, 0, 1), tri(9, 1, 2))
    assert dual_diameter(TriangleSeq(list(plan))) == 0 + len(plan) - 1


def test_rotation_rejections():
    with pytest.raises(ValueError):
        rotation(3, [0, 1, 3])
    with pytest.raises(ValueError):
        rotation(3, [0, 1, 0])
    with pytest.raises(ValueError):
        rotation(3, [0])


def test_zigzag_emission_order():
    plan = zigzag(7, 8, [0, 1, 2, 3, 4, 5])
    assert {0, 7} <= plan[0]
    assert [tuple(sorted(t)) for t in plan] == [
        (0, 1, 7), (0, 1, 8), (1, 2, 8), (2, 3, 8),
        (2, 3, 7), (3, 4, 7), (4, 5, 7), (4, 5, 8),
    ]
    t, seq = 6, TriangleSeq(list(plan))
    assert len(covered_edges(seq)) == 3 * t - 1
    assert dual_diameter(seq) == 3 * t // 2 - 2


def test_zigzag_two_vertices():
    plan = zigzag(7, 8, [0, 1])
    assert plan == (tri(0, 1, 7), tri(0, 1, 8))


def test_zigzag_rejections():
    with pytest.raises(ValueError):
        zigzag(7, 7, [0, 1])
    with pytest.raises(ValueError):
        zigzag(7, 8, [0, 7])
    with pytest.raises(ValueError):
        zigzag(7, 8, [2])


def test_plan_validation():
    """_audit_plan returns the plan as a sequence once it is good."""
    tris = [tri(0, 1, 2), tri(1, 2, 3)]
    assert _audit_plan("demo", 1, tris) == TriangleSeq(tris)
    with pytest.raises(AssertionError, match="not a good sequence"):
        _audit_plan("demo", 1, [tri(0, 1, 2), tri(3, 4, 5)])
    with pytest.raises(ValueError, match="empty triangle sequence"):
        _audit_plan("demo", 1, [])
    assert list(inspect.signature(_audit_plan).parameters) == ["name", "k", "tris"]


def test_a_plan_that_misses_its_anchor_makes_construct_raise(monkeypatch):
    """_audit_plan checks goodness only; where a plan attaches is proven by
    the join.  With its first triangle dropped, each plan stays good but no
    longer starts on its anchor, and construct_optimal raises: n = 4k+4 for
    k = 4..12, 4k+3 for k = 5..12, and plans A and B at 4k+6 for k = 7..12."""
    from diamforge import assembly

    audit = assembly._audit_plan
    cases = [("attach_4k4", 4 * k + 4, k) for k in range(4, 13)]
    cases += [("attach_4k3", 4 * k + 3, k) for k in range(5, 13)]
    cases += [(plan, 4 * k + 6, k) for plan in ("attach_4k6/A", "attach_4k6/B") for k in range(7, 13)]
    for plan, n, k in cases:
        def headless(name, k, tris, plan=plan):
            if name != plan:
                return audit(name, k, tris)
            assert not set(plan_anchors(k)[name]) <= tris[1], (name, k)
            return audit(name, k, tris[1:])

        monkeypatch.setattr(assembly, "_audit_plan", headless)
        with pytest.raises(ValueError, match="does not continue"):
            construct_optimal(n)
        monkeypatch.undo()
    assert len(cases) == 29


def test_plans_cover_exactly_their_target_edges():
    """Besides its anchor, each plan covers exactly the residue classes the
    ring misses, the edges at its new vertices and the cut edge it
    re-covers.  construct checks this only through the walk's certificate.
    Besides k <= 60 it runs at the largest k each route reaches under
    MAX_N: 1248 for n = 4k+6 and 1249 for 4k+4 and 4k+3."""
    for k in [*range(4, 61), (MAX_N - 6) // 4, (MAX_N - 3) // 4]:
        for name, plan, anchor, want in plan_targets(k):
            got = covered_edges(plan) - {anchor}
            assert got == want, (name, k, sorted(got - want), sorted(want - got))


def test_plans_run_from_their_smaller_end():
    """Each plan's first triangle sorts before its last, so encode_triples
    keeps it starting at its anchor and join_walks never turns it round."""
    for k in range(4, 61):
        for name, plan, _, _ in plan_targets(k):
            first = plan.triangles[0]
            assert sorted(first) < sorted(plan.triangles[-1]), (name, k)
            assert expand_pair(encode_triples(plan)).triangles[0] == first, (name, k)


def test_plans_start_at_their_anchor_and_have_their_lengths():
    """Every valid k <= 60, and the largest k each route reaches under MAX_N."""
    for k in [*range(4, 61), (MAX_N - 4) // 4]:
        plan = attach_4k4(k)
        assert {0, 4 * k - 2} <= plan.triangles[0] and len(plan) == 10 * k + 4
    for k in [*range(5, 61), (MAX_N - 3) // 4]:
        plan = attach_4k3(k)
        assert {0, 7} <= plan.triangles[0] and len(plan) == 8 * k + 3
    for k in [*range(7, 61), (MAX_N - 6) // 4]:
        plan_a, plan_b = attach_4k6(k)
        assert {6, 17} <= plan_a.triangles[0] and len(plan_a) == 8 * k + 3
        assert {0, 6} <= plan_b.triangles[0] and len(plan_b) == 10 * k + 7


def test_attach_three_vertices():
    plan = attach_4k4(4)
    assert len(plan) == 44
    assert plan.triangles[0] == tri(14, 0, 15)
    assert plan.triangles[-1] == tri(11, 18, 19)
    assert is_good(plan)
    assert len(covered_edges(plan)) == 20 * 4 + 8 + 1
    with pytest.raises(ValueError):
        attach_4k4(3)


def test_attach_two_vertices():
    plan = attach_4k3(5)
    assert len(plan) == 43
    assert {0, 7} <= plan.triangles[0]
    assert len(covered_edges(plan)) == 16 * 5 + 6 + 1
    with pytest.raises(ValueError):
        attach_4k3(4)


def test_attach_five_vertices():
    plan_a, plan_b = attach_4k6(7)
    assert (len(plan_a), len(plan_b)) == (59, 77)
    assert {6, 17} <= plan_a.triangles[0]
    assert {0, 6} <= plan_b.triangles[0]
    assert len(covered_edges(plan_a)) == 16 * 7 + 6 + 1
    assert len(covered_edges(plan_b)) == 20 * 7 + 14 + 1
    plan_a, plan_b = attach_4k6(8)
    assert (len(plan_a), len(plan_b)) == (8 * 8 + 3, 10 * 8 + 7)
    with pytest.raises(ValueError):
        attach_4k6(6)


def test_small_table_domain():
    present = {3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 19, 22, 26, 30}
    assert {n for n in range(3, 40) if small_table(n) is not None} == present
    assert small_table(17) is None
    assert small_table(200) is None


def test_small_table_known_rows():
    entry = small_table(7)
    assert entry.n == 7
    assert entry.pair.labels == (0, 1, 2, 3, 4, 5, 0, 6, 4, 1, 5, 2)
    assert entry.pair.layout == (0, 0, 0, 1, 1, 0, 0, 1, 1)
    assert small_table(3).pair.labels == (0, 1, 2)
    assert small_table(3).pair.layout == ()


def test_small_table_rows_are_optimal():
    for n in (4, 6, 8, 12, 19, 30):
        pair = small_table(n).pair
        seq = expand_pair(pair)
        assert is_good(seq) and not is_ring(pair)
        assert dual_diameter(seq) == hs_max_diameter(n)


def test_construct_small():
    for n, want in ((3, 0), (4, 1), (5, 3), (6, 5), (7, 9), (12, 31)):
        _, cert = construct_optimal(n)
        assert cert.diameter == want
        assert cert.matches_optimum
    with pytest.raises(ValueError):
        construct_optimal(2)


def test_construct_uses_general_route_for_13():
    pair, cert = construct_optimal(13)
    assert cert.diameter == 37
    seq = expand_pair(pair)
    assert len(seq.triangles) == 38
    table_walk = expand_pair(small_table(13).pair)
    assert set(seq.triangles) != set(table_walk.triangles)
    assert dual_diameter(table_walk) == 37


def test_construct_residue_zero():
    _, cert = construct_optimal(20)
    assert cert.diameter == 93
    assert cert.covered_edges == 189
    assert cert.uncovered_edges == [(0, 6)]


def test_construct_residue_three():
    _, cert = construct_optimal(23)
    assert cert.diameter == 125
    assert cert.covered_edges == 253
    assert cert.uncovered_edges == []


def test_construct_residue_two():
    pair, cert = construct_optimal(34)
    assert cert.diameter == 279
    assert cert.covered_edges == 561
    assert cert.uncovered_edges == []
    assert len(expand_pair(pair).triangles) == 280


def test_a_cut_with_another_first_end_makes_construct_raise(monkeypatch):
    """Each route names only the edge its cut destroys, read here from
    construct as it cuts; the joins and the walk's certificate check the
    anchors.  Patched to destroy any other edge that the ring holds once,
    every route that joins a plan raises: n = 4k+4 and 4k+3 for k = 5..8,
    n = 4k+6 for k = 7..12.  At n = 4k+1 no plan is joined, and another cut
    gives another valid optimal walk, so only the golden digests pin that
    route's cut."""
    from diamforge import assembly

    orders = [4 * k + r for k in range(5, 9) for r in (4, 3)] + [4 * k + 6 for k in range(7, 13)]
    for n in orders:
        ring, destroyed = route_cut(n)
        seq = expand_pair(ring)
        singles = [e for e, m in edge_multiplicities(seq).items() if m == 1]
        assert destroyed in singles and construct_optimal(n)[1].matches_optimum, n
        for other in singles:
            if other == destroyed:
                continue
            monkeypatch.setattr(assembly, "cut_circular",
                                lambda ring, _, other=other: cut_circular(ring, other))
            with pytest.raises((ValueError, AssertionError)):
                construct_optimal(n)
            monkeypatch.undo()


def test_construct_odd_even_spare_edges():
    for n in (21, 24, 25, 36, 40):
        _, cert = construct_optimal(n)
        spare = len(cert.uncovered_edges)
        assert spare == (1 if n % 4 in (0, 1) else 0)


def test_construct_matches_the_frozenset_reference():
    """The pair for n <= 150; test_every_construction_up_to_200 checks each
    certificate against the reference."""
    for n in range(3, 151):
        assert construct_optimal(n)[0] == reference_construct(n), n


def test_construct_reverses_at_most_one_long_walk(monkeypatch):
    """Near n = 400 each order turns round at most one walk longer than its
    plans, and never one longer than its cut body: the orientation is read
    from the parts' ends before the walk is written.  n = 4k+4 and 4k+1
    turn the body, the plan of 4k+4 then following as encoded; n = 4k+2
    turns plan A at even k, and plan B and the body at odd k; n = 4k+3
    turns nothing.  canonical gives each written walk back uncopied."""
    from diamforge import _walks, assembly

    body = {n: len(route_cut(n)[0]) - 1 for n in range(400, 408)}
    reverse, lengths = _walks.reverse_walk, []

    def spy(pair):
        lengths.append(len(pair))
        return reverse(pair)

    for module in (_walks, assembly):
        monkeypatch.setattr(module, "reverse_walk", spy)
    seen = {}
    for n in body:
        lengths.clear()
        walk = _write(_route_parts(n))
        seen[n] = list(lengths)
        assert canonical(walk) is walk, n
    want = {400: [body[400]], 401: [body[401]], 402: [10 * 99 + 7, body[402]], 403: [],
            404: [body[404]], 405: [body[405]], 406: [8 * 100 + 3], 407: []}
    assert seen == want


def test_canonical_returns_a_walk_already_in_its_form():
    """Over the construct corpus the written walk is in canonical form, and
    canonical gives it back uncopied, the same pair as from the walk turned
    round and as rebuilt through the checking constructor; the frozenset
    reference agrees where it is affordable."""
    for n in (*range(3, 204), *range(400, 408), *range(2000, 2004)):
        walk = _write(_route_parts(n))
        assert canonical(walk) is walk, n
        assert walk == LabelsLayout(n, walk.labels, walk.layout) == canonical(reverse_walk(walk)), n
        if 150 < n < 2000:  # test_construct_matches_the_frozenset_reference covers n <= 150
            assert walk == reference_encode_triples(expand_pair(walk), n), n


def test_writer_matches_the_chain_of_references_on_every_route():
    """_write against the references' chain, reverse then join then
    canonical, on each route's parts for k <= 60."""
    for n in range(3, 4 * 60 + 7):
        parts = _route_parts(n)
        assert _write(list(parts)) == reference_write(parts), n


@pytest.mark.slow
def test_writer_matches_the_chain_of_references_at_the_ceiling():
    """The same at the largest k of each route under MAX_N, about 6.2
    million triangles a walk, one order at a time."""
    for n in range(MAX_N - 3, MAX_N + 1):
        parts = _route_parts(n)
        assert _write(list(parts)) == reference_write(parts), n
        del parts
