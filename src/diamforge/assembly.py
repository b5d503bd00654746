"""Assembly of diameter-optimal complexes for every number of vertices.

The residue of n mod 4 decides the route.  For n = 4k+1 a single circular
walk from a full generating sequence is cut open at its seed triangle.  For
the other residues the walk lives on the largest 4k+1 subgrid, leaves one or
two residue classes uncovered, and attachment plans built from rotations and
zig-zags weave the three to five extra vertices plus the missing classes onto
the cut ends.  Small orders with no parametric construction come from a
transcribed table.
"""

from __future__ import annotations

from ._walks import TriangleSeq, canonical, encode_triples, is_good, join_walks, reverse_walk
from .core import MAX_N, Certificate, LabelsLayout, Record, certify, hs_max_diameter, triangle_at
from .genseq import (
    cut_circular,
    expand_pair_of,
    gs_full,
    gs_missing_12,
    gs_missing_1248,
)

__all__ = [
    "SmallTableEntry",
    "rotation",
    "zigzag",
    "attach_4k4",
    "attach_4k3",
    "attach_4k6",
    "small_table",
    "construct_optimal",
    "MAX_N",
]

class SmallTableEntry(Record):
    """One transcribed optimal complex for a small vertex count."""

    __slots__ = ("n", "pair")

    def __init__(self, n: int, pair: LabelsLayout) -> None:
        self.n, self.pair = n, pair


def rotation(center: int, path: list[int]) -> tuple[frozenset[int], ...]:
    """Fan of triangles {center, v_i, v_{i+1}} along a vertex path.

    Covers every spoke from ``center`` to the path plus the path edges;
    the dual is a path, so t path vertices give diameter t - 2.  The first
    triangle holds the edge {path[0], path[1]}.
    """
    if len(path) < 2:
        raise ValueError("rotation path needs at least two vertices")
    if center in path or len(set(path)) != len(path):
        raise ValueError("rotation path vertices must be distinct and avoid the center")
    return tuple(map(frozenset, zip((center,) * len(path), path, path[1:])))


def zigzag(u: int, w: int, path: list[int]) -> tuple[frozenset[int], ...]:
    """Double fan alternating between apexes ``u`` and ``w`` along a path.

    Path pairs at positions 1 and 3 mod 4 get both apexes, pairs at 2 mod 4
    only ``w`` and pairs at 0 mod 4 only ``u``, so each apex skips every
    other pair.  t path vertices cover 3t - 1 edges with dual diameter
    floor(3t/2) - 2.  The first triangle holds the edge {u, path[0]}.
    """
    if len(path) < 2:
        raise ValueError("zig-zag path needs at least two vertices")
    if u in path or w in path or u == w or len(set(path)) != len(path):
        raise ValueError("zig-zag apexes and path vertices must all be distinct")
    tris: list[frozenset[int]] = []
    for i in range(1, len(path)):
        lo, hi = path[i - 1], path[i]
        r = i % 4
        if r == 1:
            tris.append(frozenset({lo, hi, u}))
            tris.append(frozenset({lo, hi, w}))
        elif r == 2:
            tris.append(frozenset({lo, hi, w}))
        elif r == 3:
            tris.append(frozenset({lo, hi, w}))
            tris.append(frozenset({lo, hi, u}))
        else:
            tris.append(frozenset({lo, hi, u}))
    return tuple(tris)


def _steps(start: int, stop: int, step: int) -> list[int]:
    """Inclusive arithmetic run from start to stop."""
    return list(range(start, stop + (1 if step > 0 else -1), step))


def _tri(*vertices: int) -> frozenset[int]:
    return frozenset(vertices)


def _audit_plan(name: str, k: int, tris: list[frozenset[int]]) -> TriangleSeq:
    """Check that the plan ``tris`` is good and return it as a sequence.

    Where it attaches is left to :func:`join_walks`, which raises unless its
    first triangle continues the ring end it follows, and which edges it
    covers to the walk's certificate: a plan that doubles or misses an edge
    leaves the walk bad or short of the optimum, and
    :func:`construct_optimal` raises.
    """
    seq = TriangleSeq(tris)
    if not is_good(seq):
        raise AssertionError(f"{name}(k={k}): plan is not a good sequence")
    return seq


def attach_4k4(k: int) -> TriangleSeq:
    """Plan appending three vertices to a 4k+1 ring missing classes 1 and 2.

    Anchored at {0, 4k-2}; the 10k+4 triangles cover the two missing
    residue classes together with every edge at the new vertices.
    """
    if k < 4:
        raise ValueError("three-vertex attachment needs k >= 4")
    n1 = 4 * k + 1
    a, b, c = n1, n1 + 1, n1 + 2

    tris: list[frozenset[int]] = [_tri(4 * k - 2, 0, 4 * k - 1)]
    fan_path = (
        [4 * k - 1, 0]
        + _steps(1, 4 * k - 8, 1)
        + [4 * k - 6, 4 * k - 7, 4 * k - 5, 4 * k - 3, 4 * k - 4]
        + [c, 4 * k - 2, 4 * k, b]
    )
    tris += rotation(a, fan_path)
    tris.append(_tri(b, 4 * k, 0))
    zig_path = _steps(0, 4 * k - 8, 2) + _steps(4 * k - 7, 1, -2)
    tris += zigzag(b, c, zig_path)
    tris += rotation(c, [1, 4 * k, 4 * k - 1, 4 * k - 3])
    tris += rotation(b, [4 * k - 1, 4 * k - 3, 4 * k - 2, 4 * k - 4, 4 * k - 6])
    tris += rotation(4 * k - 5, [4 * k - 4, 4 * k - 6, c, b])
    return _audit_plan("attach_4k4", k, tris)


def attach_4k3(k: int) -> TriangleSeq:
    """Plan appending two vertices to a 4k+1 ring missing classes 1 and 2.

    Anchored at {0, 7}; the 8k+3 triangles cover the missing classes, every
    edge at the two new vertices, and re-cover the cut edge {0, 13}.
    """
    if k < 5:
        raise ValueError("two-vertex attachment needs k >= 5")
    n1 = 4 * k + 1
    a, b = n1, n1 + 1

    fan_a = (
        [7, 0]
        + _steps(13, 4 * k - 1, 2)
        + [4 * k]
        + _steps(4 * k - 2, 8, -2)
        + [9, 11, b]
    )
    tris: list[frozenset[int]] = list(rotation(a, fan_a))
    tris += rotation(b, [11, 10, 9, 7, 5])
    tris += rotation(6, [5, 7, 8, b, 4, a])
    tris += rotation(4, [a, 2, 3, 5])
    tris += rotation(3, [5, a, 1, b])
    tris += rotation(1, [b, 2, 0, 4 * k])
    fan_b = [4 * k, 0] + _steps(4 * k - 1, 12, -1)
    tris += rotation(b, fan_b)
    tris.append(_tri(11, 12, 13))
    return _audit_plan("attach_4k3", k, tris)


def attach_4k6(k: int) -> tuple[TriangleSeq, TriangleSeq]:
    """Pair of plans appending five vertices to a 4k+1 ring missing 1, 2, 4, 8.

    Plan A (anchor {6, 17}) covers classes 1 and 2 plus every edge between
    the first two new vertices and the ring; reversed, it prefixes the cut
    ring.  Plan B (anchor {0, 6}) covers classes 4 and 8 plus every edge at
    the last three new vertices and follows the ring.
    """
    if k < 7:
        raise ValueError("five-vertex attachment needs k >= 7")
    n1 = 4 * k + 1
    a, b, c, d, e = n1, n1 + 1, n1 + 2, n1 + 3, n1 + 4

    fan_a = (
        [6, 17, 0]
        + _steps(4 * k - 1, 19, -2)
        + _steps(18, 4 * k, 2)
        + [1, b, 13]
    )
    tris_a: list[frozenset[int]] = list(rotation(a, fan_a))
    tris_a += rotation(b, [13, 15, 14, 16])
    tris_a += rotation(16, [14, a, 15, 17, 18])
    fan_b = [18, 17] + _steps(19, 4 * k, 1) + [0, 2]
    tris_a += rotation(b, fan_b)
    tris_a += rotation(2, [0, 1, 3, a, 4])
    tris_a += rotation(4, [a, 5, 3, b, 6])
    tris_a += rotation(6, [b, 8, 7, 5])
    tris_a += rotation(7, [5, b, 9, a])
    tris_a += rotation(9, [a, 11, 10, 8])
    tris_a += rotation(10, [8, a, 12, b])
    tris_a += rotation(12, [b, 11, 13, 14])
    plan_a = _audit_plan("attach_4k6/A", k, tris_a)

    if k % 2 == 0:
        tris_b = [_tri(6, 0, c)]
        zig1 = _steps(0, 4 * k, 4) + _steps(3, 4 * k - 1, 4) + [2]
        tris_b += zigzag(c, d, zig1)
        tris_b += rotation(d, [2, 6, 10])
        zig2 = _steps(10, 4 * k - 2, 4) + _steps(1, 4 * k - 19, 4)
        tris_b += zigzag(d, c, zig2)
        tris_b += rotation(c, [4 * k - 19, 4 * k - 11, 4 * k - 3])
        fan_e = (
            [4 * k - 11, 4 * k - 3]
            + _steps(4, 4 * k - 4, 8)
            + _steps(3, 4 * k - 5, 8)
            + _steps(2, 4 * k - 6, 8)
            + _steps(1, 4 * k - 15, 8)
            + _steps(4 * k - 19, 5, -8)
            + _steps(4 * k - 2, 6, -8)
            + _steps(4 * k - 1, 7, -8)
            + _steps(4 * k, 8, -8)
            + [0, 4 * k - 7]
        )
        tris_b += rotation(e, fan_e)
        tris_b += rotation(4 * k - 7, [0, 4 * k - 3, d, 4 * k - 11, 4 * k - 15, c])
        tris_b += rotation(c, [4 * k - 15, d, a, e, b])
        tris_b.append(_tri(e, b, d))
    else:
        tris_b = list(rotation(c, [6, 0, 4]))
        zig1 = _steps(4, 4 * k, 4) + _steps(3, 4 * k - 1, 4) + [2, 10]
        tris_b += zigzag(c, d, zig1)
        tris_b += rotation(c, [10, e, b, d, a])
        tris_b += rotation(d, [a, e, 14, 6])
        tris_b += rotation(14, [6, 10, 18])
        fan_c = [18, 14] + _steps(22, 4 * k - 2, 4) + _steps(1, 4 * k - 3, 4)
        tris_b += rotation(c, fan_c)
        tris_b += rotation(4 * k - 7, [4 * k - 3, 0, d])
        zig2 = (
            _steps(4 * k - 7, 5, -8)
            + _steps(4 * k - 2, 18, -8)
            + _steps(22, 4 * k - 6, 8)
            + _steps(1, 4 * k - 3, 8)
        )
        tris_b += zigzag(d, e, zig2)
        fan_e = (
            [4 * k - 3]
            + _steps(4, 4 * k, 8)
            + _steps(7, 4 * k - 5, 8)
            + [2, 6]
            + _steps(4 * k - 1, 3, -8)
            + _steps(4 * k - 4, 8, -8)
            + [0]
        )
        tris_b += rotation(e, fan_e)
    plan_b = _audit_plan("attach_4k6/B", k, tris_b)
    return plan_a, plan_b


def small_table(n: int) -> SmallTableEntry | None:
    """Transcribed optimal pair for small n, or None when absent."""
    from ._table import SMALL_ROWS  # loaded on first use: no large order needs it

    row = SMALL_ROWS.get(n)
    if row is None:
        return None
    labels, layout = row
    return SmallTableEntry(n, LabelsLayout(n, tuple(labels), tuple(layout)))


def construct_optimal(n: int) -> tuple[LabelsLayout, Certificate]:
    """Build a strongly connected complex on n vertices with maximal dual diameter.

    Dispatches on n mod 4 to the parametric constructions where they apply
    and otherwise falls back to the transcribed small table.  The walk is
    built in codec form and returned in the form :func:`canonical` gives
    it, and the certificate describes exactly that pair; it always reports
    the optimum was met.  n > :data:`MAX_N` is rejected before any work.
    """
    if n < 3:
        raise ValueError("need at least three vertices")
    if n > MAX_N:
        raise ValueError(f"n = {n} exceeds the ceiling {MAX_N}")
    pair = canonical(_write(_route_parts(n)))
    cert = certify(pair)
    if not cert.matches_optimum:
        raise AssertionError(
            f"construction for n={n} reached diameter {cert.diameter}, "
            f"optimum is {hs_max_diameter(n)}"
        )
    return pair, cert


# The edge the n = 4k+4 route destroys on the rings of gs_missing_12's literal rows.
_CUTS_4K4 = {4: (0, 6), 5: (6, 14), 6: (6, 18), 7: (0, 20)}


def _route_parts(n: int) -> list:
    """The parts of the walk for n in walk order, each with whether it runs
    backwards in it, for :func:`_write`; the ring is freed on return."""
    r = n % 4
    if r == 1 and n >= 13:
        # A gs_full ring is read from term 0 and any turn sits at index k - 1 >= 2,
        # so triangle 1 is {x1, x2, x3} and the last ends on x0, x1: the seed
        # shares x1 with both neighbours, and destroying {x0, x2} removes it.
        ring = expand_pair_of(gs_full((n - 1) // 4))
        return [(cut_circular(ring, (ring.labels[0], ring.labels[2])), False)]
    if r == 0 and n >= 20:
        k = (n - 4) // 4
        # Destroying this edge starts the walk on the plan's anchor {0, 4k-2}:
        # the plan, turned round, leads into it.
        destroyed = _CUTS_4K4.get(k) or ((5, 2 * k + 5) if k % 2 else (9, 2 * k + 7))
        body = cut_circular(expand_pair_of(gs_missing_12(k)), destroyed)
        return [(encode_triples(attach_4k4(k), n), True), (body, False)]
    if r == 3 and n >= 23:
        k = (n - 3) // 4
        # Destroying {0, 13}, which the plan covers again, ends the walk on its anchor.
        body = cut_circular(expand_pair_of(gs_missing_12(k)), (0, 13))
        return [(body, False), (encode_triples(attach_4k3(k), n), False)]
    if r == 2 and n >= 34:
        k = (n - 6) // 4
        # Destroying {0, 17} starts the walk on plan A's anchor {6, 17} and
        # ends it on plan B's {0, 6}.
        body = cut_circular(expand_pair_of(gs_missing_1248(k)), (0, 17))
        plan_a, plan_b = (encode_triples(p, n) for p in attach_4k6(k))
        # Plan A prefixes the body: turned round, it leads into the body's first triangle.
        return [(plan_a, True), (body, False), (plan_b, False)]
    entry = small_table(n)
    if entry is None:
        raise ValueError(f"no construction available for n={n}")
    return [(entry.pair, False)]


def _write(parts: list) -> LabelsLayout:
    """The walk of ``parts``, each a walk and whether it runs backwards in
    this one, written once by :func:`join_walks` in the form :func:`canonical`
    gives it.  canonical's rule is read from the parts' end triangles first:
    when the last sorts before the first, the parts come in reverse order,
    each turned the other way, so that no part is turned twice.  ``parts``
    is emptied, so that a part turned round is freed before the join."""
    (head, head_back), (tail, tail_back) = parts[0], parts[-1]
    first = triangle_at(head, len(head) - 1 if head_back else 0)
    last = triangle_at(tail, 0 if tail_back else len(tail) - 1)
    turn = sorted(last) < sorted(first)
    walks = [reverse_walk(part) if back != turn else part for part, back in (parts[::-1] if turn else parts)]
    del head, tail, parts[:]
    return join_walks(*walks)
