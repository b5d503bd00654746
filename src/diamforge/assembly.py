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

from dataclasses import dataclass, field

from .core import (
    Certificate,
    Edge,
    LabelsLayout,
    TriangleSeq,
    certify,
    covered_edges,
    edge,
    encode_triples,
    expand_pair,
    hs_max_diameter,
    is_good,
)
from .genseq import (
    CutSpec,
    cut_circular,
    expand_pair_of,
    gs_full,
    gs_missing_12,
    gs_missing_1248,
)
from ._table import SMALL_ROWS

__all__ = [
    "AttachmentPlan",
    "SmallTableEntry",
    "rotation",
    "zigzag",
    "attach_4k4",
    "attach_4k3",
    "attach_4k6",
    "small_table",
    "construct_optimal",
]


@dataclass(frozen=True)
class AttachmentPlan:
    """A good linear run of triangles that glues onto a ring cut end.

    The first triangle contains ``anchor_edge``; when the plan is appended
    after a linear sequence whose last triangle holds the anchor, the result
    is again a walk.
    """

    anchor_edge: Edge
    triangles: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if not self.triangles:
            raise ValueError("attachment plan needs at least one triangle")
        if not set(self.anchor_edge) <= self.triangles[0]:
            raise ValueError("first plan triangle must contain the anchor edge")
        for i in range(len(self.triangles) - 1):
            if len(self.triangles[i] & self.triangles[i + 1]) != 2:
                raise ValueError(f"plan triangles {i} and {i + 1} do not share an edge")

    def __len__(self) -> int:
        return len(self.triangles)

    def seq(self) -> TriangleSeq:
        return TriangleSeq(self.triangles)


@dataclass(frozen=True)
class SmallTableEntry:
    """One transcribed optimal complex for a small vertex count."""

    n: int
    pair: LabelsLayout = field(compare=False)


def rotation(center: int, path: list[int]) -> AttachmentPlan:
    """Fan of triangles {center, v_i, v_{i+1}} along a vertex path.

    Covers every spoke from ``center`` to the path plus the path edges;
    the dual is a path, so t path vertices give diameter t - 2.
    """
    if len(path) < 2:
        raise ValueError("rotation path needs at least two vertices")
    if center in path or len(set(path)) != len(path):
        raise ValueError("rotation path vertices must be distinct and avoid the center")
    tris = tuple(
        frozenset({center, path[i], path[i + 1]}) for i in range(len(path) - 1)
    )
    return AttachmentPlan(edge(path[0], path[1]), tris)


def zigzag(u: int, w: int, path: list[int]) -> AttachmentPlan:
    """Double fan alternating between apexes ``u`` and ``w`` along a path.

    Path pairs at positions 1 and 3 mod 4 get both apexes, pairs at 2 mod 4
    only ``w`` and pairs at 0 mod 4 only ``u``, so each apex skips every
    other pair.  t path vertices cover 3t - 1 edges with dual diameter
    floor(3t/2) - 2.
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
    return AttachmentPlan(edge(u, path[0]), tuple(tris))


def _steps(start: int, stop: int, step: int) -> list[int]:
    """Inclusive arithmetic run from start to stop."""
    return list(range(start, stop + (1 if step > 0 else -1), step))


def _tri(*vertices: int) -> frozenset[int]:
    return frozenset(vertices)


def _audit_plan(
    name: str, k: int, plan: AttachmentPlan, expected: set[Edge]
) -> AttachmentPlan:
    """Check a plan is a good walk covering exactly the expected edge set.

    The expected set excludes the anchor edge, which the plan shares with
    the ring it attaches to.
    """
    seq = plan.seq()
    if not is_good(seq):
        raise AssertionError(f"{name}(k={k}): plan is not a good sequence")
    got = covered_edges(seq) - {plan.anchor_edge}
    if got != expected:
        extra = sorted(got - expected)
        missing = sorted(expected - got)
        raise AssertionError(
            f"{name}(k={k}): covered edges differ from target "
            f"(extra={extra}, missing={missing})"
        )
    return plan


def _residue_class(r: int, n: int) -> set[Edge]:
    """All edges {x, x+r mod n} on the first n vertices."""
    return {edge(x, (x + r) % n) for x in range(n)}


def _spokes(v: int, others: set[int]) -> set[Edge]:
    return {edge(v, x) for x in others if x != v}


def attach_4k4(k: int) -> AttachmentPlan:
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
    tris += rotation(a, fan_path).triangles
    tris.append(_tri(b, 4 * k, 0))
    zig_path = _steps(0, 4 * k - 8, 2) + _steps(4 * k - 7, 1, -2)
    tris += zigzag(b, c, zig_path).triangles
    tris += [
        _tri(1, c, 4 * k),
        _tri(c, 4 * k, 4 * k - 1),
        _tri(c, 4 * k - 1, 4 * k - 3),
        _tri(4 * k - 1, 4 * k - 3, b),
        _tri(4 * k - 3, b, 4 * k - 2),
        _tri(b, 4 * k - 2, 4 * k - 4),
        _tri(b, 4 * k - 4, 4 * k - 6),
        _tri(4 * k - 4, 4 * k - 6, 4 * k - 5),
        _tri(4 * k - 6, 4 * k - 5, c),
        _tri(4 * k - 5, c, b),
    ]

    ring = set(range(n1))
    expected = _residue_class(1, n1) | _residue_class(2, n1)
    for v in (a, b, c):
        expected |= _spokes(v, ring | {a, b, c})
    plan = AttachmentPlan(edge(0, 4 * k - 2), tuple(tris))
    return _audit_plan("attach_4k4", k, plan, expected)


def attach_4k3(k: int) -> AttachmentPlan:
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
    tris: list[frozenset[int]] = list(rotation(a, fan_a).triangles)
    tris += [
        _tri(b, 11, 10),
        _tri(b, 10, 9),
        _tri(b, 9, 7),
        _tri(b, 7, 5),
        _tri(7, 5, 6),
        _tri(6, 7, 8),
        _tri(6, 8, b),
        _tri(b, 6, 4),
        _tri(4, 6, a),
        _tri(a, 4, 2),
        _tri(2, 3, 4),
        _tri(3, 4, 5),
        _tri(3, 5, a),
        _tri(a, 3, 1),
        _tri(1, 3, b),
        _tri(b, 1, 2),
        _tri(0, 1, 2),
        _tri(0, 1, 4 * k),
    ]
    fan_b = [4 * k, 0] + _steps(4 * k - 1, 12, -1)
    tris += rotation(b, fan_b).triangles
    tris.append(_tri(11, 12, 13))

    ring = set(range(n1))
    expected = _residue_class(1, n1) | _residue_class(2, n1) | {edge(0, 13)}
    for v in (a, b):
        expected |= _spokes(v, ring | {a, b})
    plan = AttachmentPlan(edge(0, 7), tuple(tris))
    return _audit_plan("attach_4k3", k, plan, expected)


def attach_4k6(k: int) -> tuple[AttachmentPlan, AttachmentPlan]:
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
    ring = set(range(n1))

    fan_a = (
        [6, 17, 0]
        + _steps(4 * k - 1, 19, -2)
        + _steps(18, 4 * k, 2)
        + [1, b, 13]
    )
    tris_a: list[frozenset[int]] = list(rotation(a, fan_a).triangles)
    tris_a += [
        _tri(b, 13, 15),
        _tri(b, 15, 14),
        _tri(b, 14, 16),
        _tri(14, 16, a),
        _tri(a, 16, 15),
        _tri(16, 15, 17),
        _tri(16, 17, 18),
    ]
    fan_b = [18, 17] + _steps(19, 4 * k, 1) + [0, 2]
    tris_a += rotation(b, fan_b).triangles
    tris_a += [
        _tri(0, 1, 2),
        _tri(1, 2, 3),
        _tri(2, 3, a),
        _tri(2, a, 4),
        _tri(a, 4, 5),
        _tri(4, 5, 3),
        _tri(3, 4, b),
        _tri(4, b, 6),
        _tri(b, 6, 8),
        _tri(6, 8, 7),
        _tri(6, 7, 5),
        _tri(5, 7, b),
        _tri(7, b, 9),
        _tri(7, 9, a),
        _tri(9, a, 11),
        _tri(9, 11, 10),
        _tri(9, 10, 8),
        _tri(10, 8, a),
        _tri(10, a, 12),
        _tri(10, 12, b),
        _tri(12, b, 11),
        _tri(11, 12, 13),
        _tri(12, 13, 14),
    ]
    expected_a = _residue_class(1, n1) | _residue_class(2, n1) | {edge(0, 17)}
    expected_a |= _spokes(a, ring | {b}) | _spokes(b, ring)
    plan_a = _audit_plan(
        "attach_4k6/A", k, AttachmentPlan(edge(6, 17), tuple(tris_a)), expected_a
    )

    if k % 2 == 0:
        tris_b = _plan_b_even(k, a, b, c, d, e)
    else:
        tris_b = _plan_b_odd(k, a, b, c, d, e)
    expected_b = _residue_class(4, n1) | _residue_class(8, n1)
    for v in (c, d, e):
        expected_b |= _spokes(v, ring | {a, b, c, d, e})
    plan_b = _audit_plan(
        "attach_4k6/B", k, AttachmentPlan(edge(0, 6), tuple(tris_b)), expected_b
    )
    return plan_a, plan_b


def _plan_b_even(
    k: int, a: int, b: int, c: int, d: int, e: int
) -> list[frozenset[int]]:
    tris: list[frozenset[int]] = [_tri(6, 0, c)]
    zig1 = _steps(0, 4 * k, 4) + _steps(3, 4 * k - 1, 4) + [2]
    tris += zigzag(c, d, zig1).triangles
    tris += [_tri(2, d, 6), _tri(d, 6, 10)]
    zig2 = _steps(10, 4 * k - 2, 4) + _steps(1, 4 * k - 19, 4)
    tris += zigzag(d, c, zig2).triangles
    tris += [_tri(4 * k - 19, c, 4 * k - 11), _tri(c, 4 * k - 11, 4 * k - 3)]
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
    tris += rotation(e, fan_e).triangles
    tris += [
        _tri(0, 4 * k - 7, 4 * k - 3),
        _tri(4 * k - 3, 4 * k - 7, d),
        _tri(4 * k - 7, d, 4 * k - 11),
        _tri(4 * k - 11, 4 * k - 7, 4 * k - 15),
        _tri(4 * k - 15, 4 * k - 7, c),
        _tri(4 * k - 15, c, d),
        _tri(c, d, a),
        _tri(c, a, e),
        _tri(c, e, b),
        _tri(e, b, d),
    ]
    return tris


def _plan_b_odd(
    k: int, a: int, b: int, c: int, d: int, e: int
) -> list[frozenset[int]]:
    tris: list[frozenset[int]] = [_tri(6, 0, c), _tri(0, c, 4)]
    zig1 = _steps(4, 4 * k, 4) + _steps(3, 4 * k - 1, 4) + [2, 10]
    tris += zigzag(c, d, zig1).triangles
    tris += [
        _tri(10, c, e),
        _tri(c, e, b),
        _tri(c, b, d),
        _tri(c, d, a),
        _tri(a, d, e),
        _tri(d, e, 14),
        _tri(d, 14, 6),
        _tri(14, 6, 10),
        _tri(14, 10, 18),
    ]
    fan_c = [18, 14] + _steps(22, 4 * k - 2, 4) + _steps(1, 4 * k - 3, 4)
    tris += rotation(c, fan_c).triangles
    tris += [_tri(4 * k - 7, 4 * k - 3, 0), _tri(4 * k - 7, 0, d)]
    zig2 = (
        _steps(4 * k - 7, 5, -8)
        + _steps(4 * k - 2, 18, -8)
        + _steps(22, 4 * k - 6, 8)
        + _steps(1, 4 * k - 3, 8)
    )
    tris += zigzag(d, e, zig2).triangles
    fan_e = (
        [4 * k - 3]
        + _steps(4, 4 * k, 8)
        + _steps(7, 4 * k - 5, 8)
        + [2, 6]
        + _steps(4 * k - 1, 3, -8)
        + _steps(4 * k - 4, 8, -8)
        + [0]
    )
    tris += rotation(e, fan_e).triangles
    return tris


def small_table(n: int) -> SmallTableEntry | None:
    """Transcribed optimal pair for small n, or None when absent."""
    row = SMALL_ROWS.get(n)
    if row is None:
        return None
    labels, layout = row
    return SmallTableEntry(n, LabelsLayout(n, tuple(labels), tuple(layout)))


def construct_optimal(n: int) -> tuple[LabelsLayout, Certificate]:
    """Build a strongly connected complex on n vertices with maximal dual diameter.

    Dispatches on n mod 4 to the parametric constructions where they apply
    and otherwise falls back to the transcribed small table.  The walk is
    returned in codec form, and the certificate describes exactly that
    pair; it always reports the optimum was met.
    """
    if n < 3:
        raise ValueError("need at least three vertices")
    pair = encode_triples(_construct_seq(n), n)
    cert = certify(pair)
    if not cert.matches_optimum:
        raise AssertionError(
            f"construction for n={n} reached diameter {cert.diameter}, "
            f"optimum is {hs_max_diameter(n)}"
        )
    return pair, cert


def _construct_seq(n: int) -> TriangleSeq:
    r = n % 4
    if r == 1 and n >= 13:
        ring = expand_pair_of(gs_full((n - 1) // 4))
        return cut_circular(ring, _seed_cut(ring))
    if r == 0 and n >= 20:
        k = (n - 4) // 4
        gs, spec = gs_missing_12(k)
        body = cut_circular(expand_pair_of(gs), spec)
        return TriangleSeq([*body.triangles, *attach_4k4(k).triangles])
    if r == 3 and n >= 23:
        k = (n - 3) // 4
        gs, spec = gs_missing_12(k, end="seven")
        body = cut_circular(expand_pair_of(gs), spec)
        return TriangleSeq([*body.triangles, *attach_4k3(k).triangles])
    if r == 2 and n >= 34:
        k = (n - 6) // 4
        gs, spec = gs_missing_1248(k)
        body = cut_circular(expand_pair_of(gs), spec)
        plan_a, plan_b = attach_4k6(k)
        return TriangleSeq([*plan_a.triangles[::-1], *body.triangles, *plan_b.triangles])
    entry = small_table(n)
    if entry is None:
        raise ValueError(f"no construction available for n={n}")
    return expand_pair(entry.pair)


def _seed_cut(ring: TriangleSeq) -> CutSpec:
    """Cut a full-coverage ring at the singly covered edge of its first triangle.

    That edge avoids the vertex r shared with both ring neighbours; removing
    the triangle exposes the edge it shared with its successor.
    """
    first, second = ring.triangles[0], ring.triangles[1]
    (r,) = first & second & ring.triangles[-1]
    return CutSpec(destroyed_edge=tuple(first - {r}), end_edge=tuple(first & second))
