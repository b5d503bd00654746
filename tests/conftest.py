"""Shared test helpers:

- the PYTHONPATH of child interpreters, and CLI runs in process;
- core references: edge counts, goodness, the certificate and the encoder;
- genseq and assembly references: ring unrolling, the ring cut, the cut
  finder, the seed cut and the construction; each route's cut as construct
  makes it; the attachment plans' anchors and target edges;
- hampack references: arithmetic orders, the partition report, the class
  rule, prime orderings, arithmetic families and the sequence unroller;
- the CLI's integer-list check;
- random good and corrupted walks;
- each acceptance criterion's CRITERION line, with its runtime and bound.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from collections import Counter
from functools import cache
from itertools import combinations
from operator import itemgetter, sub
from pathlib import Path

import pytest

from diamforge.core import (
    Certificate,
    Edge,
    LabelsLayout,
    TriangleSeq,
    all_edges,
    dual_diameter,
    edge,
    edge_multiplicities,
    expand_pair,
    hs_max_diameter,
    is_ring,
    triangle_at,
)
from diamforge.assembly import attach_4k3, attach_4k4, attach_4k6, small_table
from diamforge.genseq import (
    GeneratingSequence,
    expand_to_circular,
    gs_full,
    gs_missing_12,
    gs_missing_1248,
)
from diamforge.hampack import CycleSquare, Decomposition, PartitionReport
from diamforge.cli import _int, main
from diamforge.oracle import legal_moves


@pytest.fixture(autouse=True, scope="session")
def child_pythonpath():
    """Put ``src`` first on the PYTHONPATH of every interpreter a test
    starts, as ``pythonpath`` in pyproject.toml does for this one, so that
    a plain checkout runs the tests without installing the package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        yield


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``diamforge.cli.main(argv)`` run in
    process, an argparse exit's code included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def reference_edge_multiplicities(seq: TriangleSeq) -> Counter[Edge]:
    """How many triangles of ``seq`` hold each edge, one triangle at a time.

    The slow reference for :func:`diamforge.core.edge_multiplicities`."""
    sides: list[Edge] = []
    for tri in seq.triangles:
        a, b, c = sorted(tri)
        sides += (a, b), (a, c), (b, c)
    return Counter(sides)


def reference_good(seq: TriangleSeq, circular: bool, counts: Counter[Edge] | None = None) -> bool:
    """Whether ``seq`` is good, by its shared edges and edge counts, read as
    a ring when ``circular``.

    The slow reference for :func:`diamforge.core.is_good`: consecutive
    triangles share two vertices, and an edge held twice is one they share.
    A ring's wrap-around pair counts as consecutive.  ``counts``, the
    :func:`reference_edge_multiplicities` of ``seq``, are counted when not
    given.
    """
    tris = seq.triangles
    pairs = zip(tris, tris[1:] + tris[:1] if circular else tris[1:])
    shared = [prev & tri for prev, tri in pairs]
    if any(len(s) != 2 for s in shared):
        return False
    twice = {tuple(sorted(s)) for s in shared}
    if counts is None:
        counts = reference_edge_multiplicities(seq)
    return all(m == 1 or (m == 2 and e in twice) for e, m in counts.items())


def reference_certify(pair: LabelsLayout) -> Certificate:
    """Certificate of ``pair`` against K_n from the frozenset helpers.

    The slow reference for :func:`diamforge.core.certify`: the triangles of
    :func:`expand_pair`, circular when :func:`is_ring`, goodness from
    :func:`reference_good`, the diameter by BFS over the dual graph (None
    when it is disconnected), the covered edges as the key set of
    :func:`reference_edge_multiplicities` and the uncovered edges as a set
    difference.
    """
    seq, circular, n = expand_pair(pair), is_ring(pair), pair.n
    counts = reference_edge_multiplicities(seq)
    good = reference_good(seq, circular, counts)
    covered = set(counts)
    try:
        diameter: int | None = dual_diameter(seq)
    except ValueError:
        diameter = None
    optimum = hs_max_diameter(n)
    matches = good and not circular and diameter == optimum
    uncovered = sorted(all_edges(n) - covered)
    return Certificate(
        good=good,
        circular=circular,
        covered_edges=len(covered),
        diameter=diameter,
        optimum=optimum,
        matches_optimum=matches,
        uncovered_edges=uncovered,
    )


def reference_cut_circular(ring: LabelsLayout, destroyed_edge: Edge) -> TriangleSeq:
    """Ring cut found by a scan of the ring's expanded triangles.

    The slow reference for :func:`diamforge.genseq.cut_circular`, with the
    same checks and error messages: the walk is unrolled from the triangle
    after the one triangle that holds the destroyed edge.
    """
    if not is_ring(ring):
        raise ValueError("sequence is not circular")
    tris = expand_pair(ring).triangles
    d = edge(*destroyed_edge)
    holders = [i for i, tri in enumerate(tris) if d[0] in tri and d[1] in tri]
    if len(holders) != 1:
        raise ValueError(f"destroyed edge {d} is covered {len(holders)} times, need exactly 1")
    (c,) = holders
    return TriangleSeq(tris[c + 1 :] + tris[:c])


def reference_cut_exposing(triangles: list, end_edge: Edge) -> Edge:
    """The edge destroyed by the first cut that leaves ``end_edge``
    attachable, by a scan of every triangle of a ring.

    The slow reference for :func:`diamforge.genseq.cut_exposing`, which
    reads the codec ring and tests only the holders of ``end_edge`` and
    their neighbours: ``triangles`` are the ring's, in order, and the
    errors are the same.
    """
    end_edge = edge(*end_edge)
    mult = edge_multiplicities(TriangleSeq(triangles))
    t = len(triangles)
    holders = [i for i, tri in enumerate(triangles) if end_edge[0] in tri and end_edge[1] in tri]
    if not holders:
        raise ValueError(f"edge {end_edge} is not covered")
    for c in range(t):
        left = [h for h in holders if h != c]
        if len(left) != 1:
            continue
        if left[0] not in ((c - 1) % t, (c + 1) % t):
            continue
        blues = [e for e in combinations(sorted(triangles[c]), 2) if mult[e] == 1]
        if len(blues) != 1 or blues[0] == end_edge:
            continue
        return blues[0]
    raise ValueError(f"no cut exposes {end_edge} at an end")


def is_unrolled(ring: LabelsLayout, gs: GeneratingSequence) -> bool:
    """Whether ``ring`` is ``gs`` unrolled one step at a time.

    The reference for :func:`diamforge.genseq.expand_to_circular`: labels
    x_0 = 0, ..., x_{mn+1} with x_{i+1} = x_i + a mod n for the term a read
    cyclically from the first turn-free index r, and each period's turn
    bits.  Every step is checked: the labels one step after those at
    positions q, q + m, ... are theirs gathered through the table of
    x -> x + a mod n.
    """
    n, m, xs = gs.n, gs.m, ring.labels
    if (ring.n, type(xs), len(xs), xs[0]) != (n, tuple, m * n + 2, 0):
        return False
    r = min(set(range(m)) - gs.turns)
    plus = tuple(range(n)) * 2  # plus[a : a + n] maps x to x + a mod n
    for q in range(m):
        a = gs.terms[(r + q) % m]
        if itemgetter(*xs[q:-1:m])(plus[a : a + n]) != xs[q + 1 :: m]:
            return False
    period = tuple(int((r + j + 1) % m in gs.turns) for j in range(m))
    return ring.layout == (period * n)[:-1]


def reference_encode_triples(seq: TriangleSeq, n: int | None = None) -> LabelsLayout:
    """Encode a triangle sequence into (LABELS, LAYOUT) form.

    The triangle-by-triangle reference for :func:`diamforge.core.encode_triples`
    and :func:`diamforge.core.canonical`.  The starting end is chosen
    deterministically: the end whose triangle is lexicographically smaller
    (as a sorted triple) becomes the first.  The two shared vertices of the
    first adjacency are emitted in ascending order, unless the labels would
    then end on the first two and decode as a ring.

    ``expand_pair(encode_triples(seq))`` reproduces ``seq`` up to that choice
    of starting end.

    Raises:
        ValueError: if some consecutive pair does not share exactly two
            vertices, or if a shared pair is not one of the two attachment
            edges the codec can express.
    """
    tris = seq.triangles
    if n is None:
        n = max(max(t) for t in tris) + 1

    if len(tris) == 1:
        return LabelsLayout(n, sorted(tris[0]), [])

    if sorted(tris[-1]) < sorted(tris[0]):
        tris = list(reversed(tris))

    shared01 = tris[0] & tris[1]
    if len(shared01) != 2:
        raise ValueError("cannot encode: triangles 0 and 1 do not share 2 vertices")
    (x0,) = tris[0] - shared01
    x1, x2 = sorted(shared01)
    # Labels ending on x0, x1 would decode as a ring; the other order of
    # the first shared pair encodes the same walk and ends elsewhere.
    if (
        len(tris) >= 3
        and len(tris[-1] & tris[0]) == 2
        and tris[-2] - tris[-3] == {x0}
        and tris[-1] - tris[-2] == {x1}
    ):
        x1, x2 = x2, x1

    labels = [x0, x1, x2]
    layout: list[int] = []
    carried, u, v = x0, x1, x2
    prev = tris[0]
    for k, tri in enumerate(tris[1:], start=1):
        shared = prev & tri
        if len(shared) != 2:
            raise ValueError(
                f"cannot encode: triangles {k - 1} and {k} share {len(shared)} vertices"
            )
        (w,) = tri - shared
        if shared == {u, v}:
            y = 0
        elif shared == {carried, v}:
            y = 1
        else:
            raise ValueError(
                f"cannot encode: triangle {k} reattaches to the edge already "
                f"shared by triangles {k - 2} and {k - 1}"
            )
        labels.append(w)
        layout.append(y)
        first = u if y == 0 else carried
        carried, u, v = first, v, w
        prev = tri
    return LabelsLayout(n, labels, layout)


def residue_class(r: int, n: int) -> set[Edge]:
    """All edges {x, x + r mod n} on the first n vertices, for 0 < 2r < n."""
    return set(zip(range(n - r), range(r, n))) | set(zip(range(r), range(n - r, n)))


def spokes(v: int, m: int) -> set[Edge]:
    """All edges from v to the other vertices of range(m)."""
    return {edge(v, x) for x in range(m) if x != v}


def plan_anchors(k: int) -> dict[str, Edge]:
    """Each attachment plan's anchor at k: the ring edge its first triangle
    holds, which the cut ring must hold once, in the end the plan joins."""
    return {"attach_4k4": (0, 4 * k - 2), "attach_4k3": (0, 7),
            "attach_4k6/A": (6, 17), "attach_4k6/B": (0, 6)}


def plan_targets(k: int) -> list[tuple[str, TriangleSeq, Edge, set[Edge]]]:
    """Each attachment plan valid at k with its anchor and the edges it
    must cover besides the anchor.

    The ring on range(4k + 1) misses residue classes 1 and 2, and for
    n = 4k + 6 also 4 and 8.  The plans cover those classes, every edge at
    the vertices they add, and the cut edge {0, 13} (n = 4k + 3) or
    {0, 17} (plan A) that the ring cut destroyed.  Plan A covers the edges
    between its two new vertices and the ring, and plan B every edge at the
    last three.
    """
    n1, anchor = 4 * k + 1, plan_anchors(k)
    classes = residue_class(1, n1) | residue_class(2, n1)
    targets = []
    if k >= 4:
        want = classes.union(*(spokes(v, n1 + 3) for v in range(n1, n1 + 3)))
        targets.append(("attach_4k4", attach_4k4(k), anchor["attach_4k4"], want))
    if k >= 5:
        want = classes.union({(0, 13)}, *(spokes(v, n1 + 2) for v in range(n1, n1 + 2)))
        targets.append(("attach_4k3", attach_4k3(k), anchor["attach_4k3"], want))
    if k >= 7:
        plan_a, plan_b = attach_4k6(k)
        want_a = classes | {(0, 17)} | spokes(n1, n1 + 2) | spokes(n1 + 1, n1)
        want_b = residue_class(4, n1).union(
            residue_class(8, n1), *(spokes(v, n1 + 5) for v in range(n1 + 2, n1 + 5)))
        targets += [("attach_4k6/A", plan_a, anchor["attach_4k6/A"], want_a),
                    ("attach_4k6/B", plan_b, anchor["attach_4k6/B"], want_b)]
    return targets


def reference_seed_cut(ring: LabelsLayout) -> Edge:
    """The edge the n = 4k+1 route destroys, found by set algebra over
    three triangles of a :func:`gs_full` ring.

    The reference for that route, which reads the edge {x0, x2} off the
    ring's first three labels: it is the edge of the seed that avoids the
    vertex r the seed shares with both ring neighbours.
    """
    first, second = set(ring.labels[:3]), set(triangle_at(ring, 1))
    (r,) = first & second & set(triangle_at(ring, len(ring) - 1))
    return edge(*(first - {r}))


def reference_construct(n: int) -> LabelsLayout:
    """construct_optimal's pair by the frozenset route.

    The slow reference for :func:`diamforge.assembly.construct_optimal`:
    the ring expanded into triangles, cut by :func:`reference_cut_circular`
    and turned so that the anchor of the plan that follows it ends the cut
    walk, the plan triangles concatenated, and the walk encoded by
    :func:`reference_encode_triples`.  Each cut is found here, not read from
    the route's: the one :func:`reference_cut_exposing` finds at the plan's
    anchor for n = 4k+4, and {0, 13} and {0, 17} for n = 4k+3 and 4k+6.
    """
    r = n % 4
    k = (n - {0: 4, 1: 1, 2: 6, 3: 3}[r]) // 4
    anchor = plan_anchors(k)
    if r == 1 and n >= 13:
        ring = expand_to_circular(gs_full(k))
        walk = reference_cut_circular(ring, reference_seed_cut(ring)).triangles
    elif r == 0 and n >= 20:
        ring = expand_to_circular(gs_missing_12(k))
        destroyed = reference_cut_exposing(expand_pair(ring).triangles, anchor["attach_4k4"])
        walk = _oriented_cut(ring, destroyed, anchor["attach_4k4"])
        walk += attach_4k4(k).triangles
    elif r == 3 and n >= 23:
        ring = expand_to_circular(gs_missing_12(k))
        walk = _oriented_cut(ring, (0, 13), anchor["attach_4k3"])
        walk += attach_4k3(k).triangles
    elif r == 2 and n >= 34:
        plan_a, plan_b = attach_4k6(k)
        ring = expand_to_circular(gs_missing_1248(k))
        body = _oriented_cut(ring, (0, 17), anchor["attach_4k6/B"])
        walk = [*plan_a.triangles[::-1], *body, *plan_b.triangles]
    else:
        walk = expand_pair(small_table(n).pair).triangles
    return reference_encode_triples(TriangleSeq(list(walk)), n)


@cache
def route_cut(n: int) -> tuple[LabelsLayout, Edge]:
    """The ring that ``construct_optimal(n)`` cuts and the edge it destroys,
    read from a spy on ``assembly.cut_circular``, once per test run."""
    from diamforge import assembly

    cuts, cut_circular = [], assembly.cut_circular

    def spy(ring, destroyed_edge):
        cuts.append((ring, edge(*destroyed_edge)))
        return cut_circular(ring, destroyed_edge)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "cut_circular", spy)
        assembly.construct_optimal(n)
    (cut,) = cuts
    return cut


def _oriented_cut(ring: LabelsLayout, destroyed_edge: Edge, end_edge: Edge) -> list:
    """The reference cut, turned so that ``end_edge``, which it must hold
    once and in a terminal triangle, sits in the last triangle."""
    walk = reference_cut_circular(ring, destroyed_edge).triangles
    held = [i for i, tri in enumerate(walk) if set(end_edge) <= tri]
    if held not in ([0], [len(walk) - 1]):
        raise ValueError(f"end edge {end_edge} is held by triangles {held} after the cut")
    return walk if held[0] else walk[::-1]


def arithmetic(n: int, x0: int, s: int) -> list[int]:
    """The cyclic order x_i = x0 + i*s mod n."""
    return [(x0 + i * s) % n for i in range(n)]


def reference_verify_partition(d: Decomposition) -> PartitionReport:
    """Partition report of ``d`` from each vertex's neighbours.

    The slow reference for :func:`diamforge.hampack.verify_partition`: in
    each square, the vertices one and two places before and after v, read
    through the inverse of the ordering.  An edge {u, v} is missing when u
    never meets v, and doubled when it meets v in two squares.
    """
    n, near = d.n, []  # near[k][v]: v's neighbour at one offset of one square
    for c in d.cycles:
        if n < 5:
            raise ValueError("cycle square needs at least five vertices")
        o = c.order
        place = sorted(range(n), key=o.__getitem__)  # o[place[v]] == v
        near += [itemgetter(*place)(o[j:] + o[:j]) for j in (1, 2, n - 2, n - 1)]
    missing, doubled = [], []
    for u, met in enumerate(zip(*near) if near else [()] * n):
        once = set(met)
        missing += [(u, v) for v in range(u + 1, n) if v not in once]
        if len(once) != len(met):
            count = Counter(met)
            doubled += [(u, v) for v in sorted(once) if v > u and count[v] > 1]
    ok = not missing and not doubled and n % 4 == 1 and len(d.cycles) == (n - 1) // 4
    return PartitionReport(ok, tuple(missing), tuple(doubled))


def reference_tiles_by_classes(d: Decomposition) -> bool:
    """Whether ``d`` is (n-1)/4 arithmetic cycles with distinct classes.

    The slow reference for :func:`diamforge.hampack._tiles_by_classes`:
    every step of every cycle is read, none taken from composition.
    """
    n = d.n
    if n % 4 != 1 or n < 5 or len(d.cycles) * 4 != n - 1:
        return False
    hit = bytearray(n)
    for c in d.cycles:
        o = c.order
        s = (o[1] - o[0]) % n
        if not set(map(sub, o[1:], o)) <= {s, s - n}:  # each step is s mod n
            return False
        for k in (s, 2 * s % n):
            k = min(k, n - k)
            if hit[k]:
                return False
            hit[k] = 1
    return True


def reference_prime_orders(p: int) -> list[list[int]]:
    """Orderings of ``decompose_prime(p)``, each built from its own stride.

    The slow reference for the composed orderings: for each coset of <2>
    in F_p*, smallest representative a first, and each even k below
    ord_p(2)/2, the ordering i * a * 2^k mod p for i = 0..p-1.
    """
    t = next(d for d in range(1, p) if pow(2, d, p) == 1)
    seen: set[int] = set()
    orders = []
    for a in range(1, p):
        if a in seen:
            continue
        seen |= {a * pow(2, j, p) % p for j in range(t)}
        for k in range(0, t // 2, 2):
            step = a * pow(2, k, p) % p
            orders.append([x % p for x in range(0, step * p, step)])
    return orders


def reference_arithmetic_steps(n: int) -> list[int] | None:
    """Steps of (n - 1)/4 arithmetic cycles whose squares partition K_n, or
    None when there are none.

    The cycle x_i = i*s is Hamilton only when s is a unit, and its square
    holds the ± classes of s and 2s.  Both are then units, so every class
    must be one.  A family is then a perfect matching of the classes by
    the pairs {s, 2s}: along each cycle of x -> 2x on the ± classes it
    takes every other class, which needs the cycle's length to be even.
    """
    half = (n - 1) // 2
    if n % 4 != 1 or any(math.gcd(s, n) != 1 for s in range(1, half + 1)):
        return None
    seen: set[int] = set()
    steps = []
    for s in range(1, half + 1):
        orbit = []
        while s not in seen:
            seen.add(s)
            orbit.append(s)
            s = min(2 * s % n, n - 2 * s % n)
        if len(orbit) % 2:
            return None
        steps += orbit[::2]
    return steps


def reference_cycles_from_sequences(n: int, seqs: list[list[int]]) -> Decomposition:
    """Cycles of ``cycles_from_sequences(n, seqs)``, one vertex at a time.

    The slow reference for the unrolled orderings: each start walks the
    periodic steps with an explicit loop, and a revisit is found by
    counting the distinct vertices.
    """
    cycles = []
    for seq in seqs:
        terms = [a % n for a in seq]
        if not terms or n % len(terms) != 0:
            raise ValueError(f"sequence length {len(terms)} does not divide {n}")
        if any(a == 0 for a in terms):
            raise ValueError(f"sequence {tuple(seq)} has an entry divisible by {n}")
        for start in range(len(terms)):
            order = [start]
            x = start
            for j in range(n - 1):
                x = (x + terms[j % len(terms)]) % n
                order.append(x)
            if len(set(order)) != n:
                raise ValueError(
                    f"sequence {tuple(seq)} revisits a vertex from start {start}"
                )
            cycles.append(CycleSquare(tuple(order)))
    return Decomposition(n, tuple(cycles))


def reference_int_list(what: str, xs) -> tuple[int, ...]:
    """The integer list of a JSON input, each element checked by ``cli._int``.

    The slow reference for ``cli._int_list``, which checks the element types
    at C speed and loops only to name the first offender.
    """
    if not isinstance(xs, list):
        raise ValueError(f"{what}: expected a list of integers, got {json.dumps(xs)}")
    return tuple(_int(what, x) for x in xs)


def grow_walk(choose, n: int, steps: int) -> tuple[LabelsLayout, list[int], tuple]:
    """Extend the seed triangle {0, 1, 2} by moves from :func:`legal_moves`.

    ``choose`` picks one move from each non-empty list.  Stops after
    ``steps`` extensions or when stuck, whichever comes first.  Returns the
    pair, ``used`` (each label's covered neighbours as a bit set) and the
    final state (c, u, v, fresh).
    """
    used = [0] * n
    used[0], used[1], used[2] = 0b110, 0b101, 0b011  # the seed's three edges
    labels, layout = [0, 1, 2], []
    c, u, v, fresh = 0, 1, 2, 3
    for _ in range(steps):
        moves = legal_moves(used, c, u, v, fresh, n)
        if not moves:
            break
        w, bit = choose(moves)
        p = u if bit == 0 else c
        used[p] |= 1 << w
        used[v] |= 1 << w
        used[w] |= (1 << p) | (1 << v)
        labels.append(w)
        layout.append(bit)
        c, u, v, fresh = p, v, w, fresh + (w == fresh)
    return LabelsLayout(n, labels, layout), used, (c, u, v, fresh)


def random_good_pair(rng, n: int | None = None, steps: int | None = None) -> LabelsLayout:
    """Uniformly extend the seed triangle with legal moves.

    Stops after ``steps`` extensions or when stuck, whichever comes first.
    """
    if n is None:
        n = rng.randint(4, 12)
    if steps is None:
        steps = rng.randint(0, 3 * n)
    return grow_walk(rng.choice, n, steps)[0]


def corrupted_pair(rng, n: int | None = None, steps: int | None = None) -> LabelsLayout:
    """A walk-shaped pair whose final extension re-uses a covered edge.

    The appended triangle is still a genuine 3-set, so the pair expands
    fine, but goodness must fail.
    """
    if n is None:
        n = rng.randint(4, 12)
    if steps is None:
        steps = rng.randint(1, 3 * n)
    pair, used, (c, u, v, _) = grow_walk(rng.choice, n, steps)
    # With every label allowed, the non-degenerate moves left out of the
    # legal ones are exactly those that re-use an edge.
    legal = set(legal_moves(used, c, u, v, n, n))
    bad = [(w, bit) for w in range(n) for bit, p in ((0, u), (1, c))
           if w != p and w != v and (w, bit) not in legal]
    rng.shuffle(bad)
    # An edge-reusing move can still close a legal ring; re-emitting the
    # current triangle never can, so it serves as the fallback.
    for w, bit in bad + [(c, 0)]:
        cand = LabelsLayout(n, pair.labels + (w,), pair.layout + (bit,))
        if not reference_good(expand_pair(cand), is_ring(cand)):
            return cand
    raise AssertionError("unreachable: duplicate triangle is never good")


_CRITERION = re.compile(r"test_criterion_(\d+)")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call" or "test_acceptance" not in str(item.fspath):
        return
    m = _CRITERION.match(item.name)
    if m:
        num = int(m.group(1))
        status = "PASS" if rep.passed else "FAIL"
        bound = getattr(item.module, "BOUNDS_S", {}).get(num)
        limit = "no bound" if bound is None else f"bound {bound} s"
        print(f"\nCRITERION {num}: {status} ({rep.duration:.2f} s, {limit})")
