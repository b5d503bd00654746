"""Triangle walk complexes: codec, goodness test, dual-graph diameter.

A pure 2-complex is handled as an ordered sequence of triangles (vertex
triples).  A sequence is *good* when consecutive triangles share exactly two
vertices and non-consecutive triangles share at most one; the dual graph of a
good linear sequence is a path, so its diameter equals the number of
triangles minus one.  Good sequences travel through the complete graph K_n
reusing edges as rarely as possible, which is what makes them the right
search space for maximising dual diameter.

The (LABELS, LAYOUT) codec stores a good sequence as one vertex label per
step plus one bit per step from the third triangle on.  The bit says which of
the two legal attachment edges of the previous triangle the new triangle is
glued to.  :func:`certify` reads that form directly, in one pass; the
frozenset helpers serve walks built triangle by triangle and the walks that
are not good.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain, combinations, compress, count, repeat

from ._base import Edge, Record, edge

Triangle = frozenset[int]

__all__ = [
    "Edge",
    "Triangle",
    "TriangleSeq",
    "LabelsLayout",
    "Certificate",
    "edge",
    "all_edges",
    "expand_pair",
    "triangle_at",
    "is_ring",
    "reverse_walk",
    "join_walks",
    "canonical",
    "encode_triples",
    "covered_edges",
    "edge_multiplicities",
    "is_good",
    "dual_diameter",
    "hs_max_diameter",
    "certify",
    "MAX_N",
]


def all_edges(n: int) -> set[Edge]:
    """All edges of the complete graph on vertices 0..n-1."""
    return {(u, v) for u in range(n) for v in range(u + 1, n)}


class TriangleSeq(Record):
    """An ordered, linear triangle sequence.

    Rings are codec pairs: :func:`is_ring` recognises them, and
    :func:`expand_pair` decodes one into its triangles like any other walk.
    The class does not enforce goodness; use :func:`is_good`.
    """

    __slots__ = ("triangles",)

    def __init__(self, triangles: list[Triangle]) -> None:
        self.triangles = triangles
        if not self.triangles:
            raise ValueError("empty triangle sequence")
        if set(map(len, self.triangles)) != {3}:
            i = next(i for i, tri in enumerate(self.triangles) if len(tri) != 3)
            raise ValueError(f"triangle at index {i} has {len(self.triangles[i])} vertices")

    def __len__(self) -> int:
        return len(self.triangles)


class LabelsLayout(Record):
    """Codec form of a triangle sequence.

    ``labels`` lists one vertex per step (so ``len(labels) == t + 3`` for
    ``t + 1`` triangles) and ``layout`` holds the glue bits ``y_3 .. y_{t+2}``.
    Vertex ids live in ``range(n)``.
    """

    __slots__ = ("n", "labels", "layout")

    def __init__(self, n: int, labels: tuple[int, ...], layout: tuple[int, ...]) -> None:
        self.n, self.labels, self.layout = n, tuple(labels), tuple(layout)
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if len(self.labels) < 3:
            raise ValueError("need at least three labels")
        if len(self.labels) != len(self.layout) + 3:
            raise ValueError(
                f"label/layout length mismatch: {len(self.labels)} labels, "
                f"{len(self.layout)} bits (want labels = bits + 3)"
            )
        seen = set(self.labels)
        if not 0 <= min(seen) <= max(seen) < self.n:
            x = next(x for x in self.labels if not 0 <= x < self.n)
            raise ValueError(f"label {x} out of range for n={self.n}")
        if not set(self.layout) <= {0, 1}:
            y = next(y for y in self.layout if y not in (0, 1))
            raise ValueError(f"layout bit {y!r} is not 0 or 1")

    def __len__(self) -> int:
        """Number of triangles in the walk."""
        return len(self.labels) - 2


class Certificate(Record):
    """Verification summary for a triangle sequence on n vertices.

    ``uncovered_edges`` defaults to a fresh empty list."""

    __slots__ = ("good", "circular", "covered_edges", "diameter", "optimum",
                 "matches_optimum", "uncovered_edges")

    def __init__(self, good: bool, circular: bool, covered_edges: int, diameter: int | None,
                 optimum: int, matches_optimum: bool,
                 uncovered_edges: list[Edge] | None = None) -> None:
        self.good, self.circular, self.covered_edges = good, circular, covered_edges
        self.diameter, self.optimum, self.matches_optimum = diameter, optimum, matches_optimum
        self.uncovered_edges = [] if uncovered_edges is None else uncovered_edges


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

def expand_pair(pair: LabelsLayout) -> TriangleSeq:
    """Decode a (LABELS, LAYOUT) pair into its triangle sequence.

    The first triangle is ``{x_0, x_1, x_2}``.  Walking with state
    ``(carried, u, v)`` (initially ``(x_0, x_1, x_2)``), a step with label w
    and bit y appends ``{u, v, w}`` and moves to ``(u, v, w)`` when y = 0, or
    appends ``{carried, v, w}`` and moves to ``(carried, v, w)`` when y = 1.

    Raises:
        ValueError: if any step would create a triangle with a repeated
            vertex (the offending step index is reported).
    """
    xs = pair.labels
    tri0 = frozenset(xs[:3])
    if len(tri0) != 3:
        raise ValueError("degenerate triangle at index 0")
    triangles = [tri0]
    carried, u, v = xs[0], xs[1], xs[2]
    for i, y in enumerate(pair.layout, start=3):
        w = xs[i]
        first = u if y == 0 else carried
        if w == first or w == v or first == v:
            raise ValueError(f"degenerate triangle at index {i - 2}")
        triangles.append(frozenset((first, v, w)))
        carried, u, v = first, v, w
    return TriangleSeq(triangles)


def triangle_at(pair: LabelsLayout, j: int) -> tuple[int, int, int]:
    """Triangle j of a walk as its state ``(carried, u, v)``: labels j + 1 and
    j + 2 behind the label of the last step up to j with a 0 bit."""
    i = j
    while i and pair.layout[i - 1]:
        i -= 1
    return pair.labels[i], pair.labels[j + 1], pair.labels[j + 2]


def is_ring(pair: LabelsLayout) -> bool:
    """Whether the labels end on the first two and the last triangle meets the first in them."""
    xs, t = pair.labels, len(pair)
    return t >= 3 and xs[-2:] == xs[:2] and triangle_at(pair, t - 1)[0] != xs[2]


def reverse_walk(pair: LabelsLayout) -> LabelsLayout:
    """The walk from its last triangle back, for a walk :func:`encode_triples`
    accepts.  Each step back adds the vertex its forward step dropped, and
    from the third on carries the bit of the forward step two ahead of it."""
    xs, ys, t = pair.labels, pair.layout, len(pair)
    # The last two labels, the last triangle's carried vertex, then back[t + 2 - j]
    # for step j: the label it drops, j - 1 unless bit j or j - 1 is 1.
    back, prev = list(reversed(xs)), -1
    for j in compress(count(1), ys):
        if j - 1 != prev:  # triangle j starts a run of 1 bits and carries label j - 1
            carried = xs[j - 1]
        back[t + 2 - j], prev = xs[j], j
        if j < t - 1 and not ys[j]:
            back[t + 1 - j] = carried
    back[2] = triangle_at(pair, t - 1)[0]
    return LabelsLayout._of(pair.n, tuple(back), ((0, 0) + ys[:1:-1])[: len(ys)])


def join_walks(head: LabelsLayout, tail: LabelsLayout) -> LabelsLayout:
    """``head`` followed by ``tail``, whose first triangle must meet head's
    last in an edge, as the next triangle of a good walk does.  Only the bits
    of tail's first three triangles depend on what precedes.

    The result has ``max(head.n, tail.n)`` vertices, so every label of
    either walk is in range.  A tail that does not continue head raises
    ValueError."""
    c, u, v = triangle_at(head, len(head) - 1)
    fresh = set(tail.labels[:3]) - {c, u, v}
    if len(fresh) != 1:
        raise ValueError(f"tail's first triangle {sorted(tail.labels[:3])} does not "
                         f"continue head's last {sorted((c, u, v))}")
    (w0,) = fresh
    bits = []
    for j, w in enumerate((w0, *tail.labels[3:5])):
        bits.append(int(u not in triangle_at(tail, j)))
        c, u, v = (c if bits[-1] else u), v, w
    labels = head.labels + (w0, *tail.labels[3:])
    return LabelsLayout._of(max(head.n, tail.n), labels, head.layout + (*bits, *tail.layout[2:]))


def canonical(pair: LabelsLayout) -> LabelsLayout:
    """The form :func:`encode_triples` gives a linear walk: the end with the
    smaller sorted triangle first, then the vertex it drops, then the two it
    shares with the next triangle in ascending order, unless the labels would
    then end on the first two and decode as a ring; then in the other order.
    A walk of two or more triangles already in that form comes back as
    itself, not copied."""
    t = len(pair)
    if t == 1:
        return LabelsLayout._of(pair.n, tuple(sorted(pair.labels)), ())
    if sorted(triangle_at(pair, t - 1)) < sorted(pair.labels[:3]):
        pair = reverse_walk(pair)
    xs, kept = pair.labels, triangle_at(pair, 1)[0]
    x0 = xs[1] if kept == xs[0] else xs[0]
    x1, x2 = sorted((kept, xs[2]))
    if t >= 3 and xs[-2:] == (x0, x1) and triangle_at(pair, t - 1)[0] != x2:
        x1, x2 = x2, x1
    bits = (0,) if t == 2 else (0, int(triangle_at(pair, 2)[0] != x2))
    if (x0, x1, x2) == xs[:3] and bits == pair.layout[:2]:
        return pair
    return LabelsLayout._of(pair.n, (x0, x1, x2) + xs[3:], bits + pair.layout[2:])


def encode_triples(seq: TriangleSeq, n: int | None = None) -> LabelsLayout:
    """Encode a triangle sequence into the (LABELS, LAYOUT) form
    :func:`canonical` gives it.

    ``expand_pair(encode_triples(seq))`` reproduces ``seq`` up to the choice
    of starting end.  The result never decodes as a ring, so a ring's
    triangles come back as the linear walk that drops its wrap adjacency.

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

    shared01 = tris[0] & tris[1]
    if len(shared01) != 2:
        raise ValueError("cannot encode: triangles 0 and 1 do not share 2 vertices")
    (x0,) = tris[0] - shared01
    x1, x2 = sorted(shared01)
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

    return canonical(LabelsLayout(n, labels, layout))


# ---------------------------------------------------------------------------
# edge coverage and goodness
# ---------------------------------------------------------------------------

def edge_multiplicities(seq: TriangleSeq) -> Counter[Edge]:
    """Count how many triangles of the sequence contain each edge."""
    return Counter(chain.from_iterable(map(combinations, map(sorted, seq.triangles), repeat(2))))


def covered_edges(seq: TriangleSeq) -> set[Edge]:
    """The set of distinct edges used by the sequence."""
    return set(chain.from_iterable(map(combinations, map(sorted, seq.triangles), repeat(2))))


def is_good(seq: TriangleSeq) -> bool:
    """Whether the sequence is good.

    Consecutive triangles must share exactly two vertices, and no edge may
    belong to two non-consecutive triangles or to three triangles.  A single
    triangle is good.  A walk from ``expand_pair`` (never re-attaching across
    the edge it just shared) is good iff its t+1 triangles cover 2t+3
    distinct edges; {0,1,2},{0,1,3},{0,1,4} covers 7 but is not good.  A
    ring's first and last triangles share its wrap edge, so its triangles
    are not good here; :func:`certify` judges rings.  When consecutive
    triangles share two vertices, the 3t edge slots of t triangles number
    at least the distinct edges plus the distinct shared ones, with
    equality exactly when the sequence is good.
    """
    tris = seq.triangles
    shared = list(map(frozenset.intersection, tris, tris[1:]))
    if set(map(len, shared)) - {2}:
        return False
    return 3 * len(tris) == len(covered_edges(seq)) + len(set(shared))


# ---------------------------------------------------------------------------
# dual graph diameter
# ---------------------------------------------------------------------------

def _dual_adjacency(seq: TriangleSeq) -> list[list[int]]:
    """Adjacency lists of the dual graph (triangles sharing an edge)."""
    where: dict[Edge, list[int]] = {}
    for i, tri in enumerate(seq.triangles):
        a, b, c = sorted(tri)
        for e in ((a, b), (a, c), (b, c)):
            where.setdefault(e, []).append(i)
    adj: list[set[int]] = [set() for _ in seq.triangles]
    for members in where.values():
        for i in members:
            for j in members:
                if i != j:
                    adj[i].add(j)
    return [sorted(s) for s in adj]


def _bfs_ecc(adj: list[list[int]], source: int) -> tuple[list[int], int]:
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    far = source
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                if dist[y] > dist[far]:
                    far = y
                queue.append(y)
    return dist, far


def dual_diameter(seq: TriangleSeq) -> int:
    """Diameter of the dual graph of the sequence.

    Trees (in particular the path dual of a good linear sequence) are solved
    with a double BFS, a single cycle in closed form, anything else by BFS
    from every vertex.

    Raises:
        ValueError: if the dual graph is disconnected.
    """
    adj = _dual_adjacency(seq)
    t = len(adj)
    dist, far = _bfs_ecc(adj, 0)
    if any(d < 0 for d in dist):
        raise ValueError("dual graph is disconnected")

    edge_count = sum(len(a) for a in adj) // 2
    if edge_count == t - 1:
        # Connected with t-1 edges: a tree, double BFS is exact.
        dist2, _ = _bfs_ecc(adj, far)
        return max(dist2)
    if edge_count == t and all(len(a) == 2 for a in adj):
        return t // 2

    best = 0
    for s in range(t):
        d, _ = _bfs_ecc(adj, s)
        best = max(best, max(d))
    return best


# ---------------------------------------------------------------------------
# extremal values and certification
# ---------------------------------------------------------------------------

def hs_max_diameter(n: int) -> int:
    """Largest dual-graph diameter over strongly connected pure triangle
    complexes on n vertices.

    Equals floor(C(n,2)/2 - 3/2) for every n >= 3 except n = 6, where the
    bound of 6 is not attainable and the true value is 5.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n == 6:
        return 5
    return (n * (n - 1) // 2 - 3) // 2


# construct's largest order, and the largest n that verify accepts.  Its walk
# has about n**2 / 4 triangles and construct peaks near 51 bytes per triangle,
# as json or text: 306 MB spawned at n = 5000 (6,248,749 triangles) on a
# 2-core x86_64 VM with Python 3.11.7.
MAX_N = 5000


def certify(pair: LabelsLayout) -> Certificate:
    """Build the verification certificate of a codec walk against K_n.

    One pass over ``(labels, layout)`` fills an edge table keyed by packed
    ints ``lo * n + hi``: a ``bytearray`` of n * n bytes when the walk can
    cover a quarter of the C(n, 2) edges, else a dict sized by the walk
    rather than by ``n``.  Every step glues its triangle to the previous one
    across the edge ``{first, v}`` and brings two edges of its own, so the
    walk is good exactly when each step adds two fresh edges: t triangles
    cover 2t + 1 distinct edges, or 2t when circular, since the last step of
    a ring always re-covers the wrap edge ``{x_0, x_1}`` of the first
    triangle.

    The diameter of a good walk needs no search.  Only consecutive
    triangles share an edge, so the dual graph of a good linear walk of t
    triangles is a path, of diameter t - 1, and that of a good ring is a
    cycle, of diameter t // 2.  Any other walk is expanded and measured by
    :func:`dual_diameter`; its dual is connected, because consecutive
    triangles always share ``{first, v}``.

    ``circular`` is :func:`is_ring`.  ``matches_optimum`` requires
    goodness, a linear walk and diameter equal to :func:`hs_max_diameter`.

    Raises:
        ValueError: on a degenerate triangle, with the message of
            :func:`expand_pair`.
    """
    n, xs, layout, t = pair.n, pair.labels, pair.layout, len(pair)
    f, u, v = xs[0], xs[1], xs[2]
    if f == u or f == v or u == v:
        raise ValueError("degenerate triangle at index 0")
    dense = 4 * (2 * t + 1) >= n * (n - 1) // 2
    seen = bytearray(n * n) if dense else {}
    row = list(range(0, n * n, n))  # row[a] = a * n, read faster than computed
    for a, b in ((f, u), (f, v), (u, v)):
        seen[row[a] + b if a < b else row[b] + a] = 1
    # A step keeps f, its first, across 1 bits.  The first degenerate step has
    # w == f or w == v, a diagonal key: f == v needs an earlier degenerate step.
    for w, v, u, y in zip(xs[3:], xs[2:], xs[1:], layout):
        if not y:
            f = u
        seen[row[f] + w if f < w else row[w] + f] = 1
        seen[row[v] + w if v < w else row[w] + v] = 1
    if seen[:: n + 1].count(1) if dense else any(map(seen.__contains__, range(0, n * n, n + 1))):
        expand_pair(pair)  # raises, naming the first degenerate step

    circular = is_ring(pair)
    covered = seen.count(1) if dense else len(seen)
    good = covered == 2 * t + 1 - circular
    if good:
        diameter = t // 2 if circular else t - 1
    else:
        diameter = dual_diameter(expand_pair(pair))
    # A dense table skips at C speed the rows with no uncovered edge.
    hit = seen.__getitem__ if dense else seen.__contains__
    rows = [a for a in range(n) if not dense or seen.find(0, a * n + a + 1, a * n + n) >= 0]
    uncovered = [(a, b) for a in rows for b in range(a + 1, n) if not hit(a * n + b)]
    optimum = hs_max_diameter(n)
    return Certificate(
        good=good,
        circular=circular,
        covered_edges=covered,
        diameter=diameter,
        optimum=optimum,
        matches_optimum=good and not circular and diameter == optimum,
        uncovered_edges=uncovered,
    )
