"""Walk surgery and the frozenset layer, compiled on first use.

:mod:`diamforge.core` keeps the codec records and :func:`~diamforge.core.certify`,
all that a good walk needs; this module holds the rest of the walk tools.
:func:`expand_pair` decodes a codec walk into frozenset triangles, which
:func:`is_good`, the edge counts and :func:`dual_diameter` read, and which
``certify`` needs only for a walk that is not good.  :func:`encode_triples`
encodes the attachment plans, and :func:`reverse_walk`, :func:`join_walks` and
:func:`canonical` assemble codec walks.  ``construct`` and ``table`` run
this module; ``search``, ``decompose`` and a ``verify`` of a good walk never
compile it.  Every name in ``__all__`` is also importable from
:mod:`diamforge.core`.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain, combinations, repeat

from ._base import Edge, Record
from .core import LabelsLayout, triangle_at

Triangle = frozenset[int]

__all__ = [
    "Triangle",
    "TriangleSeq",
    "all_edges",
    "expand_pair",
    "reverse_walk",
    "join_walks",
    "canonical",
    "encode_triples",
    "covered_edges",
    "edge_multiplicities",
    "is_good",
    "dual_diameter",
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



def reverse_walk(pair: LabelsLayout) -> LabelsLayout:
    """The walk from its last triangle back, for a walk :func:`encode_triples`
    accepts, with the first labels and bits :func:`canonical` gives that
    orientation.  Each step back adds the vertex its forward step dropped, and
    from the third on carries the bit of the forward step two ahead of it:
    the labels are the reversed labels but at the 1 bits, found at C speed."""
    xs, ys, t = pair.labels, pair.layout, len(pair)
    # The last two labels, the last triangle's carried vertex, then back[t + 2 - j]
    # for step j: the label it drops, j - 1 unless bit j or j - 1 is 1.
    back, ones, j = list(xs[::-1]), bytes(ys), 0
    while j := ones.find(1, j) + 1:  # step j has a 1 bit
        if j < 2 or not ys[j - 2]:  # triangle j starts a run of 1 bits and carries label j - 1
            carried = xs[j - 1]
        back[t + 2 - j] = xs[j]
        if j < t - 1 and not ys[j]:
            back[t + 1 - j] = carried
    back[2] = triangle_at(pair, t - 1)[0]
    bits = (0, 0)[: len(ys)]
    if ys:  # the last triangle back is the first; a lone triangle keeps its labels reversed
        back[:3], bits = _seed(back, bits, (*(set(xs[:3]) - set(back[-2:])), *back[-2:]))
    labels = tuple(back)
    del back  # before the bits are written, which lowers the peak of a long walk
    return LabelsLayout._of(pair.n, labels, tuple(bytes(bits) + ones[:1:-1]))


def join_walks(*parts: LabelsLayout) -> LabelsLayout:
    """The walk of ``parts``' triangles in order, written once, with the first
    labels and bits :func:`canonical` gives that orientation.  Each part's
    first triangle must meet the last of the part before in an edge, as the
    next triangle of a good walk does; only the bits of its first three
    triangles depend on what precedes.  One walk already in that form comes
    back as itself.

    The result has the largest ``n`` of the parts, so every label of each is
    in range.  A part that does not continue the one before raises
    ValueError."""
    head = parts[0]
    c, u, v = triangle_at(head, len(head) - 1)
    labels, layout = [], []  # what follows head's labels and bits
    for tail in parts[1:]:
        fresh = set(tail.labels[:3]) - {c, u, v}
        if len(fresh) != 1:
            raise ValueError(f"tail's first triangle {sorted(tail.labels[:3])} does not "
                             f"continue head's last {sorted((c, u, v))}")
        (w0,) = fresh
        bits = []
        for j, w in enumerate((w0, *tail.labels[3:5])):
            bits.append(int(u not in triangle_at(tail, j)))
            c, u, v = (c if bits[-1] else u), v, w
        i, k = len(labels), len(layout)
        labels += tail.labels
        layout += tail.layout
        labels[i : i + 3] = (w0,)  # tail's first triangle adds only w0
        layout[k : k + 2] = bits  # and the bits of its first three depend on head
        if len(tail) > 3:  # the same vertices in either encoding of tail's first labels
            c, u, v = triangle_at(tail, len(tail) - 1)
    seed, bits = _seed(head.labels, (head.layout[:2] + tuple(layout[:2]))[:2], (c, u, v))
    labels, layout = _glued(head.labels, labels, seed), _glued(head.layout, layout, bits)
    if labels is head.labels and layout is head.layout:
        return head
    return LabelsLayout._of(max(p.n for p in parts), labels, layout)


def _glued(head, rest, first):
    """``head + tuple(rest)`` with ``first`` for its first items, each item
    copied at most twice: ``head`` itself when nothing changes."""
    if head[: len(first)] == first and len(rest) <= len(head):
        return head + tuple(rest)
    rest[:0] = head
    rest[: len(first)] = first
    return tuple(rest)


def _seed(xs, ys, end):
    """The first three labels and two bits :func:`canonical` gives the walk
    whose first labels and bits are ``xs`` and ``ys``, and whose last
    triangle's state (carried, u, v) is ``end``, read only with three or more
    triangles.  A single triangle's labels are sorted."""
    if not ys:
        return tuple(sorted(xs[:3])), ()
    # Triangle 1 keeps label 0 across a 1 bit and drops it across a 0 bit;
    # triangle 2 carries label 2 across a 0 bit and kept across a 1 bit.
    x0, kept = (xs[1], xs[0]) if ys[0] else (xs[0], xs[1])
    x1, x2 = sorted((kept, xs[2]))
    if end[1:] == (x0, x1) and end[0] != x2 and len(ys) > 1:
        x1, x2 = x2, x1  # the labels would end on the first two and decode as a ring
    return (x0, x1, x2), (0, int((kept if ys[1:] and ys[1] else xs[2]) != x2))[: len(ys)]


def canonical(pair: LabelsLayout) -> LabelsLayout:
    """The form :func:`encode_triples` gives a linear walk: the end with the
    smaller sorted triangle first, then the vertex it drops, then the two it
    shares with the next triangle in ascending order, unless the labels would
    then end on the first two and decode as a ring; then in the other order.
    A walk already in that form comes back as itself, not copied."""
    if sorted(triangle_at(pair, len(pair) - 1)) < sorted(pair.labels[:3]):
        return reverse_walk(pair)
    return join_walks(pair)


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
    # The first triangle, the two it shares with the next last: canonical then
    # writes the first labels in their form.
    shared = list(map(frozenset.intersection, tris, tris[1:]))
    labels = sorted(tris[0] - tris[1]) + sorted(shared[0]) if shared else sorted(tris[0])
    layout: list[int] = []
    u, v = labels[1:]
    # Triangle k shares v, the label before its own, and u (bit 0) or the
    # carried label (bit 1) with the triangle before it.
    for k, (pair, new) in enumerate(zip(shared, map(frozenset.difference, tris[1:], shared)), 1):
        if len(pair) != 2:
            raise ValueError(f"cannot encode: triangles {k - 1} and {k} share {len(pair)} vertices")
        if v not in pair:
            raise ValueError(
                f"cannot encode: triangle {k} reattaches to the edge already "
                f"shared by triangles {k - 2} and {k - 1}"
            )
        layout.append(int(u not in pair))
        (w,) = new
        labels.append(w)
        u, v = v, w
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
