"""Triangle walk complexes: the codec and its certificate.

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
glued to.  :func:`certify` reads that form directly, in one pass.  The
frozenset helpers, which serve walks built triangle by triangle and the walks
that are not good, and the walk surgery live in :mod:`diamforge._walks`,
whose code runs only when one of them is first used; each of their names in
``__all__`` resolves here too, through the module ``__getattr__``.
"""

from __future__ import annotations

# Registered lazily by the package: their code runs on first attribute access.
from . import _walks, genseq
from ._base import Edge, Record, edge

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


def __getattr__(name: str):
    # The names of __all__ not defined here are _walks' own objects.
    if name in __all__:
        return getattr(_walks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
# has about n**2 / 4 triangles and construct peaks near 43 bytes per triangle,
# as json or text: 253 MB spawned at n = 5000 (6,248,749 triangles) on a
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

    A walk of more than 4n triangles that is mostly one slice of a ring skips
    the pass over that slice: :func:`~diamforge.genseq.ring_window` proves
    from one period that the window adds two fresh edges per step (A. Rosa's
    difference method), the pass runs over the steps outside it into a dict,
    and :func:`~diamforge.genseq.window_uncovered` lists what neither covers,
    class by class.  Either way the covered edges are the C(n, 2) less the
    uncovered ones.

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
    # At most 4n steps cost the loop about what finding a window does.
    window = genseq.ring_window(pair) if t > 4 * n else None
    dense = not window and 4 * (2 * t + 1) >= n * (n - 1) // 2
    seen = bytearray(n * n) if dense else {}
    row = list(range(0, n * n, n))  # row[a] = a * n, read faster than computed
    for a, b in ((f, u), (f, v), (u, v)):
        seen[row[a] + b if a < b else row[b] + a] = 1
    # The loop runs over triangles 1..a-1 and b..t-1, outside the window a..b-1.
    # A step keeps f, its first, across 1 bits.  The first degenerate step has
    # w == f or w == v, a diagonal key: f == v needs an earlier degenerate step.
    a, b = window[:2] if window else (t, t)
    for start, stop in ((1, a), (b, t)):
        f = triangle_at(pair, start - 1)[0]
        for w, v, u, y in zip(xs[start + 2 : stop + 2], xs[start + 1 : stop + 1], xs[start:stop],
                              layout[start - 1 : stop - 1]):
            if not y:
                f = u
            seen[row[f] + w if f < w else row[w] + f] = 1
            seen[row[v] + w if v < w else row[w] + v] = 1
    if seen[:: n + 1].count(1) if dense else any(map(seen.__contains__, range(0, n * n, n + 1))):
        _walks.expand_pair(pair)  # raises, naming the first degenerate step

    circular = is_ring(pair)
    if window:
        uncovered = genseq.window_uncovered(window, n, seen)
    else:  # a dense table skips at C speed the rows with no uncovered edge
        hit = seen.__getitem__ if dense else seen.__contains__
        rows = [a for a in range(n) if not dense or seen.find(0, a * n + a + 1, a * n + n) >= 0]
        uncovered = [(a, b) for a in rows for b in range(a + 1, n) if not hit(a * n + b)]
    covered = n * (n - 1) // 2 - len(uncovered)
    good = covered == 2 * t + 1 - circular
    if good:
        diameter = t // 2 if circular else t - 1
    else:  # through the module, where the benchmark's tracer wraps both
        diameter = _walks.dual_diameter(_walks.expand_pair(pair))
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
