"""Generating sequences over Z/nZ and their circular triangle complexes.

A generating sequence for n = 4k+1 is a list of nonzero step terms a_0..a_{m-1}
plus a set of turn indices.  Walking x_{i+1} = x_i + a_{i mod m} and closing
after m*n steps produces a circular good sequence of m*n triangles whose edge
residues are exactly the step terms ("black") and their consecutive sums
("blue").  A valid sequence covers 2m of the (n-1)/2 residue classes twice or
once in a controlled pattern, which is what the assembly layer relies on when
it cuts the ring open and grafts attachments onto the exposed edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import Edge, LabelsLayout, TriangleSeq, edge, edge_multiplicities, expand_pair

__all__ = [
    "GeneratingSequence",
    "GenSeqReport",
    "CutSpec",
    "canonical_residue",
    "blue_terms",
    "verify_generating_sequence",
    "gs_full",
    "gs_missing_12",
    "gs_missing_1248",
    "expand_to_circular",
    "expand_pair_of",
    "cut_circular",
    "cut_exposing",
]


@dataclass
class GeneratingSequence:
    """Step terms and turn positions over Z/nZ, n = 4k+1.

    Terms are reduced mod n at construction; negative inputs are fine.
    """

    n: int
    terms: list[int]
    turns: frozenset[int]

    def __post_init__(self) -> None:
        if self.n < 5 or self.n % 4 != 1:
            raise ValueError(f"modulus must be 4k+1 with k >= 1, got {self.n}")
        m = len(self.terms)
        if m < 1:
            raise ValueError("need at least one term")
        if m > (self.n - 1) // 4:
            raise ValueError(f"too many terms: {m} > (n-1)/4 = {(self.n - 1) // 4}")
        self.terms = [a % self.n for a in self.terms]
        for i, a in enumerate(self.terms):
            if a == 0:
                raise ValueError(f"term {i} vanishes mod {self.n}")
        self.turns = frozenset(self.turns)
        for i in self.turns:
            if not 0 <= i < m:
                raise ValueError(f"turn index {i} out of range for {m} terms")

    @property
    def m(self) -> int:
        return len(self.terms)


@dataclass
class GenSeqReport:
    valid: bool
    missing: frozenset[int]
    reason: str | None


@dataclass
class CutSpec:
    """Which edge to destroy when cutting a ring, and which exposed edge(s)
    the resulting linear sequence must present at its ends."""

    destroyed_edge: Edge
    end_edge: Edge
    second_end_edge: Edge | None = None

    def __post_init__(self) -> None:
        self.destroyed_edge = edge(*self.destroyed_edge)
        self.end_edge = edge(*self.end_edge)
        if self.second_end_edge is not None:
            self.second_end_edge = edge(*self.second_end_edge)
        if self.destroyed_edge == self.end_edge:
            raise ValueError("destroyed edge cannot also be an end edge")


def canonical_residue(value: int, n: int) -> int:
    """Map a difference mod n to its residue class in {1..(n-1)/2}."""
    r = value % n
    return min(r, n - r)


def blue_terms(gs: GeneratingSequence) -> list[int]:
    """The consecutive-sum terms c_0..c_{m-1} (mod n).

    c_i = a_i + a_{i+1}, except at a turn index where the sum stretches one
    term further back: c_i = a_{i-1} + a_i + a_{i+1}.  Indices wrap mod m.
    """
    a, m, n = gs.terms, gs.m, gs.n
    out = []
    for i in range(m):
        c = a[i] + a[(i + 1) % m]
        if i in gs.turns:
            c += a[(i - 1) % m]
        out.append(c % n)
    return out


def verify_generating_sequence(gs: GeneratingSequence) -> GenSeqReport:
    """Check the three validity conditions and report uncovered residues.

    Valid iff the term sum is coprime to n, no two turn indices are cyclically
    adjacent, and the 4m signed values (all +-a_i and +-c_i) are pairwise
    distinct mod n.  ``missing`` lists the residue classes of {1..(n-1)/2}
    hit by neither a black nor a blue term; it is computed even when the
    sequence is invalid.
    """
    n, m = gs.n, gs.m
    blues = blue_terms(gs)
    covered = {canonical_residue(v, n) for v in gs.terms + blues}
    missing = frozenset(range(1, (n - 1) // 2 + 1)) - covered

    total = sum(gs.terms) % n
    if gcd(total, n) != 1:
        return GenSeqReport(False, missing, f"term sum {total} shares a factor with {n}")
    for i in gs.turns:
        if (i + 1) % m in gs.turns:
            return GenSeqReport(False, missing, f"turns at {i} and {(i + 1) % m} are adjacent")
    signed = {v % n for v in gs.terms + blues}
    signed |= {(-v) % n for v in gs.terms + blues}
    if len(signed) != 4 * m:
        return GenSeqReport(
            False, missing, f"signed values collide: {len(signed)} distinct, expected {4 * m}"
        )
    return GenSeqReport(True, missing, None)


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------

# Small cases with no closed form; transcribed literal rows.
_FULL_ROWS: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    3: ((1, 2, 4), ()),
    4: ((1, 2, 6, 4), ()),
    5: ((1, 2, 7, 6, 4), ()),
}

_MISSING12_ROWS: dict[int, tuple[tuple[int, ...], tuple[int, ...], Edge]] = {
    4: ((3, 4, 8), (), (0, 6)),
    5: ((4, 7, 6, -9), (), (6, 14)),
    6: ((4, 10, 7, 6, -9), (), (6, 18)),
    7: ((11, 8, -12, 7, 6, 3), (), (0, 20)),
}

_MISSING1248_ROWS: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    7: ((5, 14, 3, 6, 11), (1,)),
    8: ((3, 9, 5, 6, 11, 7), (2,)),
}


def gs_full(k: int) -> GeneratingSequence:
    """A length-k generating sequence mod 4k+1 covering every residue.

    Used for the n = 4k+1 constructions, where the cut ring already touches
    all of K_n except one spare edge.
    """
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    n = 4 * k + 1
    if k in _FULL_ROWS:
        terms, turns = _FULL_ROWS[k]
        return GeneratingSequence(n, list(terms), frozenset(turns))
    if k % 2 == 0:
        ell = k // 2
        terms = []
        for i in range(1, ell + 1):
            terms += [4 * i - 1, 4 * i - 2]
        return GeneratingSequence(n, terms, frozenset({k - 1}))
    ell = (k - 1) // 2
    terms = [-4 * ell + 6, 4 * ell + 2, -4, -9, 2, 1, 11]
    for j in range(ell - 3):
        terms += [6 + 4 * j, 15 + 4 * j]
    return GeneratingSequence(n, terms, frozenset())


def gs_missing_12(k: int, end: str = "long") -> tuple[GeneratingSequence, CutSpec]:
    """A length-(k-1) sequence mod 4k+1 missing exactly residues 1 and 2.

    The returned CutSpec opens the ring so that an attachable edge is exposed
    at an end: with ``end="long"`` the edge {0, 4k-2} (used by the n = 4k+4
    assembly), with ``end="seven"`` the edge {0, 7} obtained by destroying
    {0, 13} (used by the n = 4k+3 assembly, only available for k >= 5).
    """
    if k < 4:
        raise ValueError(f"need k >= 4, got {k}")
    n = 4 * k + 1
    if k in _MISSING12_ROWS:
        terms, turns, long_cut = _MISSING12_ROWS[k]
        gs = GeneratingSequence(n, list(terms), frozenset(turns))
    elif k % 2 == 1:
        ell = (k - 1) // 2
        terms = [8, -5, 4 * ell - 1, 4, -16]
        for i in range(1, ell - 2):
            terms += [4 * i + 3, 4 * i + 2]
        terms.append(4 * ell - 5)
        gs = GeneratingSequence(n, terms, frozenset({2}))
        long_cut = (5, 2 * k + 5)
    else:
        ell = k // 2
        terms = [4, 4 * ell - 6, 9, -12]
        for i in range(1, ell - 2):
            terms += [4 * i + 3, 4 * i + 2]
        terms.append(4 * ell - 5)
        gs = GeneratingSequence(n, terms, frozenset({0}))
        long_cut = (9, 2 * k + 7)

    if end == "long":
        spec = CutSpec(destroyed_edge=long_cut, end_edge=(0, 4 * k - 2))
    elif end == "seven":
        if k < 5:
            raise ValueError("the {0,13} cut needs k >= 5")
        spec = CutSpec(destroyed_edge=(0, 13), end_edge=(0, 7))
    else:
        raise ValueError(f"unknown end selector {end!r}")
    return gs, spec


def gs_missing_1248(k: int) -> tuple[GeneratingSequence, CutSpec]:
    """A length-(k-2) sequence mod 4k+1 missing exactly residues 1, 2, 4, 8.

    The CutSpec destroys {0, 17}, leaving {6, 17} exposed at the first
    triangle of the opened ring and {0, 6} at the last (the n = 4k+6
    assembly grafts one attachment onto each).
    """
    if k < 7:
        raise ValueError(f"need k >= 7, got {k}")
    n = 4 * k + 1
    if k in _MISSING1248_ROWS:
        terms, turns = _MISSING1248_ROWS[k]
        gs = GeneratingSequence(n, list(terms), frozenset(turns))
    elif k % 2 == 1:
        ell = (k - 1) // 2
        terms = [7, 5, 4 * ell - 6, 13, -16, -6, 17]
        for i in range(ell - 4):
            terms += [10 + 4 * i, 15 + 4 * i]
        gs = GeneratingSequence(n, terms, frozenset({4, 6}))
    else:
        ell = k // 2
        terms = [-4 * ell + 1, 5, -4 * ell + 5, -3, -13, 6]
        for j in range(ell - 4):
            terms += [11 + 4 * j, 10 + 4 * j]
        gs = GeneratingSequence(n, terms, frozenset({1}))
    spec = CutSpec(destroyed_edge=(0, 17), end_edge=(6, 17), second_end_edge=(0, 6))
    return gs, spec


# ---------------------------------------------------------------------------
# expansion and cutting
# ---------------------------------------------------------------------------

def expand_to_circular(gs: GeneratingSequence) -> LabelsLayout:
    """Unroll a valid sequence into the codec pair of its circular complex.

    Labels follow x_0 = 0, x_{i+1} = x_i + a_{i mod m} for m*n steps plus one
    (so the list closes with x_{mn} = 0, x_{mn+1} = x_1), and the layout bit
    at index i is 1 exactly when triangle i-2 sits at a turn position.  A
    turn cannot be expressed on the seed triangle, so the terms are first
    rotated cyclically until index 0 is turn-free; rotation does not change
    the complex.
    """
    report = verify_generating_sequence(gs)
    if not report.valid:
        raise ValueError(f"invalid generating sequence: {report.reason}")
    n, m = gs.n, gs.m
    terms, turns = list(gs.terms), set(gs.turns)
    for _ in range(m):
        if 0 not in turns:
            break
        terms = terms[1:] + terms[:1]
        turns = {(i - 1) % m for i in turns}

    labels = [0]
    x = 0
    for i in range(m * n + 1):
        x = (x + terms[i % m]) % n
        labels.append(x)
    layout = [1 if (i - 2) % m in turns else 0 for i in range(3, m * n + 2)]
    return LabelsLayout(n, labels, layout)


def expand_pair_of(gs: GeneratingSequence) -> TriangleSeq:
    """Convenience: expand to the circular TriangleSeq."""
    seq = expand_pair(expand_to_circular(gs))
    if not seq.circular:
        raise ValueError("expansion did not close into a ring")
    return seq


def cut_exposing(seq: TriangleSeq, end_edge: Edge) -> CutSpec:
    """Find the deterministic cut that leaves ``end_edge`` attachable.

    Scans the ring from index 0 for the first triangle whose removal leaves
    ``end_edge`` covered exactly once and sitting in a terminal triangle.
    The destroyed edge is the scanned triangle's uniquely covered edge.
    """
    if not seq.circular:
        raise ValueError("sequence is not circular")
    end_edge = edge(*end_edge)
    mult = edge_multiplicities(seq)
    tris = seq.triangles
    t = len(tris)
    holders = [i for i, tri in enumerate(tris) if end_edge[0] in tri and end_edge[1] in tri]
    if not holders:
        raise ValueError(f"edge {end_edge} is not covered")

    for c in range(t):
        left = [h for h in holders if h != c]
        if len(left) != 1:
            continue
        if left[0] not in ((c - 1) % t, (c + 1) % t):
            continue
        blues = [e for e in _triangle_edges(tris[c]) if mult[e] == 1]
        if len(blues) != 1 or blues[0] == end_edge:
            continue
        return CutSpec(destroyed_edge=blues[0], end_edge=end_edge)
    raise ValueError(f"no cut exposes {end_edge} at an end")


def _triangle_edges(tri: frozenset[int]) -> list[Edge]:
    a, b, c = sorted(tri)
    return [(a, b), (a, c), (b, c)]


def cut_circular(seq: TriangleSeq, spec: CutSpec) -> TriangleSeq:
    """Open a circular sequence by removing one triangle.

    The destroyed edge must be covered by exactly one triangle; that triangle
    is removed and the ring is unrolled from the triangle after it, so the
    covered edge count drops by exactly one (the destroyed edge).  Each end
    edge must then be attachable: covered once, in a terminal triangle; when
    both are given they must sit at opposite ends.  Each check scans the ring
    once for the triangles that hold its edge.

    The walk comes back oriented for its attachments: a lone ``end_edge``
    sits in the last triangle; with two end edges, ``end_edge`` sits in the
    first triangle and ``second_end_edge`` in the last.

    Raises:
        ValueError: destroyed edge covered != 1 times, or end constraints
            unsatisfiable.
    """
    if not seq.circular:
        raise ValueError("sequence is not circular")
    ring = seq.triangles
    t = len(ring) - 1

    def holders(e: Edge) -> list[int]:
        return [i for i, tri in enumerate(ring) if e[0] in tri and e[1] in tri]

    d = edge(*spec.destroyed_edge)
    cut = holders(d)
    if len(cut) != 1:
        raise ValueError(f"destroyed edge {d} is covered {len(cut)} times, need exactly 1")
    (c,) = cut
    positions = []
    for e in (spec.end_edge, spec.second_end_edge):
        if e is None:
            continue
        e = edge(*e)
        # Positions in the walk that starts just after triangle c.
        held = [(i - c - 1) % (t + 1) for i in holders(e) if i != c]
        if len(held) != 1:
            raise ValueError(f"end edge {e} is covered {len(held)} times after the cut")
        if held[0] not in (0, t - 1):
            raise ValueError(f"end edge {e} is not in a terminal triangle after the cut")
        positions.append(held[0])
    if len(positions) == 2 and positions[0] == positions[1] and t > 1:
        raise ValueError("end edges do not sit at opposite ends")
    linear = ring[c + 1 :] + ring[:c]
    if positions[-1] != t - 1:
        linear = linear[::-1]
    return TriangleSeq(linear, circular=False)
