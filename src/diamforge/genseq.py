"""Generating sequences over Z/nZ and their circular triangle complexes.

A generating sequence for n = 4k+1 is a list of nonzero step terms a_0..a_{m-1}
plus a set of turn indices.  Walking x_{i+1} = x_i + a_{i mod m} and closing
after m*n steps produces a circular good sequence of m*n triangles whose edge
residues are exactly the step terms ("black") and their consecutive sums
("blue").  A valid sequence covers 2m of the (n-1)/2 residue classes twice or
once in a controlled pattern.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from math import gcd

from ._base import canonical_residue
from .core import Edge, LabelsLayout, Record, edge, is_ring, triangle_at

__all__ = [
    "GeneratingSequence",
    "GenSeqReport",
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


class GeneratingSequence(Record):
    """Step terms and turn positions over Z/nZ, n = 4k+1.

    Terms are reduced mod n at construction; negative inputs are fine.
    """

    __slots__ = ("n", "terms", "turns")

    def __init__(self, n: int, terms: list[int], turns: frozenset[int]) -> None:
        self.n, self.terms, self.turns = n, terms, turns
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


class GenSeqReport(Record):
    __slots__ = ("valid", "missing", "reason")

    def __init__(self, valid: bool, missing: frozenset[int], reason: str | None) -> None:
        self.valid, self.missing, self.reason = valid, missing, reason


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
    # 4m distinct signed values iff 2m classes and none is 0, whose signs coincide.
    if 0 in covered or len(covered) != 2 * m:
        distinct = 2 * len(covered - {0}) + (0 in covered)
        reason = f"signed values collide: {distinct} distinct, expected {4 * m}"
        return GenSeqReport(False, missing, reason)
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

_MISSING12_ROWS: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    4: ((3, 4, 8), ()),
    5: ((4, 7, 6, -9), ()),
    6: ((4, 10, 7, 6, -9), ()),
    7: ((11, 8, -12, 7, 6, 3), ()),
}

_MISSING1248_ROWS: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    7: ((5, 14, 3, 6, 11), (1,)),
    8: ((3, 9, 5, 6, 11, 7), (2,)),
}


def _modulus(k: int, least: int) -> int:
    """n = 4k+1, refused below ``least``, the smallest modulus of a family."""
    n = 4 * k + 1
    if n < least:
        raise ValueError(f"n = {n} is below {least}, the smallest modulus of this family")
    return n


def gs_full(k: int) -> GeneratingSequence:
    """A length-k generating sequence mod 4k+1 covering every residue."""
    n = _modulus(k, 13)
    if k in _FULL_ROWS:
        terms, turns = _FULL_ROWS[k]
    elif k % 2 == 0:
        terms, turns = [], (k - 1,)
        for i in range(1, k // 2 + 1):
            terms += [4 * i - 1, 4 * i - 2]
    else:
        ell, turns = (k - 1) // 2, ()
        terms = [-4 * ell + 6, 4 * ell + 2, -4, -9, 2, 1, 11]
        for j in range(ell - 3):
            terms += [6 + 4 * j, 15 + 4 * j]
    return GeneratingSequence(n, list(terms), frozenset(turns))


def gs_missing_12(k: int) -> GeneratingSequence:
    """A length-(k-1) sequence mod 4k+1 missing exactly residues 1 and 2."""
    n = _modulus(k, 17)
    if k in _MISSING12_ROWS:
        terms, turns = _MISSING12_ROWS[k]
    elif k % 2 == 1:
        ell, turns = (k - 1) // 2, (2,)
        terms = [8, -5, 4 * ell - 1, 4, -16]
        for i in range(1, ell - 2):
            terms += [4 * i + 3, 4 * i + 2]
        terms.append(4 * ell - 5)
    else:
        ell, turns = k // 2, (0,)
        terms = [4, 4 * ell - 6, 9, -12]
        for i in range(1, ell - 2):
            terms += [4 * i + 3, 4 * i + 2]
        terms.append(4 * ell - 5)
    return GeneratingSequence(n, list(terms), frozenset(turns))


def gs_missing_1248(k: int) -> GeneratingSequence:
    """A length-(k-2) sequence mod 4k+1 missing exactly residues 1, 2, 4, 8."""
    n = _modulus(k, 29)
    if k in _MISSING1248_ROWS:
        terms, turns = _MISSING1248_ROWS[k]
    elif k % 2 == 1:
        ell, turns = (k - 1) // 2, (4, 6)
        terms = [7, 5, 4 * ell - 6, 13, -16, -6, 17]
        for i in range(ell - 4):
            terms += [10 + 4 * i, 15 + 4 * i]
    else:
        ell, turns = k // 2, (1,)
        terms = [-4 * ell + 1, 5, -4 * ell + 5, -3, -13, 6]
        for j in range(ell - 4):
            terms += [11 + 4 * j, 10 + 4 * j]
    return GeneratingSequence(n, list(terms), frozenset(turns))


# ---------------------------------------------------------------------------
# expansion and cutting
# ---------------------------------------------------------------------------

def expand_to_circular(gs: GeneratingSequence) -> LabelsLayout:
    """Unroll a valid sequence into the codec pair of its circular complex.

    Labels follow x_0 = 0, x_{i+1} = x_i + a_{i mod m} for m*n steps plus one
    (so the list closes with x_{mn} = 0, x_{mn+1} = x_1), and the layout bit
    at index i is 1 exactly when triangle i-2 sits at a turn position.  A
    turn cannot be expressed on the seed triangle, so the terms are read
    cyclically from the first turn-free index r; rotation does not change
    the complex.  The bits repeat with period m.

    The labels are written in closed form: with P_q the sum of the first q
    terms and S the sum of all m, x_{jm+q} = P_q + j*S mod n, and since S
    is a unit mod n the labels q, q + m, q + 2m, ... are a rotation of the
    table j*S mod n, one slice assignment each.
    """
    report = verify_generating_sequence(gs)
    if not report.valid:
        raise ValueError(f"invalid generating sequence: {report.reason}")
    n, m = gs.n, gs.m
    r = min(set(range(m)) - gs.turns)
    terms = gs.terms[r:] + gs.terms[:r]
    s = sum(terms) % n
    vertex = tuple(range(n))  # one int object per vertex, shared by all the labels
    perm = [vertex[x % n] for x in range(0, s * n, s)]  # perm[j] = j * s
    # x_{jm+q} = P_q + j*s with P_q = x_q, so labels q, q + m, ... run
    # through perm from the index c with c*s = P_q.
    labels = [0] * (m * n + 2)
    inverse = pow(s, -1, n)  # s is a unit: the report checked gcd(s, n) = 1
    for q, p in enumerate(accumulate(terms[:-1], initial=0)):
        c = p * inverse % n
        labels[q : m * n : m] = perm[c:] + perm[:c]
    labels[-2:] = vertex[0], vertex[terms[0]]  # x_{mn} = 0 closes, x_{mn+1} = x_1
    period = tuple(int((r + j + 1) % m in gs.turns) for j in range(m))
    return LabelsLayout._of(n, tuple(labels), (period * n)[:-1])


def expand_pair_of(gs: GeneratingSequence) -> LabelsLayout:
    """Expand to the ring's codec pair, checking that it closes."""
    ring = expand_to_circular(gs)
    if not is_ring(ring):
        raise ValueError("expansion did not close into a ring")
    return ring


def cut_exposing(ring: LabelsLayout, exposed: Edge) -> Edge:
    """Find the deterministic cut that leaves ``exposed`` attachable.

    Scans the ring from index 0 for the first triangle whose removal leaves
    ``exposed`` covered exactly once and sitting in a terminal triangle,
    and returns the edge that cut destroys: the scanned triangle's uniquely
    covered edge.  That triangle holds ``exposed`` or sits next to a
    triangle that does, so only those are scanned.
    """
    if not is_ring(ring):
        raise ValueError("sequence is not circular")
    exposed = edge(*exposed)
    holders = _holders(ring, exposed)
    if not holders:
        raise ValueError(f"edge {exposed} is not covered")

    t = len(ring)
    for c in sorted({(h + d) % t for h in holders for d in (-1, 0, 1)}):
        left = [h for h in holders if h != c]
        if len(left) != 1 or left[0] not in ((c - 1) % t, (c + 1) % t):
            continue
        sides = combinations(sorted(triangle_at(ring, c)), 2)
        blues = [e for e in sides if len(_holders(ring, e)) == 1]
        if len(blues) != 1 or blues[0] == exposed:
            continue
        return blues[0]
    raise ValueError(f"no cut exposes {exposed} at an end")


def cut_circular(ring: LabelsLayout, destroyed_edge: Edge) -> LabelsLayout:
    """Open a circular walk by removing the one triangle that holds
    ``destroyed_edge``.

    The ring is unrolled from the triangle after it, so the covered edge
    count drops by exactly one (the destroyed edge).  Neither end is
    checked or turned round: the assembly joins a plan at an end, and the
    join and the walk's certificate check the edge it attaches to.

    The step back into triangle 0 adds label 2 under a 0 bit, so the cut
    walk is a rotation of the ring's labels and bits behind a new seed.

    Raises:
        ValueError: the ring is not circular, or the destroyed edge is
            covered other than once.
    """
    if not is_ring(ring):
        raise ValueError("sequence is not circular")
    d = edge(*destroyed_edge)
    cut = _holders(ring, d)
    if len(cut) != 1:
        raise ValueError(f"destroyed edge {d} is covered {len(cut)} times, need exactly 1")
    (c,) = cut
    t = len(ring) - 1
    s, xs, bits = (c + 1) % (t + 1), ring.labels, (0,) + ring.layout
    labels = (triangle_at(ring, s)[0],) + xs[c + 2 :] + xs[2 : c + 2]
    return LabelsLayout._of(ring.n, labels, bits[s + 1 :] + bits[: s - 1] if s else bits[1:-1])


def _holders(ring: LabelsLayout, e: Edge) -> list[int]:
    """The sorted indices of the triangles of ``ring`` that hold edge ``e``.

    Only the positions k of ``e[0]`` are read: triangle j holds labels j + 1
    and j + 2, and carries label k from triangle k on while its bits are 1.
    Not every triangle of that window holds ``e[0]``, so both ends are tested."""
    last, bits, (x, y) = len(ring) - 1, ring.layout, e
    held = set()
    for k in _positions(ring.labels, x):
        j = max(k - 2, 0)
        while j <= last and (j <= k or bits[j - 1]):
            tri = triangle_at(ring, j)
            if x in tri and y in tri:
                held.add(j)
            j += 1
    return sorted(held)


def _positions(xs: tuple[int, ...], x: int):
    """The indices of ``x`` in ``xs``, found by :meth:`tuple.index` jumps."""
    i = -1
    try:
        while True:
            i = xs.index(x, i + 1)
            yield i
    except ValueError:
        return
