"""Generating sequences over Z/nZ and their circular triangle complexes.

A generating sequence for n = 4k+1 is a list of nonzero step terms a_0..a_{m-1}
plus a set of turn indices.  Walking x_{i+1} = x_i + a_{i mod m} and closing
after m*n steps produces a circular good sequence of m*n triangles whose edge
residues are exactly the step terms ("black") and their consecutive sums
("blue").  A valid sequence covers 2m of the (n-1)/2 residue classes twice or
once in a controlled pattern.

:func:`ring_window` finds such a ring's slice inside any codec walk, and
:func:`window_uncovered` lists what it leaves, for :func:`core.certify`.
"""

from __future__ import annotations

from itertools import accumulate, chain, combinations
from math import gcd
from operator import sub

from ._base import canonical_residue, distinct_classes
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
    "ring_window",
    "window_uncovered",
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
    if not distinct_classes(gs.terms + blues, n):
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
    perm = [vertex[x % n] for x in range(0, s * n, s)] * 2  # perm[j] = j * s, twice round
    # x_{jm+q} = P_q + j*s with P_q = x_q, so labels q, q + m, ... run
    # through perm from the index c with c*s = P_q.
    labels = [0] * (m * n + 2)
    inverse = pow(s, -1, n)  # s is a unit: the report checked gcd(s, n) = 1
    for q, p in enumerate(accumulate(terms[:-1], initial=0)):
        c = p * inverse % n
        labels[q : m * n : m] = perm[c : c + n]
    labels[-2:] = vertex[0], vertex[terms[0]]  # x_{mn} = 0 closes, x_{mn+1} = x_1
    period = tuple(int((r + j + 1) % m in gs.turns) for j in range(m))
    return LabelsLayout._of(n, tuple(labels), tuple((bytes(period) * n)[:-1]))


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
    xs, ys, s = ring.labels, ring.layout, (c + 1) % len(ring)
    # Triangle s carries its own label across a 0 bit: the labels are then one rotation.
    head = xs[c + 1 :] if s and not ys[c] else (triangle_at(ring, s)[0],) + xs[c + 2 :]
    layout = ys[c + 1 :] + ((0,) + ys[: c - 1] if c else ()) if s else ys[:-1]
    return LabelsLayout._of(ring.n, head + xs[2 : c + 2], layout)


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


# ---------------------------------------------------------------------------
# the periodic window of a walk, for core.certify
# ---------------------------------------------------------------------------

def ring_window(pair: LabelsLayout) -> tuple | None:
    """The window of ``pair`` that repeats like a ring, checked by Rosa's
    difference method; None when there is none.

    A ring of m terms over Z_n0 repeats with period m: label i + m is label
    i plus the term sum S, mod n0, and the layout repeats (see
    :func:`expand_to_circular`).  n0, m and S are read from the labels:

    - n0 - 1 is the largest label of the middle half, or of its first 16n
      labels.  These hold 16n / m translates of each of the m columns, so a
      ring whose m is n/4 misses its top vertex there with odds near e^-16,
      and a miss costs the window, not the certificate;
    - m is the first return of the middle step's residue, within a quarter
      of the walk, and S the middle label's move over one period.

    The window's ends are where a scan in from each end of the walk first
    finds a full period that repeats.  Between them each column of labels
    i, i + m, ... is compared at C speed with a slice of the table j*S mod
    n0, and the bits with themselves m steps on.  The window is triangles
    a..b-1, where triangle a has a 0 bit and so carries its own label.

    Step i + jm then adds the edges of step i translated by jS, so the
    window adds 2(b - a) distinct edges when the 2m differences of one
    period lie in distinct non-zero +- classes, S is a unit mod n0 and the
    window is shorter than a full turn of m * n0 triangles (A. Rosa, "On
    certain valuations of the vertices of a graph", Theory of Graphs, Rome
    1966, 1967).  A longer run is cut short of a full turn.

    Returns ``(a, b, n0, S, slots)``: ``slots`` maps each difference d of
    the first period to ``(x, r)``, and the window's edges of class d are
    {x + jS, x + jS + d} mod n0 for j < r.
    """
    xs, t = pair.labels, len(pair)
    bits = b"\0" + bytes(pair.layout)  # bits[j] = 1: triangle j keeps its carried vertex
    p = t // 2
    n0 = max(xs[t // 4 : t // 4 + min(p, 16 * pair.n)]) + 1
    steps = tuple(map(n0.__rmod__, map(sub, xs[p + 1 : p + n0 + 1], xs[p : p + n0])))
    try:
        m = steps.index(steps[0], 1, t // 4)
        s = (xs[p + m] - xs[p]) % n0
        inverse = pow(s, -1, n0)
        table = tuple(x % n0 for x in range(0, s * n0, s)) * 2  # table[j] = j*S mod n0
    except ValueError:  # no return, or S is not a unit
        return None

    def repeats(k: int) -> bool:
        return xs[k] < n0 and (xs[k] + s) % n0 == xs[k + m] and bits[k] == bits[k + m]

    if not all(map(repeats, range(p, p + m))):  # a walk with no period fails here
        return None
    lo = k = 0  # k in lo..lo+m-1 repeat; a break moves lo past it
    while k < lo + m:
        if k >= p:
            return None
        lo = lo if repeats(k) else k + 1
        k += 1
    hi = k = t - m  # k in hi-m..hi-1 repeat
    while k > hi - m:
        k -= 1
        if k < lo:
            return None
        hi = hi if repeats(k) else k
    hi = min(hi, lo + m * (n0 - 1))  # each column then holds at most n0 labels
    for q in range(lo, lo + m):
        column = xs[q : hi + m : m]
        c = column[0] * inverse % n0
        if column != table[c : c + len(column)]:
            return None
    a, b = bits.find(0, max(lo, 1)), hi + m - 2
    if bits[lo:hi] != bits[lo + m : hi + m] or a < 0 or b - a < 2 * m:
        return None

    period, f = [], xs[a]
    for j in range(a, a + m):
        if not bits[j]:
            f = xs[j]
        r = (b - 1 - j) // m + 1
        period += [((xs[j + 2] - f) % n0, f, r), ((xs[j + 2] - xs[j + 1]) % n0, xs[j + 1], r)]
    if not distinct_classes([d for d, _, _ in period], n0):
        return None
    return a, b, n0, s, {d: (x, r) for d, x, r in period}


def window_uncovered(window: tuple, n: int, seen: dict[int, int]) -> list[Edge]:
    """The sorted edges of K_n that neither the window of :func:`ring_window`
    nor ``seen``, keyed by ``lo * n + hi``, covers.

    Listed class by class: the window leaves translates j = r..n0-1 of its
    edge of class d, every edge of a class it misses, and every edge at a
    vertex n0 or above."""
    _, _, n0, s, slots = window
    left = set(chain.from_iterable(range(y, y * n, n) for y in range(n0, n)))
    for c in range(1, n0 // 2 + 1):
        d = c if c in slots else n0 - c
        if d in slots:
            x, r = slots[d]
            for y in range(x + r * s, x + n0 * s, s):
                u, v = y % n0, (y + d) % n0
                left.add(u * n + v if u < v else v * n + u)
        else:  # {u, u + c} for u < n0 - c, then {w, w + n0 - c} for w < c
            left.update(range(c, c + (n0 - c) * (n + 1), n + 1),
                        range(n0 - c, n0 - c + c * (n + 1), n + 1))
    return [divmod(k, n) for k in sorted(left - seen.keys())]
