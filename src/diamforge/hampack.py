"""Partitions of complete-graph edges into squares of Hamilton cycles.

A cycle square connects every pair of vertices at cyclic distance one or
two, so it is 4-regular and a perfect partition of K_n needs n congruent to
1 mod 4.  Two constructions are provided: strides matching each difference
class s with 2s, for primes p = 1 mod 4 whose order of 2 is divisible by 4,
and a sequence-driven construction used for the known order-105 data.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, cycle, islice
from math import isqrt
from operator import itemgetter, sub

from ._base import Edge, Record, distinct_classes, edge

__all__ = [
    "CycleSquare",
    "Decomposition",
    "PartitionReport",
    "SEQUENCES_105",
    "square_edges",
    "ord_mod",
    "decompose_prime",
    "cycles_from_sequences",
    "verify_partition",
    "MAX_P",
]

# decompose_prime's largest p, and the largest n that decompose --input accepts.
# Its cycles hold p(p - 1)/4 ids, about 8 bytes each: spawned on a 2-core x86_64
# VM with Python 3.11.7, decompose --p peaks at 46 MB at p = 4001 and 446 MB at
# 14957, against construct's 253 MB at core.MAX_N.
MAX_P = 15_000

# Known step-sequence data generating a 26-cycle partition of K_105.
SEQUENCES_105: tuple[tuple[int, ...], ...] = (
    (19, 10, 4),
    (-40, -43, 5),
    (-41, 28, 25),
    (-48, 6, 21, -18, -26),
    (-17, 8, 51, 47, -49),
    (-30, -20, -12, 36, 1, -34, 45),
)


class CycleSquare(Record):
    """A cyclic ordering of all n vertices."""

    __slots__ = ("order",)

    def __init__(self, order: tuple[int, ...]) -> None:
        self.order = tuple(order)
        n = len(self.order)
        if n < 3:
            raise ValueError("cycle needs at least three vertices")
        if set(self.order) != set(range(n)):
            raise ValueError("ordering is not a permutation of 0..n-1")

    @property
    def n(self) -> int:
        return len(self.order)


class Decomposition(Record):
    """A family of cycle squares on a common vertex set."""

    __slots__ = ("n", "cycles")

    def __init__(self, n: int, cycles: tuple[CycleSquare, ...]) -> None:
        self.n, self.cycles = n, tuple(cycles)
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        for c in self.cycles:
            if c.n != self.n:
                raise ValueError(f"cycle on {c.n} vertices in a decomposition of K_{self.n}")


class PartitionReport(Record):
    """Outcome of an exact-partition check."""

    __slots__ = ("ok", "missing", "doubled")

    def __init__(self, ok: bool, missing: tuple[Edge, ...], doubled: tuple[Edge, ...]) -> None:
        self.ok, self.missing, self.doubled = ok, missing, doubled


def square_edges(c: CycleSquare) -> set[Edge]:
    """Edges of the cycle's square: pairs at cyclic distance one or two.

    Exactly 2n edges once n >= 5; smaller orders degenerate and are
    rejected.
    """
    if c.n < 5:
        raise ValueError("cycle square needs at least five vertices")
    return {edge(u, v) for u, v in _square_pairs(c.order)}


def _square_pairs(o: tuple[int, ...]) -> chain:
    """The pairs of the cyclic order ``o`` at distance one, then two."""
    return chain(zip(o, o[1:] + o[:1]), zip(o, o[2:] + o[:2]))


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def ord_mod(base: int, p: int) -> int:
    """Order of ``base`` modulo the prime ``p``: least d | p-1 with base^d = 1."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if base % p == 0:
        raise ValueError(f"{base} is divisible by {p}, order undefined")
    small = [d for d in range(1, isqrt(p - 1) + 1) if (p - 1) % d == 0]
    return next(d for d in small + [(p - 1) // d for d in small[::-1]] if pow(base, d, p) == 1)


def _times4(n: int) -> itemgetter:
    """The map from an ordering ``o`` of Z_n, n >= 2, to ``o`` read at the
    positions 4i mod n.  If ``o[j] = x_0 + j*s`` then the result's i-th
    entry is ``o[4i mod n] = x_0 + 4i*s``: the ordering of step 4s."""
    return itemgetter(*[x % n for x in range(0, 4 * n, 4)])


def decompose_prime(p: int) -> Decomposition:
    """Partition E(K_p) into (p-1)/4 cycle squares by matching +- classes.

    The square of the ordering of stride s holds the classes of s and 2s, so
    such squares tile K_p when their strides match each class with its
    double (see :func:`_tiles_by_classes`).  That needs p prime and
    t = ord_p(2) divisible by 4, so p = 1 mod 4; any other p is rejected
    (p = 2, where ord_2(2) is undefined, included), and p > :data:`MAX_P`
    before trial division.  Then 2^(t/2) = -1, so each coset of <2> is a
    union of +- classes.  A scan of the classes
    1..(p-1)/2 starts a chain at each class a not yet taken, the coset's
    smallest element: the strides a * 4^i for i < t/4, which take the
    classes a * 2^j for j < t/2, the whole coset.
    """
    if p > MAX_P:
        raise ValueError(f"p = {p} exceeds the ceiling {MAX_P}")
    if p == 2:
        raise ValueError("no family of arithmetic cycle squares partitions K_2: "
                         "ord_2(2) is undefined")
    t = ord_mod(2, p)  # raises for p not prime
    if t % 4 != 0:
        raise ValueError(f"no family of arithmetic cycle squares partitions K_{p}: "
                         f"ord_{p}(2) = {t} is not divisible by 4")
    # The ordering of step 4s is that of step s read at the positions 4i mod p
    # (see _times4).  Unit strides and their compositions are permutations by
    # construction, so the orderings skip CycleSquare's check.
    times4, taken, cycles = _times4(p), bytearray(p // 2 + 1), []
    for a in range(1, p // 2 + 1):
        if taken[a]:
            continue
        order, s = tuple([x % p for x in range(0, a * p, a)]), a
        for i in range(t // 4):
            if i:
                order, s = times4(order), 4 * s % p
            cycles.append(CycleSquare._of(order))
            for k in (s, 2 * s % p):  # the classes of s and 2s (canonical_residue, inlined)
                taken[k if 2 * k < p else p - k] = 1
    return Decomposition(p, tuple(cycles))


def cycles_from_sequences(n: int, seqs: tuple[tuple[int, ...], ...]) -> Decomposition:
    """Build cycle squares by walking step sequences around Z_n.

    A sequence of length L yields L cycles starting at 0..L-1, each formed
    by adding the entries periodically mod n.  Every ordering must visit
    each vertex once; a revisit means the sequence is unsuitable.
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    cycles = []
    for seq in seqs:
        terms = [a % n for a in seq]
        if not terms or n % len(terms) != 0:
            raise ValueError(f"sequence length {len(terms)} does not divide {n}")
        if any(a == 0 for a in terms):
            raise ValueError(f"sequence {tuple(seq)} has an entry divisible by {n}")
        for start in range(len(terms)):
            steps = islice(cycle(terms), n - 1)
            try:
                cycles.append(CycleSquare(map(n.__rmod__, accumulate(steps, initial=start))))
            except ValueError:  # n vertices in range(n) that are not a permutation
                raise ValueError(
                    f"sequence {tuple(seq)} revisits a vertex from start {start}"
                ) from None
    return Decomposition(n, tuple(cycles))


def _tiles_by_classes(d: Decomposition) -> bool:
    """True when ``d`` is (n-1)/4 arithmetic cycles with distinct classes,
    which then tile E(K_n) exactly once (A. Rosa's difference method).

    The cycle ``x_i = x_0 + i*s mod n`` is a permutation, so gcd(s, n) = 1,
    and its square is exactly the pairs at difference +-s or +-2s: the
    classes of s and 2s, distinct for odd n >= 5 (3s = 0 would need n | 3)
    and of n edges each.  K_n is the disjoint union of its (n-1)/2 classes,
    so when the 2 * (n-1)/4 strides lie in distinct classes
    (:func:`~diamforge._base.distinct_classes`), the family takes all of them.

    A cycle equal to :func:`_times4` of the previous one, which has been
    shown arithmetic of step s, is arithmetic of step 4s by composition:
    one gather and one tuple compare.  Each other cycle has every step read.
    """
    n = d.n
    if n % 4 != 1 or n < 5 or len(d.cycles) * 4 != n - 1:
        return False
    times4, prev, strides = _times4(n), None, []
    for c in d.cycles:
        o = c.order
        if prev is not None and o == times4(prev):
            s = 4 * s % n
        else:
            s = (o[1] - o[0]) % n
            if not set(map(sub, o[1:], o)) <= {s, s - n}:  # each step is s mod n
                return False
        prev = o
        strides += (s, 2 * s)
    return distinct_classes(strides, n)


def verify_partition(d: Decomposition) -> PartitionReport:
    """Check that the squares tile E(K_n) exactly once.

    Reports missing and doubled edges; ``ok`` holds when neither occurs.
    That alone fixes the cycle count.  For n >= 5 each cycle lists 2n
    distinct edges (see below), so with none doubled c cycles cover 2n*c
    edges, and with none missing 2n*c = C(n, 2): c = (n-1)/4, which forces
    n = 1 mod 4.  With no cycles nothing is missing only when n = 1.

    Difference classes decide a family of (n-1)/4 arithmetic cycles whose
    classes do not repeat (see :func:`_tiles_by_classes`), reading a cycle
    that is the previous one composed with x -> 4x in one gather;
    :func:`decompose_prime` builds each ordering after the first of a chain
    that way.  Any other family, or one whose classes repeat, goes to the
    edge count below.

    Edges are packed as keys ``lo*n + hi``, which order like ``(lo, hi)``.
    For n >= 5 the n distance-1 and n distance-2 pairs of a cycle are 2n
    distinct edges, so a key that the family lists twice comes from two
    cycles: no edge is doubled iff the distinct keys number as many as the
    listed ones, and none is missing iff they number C(n, 2).  The per-edge
    count and the missing-edge scan run only when a count is off.  Smaller
    orders, whose squares have fewer than 2n edges, raise ValueError through
    :func:`square_edges`.
    """
    n = d.n
    if d.cycles:
        square_edges(d.cycles[0])  # every cycle has order n
    if _tiles_by_classes(d):
        return PartitionReport(True, (), ())
    keys: list[int] = []
    for c in d.cycles:
        keys += [u * n + v if u < v else v * n + u for u, v in _square_pairs(c.order)]
    seen = set(keys)
    doubled: tuple[Edge, ...] = ()
    if len(seen) != len(keys):
        doubled = tuple(
            divmod(k, n) for k, m in sorted(Counter(keys).items()) if m > 1
        )
    missing: tuple[Edge, ...] = ()
    if len(seen) != n * (n - 1) // 2:
        missing = tuple(
            (u, v) for u in range(n) for v in range(u + 1, n) if u * n + v not in seen
        )
    return PartitionReport(not missing and not doubled, missing, doubled)
