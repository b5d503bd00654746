"""Partitions of complete-graph edges into squares of Hamilton cycles.

A cycle square connects every pair of vertices at cyclic distance one or
two, so it is 4-regular and a perfect partition of K_n needs n congruent to
1 mod 4.  Two constructions are provided: a coset construction that works
for primes p = 1 mod 4 whose order of 2 is divisible by 4, and a
sequence-driven construction used for the known order-105 data.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import isqrt

from .core import Edge, edge

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
]

# Known step-sequence data generating a 26-cycle partition of K_105.
SEQUENCES_105: tuple[tuple[int, ...], ...] = (
    (19, 10, 4),
    (-40, -43, 5),
    (-41, 28, 25),
    (-48, 6, 21, -18, -26),
    (-17, 8, 51, 47, -49),
    (-30, -20, -12, 36, 1, -34, 45),
)


@dataclass(frozen=True)
class CycleSquare:
    """A cyclic ordering of all n vertices."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(self.order))
        n = len(self.order)
        if n < 3:
            raise ValueError("cycle needs at least three vertices")
        if set(self.order) != set(range(n)):
            raise ValueError("ordering is not a permutation of 0..n-1")

    @property
    def n(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class Decomposition:
    """A family of cycle squares on a common vertex set."""

    n: int
    cycles: tuple[CycleSquare, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cycles", tuple(self.cycles))
        for c in self.cycles:
            if c.n != self.n:
                raise ValueError(f"cycle on {c.n} vertices in a decomposition of K_{self.n}")


@dataclass(frozen=True)
class PartitionReport:
    """Outcome of an exact-partition check."""

    ok: bool
    missing: tuple[Edge, ...]
    doubled: tuple[Edge, ...]


def square_edges(c: CycleSquare) -> set[Edge]:
    """Edges of the cycle's square: pairs at cyclic distance one or two.

    Exactly 2n edges once n >= 5; smaller orders degenerate and are
    rejected.
    """
    n = c.n
    if n < 5:
        raise ValueError("cycle square needs at least five vertices")
    out: set[Edge] = set()
    for i, v in enumerate(c.order):
        out.add(edge(v, c.order[(i + 1) % n]))
        out.add(edge(v, c.order[(i + 2) % n]))
    return out


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


def decompose_prime(p: int) -> Decomposition:
    """Partition E(K_p) into (p-1)/4 cycle squares via cosets of <2>.

    Needs p prime, p = 1 mod 4 and ord_p(2) divisible by 4.  Each cycle is
    an arithmetic ordering with step a * 2^k for a coset representative a
    and even k below ord/2; halfway through the powers of 2 reach -1, so
    one coset contributes both signs of every difference.  p > 10**5 is
    rejected before trial division: its Theta(p^2) partition is out of reach.
    """
    if p > 10**5:
        raise ValueError(f"p = {p} exceeds the ceiling 10**5")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p % 4 != 1:
        raise ValueError(f"p = {p} is {p % 4} mod 4, need 1")
    t = ord_mod(2, p)
    if t % 4 != 0:
        raise ValueError(f"ord_{p}(2) = {t} is not divisible by 4")

    # Coset representatives of <2> in F_p*, smallest first.
    seen = bytearray(p)
    reps: list[int] = []
    for x in range(1, p):
        if seen[x]:
            continue
        reps.append(x)
        cur = x
        for _ in range(t):
            seen[cur] = 1
            cur = cur * 2 % p
    cycles = []
    for a in reps:
        for k in range(0, t // 2, 2):
            step = a * pow(2, k, p) % p
            cycles.append(CycleSquare([i * step % p for i in range(p)]))
    return Decomposition(p, tuple(cycles))


def cycles_from_sequences(n: int, seqs: list[list[int]]) -> Decomposition:
    """Build cycle squares by walking step sequences around Z_n.

    A sequence of length L yields L cycles starting at 0..L-1, each formed
    by adding the entries periodically mod n.  Every ordering must visit
    each vertex once; a revisit means the sequence is unsuitable.
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


def verify_partition(d: Decomposition) -> PartitionReport:
    """Check that the squares tile E(K_n) exactly once with the right count.

    Reports missing and doubled edges; success additionally requires
    (n-1)/4 cycles, which forces n = 1 mod 4.

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
    keys: list[int] = []
    for c in d.cycles:
        o = c.order
        for shifted in (o[1:] + o[:1], o[2:] + o[:2]):
            keys += [u * n + v if u < v else v * n + u for u, v in zip(o, shifted)]
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
    ok = (
        not missing
        and not doubled
        and n % 4 == 1
        and len(d.cycles) == (n - 1) // 4
    )
    return PartitionReport(ok, missing, doubled)
