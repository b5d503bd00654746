"""Seeded workload inputs and the expected value of every CLI invocation.

Nothing here imports diamforge: inputs and expectations come from the
benchmark's own code, so they stay byte-identical across commits of the
program under test and a wrong program cannot vouch for itself.

Each workload is a list of ``Invocation``s.  An invocation is the argv given
to ``python -m diamforge``, the number of work items it stands for
(triangles, K_n edges or searches), and a check that turns its exit code and
stdout into an error message, or None when the output is right.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("construct", "verify", "search", "pack")

# Eligible primes (p = 1 mod 4, 4 | ord_p(2)) in three narrow bands, so the
# Theta(p^2) work of a seeded pick moves the round time by a few percent only.
PRIME_BANDS = ((401, 409, 421, 433), (653, 661, 673, 677, 701), (977, 997, 1009, 1013))

SEARCH_N = 9
SEARCH_BEST = 16  # hs_max_diameter(9), confirmed exhaustively

# verify inputs: (count, n, triangles) per class; sizes are fixed so seeds
# change the walks, not the amount of work.
GOOD_WALKS = (2, 400, 12000)
RINGS = (2, 401, 25)  # (count, n, terms per ring): m * n triangles each
REUSE_WALKS = ((200, 1200), (200, 1800))
SPARSE_WALK = (1000, 60)

Check = Callable[[int, bytes], "str | None"]


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    items: int
    check: Check

    @property
    def label(self) -> str:
        return " ".join(Path(a).name if a.endswith(".json") else a for a in self.argv)


def jobs_for(nproc: int) -> int:
    return max(1, min(2, nproc))


# ---------------------------------------------------------------------------
# reference decoder, independent of diamforge.core
# ---------------------------------------------------------------------------

def walk_edges(n: int, labels: list[int], layout: list[int]) -> list[tuple[int, int]]:
    """Decode a labels/layout walk into its triangles' edges, in order.

    Returns three sorted edges per triangle.  Raises ValueError on labels
    out of range or a degenerate triangle.
    """
    if len(labels) != len(layout) + 3 or len(labels) < 3:
        raise ValueError("labels/layout length mismatch")
    if any(type(x) is not int or not 0 <= x < n for x in labels):
        raise ValueError("label out of range")
    c, u, v = labels[:3]
    if len({c, u, v}) != 3:
        raise ValueError("degenerate seed triangle")
    out = [_e(c, u), _e(c, v), _e(u, v)]
    for w, y in zip(labels[3:], layout):
        if y not in (0, 1):
            raise ValueError("layout bit is not 0 or 1")
        first = u if y == 0 else c
        if w in (first, v):
            raise ValueError("degenerate triangle")
        out += [_e(first, v), _e(first, w), _e(v, w)]
        c, u, v = first, v, w
    return out


def _e(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _complement_error(n: int, covered: set, uncovered: list) -> str | None:
    """None when ``uncovered`` lists exactly the edges of K_n not in ``covered``."""
    if len(uncovered) != _pairs(n) - len(covered):
        return f"{len(uncovered)} uncovered edges, expected {_pairs(n) - len(covered)}"
    prev = (-1, -1)
    for item in uncovered:
        e = tuple(item)
        if len(e) != 2 or not (0 <= e[0] < e[1] < n) or e <= prev or e in covered:
            return f"uncovered edge {item} is out of order, out of range or covered"
        prev = e
    return None


def _load(rc: int, stdout: bytes, want_rc: int) -> tuple[dict | None, str | None]:
    if rc != want_rc:
        return None, f"exit code {rc}, expected {want_rc}"
    try:
        obj = json.loads(stdout)
    except ValueError:
        return None, "stdout is not one JSON object"
    if not isinstance(obj, dict) or not stdout.endswith(b"\n") or stdout.count(b"\n") != 1:
        return None, "stdout is not one newline-terminated JSON object"
    return obj, None


def _cert_error(cert: dict, n: int, edges: list, *, good: bool, circular: bool,
                diameter: int, optimum_match: bool) -> str | None:
    """Compare a certificate with values derived from the walk's own edges."""
    covered = set(edges)
    want = {
        "good": good,
        "circular": circular,
        "diameter": diameter,
        "covered_edges": len(covered),
        "optimum": optimum(n),
        "matches_optimum": optimum_match,
    }
    for key, value in want.items():
        if cert.get(key) != value:
            return f"certificate {key}={cert.get(key)!r}, expected {value!r}"
    return _complement_error(n, covered, cert.get("uncovered_edges", []))


def optimum(n: int) -> int:
    return 5 if n == 6 else (_pairs(n) - 3) // 2


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def construct_invocations(rng: random.Random) -> list[Invocation]:
    """Four consecutive orders, one per residue mod 4, so all four assembly
    routes run; the seed picks the block and the order of the calls."""
    base = 400 + 4 * rng.randrange(2)
    orders = [base, base + 1, base + 2, base + 3]
    rng.shuffle(orders)
    return [
        Invocation(("construct", "--n", str(n)), optimum(n) + 1, _construct_check(n))
        for n in orders
    ]


def _construct_check(n: int) -> Check:
    def check(rc: int, stdout: bytes) -> str | None:
        obj, err = _load(rc, stdout, 0)
        if err:
            return err
        if obj.get("n") != n:
            return f"n={obj.get('n')!r}, expected {n}"
        try:
            edges = walk_edges(n, obj["labels"], obj["layout"])
        except (KeyError, TypeError, ValueError) as exc:
            return f"walk does not decode: {exc}"
        t = len(edges) // 3
        # A linear walk of t triangles is good iff it covers 2t + 1 edges;
        # its dual is then a path of diameter t - 1.
        if len(set(edges)) != 2 * t + 1:
            return "constructed walk is not good"
        if t - 1 != optimum(n):
            return f"walk has diameter {t - 1}, optimum is {optimum(n)}"
        return _cert_error(obj.get("certificate", {}), n, edges, good=True,
                           circular=False, diameter=t - 1, optimum_match=True)
    return check


# ---------------------------------------------------------------------------
# verify: seeded walk generators
# ---------------------------------------------------------------------------

class _Walk:
    """A good walk grown one legal step at a time (both new edges unused)."""

    def __init__(self, rng: random.Random, n: int):
        self.rng, self.n = rng, n
        seed = rng.sample(range(n), 3)
        self.labels, self.layout = list(seed), []
        a, b, c = seed
        self.holder = {_e(a, b): [0], _e(a, c): [0], _e(b, c): [0]}
        self.state = (a, b, c)

    def triangles(self) -> int:
        return len(self.layout) + 1

    def moves(self):
        c, u, v = self.state
        for w in self.rng.sample(range(self.n), self.n):
            for bit in self.rng.sample((0, 1), 2):
                first = u if bit == 0 else c
                if w not in (first, v):
                    yield w, bit, first, v

    def apply(self, w: int, bit: int) -> None:
        c, u, v = self.state
        first = u if bit == 0 else c
        t = self.triangles()
        for e in (_e(first, v), _e(first, w), _e(v, w)):
            self.holder.setdefault(e, []).append(t)
        self.labels.append(w)
        self.layout.append(bit)
        self.state = (first, v, w)

    def step(self) -> bool:
        """Take a legal step: 32 random tries, then a full scan."""
        for w, bit, first, v in itertools.chain(self._random_moves(), self.moves()):
            if _e(first, w) not in self.holder and _e(v, w) not in self.holder:
                self.apply(w, bit)
                return True
        return False

    def _random_moves(self):
        c, u, v = self.state
        for _ in range(32):
            w, bit = self.rng.randrange(self.n), self.rng.randrange(2)
            first = u if bit == 0 else c
            if w not in (first, v):
                yield w, bit, first, v


def good_walk(rng: random.Random, n: int, triangles: int) -> _Walk:
    """A good linear walk of exactly ``triangles`` triangles on K_n."""
    while True:
        walk = _Walk(rng, n)
        while walk.triangles() < triangles and walk.step():
            pass
        if walk.triangles() == triangles:
            return walk


def reuse_walk(rng: random.Random, n: int, triangles: int) -> tuple[_Walk, int]:
    """A walk of ``triangles`` triangles, good except that its final step
    reuses one singly covered edge.

    Returns the walk and the index j of the triangle that held the reused
    edge.  The dual is then a path plus the chord (j, last), with
    1 <= j <= last - 3, so it is neither a tree nor a cycle.
    """
    while True:
        walk = good_walk(rng, n, triangles - 1)
        last = walk.triangles()
        for w, bit, first, v in walk.moves():
            a, b = walk.holder.get(_e(first, w)), walk.holder.get(_e(v, w))
            if (a is None) == (b is None):
                continue
            held = a or b
            if len(held) == 1 and 1 <= held[0] <= last - 3:
                walk.apply(w, bit)
                return walk, held[0]


def ring_terms(rng: random.Random, n: int, m: int) -> list[int]:
    """Terms a_0..a_{m-1} whose cyclic walk x_{i+1} = x_i + a_{i mod m}
    closes into a good ring: the 4m values +-a_i, +-(a_i + a_{i+1}) are
    distinct and nonzero mod n and the term sum is a unit mod n (n prime)."""
    while True:
        terms: list[int] = []
        seen: set[int] = set()
        for _ in range(200 * m):
            a = rng.randrange(1, n)
            new = {a, n - a}
            if terms:
                s = (terms[-1] + a) % n
                new |= {s, (n - s) % n}
            if len(new) == (2 if not terms else 4) and 0 not in new and not new & seen:
                terms.append(a)
                seen |= new
                if len(terms) == m:
                    break
        if len(terms) != m:
            continue
        s = (terms[-1] + terms[0]) % n
        if s and not {s, n - s} & seen and sum(terms) % n:
            return terms


def ring_pair(n: int, terms: list[int]) -> tuple[list[int], list[int]]:
    m = len(terms)
    labels = [0]
    for i in range(m * n + 1):
        labels.append((labels[-1] + terms[i % m]) % n)
    return labels, [0] * (m * n - 1)


def write_verify_inputs(rng: random.Random, workdir: Path) -> list[Invocation]:
    """Generate the verify mix into ``workdir`` and return its invocations."""
    invs = []

    def emit(name: str, n: int, labels: list[int], layout: list[int]) -> str:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps({"n": n, "labels": labels, "layout": layout},
                                   separators=(",", ":")) + "\n")
        return str(path)

    count, n, t = GOOD_WALKS
    for i in range(count):
        walk = good_walk(rng, n, t)
        path = emit(f"good{i}", n, walk.labels, walk.layout)
        invs.append(Invocation(("verify", "--input", path), t,
                               _verify_check(n, walk.labels, walk.layout, 0, good=True,
                                             circular=False, diameter=t - 1)))
    count, n, m = RINGS
    for i in range(count):
        labels, layout = ring_pair(n, ring_terms(rng, n, m))
        path = emit(f"ring{i}", n, labels, layout)
        invs.append(Invocation(("verify", "--input", path, "--circular-ok"), m * n,
                               _verify_check(n, labels, layout, 0, good=True,
                                             circular=True, diameter=m * n // 2)))
    for i, (n, t) in enumerate(REUSE_WALKS):
        walk, j = reuse_walk(rng, n, t)
        path = emit(f"reuse{i}", n, walk.labels, walk.layout)
        invs.append(Invocation(("verify", "--input", path), t,
                               _verify_check(n, walk.labels, walk.layout, 1, good=False,
                                             circular=False, diameter=j + (t - j) // 2)))
    n, t = SPARSE_WALK
    walk = good_walk(rng, n, t)
    path = emit("sparse", n, walk.labels, walk.layout)
    invs.append(Invocation(("verify", "--input", path), t,
                           _verify_check(n, walk.labels, walk.layout, 0, good=True,
                                         circular=False, diameter=t - 1)))
    return invs


def _verify_check(n: int, labels: list[int], layout: list[int], want_rc: int, *,
                  good: bool, circular: bool, diameter: int) -> Check:
    edges = walk_edges(n, labels, layout)
    match = good and not circular and diameter == optimum(n)

    def check(rc: int, stdout: bytes) -> str | None:
        obj, err = _load(rc, stdout, want_rc)
        if err:
            return err
        return _cert_error(obj, n, edges, good=good, circular=circular,
                           diameter=diameter, optimum_match=match)
    return check


# ---------------------------------------------------------------------------
# search and pack
# ---------------------------------------------------------------------------

def search_invocations(jobs: int) -> list[Invocation]:
    return [Invocation(("search", "--n", str(SEARCH_N), "--budget", "0", "--jobs", str(jobs)),
                       1, search_check)]


def search_check(rc: int, stdout: bytes) -> str | None:
    obj, err = _load(rc, stdout, 0)
    if err:
        return err
    if obj.get("n") != SEARCH_N or obj.get("best_diameter") != SEARCH_BEST:
        return f"best_diameter={obj.get('best_diameter')!r}, expected {SEARCH_BEST}"
    if obj.get("exhaustive") is not True:
        return "search is not exhaustive"
    nodes = obj.get("nodes_explored")
    if type(nodes) is not int or nodes < 1:
        return f"nodes_explored={nodes!r}"
    wit = obj.get("witness", {})
    try:
        edges = walk_edges(SEARCH_N, wit["labels"], wit["layout"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"witness does not decode: {exc}"
    t = len(edges) // 3
    if len(set(edges)) != 2 * t + 1 or t - 1 != SEARCH_BEST:
        return "witness is not a good walk of the best diameter"
    return None


def pack_invocations(rng: random.Random) -> list[Invocation]:
    primes = [rng.choice(band) for band in PRIME_BANDS]
    rng.shuffle(primes)
    invs = [Invocation(("decompose", "--p", str(p)), _pairs(p), _pack_check(p)) for p in primes]
    invs.insert(rng.randrange(len(invs) + 1),
                Invocation(("decompose", "--builtin", "105"), _pairs(105), _pack_check(105)))
    return invs


def _pack_check(n: int) -> Check:
    def check(rc: int, stdout: bytes) -> str | None:
        obj, err = _load(rc, stdout, 0)
        if err:
            return err
        report = obj.get("report", {})
        if obj.get("n") != n or report != {"ok": True, "missing": [], "doubled": []}:
            return f"report {report!r} for n={obj.get('n')!r}, expected an exact partition of K_{n}"
        cycles = obj.get("cycles", [])
        if len(cycles) != (n - 1) // 4:
            return f"{len(cycles)} cycles, expected {(n - 1) // 4}"
        # Independent re-check: the cycle squares tile E(K_n) exactly once.
        seen = bytearray(n * n)
        for cyc in cycles:
            if sorted(cyc) != list(range(n)):
                return "a cycle is not a permutation of the vertices"
            for i, a in enumerate(cyc):
                for b in (cyc[(i + 1) % n], cyc[(i + 2) % n]):
                    lo, hi = _e(a, b)
                    if seen[lo * n + hi]:
                        return f"edge ({lo},{hi}) is covered twice"
                    seen[lo * n + hi] = 1
        return None
    return check


def invocations(workload: str, seed: int, workdir: Path, nproc: int) -> list[Invocation]:
    """The seeded invocation list of one workload (one round)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "construct":
        return construct_invocations(rng)
    if workload == "verify":
        return write_verify_inputs(rng, workdir)
    if workload == "search":
        return search_invocations(jobs_for(nproc))
    if workload == "pack":
        return pack_invocations(rng)
    raise ValueError(f"unknown workload {workload!r}")
