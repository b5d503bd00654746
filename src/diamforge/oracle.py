"""Exhaustive search for the largest dual diameter reachable on few labels.

Any complex contains a good sequence of the same dual diameter: restrict it
to the triangles on a diametral shortest path of the dual, and shortest-ness
forbids two path triangles from sharing an edge out of order.  The search
therefore enumerates only good sequences, in codec form, which keeps the
move set tiny: from each triangle the walk may leave across either edge not
shared with its predecessor, and a move is legal exactly when the two edges
it would create are still unused.

Symmetry is removed by fixing the seed triangle to {0, 1, 2} and introducing
fresh labels in increasing order.

Pruning is exact: it never changes the diameter, the witness or the
exhaustive flag.  A walk of diameter d covers 2d + 3 edges and each
extension consumes two fresh ones, so no completion of a node passes
``ub = d + (C(n, 2) - 2d - 3) // 2``.  A node is cut, after it has offered
itself as the incumbent, when ``ub`` is below the incumbent's diameter, or
equal to it while the node's labels already compare greater than the
incumbent's.  Every extension keeps that labels prefix, so it can at best
tie the diameter and then loses the (labels, layout) tie-break.

The search runs in one process.  Split across processes, a worker cannot
see the other workers' incumbent and explores more nodes; at n = 10 two
workers were no faster than one.
"""

from __future__ import annotations

from .core import LabelsLayout, Record, certify

__all__ = ["SearchResult", "search_max_diameter", "legal_moves", "DEFAULT_BUDGET"]

DEFAULT_BUDGET = 10**8


class SearchResult(Record):
    """Outcome of one search run.

    ``exhaustive`` is only set when every branch was explored within the
    node budget; non-exhaustive results are lower bounds, never ground
    truth.
    """

    __slots__ = ("n", "best_diameter", "witness", "exhaustive", "nodes_explored")

    def __init__(self, n: int, best_diameter: int, witness: LabelsLayout, exhaustive: bool,
                 nodes_explored: int) -> None:
        self.n, self.best_diameter, self.witness = n, best_diameter, witness
        self.exhaustive, self.nodes_explored = exhaustive, nodes_explored


def legal_moves(used: list[int], c: int, u: int, v: int, fresh: int, n: int) -> list:
    """The moves ``(w, bit)`` from state (c, u, v) that add two fresh edges.

    Bit 0 glues the triangle {u, v, w} and bit 1 the triangle {c, v, w}, so
    both create the edge {v, w}, checked once per label.  Labels run up to
    ``fresh`` and below ``n``, ascending, bit 0 first.  ``used[x]`` is the
    bit set of x's covered neighbours.
    """
    moves = []
    for w in range(min(fresh + 1, n)):
        seen = used[w]
        if w == v or seen >> v & 1:
            continue
        if w != u and not seen >> u & 1:
            moves.append((w, 0))
        if w != c and not seen >> c & 1:
            moves.append((w, 1))
    return moves


def _dfs(n: int, limit: int | None, prune: bool, best: list) -> bool:
    """Explore all good walks from the seed triangle {0, 1, 2}.

    Returns False once the node limit hits.  ``best`` holds [diameter,
    labels, layout, nodes]; every node offers its partial walk under
    (larger diameter, then smaller (labels, layout)) order, so the result
    does not depend on traversal order.

    The walk lives on an explicit stack with one frame per open node, so
    its depth is not bounded by the interpreter's recursion limit.  A frame
    holds the node's state (c, u, v), its next fresh label and an iterator
    over the node's :func:`legal_moves`, computed when the node is entered.
    They stay legal while the node is open, because every retract restores
    ``used``, the bit sets of covered neighbours.

    Fresh labels enter in increasing order and a node of depth D, entered
    within the limit, has D < limit, so no label passes ``limit + 2``:
    ``used`` is sized by the limit, while the bound keeps the declared n.
    """
    used = [0] * (n if limit is None else min(n, limit + 3))
    for a, b in ((0, 1), (0, 2), (1, 2)):
        used[a] |= 1 << b
        used[b] |= 1 << a
    labels, layout = [0, 1, 2], []
    pairs = n * (n - 1) // 2
    stack: list[tuple] = []
    c, u, v, fresh = 0, 1, 2, 3
    while True:
        # Enter the node (labels, layout) with state (c, u, v).
        if limit is not None and best[3] >= limit:
            return False
        best[3] += 1
        diam = len(layout)
        if diam > best[0] or (
            diam == best[0] and (labels, layout) < (best[1], best[2])
        ):
            best[0] = diam
            best[1] = list(labels)
            best[2] = list(layout)
        # Exact cut after the offer above; the module docstring gives the
        # proof.  A cut node gets no moves, so it is retracted at once.
        ub = diam + (pairs - 2 * diam - 3) // 2
        if prune and (ub < best[0] or (ub == best[0] and labels > best[1])):
            moves = ()
        else:
            moves = legal_moves(used, c, u, v, fresh, n)
        stack.append((c, u, v, fresh, iter(moves)))

        # Take the next move, retracting exhausted nodes on the way.
        while True:
            c, u, v, fresh, moves = stack[-1]
            move = next(moves, None)
            if move is not None:
                break
            stack.pop()
            if not stack:
                return True
            # The move into this node was (p, q, w) = (c, u, v).
            used[c] &= ~(1 << v)
            used[u] &= ~(1 << v)
            used[v] &= ~((1 << c) | (1 << u))
            labels.pop()
            layout.pop()

        w, bit = move
        p = u if bit == 0 else c
        used[p] |= 1 << w
        used[v] |= 1 << w
        used[w] |= (1 << p) | (1 << v)
        labels.append(w)
        layout.append(bit)
        c, u, v, fresh = p, v, w, fresh + (w == fresh)


def search_max_diameter(
    n: int,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
    prune: bool = True,
) -> SearchResult:
    """Depth-first search over all good sequences on at most n labels.

    A branch is cut once the unused-edge supply cannot pay for a walk that
    beats the incumbent, or can only tie its diameter while the branch's
    labels already sort after the incumbent's; see the module docstring
    for why this is exact.  The search runs in one process, so neither
    the answer nor ``nodes_explored`` depends on ``jobs``.

    Args:
        n: number of available labels, at least 3.
        budget: limit on the total nodes explored, the seed included;
            0 means unlimited.
        jobs: validated (at least 1) and otherwise unused.  It stays
            because callers pass it: the CLI forwards ``--jobs``, and
            ``perfbench/run.py`` times an in-process ``jobs=1`` search, so
            dropping it waits for the next change to that benchmark.
        prune: disable only to cross-check the bound on tiny n.
    """
    if n < 3:
        raise ValueError("need at least three labels")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    if budget < 0:
        raise ValueError("budget cannot be negative")
    limit = None if budget == 0 else budget

    best = [0, [0, 1, 2], [], 0]
    complete = _dfs(n, limit, prune, best)
    labels, layout = tuple(best[1]), tuple(best[2])
    # Goodness and diameter do not depend on n, so the witness is checked
    # on its own labels: certify lists the uncovered edges of K_n.
    cert = certify(LabelsLayout(max(labels) + 1, labels, layout))
    if not cert.good or cert.diameter != best[0]:
        raise AssertionError("search produced an unsound witness")
    return SearchResult(n, best[0], LabelsLayout(n, labels, layout), complete, best[3])
