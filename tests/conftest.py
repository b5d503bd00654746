"""Shared test helpers: the reference certifier and partition checker,
random good-walk generation and acceptance reporting."""

from __future__ import annotations

import re
from collections import Counter

import pytest

from diamforge.core import (
    Certificate,
    Edge,
    LabelsLayout,
    TriangleSeq,
    all_edges,
    covered_edges,
    dual_diameter,
    expand_pair,
    hs_max_diameter,
    is_good,
)
from diamforge.hampack import Decomposition, PartitionReport, square_edges


def reference_certify(seq: TriangleSeq, n: int) -> Certificate:
    """Certificate of ``seq`` against K_n from the frozenset helpers.

    The slow reference for :func:`diamforge.core.certify`: goodness from
    :func:`is_good`, the diameter by BFS over the dual graph (None when it
    is disconnected), and the uncovered edges as a set difference.
    """
    good = is_good(seq)
    covered = covered_edges(seq)
    try:
        diameter: int | None = dual_diameter(seq)
    except ValueError:
        diameter = None
    optimum = hs_max_diameter(n)
    matches = good and not seq.circular and diameter == optimum
    uncovered = sorted(all_edges(n) - covered)
    return Certificate(
        good=good,
        circular=seq.circular,
        covered_edges=len(covered),
        diameter=diameter,
        optimum=optimum,
        matches_optimum=matches,
        uncovered_edges=uncovered,
    )


def reference_verify_partition(d: Decomposition) -> PartitionReport:
    """Partition report of ``d`` from edge tuples.

    The slow reference for :func:`diamforge.hampack.verify_partition`: a
    Counter over every cycle's :func:`square_edges` and the missing edges
    as a set difference from all of E(K_n).
    """
    counts: Counter[Edge] = Counter()
    for c in d.cycles:
        counts.update(square_edges(c))
    missing = tuple(sorted(all_edges(d.n) - set(counts)))
    doubled = tuple(sorted(e for e, m in counts.items() if m > 1))
    ok = (
        not missing
        and not doubled
        and d.n % 4 == 1
        and len(d.cycles) == (d.n - 1) // 4
    )
    return PartitionReport(ok, missing, doubled)


def _legal_moves(state, used, fresh, n):
    c, u, v = state
    moves = []
    for w in range(min(fresh + 1, n)):
        for bit, p, q in ((0, u, v), (1, c, v)):
            if w in (p, q):
                continue
            if (min(p, w), max(p, w)) in used or (min(q, w), max(q, w)) in used:
                continue
            moves.append((w, bit))
    return moves


def _apply(move, state, used, labels, layout, fresh):
    w, bit = move
    c, u, v = state
    p, q = (u, v) if bit == 0 else (c, v)
    used.add((min(p, w), max(p, w)))
    used.add((min(q, w), max(q, w)))
    labels.append(w)
    layout.append(bit)
    return ((p, q, w) if bit == 0 else (c, q, w)), fresh + (w == fresh)


def random_good_pair(rng, n: int | None = None, steps: int | None = None) -> LabelsLayout:
    """Uniformly extend the seed triangle with legal moves.

    Stops after ``steps`` extensions or when stuck, whichever comes first.
    """
    if n is None:
        n = rng.randint(4, 12)
    if steps is None:
        steps = rng.randint(0, 3 * n)
    labels, layout = [0, 1, 2], []
    state = (0, 1, 2)
    used = {(0, 1), (0, 2), (1, 2)}
    fresh = 3
    for _ in range(steps):
        moves = _legal_moves(state, used, fresh, n)
        if not moves:
            break
        state, fresh = _apply(rng.choice(moves), state, used, labels, layout, fresh)
    return LabelsLayout(n, tuple(labels), tuple(layout))


def corrupted_pair(rng, n: int | None = None, steps: int | None = None) -> LabelsLayout:
    """A walk-shaped pair whose final extension re-uses a covered edge.

    The appended triangle is still a genuine 3-set, so the pair expands
    fine, but goodness must fail.
    """
    if n is None:
        n = rng.randint(4, 12)
    if steps is None:
        steps = rng.randint(1, 3 * n)
    labels, layout = [0, 1, 2], []
    state = (0, 1, 2)
    used = {(0, 1), (0, 2), (1, 2)}
    fresh = 3
    for _ in range(steps):
        moves = _legal_moves(state, used, fresh, n)
        if not moves:
            break
        state, fresh = _apply(rng.choice(moves), state, used, labels, layout, fresh)
    c, u, v = state
    bad = []
    for w in range(n):
        for bit, p, q in ((0, u, v), (1, c, v)):
            if w in (p, q):
                continue
            if (min(p, w), max(p, w)) in used or (min(q, w), max(q, w)) in used:
                bad.append((w, bit))
    rng.shuffle(bad)
    # An edge-reusing move can still close a legal ring; re-emitting the
    # current triangle never can, so it serves as the fallback.
    for w, bit in bad + [(c, 0)]:
        cand = LabelsLayout(n, tuple(labels + [w]), tuple(layout + [bit]))
        if not is_good(expand_pair(cand)):
            return cand
    raise AssertionError("unreachable: duplicate triangle is never good")


_CRITERION = re.compile(r"test_criterion_(\d+)")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call" or "test_acceptance" not in str(item.fspath):
        return
    m = _CRITERION.match(item.name)
    if m:
        status = "PASS" if rep.passed else "FAIL"
        print(f"\nCRITERION {int(m.group(1))}: {status}")
