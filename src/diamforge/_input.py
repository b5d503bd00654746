"""The readers of ``verify --input`` and ``decompose --input``.

Imported by those verbs only when they run, so no other verb compiles them.
:func:`_load` reads a JSON object and hands its values to a builder that
checks each one; every fault raises ValueError, whose message the CLI prints
after ``diamforge:`` before it exits 2.
"""

from __future__ import annotations

import json

from . import core, hampack

# decompose --input's largest n, far below decompose --p's hampack.MAX_P.  A
# file with few cycles leaves about C(n, 2) missing edges, which the report
# lists at some 130 bytes each.  Spawned with RLIMIT_AS = 2 GB on the child
# only (2-core x86_64 VM, Python 3.11.7), {"n": 2000, "cycles": []} exits 1
# after 1.7 s at a 256 MB peak, inside a 300 MB budget; n = 2500 peaks at
# 394 MB, and n = 15000 does not fit in 2 GB.
MAX_DECOMPOSITION_N = 2000


def _load(path: str, keys: tuple[str, ...], build):
    """``build(*values)`` of ``keys`` in the JSON object at ``path``, all keys fetched
    before ``build`` checks any value; each fault raises ValueError naming the path."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad syntax, bytes that are not UTF-8 and integers
        # past the digit limit; RecursionError covers arrays nested too deep.
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for key in keys:
        if key not in data:
            raise ValueError(f"{path}: missing key {key!r}")
    try:
        return build(*[data[key] for key in keys])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _int(what: str, x) -> int:
    # bool is a subclass of int, so compare the type itself.
    if type(x) is not int:
        raise ValueError(f"{what}: expected an integer, got {json.dumps(x)}")
    return x


def _int_list(what: str, xs) -> tuple[int, ...]:
    if not isinstance(xs, list):
        raise ValueError(f"{what}: expected a list of integers, got {json.dumps(xs)}")
    if not set(map(type, xs)) <= {int}:
        for x in xs:  # name the first offender
            _int(what, x)
    return tuple(xs)


def _ceiling(n, limit: int) -> int:
    """``n`` checked against ``limit`` before any work that grows with it."""
    if _int("n", n) > limit:
        raise ValueError(f"n = {n} exceeds the ceiling {limit}")
    return n


def _pair(n, labels, layout) -> core.LabelsLayout:
    return core.LabelsLayout(
        _ceiling(n, core.MAX_N), _int_list("labels", labels), _int_list("layout", layout)
    )


def _checked_decomposition(n, cycles) -> tuple:
    n = _ceiling(n, MAX_DECOMPOSITION_N)
    if not isinstance(cycles, list):
        raise ValueError(f"cycles: expected a list of cycles, got {json.dumps(cycles)}")
    dec = hampack.Decomposition(n, [hampack.CycleSquare(_int_list("cycles", c)) for c in cycles])
    return dec, hampack.verify_partition(dec)  # rejects cycles below five vertices
