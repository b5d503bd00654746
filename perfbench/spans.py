"""In-memory spans around diamforge's public functions, for the traced run.

``Tracer.patch()`` replaces each function listed in ``LAYER_FUNCTIONS`` by a
wrapper that records a span (name, start, end, parent) in a list, in every
diamforge module that holds a reference to it, and puts the originals back
on exit.  Only coarse functions are wrapped; per-edge helpers such as
``core.edge`` stay untouched, so the overhead is a few microseconds per call.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

LAYER_FUNCTIONS = {
    "core": ("expand_pair", "encode_triples", "edge_multiplicities", "covered_edges",
             "is_good", "dual_diameter", "all_edges", "certify"),
    "genseq": ("gs_full", "gs_missing_12", "gs_missing_1248", "verify_generating_sequence",
               "expand_to_circular", "expand_pair_of", "cut_exposing", "cut_circular"),
    "assembly": ("attach_4k4", "attach_4k3", "attach_4k6", "small_table", "construct_optimal"),
    "oracle": ("search_max_diameter",),
    "hampack": ("ord_mod", "square_edges", "decompose_prime", "cycles_from_sequences",
                "verify_partition"),
    "cli": ("main",),
}

# Work counts taken at a span's boundary from its arguments and result.
COUNTS = {
    "core.certify": lambda args, res: {"core.uncovered_edges": len(res.uncovered_edges),
                                       "core.certified_triangles": len(args[0])},
    "genseq.expand_pair_of": lambda args, res: {"genseq.ring_triangles": len(res)},
    "oracle.search_max_diameter": lambda args, res: {"oracle.nodes": res.nodes_explored},
    "hampack.verify_partition": lambda args, res: {"hampack.edges": args[0].n * (args[0].n - 1) // 2},
}


@dataclass
class Span:
    name: str  # "layer.function"
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    request: int  # index of the top-level span this one belongs to
    counts: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._stack, COUNTS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent,
                        spans[stack[0]].request if stack else idx)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if count:
                    span.counts = count(args, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patch(self):
        """Wrap every listed function wherever a diamforge module refers to it."""
        import diamforge.cli  # noqa: F401  (loads every layer module)

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "diamforge" and m]
        wrappers = {}
        for layer, names in LAYER_FUNCTIONS.items():
            mod = sys.modules[f"diamforge.{layer}"]
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        undo = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])
        try:
            yield self
        finally:
            for mod, attr, value in undo:
                setattr(mod, attr, value)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            for key, value in (s.counts or {}).items():
                out[key] += value
        return out

    def layer_self(self, requests: set[int] | None = None) -> dict[str, float]:
        """Summed self time per layer, optionally for some requests only."""
        out: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            if requests is None or s.request in requests:
                out[s.layer] += own
        return out


def span_totals(spans: list[Span]) -> dict[str, float]:
    """Summed inclusive duration per span name."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.duration
    return dict(out)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds for ``import diamforge`` from ``python -X importtime`` output.

    ``total`` is the cumulative time of the diamforge package, ``sympy`` the
    cumulative time of the top-level sympy import, and ``diamforge_self``
    the self time of diamforge's own modules.
    """
    total = sympy = own = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = [f.strip() for f in line[len("import time:"):].split("|")]
        try:
            self_us, cum_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        module = fields[2]
        if module == "diamforge":
            total = cum_us / 1e6
        elif module == "sympy":
            sympy = cum_us / 1e6
        if module.split(".")[0] == "diamforge":
            own += self_us / 1e6
    return {"total": total, "sympy": sympy, "diamforge_self": own}
