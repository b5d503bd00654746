"""The span contract of ``perfbench/spans.py``: every function the benchmark
wraps exists, and ``construct`` calls each one whose time it reports."""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from diamforge import assembly, cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    """perfbench/spans.py loaded from source, writing no bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists(spans):
    for layer, names in spans.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"diamforge.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_construct_feeds_every_span_it_reports(spans, monkeypatch):
    """One order per residue, all parametric: each construct span the
    benchmark indexes is recorded, the ring is never expanded into
    triangles, and encode_triples only ever sees attachment plans."""
    tracer, encoded = spans.Tracer(), []
    with tracer.patch():
        traced_encode = assembly.encode_triples

        def encode(seq, n=None):
            encoded.append(len(seq))
            return traced_encode(seq, n)

        with monkeypatch.context() as patch:
            patch.setattr(assembly, "encode_triples", encode)
            for n in range(36, 40):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(["construct", "--n", str(n)]) == 0

    names = {s.name for s in tracer.spans}
    want = {
        "core.encode_triples", "core.is_good", "core.certify",
        "genseq.expand_to_circular", "genseq.expand_pair_of", "genseq.cut_circular",
        "genseq.gs_full", "genseq.gs_missing_12", "genseq.gs_missing_1248",
        "assembly.attach_4k4", "assembly.attach_4k3", "assembly.attach_4k6",
        "assembly.construct_optimal",
    }
    assert want <= names, sorted(want - names)
    assert "core.expand_pair" not in names
    plan_a, plan_b = assembly.attach_4k6(8)
    plans = [assembly.attach_4k4(8), plan_a, plan_b, assembly.attach_4k3(9)]
    assert encoded == [len(p) for p in plans]


# Every span perfbench/run.py's traced run reads by name from its totals; a
# name missing there ends the run in KeyError.
INDEXED = {
    "core": ("expand_pair", "encode_triples", "is_good", "dual_diameter", "certify"),
    "genseq": ("gs_full", "gs_missing_12", "gs_missing_1248", "expand_to_circular",
               "expand_pair_of", "cut_circular"),
    "assembly": ("attach_4k4", "attach_4k3", "attach_4k6", "construct_optimal"),
    "hampack": ("decompose_prime", "cycles_from_sequences", "square_edges",
                "verify_partition", "ord_mod"),
    "oracle": ("search_max_diameter",),
    "cli": ("main",),
}


def test_every_span_the_traced_run_indexes_is_recorded(spans, tmp_path):
    """One call per verb the traced run replays records every span it reads.
    Only a walk that reuses an edge reaches expand_pair and dual_diameter,
    so certify's fallback must keep calling them."""
    reuse = tmp_path / "reuse.json"
    # {0,1,2}, {1,2,3}, {2,3,0}: the last step re-covers {0, 2}.
    reuse.write_text(json.dumps({"n": 5, "labels": [0, 1, 2, 3, 0], "layout": [0, 0]}))
    runs = [(["construct", "--n", str(n)], 0) for n in range(36, 40)]
    runs += [(["verify", "--input", str(reuse)], 1), (["search", "--n", "6", "--budget", "0"], 0),
             (["decompose", "--p", "13"], 0), (["decompose", "--builtin", "105"], 0)]
    tracer = spans.Tracer()
    with tracer.patch():
        for argv, rc in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == rc, argv
    names = {s.name for s in tracer.spans}
    want = {f"{layer}.{name}" for layer, fns in INDEXED.items() for name in fns}
    assert want <= names, sorted(want - names)


# Loads spans.py the way perfbench/run.py does, after importing only the CLI.
PATCH_AFTER_CLI = """
import importlib.util, sys
sys.dont_write_bytecode = True
import diamforge.cli
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = spans
spec.loader.exec_module(spans)

def functions():
    return {(layer, name): getattr(sys.modules[f"diamforge.{layer}"], name)
            for layer, names in spans.LAYER_FUNCTIONS.items() for name in names}

with spans.Tracer().patch():
    inside = functions()
after = functions()
for key, fn in inside.items():
    assert getattr(fn, "__wrapped__", None) is after[key], ("not wrapped", key)
    assert not hasattr(after[key], "__wrapped__"), ("not restored", key)
"""


def test_patch_after_a_fresh_cli_import_wraps_every_layer():
    """In a fresh interpreter, where ``import diamforge.cli`` is all that ran,
    the patch wraps every listed function and puts each back on exit.  The
    tests above cannot show a layer missing from ``sys.modules``: conftest
    has imported every layer before they run."""
    res = subprocess.run([sys.executable, "-c", PATCH_AFTER_CLI, str(SPANS)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
