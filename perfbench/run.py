#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the diamforge CLI.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 30 --trace 0

Run from a source checkout: the program under test is ``src/diamforge``,
started as ``python -m diamforge`` with ``src`` on PYTHONPATH, so nothing
has to be installed or built.

``--trace 0`` is a closed loop: one CLI invocation at a time, the next one
starting when the previous has exited, the workload's invocations cycled
for about ``--seconds``.  It reports the end-to-end metrics, with times in
seconds at the nominal speed of a fixed yardstick task timed before every
invocation (see ``yardstick``).  ``--trace 1``
replays every workload once in-process through ``diamforge.cli.main`` with
spans around each layer's public functions (see spans.py) and reports the
per-layer metrics; its ``--workload`` only names the record.

Every invocation's output is checked against values the benchmark derives
itself (workloads.py).  The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
full record (provenance, per-invocation exit codes, stdout sha256 digests,
rounds).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import importlib.metadata
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402
from spans import LAYER_FUNCTIONS, Tracer, parse_importtime, span_totals  # noqa: E402

SETUP_PROBES = 7  # fresh interpreters timed for setup_s; the median is reported
YARDSTICK_NOMINAL_S = 0.15  # yardstick() median on the 2-core x86_64 VM it was tuned on
IMPORTTIME_PROBES = 5
INVOCATION_TIMEOUT_S = 150
SEARCH_NOTE = ("search wall time depends on the worker count min(2, nproc); compare it "
               "only between machines with the same nproc")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# outcome bookkeeping
# ---------------------------------------------------------------------------

class Tally:
    """Counts attempted and failed invocations and keeps one record per
    distinct invocation: exit code, stdout digest and size, first error.

    Outputs are checked in ``finish``, after the timed loop, once per
    distinct (exit code, stdout digest); identical repeats share the
    verdict.  An output that differs from the first one seen for the same
    invocation is a failure, since every verb is deterministic.
    """

    def __init__(self) -> None:
        self.records: dict[str, dict] = {}
        self._outputs: dict[tuple, list] = {}  # (label, rc, digest) -> [check, stdout, runs]

    def record(self, label: str, rc: int, stdout: bytes, check, wall: float | None = None,
               rss_kb: int | None = None) -> None:
        digest = hashlib.sha256(stdout).hexdigest()
        rec = self.records.setdefault(label, {
            "exit_code": rc, "stdout_sha256": digest, "stdout_bytes": len(stdout),
            "runs": 0, "walls_s": [], "max_rss_mb": None, "failures": 0, "error": None})
        rec["runs"] += 1
        self._outputs.setdefault((label, rc, digest), [check, stdout, 0])[2] += 1
        if wall is not None:
            rec["walls_s"].append(wall)
        if rss_kb is not None:
            rec["max_rss_mb"] = max(rec["max_rss_mb"] or 0, rss_kb / 1024)

    def finish(self) -> tuple[int, int]:
        """Check every distinct output; return (attempted, failed)."""
        for (label, rc, digest), (check, stdout, runs) in self._outputs.items():
            rec = self.records[label]
            try:
                error = check(rc, stdout)
            except Exception as exc:  # a malformed output must count, not crash the run
                error = f"check raised {type(exc).__name__}: {exc}"
            if error is None and (rc, digest) != (rec["exit_code"], rec["stdout_sha256"]):
                error = "output differs from an earlier run of the same invocation"
            if error is not None:
                rec["failures"] += runs
                rec["error"] = rec["error"] or error
                print(f"perfbench: FAILED {label}: {error}", file=sys.stderr)
        self._outputs.clear()
        return (sum(r["runs"] for r in self.records.values()),
                sum(r["failures"] for r in self.records.values()))


def yardstick() -> float:
    """Seconds taken by a fixed pure-Python task in the style of the program.

    On a shared host the same call runs up to 2x slower for tens of seconds
    at a time.  end_to_end() times this task before every invocation and
    scales its times by the nominal over the run's median yardstick, which
    cancels most of that drift.  The task must never change: a changed
    yardstick changes every end-to-end figure.
    """
    start = time.perf_counter()
    n = 300
    tris = [frozenset((a, (a + d) % n, (a + 2 * d) % n)) for d in range(1, 140) for a in range(n)]
    counts: collections.Counter = collections.Counter()
    for tri in tris:
        a, b, c = sorted(tri)
        counts[(a, b)] += 1
        counts[(a, c)] += 1
        counts[(b, c)] += 1
    missing = sorted({(u, v) for u in range(n) for v in range(u + 1, n)} - set(counts))
    json.dumps([list(e) for e in missing])
    return time.perf_counter() - start


def expect_exit_zero(rc: int, stdout: bytes) -> str | None:
    return None if rc == 0 else f"exit code {rc}"


# ---------------------------------------------------------------------------
# running the CLI
# ---------------------------------------------------------------------------

def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], env: dict[str, str], stderr_path: Path) -> tuple[int, bytes, float, int]:
    """Run ``python <args>`` to completion; return exit code, stdout, wall
    seconds (interpreter start included) and peak RSS in KiB from wait4."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            timer.cancel()
        return proc.returncode, out, time.perf_counter() - start, usage.ru_maxrss


def call_main(argv: tuple[str, ...]) -> tuple[int, bytes, float]:
    """Run ``diamforge.cli.main(argv)`` in-process with stdout captured."""
    import diamforge.cli

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = diamforge.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue().encode(), time.perf_counter() - start


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float, tally: Tally, work: Path) -> tuple[dict, dict]:
    env = program_env()
    t0 = time.perf_counter()
    invs = wl.invocations(workload, seed, work, nproc())
    inputs_s = time.perf_counter() - t0

    # Set-up: fresh interpreters importing diamforge, after one unmeasured
    # import that writes the bytecode caches.
    spawn(["-c", "import diamforge"], env, work / "stderr")
    setups, yard = [], []
    for _ in range(SETUP_PROBES):
        yard.append(yardstick())
        rc, out, wall, _ = spawn(["-c", "import diamforge"], env, work / "stderr")
        tally.record("import diamforge", rc, out, expect_exit_zero, wall)
        setups.append(wall)

    # Closed loop over the workload's invocations in order, one at a time,
    # for at least one whole round and then until the next invocation would
    # overrun --seconds.  wall_s sums each invocation's median wall time,
    # which damps one-off stalls.
    walls: list[list[float]] = [[] for _ in invs]
    peak_kb = 0
    start = time.perf_counter()
    for i in itertools.count():
        if i >= len(invs):
            nxt = statistics.median(walls[i % len(invs)]) + statistics.median(yard)
            if time.perf_counter() - start + nxt > seconds:
                break
        inv = invs[i % len(invs)]
        yard.append(yardstick())
        rc, out, wall, rss = spawn(["-m", "diamforge", *inv.argv], env, work / "stderr")
        tally.record(inv.label, rc, out, inv.check, wall, rss)
        walls[i % len(invs)].append(wall)
        peak_kb = max(peak_kb, rss)

    # Times are reported in seconds at the nominal yardstick speed.
    scale = YARDSTICK_NOMINAL_S / statistics.median(yard)
    wall_raw = sum(statistics.median(w) for w in walls)
    setup_raw = statistics.median(setups)
    items = sum(inv.items for inv in invs)
    metrics = {
        "wall_s": (wall_raw * scale, "s"),
        "setup_s": (setup_raw * scale, "s"),
        "items_per_s": (items / (wall_raw * scale), "items/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    detail = {"rounds": len(walls[-1]), "items_per_round": items, "inputs_s": inputs_s,
              "raw_wall_s": wall_raw, "raw_setup_s": setup_raw,
              "yardstick_s": statistics.median(yard), "yardstick_runs": len(yard),
              "scale": scale, "inputs": input_digests(invs)}
    return metrics, detail


def traced(seed: int, tally: Tally, work: Path) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    import diamforge
    import diamforge.oracle

    if Path(diamforge.__file__).resolve().parent != SRC / "diamforge":
        raise RuntimeError(f"imported diamforge from {diamforge.__file__}, not {SRC}")
    env = program_env()
    jobs = wl.jobs_for(nproc())
    invs = {w: wl.invocations(w, seed, work, nproc()) for w in wl.WORKLOADS}

    probes, yard = [], []
    for _ in range(IMPORTTIME_PROBES):
        yard.append(yardstick())
        rc, _, _, _ = spawn(["-X", "importtime", "-c", "import diamforge"], env, work / "stderr")
        tally.record("importtime diamforge", rc, b"", expect_exit_zero)
        probes.append(parse_importtime((work / "stderr").read_text()))
    imports = {k: statistics.median(p[k] for p in probes) for k in probes[0]}

    # Each construct, verify and pack call runs twice, with spans on and off,
    # in alternating order, so the tracing overhead is a paired difference.
    # search runs traced only: it makes three spans per call and its DFS runs
    # in worker processes, so a second run would cost seconds and show nothing.
    tracer = Tracer()
    requests: dict[str, set[int]] = {w: set() for w in wl.WORKLOADS}
    walls: dict[str, float] = dict.fromkeys(wl.WORKLOADS, 0.0)
    untraced = 0.0
    stdout_bytes = 0
    search_out = b""
    per_call: dict[str, dict[str, float]] = {}
    for w in wl.WORKLOADS:
        for i, inv in enumerate(invs[w]):
            for spans_on in ((True,) if w == "search" else (i % 2 == 0, i % 2 == 1)):
                if spans_on:
                    first = len(tracer.spans)
                    requests[w].add(first)
                    with tracer.patch():
                        rc, out, wall = call_main(inv.argv)
                    walls[w] += wall
                    per_call[inv.label] = span_totals(tracer.spans[first:])
                    stdout_bytes += len(out)
                else:
                    rc, out, wall = call_main(inv.argv)
                    untraced += wall
                tally.record(f"in-process {inv.label}", rc, out, inv.check)
            if w == "search":
                search_out = out

    start = time.perf_counter()
    serial = diamforge.oracle.search_max_diameter(wl.SEARCH_N, budget=0, jobs=1)
    jobs1_s = time.perf_counter() - start
    tally.record("in-process search jobs=1", 0, b"", lambda rc, out: jobs1_error(serial, search_out))

    tot, cnt, own = span_totals(tracer.spans), tracer.counts(), tracer.layer_self()
    search_s = tot["oracle.search_max_diameter"]
    build_s = tot["assembly.construct_optimal"] - sum(
        s.duration for s in tracer.spans
        if s.name == "core.certify" and s.parent >= 0
        and tracer.spans[s.parent].name == "assembly.construct_optimal")
    metrics = {
        "import.total_s": (imports["total"], "s"),
        "import.sympy_s": (imports["sympy"], "s"),
        "import.diamforge_self_s": (imports["diamforge_self"], "s"),
        **{f"core.{f}_s": (tot[f"core.{f}"], "s")
           for f in ("expand_pair", "encode_triples", "is_good", "dual_diameter", "certify")},
        "core.certify_triangles_per_s": (cnt["core.certified_triangles"] / tot["core.certify"], "1/s"),
        "core.uncovered_edges": (cnt["core.uncovered_edges"], "count"),
        "genseq.family_s": (sum(tot[f"genseq.{f}"] for f in
                                ("gs_full", "gs_missing_12", "gs_missing_1248")), "s"),
        **{f"genseq.{f}_s": (tot[f"genseq.{f}"], "s")
           for f in ("expand_to_circular", "expand_pair_of", "cut_circular")},
        "genseq.ring_triangles": (cnt["genseq.ring_triangles"], "count"),
        "assembly.attach_s": (sum(tot[f"assembly.attach_4k{r}"] for r in (3, 4, 6)), "s"),
        "assembly.construct_optimal_s": (tot["assembly.construct_optimal"], "s"),
        "assembly.build_s": (build_s, "s"),
        "cli.main_s": (tot["cli.main"], "s"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        "oracle.search_s": (search_s, "s"),
        "oracle.search_jobs1_s": (jobs1_s, "s"),
        "oracle.nodes": (cnt["oracle.nodes"], "count"),
        "oracle.nodes_per_s": (cnt["oracle.nodes"] / search_s, "1/s"),
        "oracle.parallel_efficiency": (jobs1_s / (jobs * search_s), "ratio"),
        **{f"hampack.{f}_s": (tot[f"hampack.{f}"], "s")
           for f in ("decompose_prime", "cycles_from_sequences", "square_edges",
                     "verify_partition", "ord_mod")},
        "hampack.edges": (cnt["hampack.edges"], "count"),
        **{f"{layer}.self_s": (own[layer], "s") for layer in LAYER_FUNCTIONS},
        "trace.inprocess_s": (sum(walls.values()), "s"),
        "trace.overhead_s": (sum(walls[w] for w in ("construct", "verify", "pack")) - untraced, "s"),
        "trace.yardstick_s": (statistics.median(yard), "s"),
    }
    detail = {
        "jobs1_nodes": serial.nodes_explored,
        "inprocess_s": walls,
        # Share of each workload's in-process time covered by layer self times,
        # and the per-layer split of that time.
        "coverage": {w: sum(tracer.layer_self(requests[w]).values()) / walls[w]
                     for w in wl.WORKLOADS},
        "layer_self_s": {w: dict(tracer.layer_self(requests[w])) for w in wl.WORKLOADS},
        "span_totals_s": tot,
        "per_call_span_totals_s": per_call,
        "spans": len(tracer.spans),
        "inputs": {w: input_digests(invs[w]) for w in wl.WORKLOADS if input_digests(invs[w])},
    }
    return metrics, detail


def jobs1_error(serial, search_out: bytes) -> str | None:
    """The serial search must agree with the parallel CLI answer."""
    try:
        par = json.loads(search_out)
    except ValueError:
        return "no parallel search output to compare with"
    got = (serial.best_diameter, serial.exhaustive, list(serial.witness.labels),
           list(serial.witness.layout))
    want = (par.get("best_diameter"), par.get("exhaustive"),
            par.get("witness", {}).get("labels"), par.get("witness", {}).get("layout"))
    return None if got == want else f"jobs=1 search gave {got[:2]}, the parallel run {want[:2]}"


def input_digests(invs: list[wl.Invocation]) -> dict[str, str]:
    """sha256 of each generated input file, keyed by file name."""
    return {Path(a).name: hashlib.sha256(Path(a).read_bytes()).hexdigest()
            for inv in invs for a in inv.argv if a.endswith(".json")}


# ---------------------------------------------------------------------------
# provenance and entry point
# ---------------------------------------------------------------------------

def provenance(seed: int) -> dict:
    commit = None  # stays None outside a git checkout
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        sympy = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy = None
    return {
        "seed": seed, "nproc": nproc(), "jobs": wl.jobs_for(nproc()),
        "python": platform.python_version(), "sympy": sympy, "machine": platform.machine(),
        "git_commit": commit, "src_sha256": src.hexdigest(), "note": SEARCH_NOTE,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diamforge" / "__init__.py").is_file():
        print(f"perfbench: no diamforge sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    tally = Tally()
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        if args.trace:
            metrics, detail = traced(args.seed, tally, work)
        else:
            metrics, detail = end_to_end(args.workload, args.seed, args.seconds, tally, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()

    attempted, failed = tally.finish()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": provenance(args.seed), "fail_ratio": failed / attempted,
              "invocations": tally.records, **detail, "result": result}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
