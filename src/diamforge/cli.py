"""Command-line front end.

Every verb prints one JSON object on stdout (keys sorted, compact, newline
terminated) so output can be piped or diffed byte for byte.  Diagnostics go
to stderr.  Exit codes: 0 success, 1 verification failure, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import json
import sys

from .assembly import construct_optimal, small_table
from .core import Certificate, LabelsLayout, certify, encode_triples, expand_pair
from .genseq import gs_full, gs_missing_12, gs_missing_1248, verify_generating_sequence
from .hampack import (
    SEQUENCES_105,
    CycleSquare,
    Decomposition,
    cycles_from_sequences,
    decompose_prime,
    verify_partition,
)
from .oracle import search_max_diameter

__all__ = ["main"]


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _fail(message: str, code: int) -> int:
    print(f"diamforge: {message}", file=sys.stderr)
    return code


def _cert_dict(cert: Certificate) -> dict:
    return {
        "good": cert.good,
        "circular": cert.circular,
        "covered_edges": cert.covered_edges,
        "diameter": cert.diameter,
        "optimum": cert.optimum,
        "matches_optimum": cert.matches_optimum,
        "uncovered_edges": [list(e) for e in cert.uncovered_edges],
    }


def _pair_dict(pair: LabelsLayout) -> dict:
    return {
        "n": pair.n,
        "labels": list(pair.labels),
        "layout": list(pair.layout),
    }


def _load_json(path: str) -> dict | None:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"diamforge: cannot read {path}: {exc}", file=sys.stderr)
        return None
    except json.JSONDecodeError as exc:
        print(f"diamforge: {path} is not valid JSON: {exc}", file=sys.stderr)
        return None
    if not isinstance(data, dict):
        print(f"diamforge: {path}: expected a JSON object", file=sys.stderr)
        return None
    return data


def _int(what: str, x) -> int:
    # bool is a subclass of int, so compare the type itself.
    if type(x) is not int:
        raise ValueError(f"{what}: expected an integer, got {json.dumps(x)}")
    return x


def _int_list(what: str, xs) -> tuple[int, ...]:
    if not isinstance(xs, list):
        raise ValueError(f"{what}: expected a list of integers, got {json.dumps(xs)}")
    return tuple(_int(what, x) for x in xs)


def _load_pair(path: str) -> LabelsLayout | None:
    data = _load_json(path)
    if data is None:
        return None
    try:
        n = data["n"]
        labels = data["labels"]
        layout = data["layout"]
    except KeyError as exc:
        print(f"diamforge: {path}: missing key {exc}", file=sys.stderr)
        return None
    try:
        return LabelsLayout(
            _int("n", n), _int_list("labels", labels), _int_list("layout", layout)
        )
    except (TypeError, ValueError) as exc:
        print(f"diamforge: {path}: {exc}", file=sys.stderr)
        return None


def _cmd_construct(args) -> int:
    try:
        seq, cert = construct_optimal(args.n)
    except ValueError as exc:
        return _fail(str(exc), 2)
    pair = encode_triples(seq)
    if args.format == "text":
        print(f"n: {args.n}")
        print("labels: " + " ".join(str(x) for x in pair.labels))
        print("layout: " + " ".join(str(y) for y in pair.layout))
        print(f"diameter: {cert.diameter}")
        print(f"optimum: {cert.optimum}")
        print(f"covered edges: {cert.covered_edges}")
        uncov = ", ".join(f"({u},{v})" for u, v in cert.uncovered_edges) or "none"
        print(f"uncovered edges: {uncov}")
        return 0
    out = _pair_dict(pair)
    out["certificate"] = _cert_dict(cert)
    _emit(out)
    return 0


def _cmd_verify(args) -> int:
    pair = _load_pair(args.input)
    if pair is None:
        return 2
    try:
        seq = expand_pair(pair)
    except ValueError as exc:
        return _fail(f"expansion failed: {exc}", 1)
    cert = certify(seq, pair.n)
    _emit(_cert_dict(cert))
    if not cert.good:
        return 1
    if cert.circular and not args.circular_ok:
        return 1
    return 0


def _cmd_genseq(args) -> int:
    n = args.n
    if n < 5 or n % 4 != 1:
        return _fail(f"modulus must be 4k+1, got {n}", 2)
    k = n // 4
    try:
        if args.missing == "none":
            gs = gs_full(k)
        elif args.missing == "12":
            gs, _ = gs_missing_12(k)
        else:
            gs, _ = gs_missing_1248(k)
    except ValueError as exc:
        return _fail(str(exc), 2)
    report = verify_generating_sequence(gs)
    _emit(
        {
            "n": gs.n,
            "terms": list(gs.terms),
            "turns": sorted(gs.turns),
            "missing": sorted(report.missing),
        }
    )
    if not report.valid:
        return _fail(f"sequence failed verification: {report.reason}", 1)
    return 0


def _cmd_decompose(args) -> int:
    if args.p is not None:
        try:
            dec = decompose_prime(args.p)
        except ValueError as exc:
            return _fail(str(exc), 2)
    elif args.builtin is not None:
        if args.builtin != 105:
            return _fail(f"no built-in decomposition for n={args.builtin}", 2)
        dec = cycles_from_sequences(105, [list(s) for s in SEQUENCES_105])
    else:
        data = _load_json(args.input)
        if data is None:
            return 2
        try:
            cycles = tuple(CycleSquare(_int_list("cycles", c)) for c in data["cycles"])
            dec = Decomposition(_int("n", data["n"]), cycles)
        except (KeyError, TypeError, ValueError) as exc:
            return _fail(f"bad decomposition input: {exc}", 2)
    report = verify_partition(dec)
    _emit(
        {
            "n": dec.n,
            "cycles": [list(c.order) for c in dec.cycles],
            "report": {
                "ok": report.ok,
                "missing": [list(e) for e in report.missing],
                "doubled": [list(e) for e in report.doubled],
            },
        }
    )
    return 0 if report.ok else 1


def _cmd_search(args) -> int:
    try:
        result = search_max_diameter(args.n, budget=args.budget, jobs=args.jobs)
    except ValueError as exc:
        return _fail(str(exc), 2)
    _emit(
        {
            "n": result.n,
            "best_diameter": result.best_diameter,
            "witness": _pair_dict(result.witness),
            "exhaustive": result.exhaustive,
            "nodes_explored": result.nodes_explored,
        }
    )
    return 0


def _cmd_table(args) -> int:
    entry = small_table(args.n)
    if entry is None:
        return _fail(f"no table entry for n={args.n}", 1)
    _emit(_pair_dict(entry.pair))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamforge",
        description="Maximum-diameter triangle complexes and Hamilton-square packings.",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="reserved; all commands are deterministic and ignore it",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("construct", help="build the optimal complex for n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="certify a labels/layout pair from a JSON file")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--circular-ok",
        action="store_true",
        help="accept circular complexes (exit 0 even though they close up)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("genseq", help="emit a generating sequence for modulus n = 4k+1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--missing", choices=("none", "12", "1248"), default="none")
    p.set_defaults(func=_cmd_genseq)

    p = sub.add_parser("decompose", help="partition complete-graph edges into cycle squares")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--p", type=int, help="prime for the coset construction")
    grp.add_argument("--builtin", type=int, help="built-in sequence data (105)")
    grp.add_argument("--input", help="JSON file with a candidate decomposition")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("search", help="exhaustive small-n diameter search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=None, help="node limit, 0 = unlimited")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for compatibility; the search runs in one process",
    )
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("table", help="look up a transcribed small-n optimal pair")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
