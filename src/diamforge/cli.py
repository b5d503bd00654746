"""Command-line front end.

Every verb prints one JSON object on stdout (keys sorted, compact, newline
terminated) so output can be piped or diffed byte for byte.  Diagnostics go
to stderr.  Exit codes: 0 success, 1 verification failure, 2 bad arguments.
A verb rejects an argument or an input file by raising ValueError, and
:func:`main` prints its message and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from operator import itemgetter

# Each layer runs its code only when a verb first reaches into it (see the
# package docstring): decompose runs hampack alone, every other verb core.
from . import assembly, core, genseq, hampack, oracle

__all__ = ["main"]

# genseq refuses a larger --n before any work: its memory grows linearly in
# n, and a run at the ceiling peaks below 200 MB.
MAX_GENSEQ_N = 1_000_001


def _record(rec) -> dict:
    """A record's fields by name, in ``__slots__`` order."""
    return {name: getattr(rec, name) for name in rec.__slots__}


def _dumps(obj) -> str:
    # Records nested in obj print as their fields.
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_record)


def _emit(obj: dict, n: int = 0, **arrays) -> None:
    """Print ``obj`` and ``arrays`` as one JSON object on one line.

    The line equals ``_dumps({**obj, **arrays})`` + a newline, with a bytes
    value read as its list of ints.  Each other value in ``arrays`` holds
    vertex ids in range(n): a tuple of ids, or a list of such tuples.  Those
    ids go through a table ``names[x] = str(x)``, built only when some array
    is non-empty.  A bytes value holds 0/1 bits.  Both reach stdout as
    :func:`_write_ids` writes them, or one inner tuple per write.
    """
    write = sys.stdout.write
    names = list(map(str, range(n))) if any(arrays.values()) else None
    write("{")
    for i, key in enumerate(sorted(obj.keys() | arrays.keys())):
        write(("," if i else "") + _dumps(key) + ":")
        xs = arrays.get(key)
        if xs is None:
            write(_dumps(obj[key]))
        elif type(xs) is list:
            write("[")
            for j, row in enumerate(xs):
                write(("," if j else "") + "[" + _joined(",", row, names) + "]")
            write("]")
        else:
            write("[")
            _write_ids(xs, names, ",")
            write("]")
    write("}\n")


def _fail(message: str, code: int) -> int:
    print(f"diamforge: {message}", file=sys.stderr)
    return code


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


def _pair(n, labels, layout) -> core.LabelsLayout:
    return core.LabelsLayout(
        _int("n", n), _int_list("labels", labels), _int_list("layout", layout)
    )


def _checked_decomposition(n, cycles) -> tuple:
    n = _int("n", n)
    if not isinstance(cycles, list):
        raise ValueError(f"cycles: expected a list of cycles, got {json.dumps(cycles)}")
    dec = hampack.Decomposition(n, [hampack.CycleSquare(_int_list("cycles", c)) for c in cycles])
    return dec, hampack.verify_partition(dec)  # rejects cycles below five vertices


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _joined(sep: str, ids: tuple[int, ...], names: list[str]) -> str:
    """``sep.join(names[x] for x in ids)``, the names gathered in one C call."""
    if len(ids) > 1:
        return sep.join(itemgetter(*ids)(names))
    return names[ids[0]] if ids else ""  # itemgetter returns one name bare


def _write_ids(xs: tuple[int, ...] | bytes, names: list[str], sep: str) -> None:
    """Write the items of ``xs``, ``sep`` between them, 4096 per write: each
    id x of a tuple as ``names[x]``, and the 0/1 bits of a bytes object as
    digits, filled at C speed into the even bytes of a ``sep``-filled buffer
    that keeps its trailing ``sep`` on every chunk but the last."""
    write = sys.stdout.write
    if type(xs) is bytes:
        buf = bytearray(sep.encode() * 8192)
        for i in range(0, len(xs), 4096):
            chunk = xs[i : i + 4096].translate(_DIGITS)
            buf[: 2 * len(chunk) : 2] = chunk
            write(buf[: 2 * len(chunk) - (i + 4096 >= len(xs))].decode())
        return
    for i in range(0, len(xs), 4096):
        write((sep if i else "") + _joined(sep, xs[i : i + 4096], names))


def _write_words(head: str, xs: tuple[int, ...] | bytes, n: int = 0) -> None:
    """Write ``head`` and ``xs``, ids in range(n) or bits, as one line."""
    sys.stdout.write(head + " ")
    _write_ids(xs, list(map(str, range(n))), " ")
    sys.stdout.write("\n")


def _cmd_construct(args) -> int:
    pair, cert = assembly.construct_optimal(args.n)
    layout = bytes(pair.layout)  # bits, which _write_ids writes at C speed
    if args.format == "text":
        print(f"n: {args.n}")
        _write_words("labels:", pair.labels, pair.n)
        _write_words("layout:", layout)
        print(f"diameter: {cert.diameter}")
        print(f"optimum: {cert.optimum}")
        print(f"covered edges: {cert.covered_edges}")
        uncov = ", ".join(f"({u},{v})" for u, v in cert.uncovered_edges) or "none"
        print(f"uncovered edges: {uncov}")
        return 0
    _emit({"n": pair.n, "certificate": cert}, pair.n, labels=pair.labels, layout=layout)
    return 0


def _cmd_verify(args) -> int:
    pair = _load(args.input, ("n", "labels", "layout"), _pair)
    try:
        cert = core.certify(pair)
    except ValueError as exc:
        return _fail(f"expansion failed: {exc}", 1)
    _emit(_record(cert))
    return 0 if cert.good and (args.circular_ok or not cert.circular) else 1


def _cmd_genseq(args) -> int:
    n = args.n
    if n < 5 or n % 4 != 1:
        raise ValueError(f"modulus must be 4k+1, got {n}")
    if n > MAX_GENSEQ_N:
        raise ValueError(f"n = {n} exceeds the ceiling {MAX_GENSEQ_N}")
    family = {"none": genseq.gs_full, "12": genseq.gs_missing_12, "1248": genseq.gs_missing_1248}
    gs = family[args.missing](n // 4)
    report = genseq.verify_generating_sequence(gs)
    _emit(
        {
            "n": gs.n,
            "terms": gs.terms,
            "turns": sorted(gs.turns),
            "missing": sorted(report.missing),
        }
    )
    if not report.valid:
        return _fail(f"sequence failed verification: {report.reason}", 1)
    return 0


def _cmd_decompose(args) -> int:
    if args.input is not None:
        dec, report = _load(args.input, ("n", "cycles"), _checked_decomposition)
    else:
        if args.p is not None:
            dec = hampack.decompose_prime(args.p)
        elif args.builtin == 105:
            dec = hampack.cycles_from_sequences(105, hampack.SEQUENCES_105)
        else:
            raise ValueError(f"no built-in decomposition for n={args.builtin}")
        report = hampack.verify_partition(dec)
    _emit({"n": dec.n, "report": report}, dec.n, cycles=[c.order for c in dec.cycles])
    return 0 if report.ok else 1


def _cmd_search(args) -> int:
    budget = oracle.DEFAULT_BUDGET if args.budget is None else args.budget
    _emit(_record(oracle.search_max_diameter(args.n, budget=budget, jobs=args.jobs)))
    return 0


def _cmd_table(args) -> int:
    entry = assembly.small_table(args.n)
    if entry is None:
        return _fail(f"no table entry for n={args.n}", 1)
    _emit(_record(entry.pair))
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
    grp.add_argument("--p", type=int, help="prime: strides matching each +- class s with 2s")
    grp.add_argument("--builtin", type=int, help="built-in sequence data (105)")
    grp.add_argument("--input", help="JSON file with a candidate decomposition")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("search", help="exhaustive small-n diameter search")
    p.add_argument("--n", type=int, required=True)
    # None stands for oracle.DEFAULT_BUDGET, read only when search runs.
    p.add_argument("--budget", type=int, help="node limit, 0 = unlimited")
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
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        return _fail(str(exc), 2)
