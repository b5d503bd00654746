"""Command-line front end.

Every verb prints one JSON object on stdout (keys sorted, compact, newline
terminated) so output can be piped or diffed byte for byte.  Diagnostics go
to stderr.  Exit codes: 0 success, 1 verification failure, 2 bad arguments.
A verb rejects an argument or an input file by raising ValueError, and
:func:`main` prints its message and exits 2.
"""

from __future__ import annotations

import json
import sys
from operator import itemgetter
from types import SimpleNamespace

# Each layer runs its code only when a verb first reaches into it (see the
# package docstring): decompose runs hampack alone, every other verb core.
# The input-file readers of verify and decompose --input are in _input,
# which those two import when they run.
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
    from ._input import _load, _pair

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
        from ._input import _checked_decomposition, _load

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


# Each verb's help line, handler and options.  An option is (flag, kind,
# default, help): kind is int, str, a tuple of choices or bool for a switch.
# Default _REQUIRED marks a required option, _ONE_OF a member of the verb's
# required mutually exclusive group, whose default is None.
_REQUIRED, _ONE_OF = object(), object()
_VERBS = {
    "construct": ("build the optimal complex for n vertices", _cmd_construct, (
        ("--n", int, _REQUIRED, None),
        ("--format", ("json", "text"), "json", None),
    )),
    "verify": ("certify a labels/layout pair from a JSON file", _cmd_verify, (
        ("--input", str, _REQUIRED, None),
        ("--circular-ok", bool, False,
         "accept circular complexes (exit 0 even though they close up)"),
    )),
    "genseq": ("emit a generating sequence for modulus n = 4k+1", _cmd_genseq, (
        ("--n", int, _REQUIRED, None),
        ("--missing", ("none", "12", "1248"), "none", None),
    )),
    "decompose": ("partition complete-graph edges into cycle squares", _cmd_decompose, (
        ("--p", int, _ONE_OF, "prime: strides matching each +- class s with 2s"),
        ("--builtin", int, _ONE_OF, "built-in sequence data (105)"),
        ("--input", str, _ONE_OF, "JSON file with a candidate decomposition"),
    )),
    "search": ("exhaustive small-n diameter search", _cmd_search, (
        ("--n", int, _REQUIRED, None),
        # None stands for oracle.DEFAULT_BUDGET, read only when search runs.
        ("--budget", int, None, "node limit, 0 = unlimited"),
        ("--jobs", int, 1, "accepted for compatibility; the search runs in one process"),
    )),
    "table": ("look up a transcribed small-n optimal pair", _cmd_table, (
        ("--n", int, _REQUIRED, None),
    )),
}


def _build_parser():
    # Imported here: argparse, its gettext and locale, and seven parsers cost
    # a run about 7 ms, more than a small verb's work.
    import argparse

    parser = argparse.ArgumentParser(
        prog="diamforge",
        description="Maximum-diameter triangle complexes and Hamilton-square packings.",
    )
    parser.add_argument(
        "--seed", type=int, help="reserved; all commands are deterministic and ignore it"
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (summary, func, options) in _VERBS.items():
        p = sub.add_parser(verb, help=summary)
        group = None
        for flag, kind, default, text in options:
            kw = {bool: {"action": "store_true"}, int: {"type": int}, str: {}}.get(
                kind, {"choices": kind}
            )
            if default is _ONE_OF:
                group = group or p.add_mutually_exclusive_group(required=True)
                group.add_argument(flag, help=text, **kw)
            elif default is _REQUIRED:
                p.add_argument(flag, help=text, required=True, **kw)
            else:
                p.add_argument(flag, help=text, default=default, **kw)
        p.set_defaults(func=func)
    return parser


def _read(kind, text: str):
    """``text`` as argparse reads a value of ``kind``.  Raises ValueError where
    argparse refuses it, and for text starting with "-", which argparse may
    read as a flag or as a negative number."""
    if text.startswith("-"):
        raise ValueError(text)
    if kind is int:
        return int(text)
    if kind is not str and text not in kind:
        raise ValueError(text)
    return text


def _match(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would make of a plain ``argv``, else None.

    Plain is ``[--seed INT] VERB (--flag VALUE | --switch)*``: each flag of
    the verb spelled in full and given at most once, and every value,
    required option and exclusive group valid.  Help, abbreviations,
    ``--flag=value``, repeated flags and every error are left to argparse.
    """
    seed = None
    if argv[:1] == ["--seed"] and len(argv) > 1:
        seed, argv = argv[1], argv[2:]
    if not argv or argv[0] not in _VERBS:
        return None
    _, func, options = _VERBS[argv[0]]
    kinds = {flag: kind for flag, kind, _, _ in options}
    given = {}
    rest = iter(argv[1:])
    try:
        seed = None if seed is None else _read(int, seed)
        for flag in rest:
            if flag not in kinds or flag in given:
                return None
            given[flag] = kinds[flag] is bool or _read(kinds[flag], next(rest, "-"))
    except ValueError:
        return None
    args = {"seed": seed, "verb": argv[0], "func": func}
    for flag, _, default, _ in options:
        value = given.get(flag, default)
        if value is _REQUIRED:
            return None
        args[flag[2:].replace("-", "_")] = None if value is _ONE_OF else value
    group = [flag in given for flag, _, default, _ in options if default is _ONE_OF]
    if group and sum(group) != 1:
        return None
    return SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _match(argv) or _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        return _fail(str(exc), 2)
