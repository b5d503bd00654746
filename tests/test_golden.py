"""Byte identity of the command-line interface.

Each verb's corpus runs in process through :func:`diamforge.cli.main`; the
sha256 of every invocation's arguments, exit code and stdout is pinned, so a
change that alters any output byte or exit code fails here.  Regenerate a
digest only for a deliberate output change, and say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from diamforge.cli import main

CORPUS = {
    "construct": [
        ["construct", "--n", str(n), "--format", fmt]
        for n in [*range(3, 61), *range(400, 404)]
        for fmt in ("json", "text")
    ],
    "genseq": [
        ["genseq", "--n", str(4 * k + 1), "--missing", missing]
        for k in range(1, 40)
        for missing in ("none", "12", "1248")
    ],
    "table": [["table", "--n", str(n)] for n in range(1, 32)],
    "decompose": [
        ["decompose", "--p", str(p)] for p in (13, 29, 37, 53, 61, 101, 8, 1000003)
    ]
    + [["decompose", "--builtin", "105"]],
    "search": [["search", "--n", str(n)] for n in range(3, 9)],
}

DIGESTS = {
    "construct": "4301565cb8248bfaa3ec91b11f5ad1df5eb95f0b89e39e8274ebb86df5b3daa8",
    "genseq": "3d7de6eee6176c680b8f194cf9866df34a23236645ac23cd4e5a71dc782a8aab",
    "table": "bc52e9c5afccbf74b4f51383b270a5e6add3fa4d2f2682d765bd76e71ba7396d",
    "decompose": "f7aa0b080d6efd9ac7efc5982b9f40d30aa5c174c51bfbc4c9aaa2435daacdd0",
    "search": "64c66f14b7c1fd01b0df0e21f782e7a4477c156a270393962a56c8bdd6e8b8fa",
}


def corpus_digest(invocations: list[list[str]]) -> str:
    """sha256 over each invocation's argv, exit code and stdout, in order."""
    h = hashlib.sha256()
    for argv in invocations:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
        h.update(f"{' '.join(argv)}\n{rc}\n".encode())
        h.update(out.getvalue().encode())
    return h.hexdigest()


@pytest.mark.parametrize("verb", sorted(CORPUS))
def test_cli_output_digest(verb):
    assert corpus_digest(CORPUS[verb]) == DIGESTS[verb]
