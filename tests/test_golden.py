"""Byte identity of the command-line interface.

Each verb's corpus runs in process through :func:`diamforge.cli.main`; the
sha256 of every invocation's arguments, exit code and stdout is pinned, so a
change that alters any output byte or exit code fails here.  Regenerate a
digest only for a deliberate output change, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from conftest import arithmetic, run_main

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
    "construct_large": [
        ["construct", "--n", str(n), "--format", fmt]
        for n in range(404, 408)
        for fmt in ("json", "text")
    ],
    "search_budget": [
        ["search", "--n", "9"],
        ["search", "--n", "10", "--budget", "100000"],
        ["search", "--n", "70", "--budget", "3000"],
        ["search", "--n", "7", "--budget", "40", "--jobs", "2"],
        ["search", "--n", "500", "--budget", "10"],
    ],
}

# Large orders, a few seconds each in process; and a wide sweep of small
# orders, every prime's outcome at --p up to 1013 included.
SLOW_CORPUS = {
    "construct_large_slow": [
        ["construct", "--n", str(n), "--format", fmt]
        for n in range(2000, 2004)
        for fmt in ("json", "text")
    ],
    "sweep_slow": [
        ["construct", "--n", str(n), "--format", fmt]
        for n in range(61, 204)
        for fmt in ("json", "text")
    ]
    + [
        ["genseq", "--n", str(4 * k + 1), "--missing", missing]
        for k in range(40, 101)
        for missing in ("none", "12", "1248")
    ]
    + [["decompose", "--p", str(p)] for p in range(1, 1014)],
}

DIGESTS = {
    "construct": "4301565cb8248bfaa3ec91b11f5ad1df5eb95f0b89e39e8274ebb86df5b3daa8",
    "construct_large": "fca7805c2ae4124faa43e8e67356222500bb06e867ddec86e49a26dc9bc828bb",
    "construct_large_slow": "ff5b0f567730d0b74524dc0285ebf56df28727f6425c176c954891616a7c08ef",
    "sweep_slow": "6046f53aa01201162633f090bec69811ceda30683127416f5fb7e0ab168419f1",
    "genseq": "3d7de6eee6176c680b8f194cf9866df34a23236645ac23cd4e5a71dc782a8aab",
    "table": "bc52e9c5afccbf74b4f51383b270a5e6add3fa4d2f2682d765bd76e71ba7396d",
    "decompose": "f7aa0b080d6efd9ac7efc5982b9f40d30aa5c174c51bfbc4c9aaa2435daacdd0",
    "search": "64c66f14b7c1fd01b0df0e21f782e7a4477c156a270393962a56c8bdd6e8b8fa",
    "search_budget": "45729d7ca221c29d5ec85e0d90d7c156b752cf03575bf443201e1f097784e7b0",
    "verify": "7497c7d69ea692dbfc83c4f4590f2815da3bfa0cff65b47b11e3d4fe0c3b691e",
    "decompose_input": "001fe3ebc7adc8e839259d1d02ff9018adb0b381dbec8ccf8111cd1da95ab68b",
    "usage": "dc8e32d38aed5ebc4f569ac8688e7254812128765376e5779c32a5da282c437b",
}

# Help, argv forms and argument errors: argparse's text and exit codes, with
# stderr pinned as well.
USAGE = [
    ["--help"],
    ["-h"],
    *([verb, "--help"] for verb in ("construct", "verify", "genseq", "decompose", "search", "table")),
    ["--seed", "3", "construct", "--n", "13"],
    ["construct", "--form", "text", "--n", "13"],
    ["construct", "--n=13"],
    ["construct", "--n", "13", "--n", "14"],
    ["construct", "--n", "x"],
    ["construct"],
    ["decompose", "--p", "13", "--builtin", "105"],
    ["search", "--n", "9", "--budget", "-1"],
    ["frobnicate"],
]

# verify's inputs, by name; ``construct`` outputs for n=3..40 are added in
# the test.  A key missing from the input file is left out of its object.
VERIFY_INPUTS = {
    "ring": {"n": 7, "labels": [0, 1, 2, 3, 4, 5, 6, 0, 1], "layout": [0] * 6},
    "reused_edge": {"n": 7, "labels": [0, 1, 2, 3, 4, 5, 6, 0, 1, 2], "layout": [0] * 7},
    "degenerate": {"n": 5, "labels": [0, 1, 2, 2], "layout": [0]},
    "float_label": {"n": 5, "labels": [0, 1, 2.0], "layout": []},
    "bool_n": {"n": True, "labels": [0, 1, 2], "layout": []},
    "string_labels": {"n": 5, "labels": "012", "layout": []},
    "missing_layout": {"n": 5, "labels": [0, 1, 2]},
    "label_out_of_range": {"n": 3, "labels": [0, 1, 3], "layout": []},
}
VERIFY_TEXTS = {"not_json": "{", "not_an_object": "[0, 1, 2]"}


P29 = [arithmetic(29, 0, pow(2, k, 29)) for k in range(0, 14, 2)]

# decompose --input's inputs, by name; the outputs of ``decompose --p 29``,
# ``--p 401`` and ``--builtin 105`` are added in the test.
DECOMPOSE_INPUTS = {
    "p29_shifted_reversed": {
        "n": 29,
        "cycles": [c[i:] + c[:i] if i % 2 else c[::-1] for i, c in enumerate(P29)],
    },
    "missing_edges": {"n": 29, "cycles": P29[:-1]},
    "doubled_edges": {"n": 13, "cycles": [arithmetic(13, 0, s) for s in (1, 2, 5)]},
    "extra_cycle": {"n": 29, "cycles": P29 + P29[:1]},
    "non_arithmetic": {"n": 9, "cycles": [[0, 2, 1, 3, 4, 5, 6, 8, 7], [0, 4, 8, 3, 7, 2, 6, 1, 5]]},
    "composite_unit_steps": {"n": 21, "cycles": [arithmetic(21, 0, s) for s in (1, 4, 5, 8, 10)]},
    "zero_cycles": {"n": 13, "cycles": []},
    "zero_cycles_n40": {"n": 40, "cycles": []},
    "below_five": {"n": 4, "cycles": [[0, 1, 2, 3]]},
    "duplicate_vertex": {"n": 5, "cycles": [[0, 1, 1, 2, 3]]},
    "negative_vertex": {"n": 5, "cycles": [[-1, 0, 1, 2, 3]]},
    "vertex_out_of_range": {"n": 5, "cycles": [[1, 2, 3, 4, 5]]},
    "wrong_order": {"n": 7, "cycles": [[0, 1, 2, 3, 4]]},
    "float_vertex": {"n": 5, "cycles": [[0, 1, 2.0, 3, 4]]},
    "bool_n": {"n": True, "cycles": []},
    "string_cycle": {"n": 5, "cycles": ["01234"]},
    "cycles_not_a_list": {"n": 5, "cycles": 5},
    "missing_cycles": {"n": 5},
}


def corpus_digest(invocations: list[list[str]], keys: list[str] | None = None) -> str:
    """sha256 over each invocation's key (its argv unless given), exit code
    and stdout, in order."""
    h = hashlib.sha256()
    for i, argv in enumerate(invocations):
        rc, out, _ = run_main(argv)
        key = keys[i] if keys else " ".join(argv)
        h.update(f"{key}\n{rc}\n".encode())
        h.update(out.encode())
    return h.hexdigest()


def test_usage_digest(monkeypatch):
    """stdout, stderr and exit code of each usage argv, an argparse exit
    caught, at a fixed terminal width."""
    monkeypatch.setenv("COLUMNS", "80")
    h = hashlib.sha256()
    for argv in USAGE:
        rc, text, err = run_main(argv)
        h.update(f"{' '.join(argv)}\n{rc}\n{len(text)}\n{text}{err}".encode())
    assert h.hexdigest() == DIGESTS["usage"]


@pytest.mark.parametrize(
    "verb", [*sorted(CORPUS), *(pytest.param(v, marks=pytest.mark.slow) for v in SLOW_CORPUS)]
)
def test_cli_output_digest(verb):
    assert corpus_digest({**CORPUS, **SLOW_CORPUS}[verb]) == DIGESTS[verb]


def test_verify_output_digest(tmp_path):
    """verify on construct's own outputs, a good ring, an edge-reusing walk,
    a degenerate triangle and malformed input; keyed by input name, not by
    the temporary path."""
    texts = {f"construct_{n}": run_main(["construct", "--n", str(n)])[1] for n in range(3, 41)}
    texts |= {name: json.dumps(obj) for name, obj in VERIFY_INPUTS.items()}
    texts |= VERIFY_TEXTS
    invocations, keys = [], []
    for name, text in texts.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        for flags in ([], ["--circular-ok"]):
            invocations.append(["verify", "--input", str(path), *flags])
            keys.append(" ".join(["verify", name, *flags]))
    assert corpus_digest(invocations, keys) == DIGESTS["verify"]


def test_decompose_input_output_digest(tmp_path):
    """decompose --input on built families fed back, circulant families
    with edges missing or doubled, no cycles at all and malformed input;
    keyed by input name, not by the temporary path."""
    texts = {}
    for source in (["--p", "29"], ["--p", "401"], ["--builtin", "105"]):
        out = json.loads(run_main(["decompose", *source])[1])
        texts["_".join(source).strip("-")] = json.dumps({"n": out["n"], "cycles": out["cycles"]})
    texts |= {name: json.dumps(obj) for name, obj in DECOMPOSE_INPUTS.items()}
    texts |= VERIFY_TEXTS
    invocations, keys = [], []
    for name, text in texts.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        invocations.append(["decompose", "--input", str(path)])
        keys.append(f"decompose {name}")
    assert corpus_digest(invocations, keys) == DIGESTS["decompose_input"]
