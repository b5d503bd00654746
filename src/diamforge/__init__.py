"""Maximum-diameter triangle complexes and Hamilton-square packings.

The core codec certifies (labels, layout) walks, and ``_walks`` turns them
into triangles and joins them; generating sequences build the long circular
walks; the assembly layer cuts and extends them into diameter-optimal
complexes for every vertex count; hampack partitions complete graphs into
squares of Hamilton cycles; the oracle brute-forces tiny orders as
independent ground truth.

Each layer module is bound here, and sits in ``sys.modules``, from the
start, but its code runs on first attribute access
(:class:`importlib.util.LazyLoader`), so a program compiles only the layers
it uses.  The re-exported names resolve through the module ``__getattr__``.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Each re-exported name by the layer that defines it.
_EXPORTS = {
    "core": ("Certificate", "LabelsLayout", "certify", "hs_max_diameter"),
    "genseq": ("GeneratingSequence", "gs_full", "gs_missing_12", "gs_missing_1248",
               "verify_generating_sequence"),
    "assembly": ("construct_optimal", "small_table"),
    "hampack": ("SEQUENCES_105", "cycles_from_sequences", "decompose_prime",
                "verify_partition"),
    "oracle": ("SearchResult", "search_max_diameter"),
    # The part of core that a good walk does not need: construct runs it,
    # verify only on a walk that is not good.
    "_walks": ("TriangleSeq", "dual_diameter", "encode_triples", "expand_pair", "is_good"),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def _bind_lazily(layer: str):
    """Register ``diamforge.<layer>`` in ``sys.modules``, its code not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Bound as attributes here too: importing a module that is already in
# sys.modules does not set it on its package.
core, genseq, assembly, hampack, oracle, _walks = map(_bind_lazily, _EXPORTS)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
